"""Tests of the benchmark's own arithmetic.

Run with ``python3 -m pytest sweepbench/tests -q`` from the repo root.
"""

import random

import pytest

from metrics import (
    MIN_PROBE_SAMPLES,
    REFERENCE_BURST_S,
    chrome_trace,
    coverage,
    layer_self_times,
    quartiles,
    records_digest,
    self_times,
    speed_factor,
    tail_percentile,
)
from run import report_rows
from tracing import Tracer


def span(id, name, start, end, parent=None, run="r"):
    return {"id": id, "name": name, "start": start, "end": end,
            "parent": parent, "run": run}


# -- tail percentile ---------------------------------------------------------

def test_tail_leaves_exactly_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    value, pct, count = tail_percentile(samples)
    assert (value, pct, count) == (90, 90.0, 100)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_is_order_independent_and_reports_rank_percentile():
    samples = [float(x) for x in range(60)]
    random.Random(3).shuffle(samples)
    value, pct, count = tail_percentile(samples)
    assert value == 49.0
    assert pct == pytest.approx(100 * 50 / 60)
    assert count == 60


def test_tail_needs_more_than_ten_samples():
    assert tail_percentile([1.0] * 10) == (0.0, 0.0, 10)
    assert tail_percentile([]) == (0.0, 0.0, 0)
    assert tail_percentile([5.0] * 10 + [7.0]) == (5.0, 100 / 11, 11)


# -- self time ---------------------------------------------------------------

def tree():
    # sweep [0, 10] > trial [1, 5] > (sim [2, 4], store [4, 4.5])
    #               > trial [6, 9] > sim [6, 8.5]
    return [span(0, "sweep", 0.0, 10.0),
            span(1, "trial", 1.0, 5.0, parent=0),
            span(2, "sim", 2.0, 4.0, parent=1),
            span(3, "store", 4.0, 4.5, parent=1),
            span(4, "trial", 6.0, 9.0, parent=0),
            span(5, "sim", 6.0, 8.5, parent=4)]


def test_self_time_subtracts_children():
    own = self_times(tree())
    assert own == pytest.approx({0: 3.0, 1: 1.5, 2: 2.0, 3: 0.5,
                                 4: 0.5, 5: 2.5})


def test_self_time_clips_and_merges_overlapping_children():
    spans = [span(0, "a", 0.0, 4.0),
             span(1, "b", 1.0, 3.0, parent=0),
             span(2, "b", 2.0, 5.0, parent=0)]  # overlaps b, overhangs a
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_layer_self_times_sum_by_name():
    totals = layer_self_times(tree())
    assert totals == pytest.approx({"sweep": 3.0, "trial": 2.0,
                                    "sim": 4.5, "store": 0.5})


# -- coverage ----------------------------------------------------------------

def test_coverage_is_union_of_spans_over_wall_time():
    # Self times partition each root's interval, so the sum is the
    # root's length: 10 s of a 12.5 s wall time.
    assert coverage(tree(), 12.5) == pytest.approx(0.8)


def test_coverage_counts_disjoint_roots_once_each():
    spans = [span(0, "python.start", 0.0, 0.5),
             span(1, "cli.import", 0.5, 1.0),
             span(2, "sweep", 2.0, 4.0),
             span(3, "sim", 2.5, 3.5, parent=2)]
    assert coverage(spans, 4.0) == pytest.approx(3.0 / 4.0)
    assert coverage(spans, 0.0) == 0.0


# -- digest ------------------------------------------------------------------

def test_digest_ignores_record_order_and_key_order():
    records = [{"id": f"{i:04x}", "n": 8, "trial": i, "output": i % 2}
               for i in range(50)]
    shuffled = records[:]
    random.Random(7).shuffle(shuffled)
    reordered_keys = [dict(reversed(list(r.items()))) for r in shuffled]
    assert records_digest(records) == records_digest(shuffled)
    assert records_digest(records) == records_digest(reordered_keys)


def test_digest_sees_any_changed_value():
    records = [{"id": "a", "interactions": 10}, {"id": "b", "interactions": 7}]
    changed = [{"id": "a", "interactions": 10}, {"id": "b", "interactions": 8}]
    assert records_digest(records) != records_digest(changed)
    assert records_digest(records) != records_digest(records[:1])


# -- host-speed correction ---------------------------------------------------

def probe(times, burst):
    return [(t, burst(t) if callable(burst) else burst) for t in times]


def test_speed_factor_rescales_to_the_reference_burst():
    samples = {0: probe(range(100), 2 * REFERENCE_BURST_S)}
    assert speed_factor(samples, [0], 10, 60) == pytest.approx(0.5)


def test_speed_factor_uses_the_interval_and_trims_outliers():
    slow = 3 * REFERENCE_BURST_S

    def burst(t):
        if t == 30:  # one preempted burst inside the interval
            return 100 * REFERENCE_BURST_S
        return slow if t < 20 else REFERENCE_BURST_S

    samples = {0: probe(range(100), burst)}
    assert speed_factor(samples, [0], 20, 59) == pytest.approx(1.0)


def test_speed_factor_takes_nearest_samples_for_a_short_interval():
    samples = {0: probe(range(100), lambda t: (1 + (t >= 50))
                        * REFERENCE_BURST_S)}
    # Holds one sample; the ten nearest its middle straddle t = 50.
    assert MIN_PROBE_SAMPLES == 10
    factor = speed_factor(samples, [0], 49.6, 50.4)
    assert factor == pytest.approx(1 / 1.5)


def test_speed_factor_averages_cpus_and_needs_samples():
    samples = {0: probe(range(50), REFERENCE_BURST_S),
               1: probe(range(50), 3 * REFERENCE_BURST_S)}
    assert speed_factor(samples, [0, 1], 0, 49) == pytest.approx(0.5)
    assert speed_factor(samples, [1], 0, 49) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        speed_factor({0: []}, [0], 0, 1)


# -- the rest of the arithmetic ---------------------------------------------

def test_quartiles_match_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_tracer_nests_spans_and_times_each_wait():
    tracer = Tracer(spans=True)

    inner = tracer.wrap("inner", lambda: 10)
    outer = tracer.wrap("outer", lambda: inner() + sum(
        tracer.timed_iter("wait", iter([1, 2, 3]))))
    assert outer() == 16
    spans = tracer.export(0.0, "r")
    names = [(s["name"], s["parent"]) for s in spans]
    assert names == [("outer", None), ("inner", 0), ("wait", 0),
                     ("wait", 0), ("wait", 0), ("wait", 0)]
    assert tracer.pool_results == 3
    assert all(s["end"] >= s["start"] for s in spans)


def test_chrome_trace_has_one_complete_event_per_span():
    events = chrome_trace(tree())["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == 6
    assert complete[1]["ts"] == 1e6 and complete[1]["dur"] == 4e6


def test_report_rows_reads_every_table():
    text = """plan     : 6 trials (6 executed, 0 resumed)
experiment 0123abcd: parity  (ns=[8, 16], trials=3)
       n    engine  trials  mean converged_at      stderr   rate
       8   batched       3             10.00        1.00   1.00
      16   batched       3             20.00        2.00   1.00
fitted exponent: 1.000  (log-div: 1.000)
experiment 0123abcd: parity  (ns=[8], trials=3)
       n  trials  mean converged_at      stderr
       8       2             10.00        1.00
"""
    assert report_rows(text) == [(8, 3), (16, 3), (8, 2)]
