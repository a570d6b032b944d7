"""Pure helpers of the sweep benchmark: percentiles, span arithmetic,
record digests and Chrome trace export.

Nothing here imports ``repro`` or touches the clock, so the benchmark's
own tests can pin every rule on synthetic data.

A span is a dict with ``name``, ``start``, ``end`` (seconds), ``id`` and
``parent`` (the id of the span that was open when it started, or None).
"""

from __future__ import annotations

import hashlib
import json
import statistics
from collections.abc import Iterable, Sequence

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        value = float(values[0]) if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(samples: Sequence[float]) -> "tuple[float, float, int]":
    """The highest percentile that has ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, count)``.  With ``count`` samples sorted
    ascending, the value is the ``(count - 10)``-th smallest, so exactly
    ten samples lie beyond it, and its percentile is
    ``100 * (count - 10) / count``.  With ten samples or fewer no
    percentile qualifies, and the result is ``(0.0, 0.0, count)``.
    """
    count = len(samples)
    rank = count - TAIL_BEYOND
    if rank < 1:
        return 0.0, 0.0, count
    ordered = sorted(samples)
    return float(ordered[rank - 1]), 100.0 * rank / count, count


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[dict]) -> dict:
    """Span id -> its duration minus the part its children cover.

    Children are clipped to their parent's interval before their union
    is taken, so overlapping or overhanging children are never counted
    twice and self time is never negative.
    """
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = _union_length(
            (max(start, c["start"]), min(end, c["end"]))
            for c in children.get(span["id"], ())
            if c["end"] > start and c["start"] < end)
        result[span["id"]] = max(0.0, (end - start) - covered)
    return result


def layer_self_times(spans: Sequence[dict]) -> dict:
    """Span name -> summed self time of every span with that name."""
    own = self_times(spans)
    totals: dict = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
    return totals


def coverage(spans: Sequence[dict], wall_s: float) -> float:
    """Summed self time of all layers ÷ the wall time they ran in."""
    if wall_s <= 0:
        return 0.0
    return sum(self_times(spans).values()) / wall_s


#: The burst time of ``hostspeed.burst`` that corrected times refer to:
#: about its median on the machine the baseline was measured on.
REFERENCE_BURST_S = 150e-6
#: Probe samples a speed factor uses at least, even for a short interval.
MIN_PROBE_SAMPLES = 10


def trimmed_mean(values: Sequence[float], cut: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``cut`` share."""
    ordered = sorted(values)
    drop = int(len(ordered) * cut)
    kept = ordered[drop:len(ordered) - drop]
    return sum(kept) / len(kept)


def speed_factor(samples: dict, cpus: Iterable[int], start: float,
                 end: float) -> float:
    """``REFERENCE_BURST_S`` ÷ the probes' burst time over ``[start, end]``.

    ``samples`` maps each CPU to its probe's ``(time, burst seconds)``
    pairs in time order.  Per CPU in ``cpus``, the burst time is the 10%
    trimmed mean of the samples taken in the interval, or of the
    ``MIN_PROBE_SAMPLES`` taken nearest its middle when it holds fewer;
    those are averaged over the CPUs.  A wall time times this factor is
    the time at the host speed where one burst takes the reference.
    """
    bursts = []
    for cpu in cpus:
        series = samples.get(cpu, [])
        inside = [took for at, took in series if start <= at <= end]
        if len(inside) < MIN_PROBE_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(series, key=lambda s: abs(s[0] - middle))
            inside = [took for _, took in nearest[:MIN_PROBE_SAMPLES]]
        if not inside:
            raise ValueError(f"no host-speed probe samples for CPU {cpu}")
        bursts.append(trimmed_mean(inside))
    return REFERENCE_BURST_S / (sum(bursts) / len(bursts))


def records_digest(records: Iterable[dict]) -> str:
    """SHA-256 of the trial records, independent of completion order.

    Each record is serialized with sorted keys and the lines are hashed
    in sorted order, so neither the order records arrived in nor the key
    order of a dict changes the digest.
    """
    lines = sorted(json.dumps(record, sort_keys=True, separators=(",", ":"))
                   for record in records)
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def chrome_trace(spans: Sequence[dict]) -> dict:
    """Spans as Chrome trace-event JSON (complete events), for Perfetto.

    Each run id becomes its own process row; times are microseconds.
    """
    pids: dict = {}
    events = []
    for span in spans:
        pid = pids.setdefault(span["run"], len(pids) + 1)
        events.append({
            "name": span["name"], "cat": span["name"].split(".")[0],
            "ph": "X", "pid": pid, "tid": 1,
            "ts": span["start"] * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "args": {"id": span["id"], "parent": span["parent"]},
        })
    for run, pid in pids.items():
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": run}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
