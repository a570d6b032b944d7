"""Sweep benchmark: real ``repro exp run`` sweeps, end to end and per layer.

Usage, from the root of a checkout::

    python3 sweepbench/run.py --workload NAME [--seed N] [--seconds S]
                              [--trace 0|1]

One repetition launches a fresh interpreter (``child.py``) that runs the
workload's sweeps through ``repro.cli.main`` into fresh stores, then a
second fresh interpreter that runs ``repro exp report`` over them.
Repetitions continue while the next one is expected to end within
``--seconds`` (at least ``MIN_REPS`` of them), and every metric is the
median over repetitions.

Each end-to-end time is corrected for the shared host's speed: one probe
per CPU (``hostspeed.py``) times a fixed burst of Python every 25 ms,
and a measured interval is rescaled by :func:`metrics.speed_factor` of
the bursts taken meanwhile on the CPUs it ran on.  Sweeps that run
in-process, and every ``exp report``, are pinned to one CPU for this;
sweeps with worker processes use the mean over all CPUs.

Every repetition is checked: each trial's output against the registry
ground truth, the records' digest against the one pinned for the
default seed, the records against the first repetition's (same seed,
same bytes), and the report tables against the stores.  A failure makes
``correct`` false and the exit code 1.

``--trace 1`` alternates untraced and traced repetitions.  The traced
one records a span around every call into each layer (``tracing.py``),
runs ``exp report`` in the same interpreter after the sweep, and prints
the per-layer metrics; spans go to ``.sweepbench/traces/`` as JSONL and
as Chrome trace-event JSON.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this
directory for the metrics, the workloads and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from hostspeed import Probes, probe_cpus
from metrics import (
    chrome_trace,
    coverage,
    layer_self_times,
    median,
    quartiles,
    records_digest,
    speed_factor,
    tail_percentile,
)
from tracing import now
from workloads import DEFAULT_SEED, DIGESTS, WORKLOADS, check_records

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".sweepbench"

#: Repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3
MAX_REPS = 40
#: Every process of a run must have ended this long after it started.
DEADLINE_S = 170.0

END_TO_END = {
    "sweep_s": "s", "setup_s": "s", "first_record_s": "s",
    "trials_per_s": "1/s", "interactions_per_s": "1/s", "report_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer time metric -> the span names whose self times it sums.
LAYER_TIMES = {
    "python.start_s": ["python.start"],
    "cli.import_s": ["cli.import"],
    "cli.parse_s": ["cli.parse"],
    "cli.command_s": ["cli.command"],
    "spec.validate_s": ["spec.validate", "spec.hash"],
    "store.open_s": ["store.open"],
    "store.append_s": ["store.append"],
    "runner.self_s": ["runner.sweep", "runner.trial"],
    "compile.build_s": ["compile.build"],
    "compile.compile_s": ["compile.compile"],
    "sim.construct_s": ["sim.construct"],
    "sim.run_s": ["sim.run"],
    "dispatch.spawn_s": ["dispatch.spawn"],
    "dispatch.install_s": ["dispatch.install"],
    "dispatch.wait_s": ["dispatch.run", "dispatch.wait"],
    "report.aggregate_s": ["report.aggregate"],
    "report.format_s": ["report.format"],
}

#: Per-layer metrics of the JSON result: each is measured on every
#: workload.
PER_LAYER = {
    "python.start_s": "s", "cli.import_s": "s", "cli.parse_s": "s",
    "cli.command_s": "s", "spec.validate_s": "s", "store.open_s": "s",
    "store.append_s": "s", "store.appends": "count",
    "store.bytes_written": "bytes", "runner.self_s": "s",
    "runner.trial_samples": "count", "compile.cache_hits": "count",
    "compile.cache_misses": "count", "sim.interactions": "count",
    "dispatch.tasks": "count", "fleet.memo_hits": "count",
    "fleet.shm_results": "count", "fleet.pipe_results": "count",
    "supervision.retries": "count", "supervision.respawns": "count",
    "report.aggregate_s": "s", "report.format_s": "s",
    "trace.sweep_s": "s", "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

#: Printed with the per-layer metrics but kept out of the JSON result.
#: Each times a layer that some workload never calls in the traced
#: process (dispatch in-process, simulation in workers), where it reads
#: exactly 0.0 on every run.
PRINTED_ONLY = {
    "compile.build_s": "s", "compile.compile_s": "s",
    "sim.construct_s": "s", "sim.run_s": "s", "sim.ips": "1/s",
    "dispatch.spawn_s": "s", "dispatch.install_s": "s",
    "dispatch.wait_s": "s", "runner.trial_p50_s": "s",
    "runner.trial_tail_s": "s", "runner.trial_tail_pct": "%",
}


class RepFailed(Exception):
    """A repetition could not be measured (a process failed)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _launch(rep: Path, tag: str, commands: dict, deadline: float, *,
            cpus: "set | None" = None,
            spans: "str | None" = None) -> tuple[float, dict]:
    """Run ``child.py`` to completion; ``(launch time, its marks)``.

    ``cpus``, when given, pins the process to those CPUs from its start.
    """
    (rep / f"{tag}.commands.json").write_text(json.dumps(commands))
    argv = [sys.executable, str(HERE / "child.py"),
            "--commands", str(rep / f"{tag}.commands.json"),
            "--stdout", str(rep / f"{tag}.out"),
            "--marks", str(rep / f"{tag}.marks.json")]
    if spans is not None:
        argv += ["--spans", str(rep / f"{tag}.spans.jsonl"), "--run", spans]
    launch = now()
    proc = subprocess.Popen(argv + ["--launch", repr(launch)], env=_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True,
                            preexec_fn=(None if cpus is None else
                                        lambda: os.sched_setaffinity(0, cpus)))
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        err = b"timed out"
    finally:
        # The child reaps its own workers; this stops any it left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RepFailed(f"{tag} process exited {proc.returncode}: "
                        + err.decode("utf-8", "replace").strip()[-2000:])
    marks = json.loads((rep / f"{tag}.marks.json").read_text())
    return launch, marks


def _read_store(path: str) -> tuple[dict, list, list]:
    spec, records, failures = None, [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["kind"] == "spec":
                spec = record["spec"]
            elif record["kind"] == "trial":
                records.append(record)
            else:
                failures.append(record)
    return spec, records, failures


def report_rows(text: str) -> list[tuple[int, int]]:
    """``(n, trials)`` of every row of every report table in ``text``."""
    rows, column = [], None
    for line in text.splitlines():
        tokens = line.split()
        if tokens and tokens[0] == "n" and "trials" in tokens:
            column = tokens.index("trials")
        elif column is not None and tokens and tokens[0].isdigit():
            rows.append((int(tokens[0]), int(tokens[column])))
        else:
            column = None
    return rows


class Run:
    """One benchmark run: repetitions of one workload at one seed."""

    def __init__(self, workload, seed: int, work: Path, deadline: float,
                 cpus: list):
        self.workload = workload
        #: In-process sweeps and every report run pinned to one CPU, so
        #: that CPU's probe alone tells how fast the host ran them.
        self.pinned = {cpus[0]}
        self.sweep_cpus = ({cpus[0]} if workload.in_process
                           else set(cpus))
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: "str | None" = None
        self.pinned_digest = (DIGESTS.get(workload.name)
                              if seed == DEFAULT_SEED else None)

    def _check(self, stores: list, outputs: list) -> tuple[int, int]:
        """Verify one repetition; ``(trials, interactions)`` it recorded.

        ``outputs`` pairs each captured standard output with the number
        of times it should show every store's report table.
        """
        all_records, rows, failed = [], [], set()
        for store in stores:
            spec, records, failures = _read_store(store)
            failed.update(check_records(spec, records, failures))
            all_records += records
            rows += [(n, sum(1 for r in records if r["n"] == n))
                     for n in spec["ns"]]
        digest = records_digest(all_records)
        if self.digest is None:
            self.digest = digest
        problem = None
        if self.pinned_digest is not None and digest != self.pinned_digest:
            problem = (f"digest {digest} differs from pinned "
                       f"{self.pinned_digest}")
        elif digest != self.digest:
            problem = "records differ from the first repetition's"
        elif any(report_rows(text) != rows * copies
                 for text, copies in outputs):
            problem = "a report table does not match its store"
        planned = self.workload.plan_trials
        self.attempted += planned
        if problem is not None:
            self.problems.append(problem)
            self.failed += planned
        elif failed:
            self.problems.append(
                f"{len(failed)} trials failed, e.g. {sorted(failed)[0]}")
            self.failed += len(failed)
        return len(all_records), sum(r["interactions"] for r in all_records)

    def repetition(self, index: int, traced: bool) -> dict:
        rep = self.work / f"rep{index}{'t' if traced else ''}"
        rep.mkdir()
        stores = [str(rep / f"sweep{i}.jsonl")
                  for i in range(len(self.workload.sweeps))]
        sweeps = self.workload.commands(self.seed, stores)
        reports = [["exp", "report", "--store", store] for store in stores]
        run_id = f"{self.workload.name}/seed{self.seed}/rep{index}"
        try:
            if traced:
                launch, marks = _launch(
                    rep, "sweep", {"timed": sweeps, "after": reports},
                    self.deadline, cpus=self.sweep_cpus, spans=run_id)
                trials, interactions = self._check(
                    stores, [((rep / "sweep.out").read_text(), 2)])
                return self._layers(rep, stores, launch, marks, trials,
                                    interactions)
            launch, marks = _launch(rep, "sweep", {"timed": sweeps},
                                    self.deadline, cpus=self.sweep_cpus)
            report_launch, report_marks = _launch(
                rep, "report", {"timed": reports}, self.deadline,
                cpus=self.pinned)
        except RepFailed as exc:
            self.attempted += self.workload.plan_trials
            self.failed += self.workload.plan_trials
            self.problems.append(str(exc))
            return {}
        trials, interactions = self._check(
            stores, [((rep / "sweep.out").read_text(), 1),
                     ((rep / "report.out").read_text(), 1)])
        return {
            "sweep": (launch, marks["end"]),
            "setup": (launch, marks["run_enter"][0]),
            "first_record": (launch, marks["first_record"]),
            "runs": list(zip(marks["run_enter"], marks["run_exit"])),
            "report": (report_launch, report_marks["end"]),
            "trials": trials,
            "interactions": interactions,
            "peak_rss_mb": (marks["rss_self_kb"]
                            + marks["rss_children_kb"]) / 1024.0,
        }

    def end_to_end(self, rep: dict, samples: dict) -> dict:
        """A plain repetition's metrics, every time corrected to the
        reference host speed by the probes of the CPUs it ran on."""
        def corrected(interval, cpus=self.sweep_cpus):
            start, end = interval
            return (end - start) * speed_factor(samples, cpus, start, end)

        run_s = sum(corrected(interval) for interval in rep["runs"])
        return {
            "sweep_s": corrected(rep["sweep"]),
            "setup_s": corrected(rep["setup"]),
            "first_record_s": corrected(rep["first_record"]),
            "trials_per_s": rep["trials"] / run_s,
            "interactions_per_s": rep["interactions"] / run_s,
            "report_s": corrected(rep["report"], self.pinned),
            "peak_rss_mb": rep["peak_rss_mb"],
            "wall_sweep_s": rep["sweep"][1] - rep["sweep"][0],
        }

    def _layers(self, rep: Path, stores: list, launch: float, marks: dict,
                trials: int, interactions: int) -> dict:
        spans = [json.loads(line) for line in
                 (rep / "sweep.spans.jsonl").read_text().splitlines()]
        sweep_s = marks["end"] - launch
        swept = [s for s in spans if s["start"] < sweep_s]
        totals = layer_self_times(spans)
        layers = {metric: sum(totals.get(name, 0.0) for name in names)
                  for metric, names in LAYER_TIMES.items()}
        durations = [s["end"] - s["start"] for s in swept
                     if s["name"] == "runner.trial"]
        tail, tail_pct, samples = tail_percentile(durations)
        fleets = [r["fleet"] for r in marks["results"] if r["fleet"]]
        supervised = [r["supervision"] for r in marks["results"]
                      if r["supervision"]]
        layers.update({
            "store.appends": sum(1 for s in swept
                                 if s["name"] == "store.append"),
            "store.bytes_written": sum(os.path.getsize(s) for s in stores),
            "runner.trial_p50_s": median(durations),
            "runner.trial_tail_s": tail,
            "runner.trial_tail_pct": tail_pct,
            "runner.trial_samples": samples,
            "compile.cache_hits": marks["compile_cache"].get("hits", 0),
            "compile.cache_misses": marks["compile_cache"].get("misses", 0),
            "sim.interactions": interactions,
            "sim.ips": (interactions / layers["sim.run_s"]
                        if layers["sim.run_s"] > 0 else 0.0),
            "dispatch.tasks": (marks["pool_results"]
                               + sum(s["tasks"] for s in supervised)),
            "fleet.memo_hits": sum(f["memo_hits"] for f in fleets),
            "fleet.shm_results": sum(f["shm_results"] for f in fleets),
            "fleet.pipe_results": sum(f["pipe_results"] for f in fleets),
            "supervision.retries": sum(s["retries"] for s in supervised),
            "supervision.respawns": sum(f["respawns"] for f in fleets),
            "trace.sweep_s": sweep_s,
            "trace.coverage": coverage(swept, sweep_s),
        })
        return {"layers": layers, "spans": spans,
                "sweep": (launch, marks["end"])}


def _summary(name: str, unit: str, values: list) -> str:
    q1, mid, q3 = quartiles(values)
    return (f"{name:<24} {mid:>14.6g} {unit:<6} "
            f"(median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})")


def _write_traces(name: str, seed: int, spans: list) -> Path:
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    base = traces / f"{name}-seed{seed}"
    with open(f"{base}.spans.jsonl", "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    Path(f"{base}.trace.json").write_text(json.dumps(chrome_trace(spans)))
    return base


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = now()
    deadline = started + DEADLINE_S
    workload = WORKLOADS[opts.workload]
    cpus = probe_cpus()
    probes = Probes(cpus)
    try:
        # Byte-compile once up front: users do not pay that on every run.
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(SRC / "repro"), str(HERE)],
                       check=True, stdout=subprocess.DEVNULL, env=_env())
        OUT.mkdir(exist_ok=True)
        plain, traced = [], []
        with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
            run = Run(workload, opts.seed, Path(work), deadline, cpus)
            index, took = 0, []
            while index < MAX_REPS:
                began = now()
                plain.append(run.repetition(index, traced=False))
                if opts.trace:
                    traced.append(run.repetition(index, traced=True))
                index += 1
                took.append(now() - began)
                # Stop before the next repetition would run past --seconds.
                if run.problems or (index >= MIN_REPS - opts.trace and now()
                                    - started + median(took) > opts.seconds):
                    break
    finally:
        samples = probes.stop()
    if not run.problems:
        try:
            plain = [run.end_to_end(rep, samples) for rep in plain]
        except ValueError as exc:
            run.problems.append(str(exc))

    print(f"workload {workload.name}, seed {opts.seed}: {index} "
          f"repetition(s), {run.attempted} trials checked")
    if run.digest is not None:
        print(f"records digest {run.digest}")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    metrics = {}
    if not run.problems and opts.trace:
        layered = [t["layers"] for t in traced]
        for name, unit in {**PER_LAYER, **PRINTED_ONLY}.items():
            if name == "trace.overhead_s":
                values = [(t["sweep"][1] - t["sweep"][0]) * speed_factor(
                              samples, run.sweep_cpus, *t["sweep"])
                          - p["sweep_s"] for t, p in zip(traced, plain)]
            else:
                values = [layers[name] for layers in layered]
            print(_summary(name, unit, values))
            if name in PER_LAYER:
                metrics[name] = {"value": median(values), "unit": unit}
        spans = [span for t in traced for span in t["spans"]]
        base = _write_traces(workload.name, opts.seed, spans)
        print(f"spans: {base}.spans.jsonl, {base}.trace.json")
    elif not run.problems:
        for name, unit in END_TO_END.items():
            values = [rep[name] for rep in plain]
            print(_summary(name, unit, values))
            metrics[name] = {"value": median(values), "unit": unit}
        print(_summary("uncorrected sweep_s", "s",
                       [rep["wall_sweep_s"] for rep in plain]))
    share = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'failed_share':<24} {share:>14.6g} {'ratio':<6} "
          f"({run.failed} of {run.attempted} trials)")
    correct = not run.problems and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
