"""Experiment orchestration: declarative sweeps, parallel workers,
resumable result stores, and aggregation/reporting.

The paper's quantitative claims (Sect. 6) are statements about sweeps —
many seeds x many population sizes x many protocols.  This package runs
them as data instead of bespoke loops:

* :mod:`repro.exp.spec` — :class:`ExperimentSpec`, the declarative sweep
  description with a stable content hash;
* :mod:`repro.exp.runner` — order-independent seeded execution,
  in-process or across worker processes;
* :mod:`repro.exp.store` — append-only JSONL store making sweeps
  resumable at trial granularity;
* :mod:`repro.exp.supervise` — the one scheduling loop under every
  sweep that leaves the parent process: per-trial timeouts, retry with
  backoff, crashed-worker respawn, and poison-trial quarantine (enabled
  by a non-default :class:`ExecutionPolicy`);
* :mod:`repro.exp.fleet` — the warm worker processes that loop runs
  on: install-once spec broadcast and shared-memory result transport,
  plus, for a persistent fleet (``exp run --keep-warm``), cross-sweep
  process reuse and content-addressed trial memoization;
* :mod:`repro.exp.report` — per-point aggregates, scaling tables with
  log-log exponent fits, CSV export, failure summaries;
* :mod:`repro.exp.bench` — engine kernel benchmarks and the
  perf-regression gate behind ``python -m repro bench``.

Exposed on the command line as ``python -m repro exp run`` /
``python -m repro exp report``.
"""

from repro.exp.bench import (
    compare_to_baseline,
    load_bench_file,
    run_fleet_benchmarks,
    run_kernel_benchmarks,
    run_supervision_benchmark,
    speedup_summary,
    write_bench_file,
)
from repro.exp.fleet import (
    WorkerFleet,
    fleet_report,
    get_fleet,
    shutdown_fleet,
)
from repro.exp.report import (
    PointAggregate,
    aggregate,
    failure_summary,
    format_report,
    report_dict,
    scaling,
    summary_csv,
    trials_csv,
)
from repro.exp.runner import (
    ExperimentResult,
    SweepPoint,
    plan_size,
    run_experiment,
    run_trial,
    sweep_points,
    trial_id,
    trial_seeds,
)
from repro.exp.spec import (
    ExecutionPolicy,
    ExperimentSpec,
    FaultAxis,
    InputGrid,
    StopRule,
)
from repro.exp.store import ResultStore, StoreMismatch
from repro.exp.supervise import (
    SupervisionStats,
    TrialExecutionError,
    TrialTimeout,
    run_supervised,
)

__all__ = [
    "ExperimentSpec",
    "InputGrid",
    "FaultAxis",
    "StopRule",
    "ExecutionPolicy",
    "SweepPoint",
    "sweep_points",
    "trial_id",
    "trial_seeds",
    "run_trial",
    "run_experiment",
    "ExperimentResult",
    "plan_size",
    "ResultStore",
    "StoreMismatch",
    "SupervisionStats",
    "TrialExecutionError",
    "TrialTimeout",
    "run_supervised",
    "PointAggregate",
    "aggregate",
    "scaling",
    "format_report",
    "report_dict",
    "failure_summary",
    "trials_csv",
    "summary_csv",
    "WorkerFleet",
    "get_fleet",
    "shutdown_fleet",
    "fleet_report",
    "run_kernel_benchmarks",
    "run_supervision_benchmark",
    "run_fleet_benchmarks",
    "speedup_summary",
    "write_bench_file",
    "load_bench_file",
    "compare_to_baseline",
]
