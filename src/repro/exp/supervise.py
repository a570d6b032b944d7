"""Supervised sweep execution: timeouts, retries, crash recovery.

:func:`run_supervised` is the one scheduling loop under every sweep
that leaves the parent process: it hands tasks to worker processes (the
warm workers of :mod:`repro.exp.fleet`, whether a persistent fleet or a
per-call set), reads their replies, and makes the failure modes of the
paper's *environment* — a worker wedged in C code, a SIGKILLed (or
OOM-killed) worker, a raising trial — first-class, *recorded* events
instead of a stalled sweep or lost stderr.

Mechanisms, in the order they engage:

1. **Per-trial wall-clock timeout** (``ExecutionPolicy.timeout_s``),
   enforced twice.  A worker-side ``SIGALRM`` interrupts pure-Python
   hangs exactly at the budget; because a signal cannot interrupt a
   long-running C/numpy call, the parent additionally tracks a deadline
   (budget plus a grace period) and SIGKILLs + respawns any worker that
   blows through it.
2. **Retry with exponential backoff + jitter** — attempt ``k`` of a
   failed trial waits ``backoff * 2**(k-1)`` seconds scaled by a jitter
   factor in ``[0.5, 1.5)`` derived deterministically from the trial id
   (no wall-clock entropy enters any record).  Retried trials reuse
   their identity-derived seeds, so a success after a crash is
   byte-identical to a first-try success.
3. **Crashed-worker recovery** — each worker has its own pipe, so a
   dying worker is detected by EOF (or a liveness poll), its single
   in-flight task is resubmitted under the retry policy, and a fresh
   worker takes its slot.  The sweep never hangs on a dead worker.
4. **Poison-trial quarantine** — a trial that exhausts
   ``max_attempts`` is disposed of per ``on_error``: ``raise`` aborts
   the sweep with a :class:`TrialExecutionError` carrying the remote
   traceback, ``skip`` drops it, ``quarantine`` emits a structured
   ``trial-failure`` record (exception type, message, traceback, full
   attempt history, seeds, spec hash) that the runner fsyncs into the
   ResultStore — failures are resumable data, not lost output.

Determinism: supervision never touches seed derivation — every trial's
seeds remain a pure function of ``(spec hash, point, trial)`` — so the
set of *successful* records is byte-identical to an unfailed,
in-process run, whatever crashed, hung, or retried along the way.
"""

from __future__ import annotations

import pickle
import random
import time
import multiprocessing
import multiprocessing.connection
from collections import deque
from dataclasses import dataclass, field

from repro.util.rng import derive_seed

#: Hard ceiling on a single backoff delay, in seconds.
MAX_BACKOFF_S = 30.0

#: Extra wall-clock the parent grants past ``timeout_s`` before killing
#: a worker: the worker-side alarm should fire first; the parent-side
#: deadline only catches workers wedged in uninterruptible C code.
def _grace_s(timeout_s: float) -> float:
    return max(0.25, 0.5 * timeout_s)


class TrialTimeout(Exception):
    """Raised inside a worker when a trial exceeds its wall-clock budget."""


class TrialExecutionError(RuntimeError):
    """A trial exhausted its attempt budget under ``on_error: "raise"``.

    Carries the structured failure record (the same shape ``quarantine``
    would have stored) as :attr:`failure`.
    """

    def __init__(self, failure: dict):
        self.failure = failure
        attempts = failure.get("attempts", [])
        super().__init__(
            f"trial {failure.get('id')} (n={failure.get('n')}, "
            f"trial {failure.get('trial')}) failed after "
            f"{len(attempts)} attempt(s): [{failure.get('error_type')}] "
            f"{failure.get('message')}")


@dataclass
class SupervisionStats:
    """Counters describing what supervision had to do during a sweep."""

    tasks: int = 0
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    errors: int = 0
    quarantined: int = 0
    skipped: int = 0

    def to_dict(self) -> dict:
        return {"tasks": self.tasks, "attempts": self.attempts,
                "retries": self.retries, "timeouts": self.timeouts,
                "crashes": self.crashes, "errors": self.errors,
                "quarantined": self.quarantined, "skipped": self.skipped}

    @property
    def clean(self) -> bool:
        """True when no retry, failure, or kill happened at all."""
        return self.attempts == self.tasks and not self.quarantined \
            and not self.skipped


@dataclass
class SupervisedTask:
    """One unit of supervised work: some trials of one sweep point.

    ``kind`` ``"trial"`` runs ``trials`` one by one through
    :func:`~repro.exp.runner.run_trial`; ``"ensemble"`` / ``"fluid"``
    run them as one point batch.  Trial identities (ids, seeds) are
    derived from ``(spec hash, point, trial)`` only when a failure
    record needs them.
    """

    kind: str  # "trial" | "ensemble" | "fluid"
    point: object  # repro.exp.runner.SweepPoint
    trials: tuple
    attempts: list = field(default_factory=list)
    #: Monotonic time before which the task may not be (re)dispatched.
    not_before: float = 0.0


def _mp_context():
    """Fork where available: workers inherit in-process registrations
    (e.g. test-only protocols) and start an order of magnitude faster."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _jitter(task_key: str, attempt: int) -> float:
    """Deterministic retry jitter in [0.5, 1.5) keyed by task identity."""
    rng = random.Random(derive_seed(task_key, "backoff", attempt))
    return 0.5 + rng.random()


def backoff_delay(policy, task_key: str, attempt: int) -> float:
    """Seconds to wait before attempt ``attempt + 1`` of ``task_key``."""
    if policy.backoff <= 0:
        return 0.0
    delay = policy.backoff * (2.0 ** (attempt - 1)) * _jitter(task_key,
                                                              attempt)
    return min(delay, MAX_BACKOFF_S)


def _task_key(task: SupervisedTask, spec_hash: str) -> str:
    """Backoff identity: the trial id of a trial task, the point label
    of a point batch.  (Retries exist only under a non-default policy,
    where a trial task holds exactly one trial.)"""
    from repro.exp.runner import trial_id

    if task.kind == "trial":
        return trial_id(spec_hash, task.point, task.trials[0])
    return task.point.key


def failure_records(task: SupervisedTask, spec_hash: str) -> list[dict]:
    """Structured ``trial-failure`` records for a quarantined task.

    One record per covered trial (an ensemble batch quarantines every
    trial of its point), each carrying the shared attempt history.
    """
    from repro.exp.runner import trial_id, trial_seeds

    point = task.point
    last = task.attempts[-1] if task.attempts else {}
    records = []
    for trial in task.trials:
        engine_seed, fault_seed = trial_seeds(spec_hash, point, trial)
        record = {
            "kind": "trial-failure",
            "id": trial_id(spec_hash, point, trial),
            "n": point.n,
            "intensity": point.intensity,
            "trial": trial,
            "engine_seed": engine_seed,
            "fault_seed": fault_seed,
            "spec_hash": spec_hash,
            "error_type": last.get("error_type"),
            "message": last.get("message"),
            "traceback": last.get("traceback"),
            "attempts": [
                {k: v for k, v in attempt.items() if k != "traceback"}
                for attempt in task.attempts],
        }
        if point.scheduler is not None:
            record["scheduler"] = point.scheduler
        records.append(record)
    return records


def run_supervised(tasks, *, policy, spec_hash: str, workers: list,
                   respawn, on_records=None, on_failure=None,
                   poll_s: float = 0.05) -> SupervisionStats:
    """Execute ``tasks`` under ``policy`` across ``workers``.

    ``workers`` is the list of worker handles to dispatch to
    (:class:`repro.exp.fleet._FleetWorker`); ``respawn(worker)``
    replaces a dead or killed handle in that list and returns the fresh
    one.  ``on_records(list_of_records)`` fires once per successful
    task; ``on_failure(record)`` fires once per quarantined trial.
    Returns the supervision counters.  Raises
    :class:`TrialExecutionError` on the first exhausted task when
    ``policy.on_error == "raise"``; on any abort, every worker with a
    task in flight is respawned, so none with an unread reply stays in
    ``workers``.
    """
    stats = SupervisionStats(tasks=len(tasks))
    if not tasks:
        return stats
    ready: deque = deque(tasks)
    waiting: list = []  # backoff-delayed tasks, any order
    busy: dict = {}  # worker -> (task, seq, started, deadline | None)

    def dispatch(worker) -> None:
        """Hand ``worker`` the next ready task, if there is one."""
        if not ready:
            return
        task = ready.popleft()
        now = time.monotonic()
        deadline = None
        if policy.timeout_s:
            deadline = now + policy.timeout_s + _grace_s(policy.timeout_s)
        seq = worker.dispatch(task, spec_hash, policy.timeout_s)
        busy[worker] = (task, seq, now, deadline)

    def finalize_failure(task: SupervisedTask) -> None:
        if policy.on_error == "raise":
            raise TrialExecutionError(failure_records(task, spec_hash)[0])
        if policy.on_error == "skip":
            stats.skipped += len(task.trials)
            return
        stats.quarantined += len(task.trials)
        if on_failure is not None:
            for record in failure_records(task, spec_hash):
                on_failure(record)

    def failed_attempt(task: SupervisedTask, outcome: str, error_type: str,
                       message: str, elapsed: float,
                       trace: "str | None" = None) -> None:
        attempt = {"attempt": len(task.attempts) + 1, "outcome": outcome,
                   "error_type": error_type, "message": message}
        if trace is not None:
            attempt["traceback"] = trace
        attempt["elapsed_s"] = round(elapsed, 3)
        task.attempts.append(attempt)
        stats.attempts += 1
        if len(task.attempts) >= policy.max_attempts:
            finalize_failure(task)
            return
        stats.retries += 1
        task.not_before = (time.monotonic()
                           + backoff_delay(policy, _task_key(task, spec_hash),
                                           len(task.attempts)))
        waiting.append(task)

    def crashed(worker, task: SupervisedTask, started: float) -> None:
        respawn(worker)
        stats.crashes += 1
        failed_attempt(task, "crashed", "WorkerCrashed",
                       f"worker process died (exitcode "
                       f"{worker.process.exitcode})",
                       time.monotonic() - started)

    try:
        while ready or waiting or busy:
            now = time.monotonic()
            # Promote backoff-expired tasks into the ready queue.
            if waiting:
                ready.extend(t for t in waiting if t.not_before <= now)
                waiting[:] = [t for t in waiting if t.not_before > now]

            for worker in workers:
                if not ready:
                    break
                if worker not in busy:
                    dispatch(worker)

            if not busy:
                if waiting:
                    pause = min(t.not_before for t in waiting) - now
                    if pause > 0:
                        time.sleep(min(pause, poll_s * 4))
                continue

            # Wait for any reply, bounded so deadlines stay responsive.
            conns = {worker.conn: worker for worker in busy}
            for conn in multiprocessing.connection.wait(list(conns),
                                                        timeout=poll_s):
                worker = conns[conn]
                task, seq, started, _ = busy[worker]
                try:
                    reply_seq, status, detail, elapsed = worker.recv()
                except (EOFError, OSError):
                    # Worker died mid-task (SIGKILL, OOM, hard crash).
                    del busy[worker]
                    crashed(worker, task, started)
                    continue
                if reply_seq != seq:
                    # A reply to a dispatch abandoned earlier; this
                    # worker's current task is still in flight.
                    continue
                # Re-dispatch before handling the reply, so the worker
                # computes while the parent stores these records.
                del busy[worker]
                dispatch(worker)
                if status in ("ok", "ok-shm"):
                    stats.attempts += 1
                    if on_records is not None:
                        on_records(pickle.loads(detail)
                                   if status == "ok-shm" else detail)
                elif status == "timeout":
                    stats.timeouts += 1
                    failed_attempt(task, "timeout", "TrialTimeout", detail,
                                   elapsed)
                else:
                    error_type, message, trace, trial = detail
                    if trial is not None:
                        # Name the trial of a chunk that raised.  Chunks
                        # exist only under the default policy (one
                        # attempt, raise), so no retry needs the rest.
                        task.trials = (trial,)
                    stats.errors += 1
                    failed_attempt(task, "error", error_type, message,
                                   elapsed, trace)

            # Deadline and liveness sweep over the remaining busy workers.
            now = time.monotonic()
            for worker in list(busy):
                task, seq, started, deadline = busy[worker]
                if deadline is not None and now > deadline:
                    del busy[worker]
                    respawn(worker)
                    stats.timeouts += 1
                    failed_attempt(task, "timeout", "TrialTimeout",
                                   "wall-clock budget exceeded; worker "
                                   "killed by supervisor deadline",
                                   now - started)
                elif not worker.alive():
                    del busy[worker]
                    crashed(worker, task, started)
    except BaseException:
        # A worker with an unread reply must never serve another task,
        # or a later sweep could read a stale result.
        for worker in list(busy):
            respawn(worker)
        raise
    return stats
