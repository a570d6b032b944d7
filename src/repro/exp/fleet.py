"""Warm worker processes: the workers of every out-of-process sweep.

:class:`WorkerFleet` owns the worker processes that
:func:`repro.exp.supervise.run_supervised` dispatches to.  A sweep run
with ``workers > 1`` (or under a non-default execution policy) gets a
per-call fleet that is closed when the sweep ends; a *persistent* fleet
(``run_experiment(fleet=...)``, ``exp run --keep-warm``) is spawned
**once** and reused across :func:`~repro.exp.runner.run_experiment`
calls and whole campaigns.

Every fleet has:

* **Install broadcast.**  The spec is shipped to each worker once via
  an ``install`` message that parses, validates and compiles it (and
  constructs the step kernels — JIT compilation on the numba backend);
  task messages then carry only the spec *hash*, the point, and its
  trials.
* **Shared-memory result transport.**  Each worker owns a
  ``multiprocessing.shared_memory`` ring buffer; result payloads at or
  above :data:`SHM_THRESHOLD_BYTES` move through it (the parent copies
  them out on receipt), with plain pipe pickling as the fallback for
  small records and for platforms without shared memory.

A persistent fleet adds:

* **Lifetime across sweeps.**  The keyed
  :func:`~repro.sim.compiled.compile_protocol` memo, the constructed
  step kernels (numba JIT paid once per fleet lifetime, not once per
  sweep), and the installed specs persist, so back-to-back sweeps skip
  process spawn and warm-up.
* **Content-addressed trial memo.**  Trial ids are already SHA-256 over
  ``(spec hash, point, trial)`` (:func:`repro.exp.runner.trial_id`) —
  the same content-addressing the ResultStore resumes by — so the fleet
  keeps a bounded parent-side memo of finished records and serves
  byte-identical cached records for repeated or overlapping
  submissions without executing anything.

Contracts preserved exactly:

* records are **byte-identical** to ``workers=1`` in-process execution
  — the workers run the very same :func:`~repro.exp.runner.run_trial` /
  :func:`~repro.exp.runner.run_ensemble_point` /
  :func:`~repro.exp.runner.run_fluid_point` functions on the same
  identity-derived seeds;
* trial seeds stay execution-order-independent (the fleet never touches
  seed derivation);
* the supervision semantics of ``spec.execution`` apply unchanged —
  per-trial timeouts (worker alarm + parent deadline kill),
  deterministic-jitter retry, quarantine, and crashed-worker respawn,
  where a respawned worker is **re-warmed** (every installed spec is
  replayed into it before it rejoins the fleet).

This module is the performance core under the ROADMAP ``repro serve``
item: the HTTP layer will schedule jobs onto exactly this fleet.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import time
import traceback
import multiprocessing
from collections import OrderedDict
from dataclasses import dataclass

from repro.exp.supervise import (
    SupervisedTask,
    SupervisionStats,
    TrialTimeout,
    _mp_context,
    run_supervised,
)

#: Default shared-memory ring size per worker.  Payloads larger than the
#: ring fall back to pipe transport, so this is a throughput knob, not a
#: correctness bound.
DEFAULT_RING_BYTES = 1 << 20

#: Result payloads at least this large (pickled) travel through the
#: ring; smaller ones take the pipe (one pickle either way, and a pipe
#: write of a small record is cheaper than the shm round-trip).
SHM_THRESHOLD_BYTES = 32 * 1024

#: Installed specs kept per worker (and per fleet): one sweep needs one,
#: interleaved campaigns a few; the cap only bounds memory.
MAX_INSTALLED_SPECS = 8

#: Parent-side trial-memo capacity, in records.
MEMO_CAPACITY = 200_000

#: Wall-clock budget for the best-effort cache warming (compile +
#: kernel construction) inside an ``install`` message.  A protocol that
#: hangs at compile time is cut here and surfaces per-trial under the
#: normal supervision rules instead of wedging the install handshake.
_INSTALL_WARM_BUDGET_S = 60.0

#: How long the parent waits for an install acknowledgement before
#: declaring the worker dead.
_INSTALL_ACK_TIMEOUT_S = 300.0


def shared_memory_reason() -> "str | None":
    """Why ``multiprocessing.shared_memory`` cannot be used here, or None.

    Probes by actually creating (and immediately destroying) a tiny
    segment — importability alone does not prove ``/dev/shm`` works.
    """
    try:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=16)
        segment.close()
        segment.unlink()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def fleet_report() -> dict:
    """Fleet/shared-memory eligibility (the ``repro doctor`` payload).

    Reports the process start method the fleet would use, whether the
    shared-memory transport is usable, and the warm-kernel status (for
    the numba backend, a warmed kernel means JIT has been paid in this
    process; fleet workers pay it once per fleet lifetime).
    """
    from repro.sim.backends import backend_report, warmed_kernels

    methods = multiprocessing.get_all_start_methods()
    reason = shared_memory_reason()
    numba_row = next((row for row in backend_report()
                      if row["name"] == "numba"), None)
    return {
        "start_method": "fork" if "fork" in methods else methods[0],
        "shared_memory": {"available": reason is None, "reason": reason},
        "ring_bytes": DEFAULT_RING_BYTES,
        "shm_threshold_bytes": SHM_THRESHOLD_BYTES,
        "numba": {
            "available": bool(numba_row and numba_row["available"]),
            "warm_kernels": [list(pair) for pair in warmed_kernels()],
        },
    }


# -- Worker side ---------------------------------------------------------------


class _RingWriter:
    """Worker-side cursor over the parent-owned shared-memory ring.

    One task is in flight per worker at a time and the parent copies the
    payload out of the ring as soon as the reply arrives, so a plain
    wrapping cursor needs no further synchronization.
    """

    def __init__(self, name: str, size: int, untrack: bool):
        from multiprocessing import shared_memory

        try:
            # 3.13+: attach without registering with the resource
            # tracker — the parent owns the segment's lifetime.
            self.shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:
            self.shm = shared_memory.SharedMemory(name=name)
            # Pre-3.13 registers *attached* segments too.  Under spawn
            # each process has its own tracker, so the stray
            # registration would unlink the parent's ring when this
            # worker exits — undo it.  Under fork the tracker is
            # *shared* with the parent, and unregistering here would
            # cancel the parent's own registration instead, so the
            # duplicate register is the harmless no-op we keep.
            if untrack:
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(self.shm._name,
                                                "shared_memory")
                except Exception:
                    pass
        self.size = size
        self.cursor = 0

    def write(self, data: bytes) -> "tuple[int, int] | None":
        """Place ``data`` in the ring; returns ``(offset, nbytes)`` or
        None when the payload exceeds the ring size (pipe fallback)."""
        nbytes = len(data)
        if nbytes > self.size:
            return None
        if self.cursor + nbytes > self.size:
            self.cursor = 0
        offset = self.cursor
        self.shm.buf[offset:offset + nbytes] = data
        self.cursor = offset + nbytes
        return offset, nbytes


def _warm_spec(spec) -> None:
    """Best-effort cache warming for one installed spec.

    Mirrors exactly what the trial functions will do: the compiled
    engines (batched / ensemble / fluid) compile the protocol under the
    registry key, and the backend engines construct their step kernels
    (which *is* the JIT compile on the numba backend).  The agent
    engine compiles nothing, so nothing is warmed for it — that keeps
    protocols whose compilation itself misbehaves (the supervision test
    protocols) on exactly the legacy failure path.
    """
    if spec.engine == "agent":
        return
    from repro.protocols import registry
    from repro.sim.backends import select_kernels
    from repro.sim.compiled import compile_protocol

    params = dict(spec.params)
    protocol = registry.get(spec.protocol).build(**params)
    try:
        key = ("registry", spec.protocol, tuple(sorted(params.items())))
        hash(key)
    except TypeError:
        key = None
    compile_protocol(protocol, key=key)
    if spec.engine == "batched":
        families = ("batched-agent", "batched-multiset")
    elif spec.engine == "ensemble":
        families = ("ensemble",)
    else:
        return
    requested = None if spec.backend == "numpy" else spec.backend
    for family in families:
        select_kernels(requested, family)


def _worker_stats_payload(installed: "OrderedDict") -> dict:
    from repro.sim.backends import warmed_kernels
    from repro.sim.compiled import compile_cache_stats

    return {
        "pid": os.getpid(),
        "installed": list(installed),
        "compile_cache": compile_cache_stats(),
        "warm_kernels": [list(pair) for pair in warmed_kernels()],
    }


def _fleet_worker_main(conn, ring_name: "str | None", ring_size: int,
                       shm_threshold: int, untrack_ring: bool) -> None:
    """Long-lived worker loop.

    Messages (parent -> worker), all tagged tuples:

    * ``("install", seq, spec_dict, spec_hash)`` — parse + validate the
      spec once, warm the compile/kernel caches (bounded by the install
      alarm), remember it by hash; ack ``(seq, "installed", hash, s)``.
    * ``("task", seq, kind, spec_hash, point, trials, timeout_s)`` —
      execute a :class:`~repro.exp.supervise.SupervisedTask` against
      the installed spec; reply ``(seq, "ok", records, s)`` over the
      pipe, or ``(seq, "ok-shm", (offset, nbytes), s)`` with the pickled
      records parked in the shared-memory ring, or
      ``(seq, "timeout", message, s)``, or
      ``(seq, "error", (type, message, traceback, trial), s)`` where
      ``trial`` is the trial a ``"trial"`` task was running (None for a
      point batch).
    * ``("stats", seq)`` — cache observability for tests and doctor.
    * ``None`` — exit.

    The alarm is armed per task and always disarmed before replying, so
    a late signal can never leak into the next task.
    """
    from repro.exp.runner import _POINT_FUNCS, run_trial
    from repro.exp.spec import ExperimentSpec

    if hasattr(signal, "SIGALRM"):
        def _on_alarm(signum, frame):
            raise TrialTimeout("wall-clock budget exceeded "
                               "(worker-side alarm)")
        signal.signal(signal.SIGALRM, _on_alarm)
    writer = None
    if ring_name is not None:
        try:
            writer = _RingWriter(ring_name, ring_size, untrack_ring)
        except Exception:
            writer = None  # pipe-only transport still works
    installed: "OrderedDict[str, ExperimentSpec]" = OrderedDict()

    def arm(seconds: "float | None") -> None:
        if seconds and hasattr(signal, "setitimer"):
            signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm() -> None:
        if hasattr(signal, "setitimer"):
            signal.setitimer(signal.ITIMER_REAL, 0.0)

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        tag, seq = message[0], message[1]
        start = time.perf_counter()
        if tag == "install":
            _, _, spec_dict, spec_hash = message
            try:
                if spec_hash not in installed:
                    spec = ExperimentSpec.from_dict(spec_dict)
                    spec.validate()
                    try:
                        arm(_INSTALL_WARM_BUDGET_S)
                        try:
                            _warm_spec(spec)
                        finally:
                            disarm()
                    except TrialTimeout:
                        pass  # warming is best-effort; trials re-pay it
                    installed[spec_hash] = spec
                    while len(installed) > MAX_INSTALLED_SPECS:
                        installed.popitem(last=False)
                else:
                    installed.move_to_end(spec_hash)
                reply = (seq, "installed", spec_hash,
                         time.perf_counter() - start)
            except BaseException as exc:
                reply = (seq, "error",
                         (type(exc).__name__, str(exc),
                          traceback.format_exc()),
                         time.perf_counter() - start)
        elif tag == "stats":
            reply = (seq, "stats", _worker_stats_payload(installed), 0.0)
        elif tag == "task":
            _, _, kind, spec_hash, point, trials, timeout_s = message
            current = None  # the trial a chunk is running
            try:
                spec = installed.get(spec_hash)
                if spec is None:
                    raise RuntimeError(
                        f"spec {spec_hash[:12]} is not installed on this "
                        "fleet worker (install broadcast missed?)")
                arm(timeout_s)
                try:
                    if kind == "trial":
                        records = []
                        for current in trials:
                            records.append(run_trial(spec, point, current,
                                                     spec_hash=spec_hash))
                    else:
                        records = _POINT_FUNCS[kind](spec, point,
                                                     list(trials),
                                                     spec_hash=spec_hash)
                finally:
                    disarm()
                elapsed = time.perf_counter() - start
                reply = (seq, "ok", records, elapsed)
                if writer is not None:
                    data = pickle.dumps(records,
                                        protocol=pickle.HIGHEST_PROTOCOL)
                    if len(data) >= shm_threshold:
                        slot = writer.write(data)
                        if slot is not None:
                            reply = (seq, "ok-shm", slot, elapsed)
            except TrialTimeout as exc:
                reply = (seq, "timeout", str(exc),
                         time.perf_counter() - start)
            except BaseException as exc:
                reply = (seq, "error",
                         (type(exc).__name__, str(exc),
                          traceback.format_exc(), current),
                         time.perf_counter() - start)
        else:
            reply = (seq, "error",
                     ("ProtocolError", f"unknown fleet message {tag!r}", ""),
                     0.0)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


# -- Parent side ---------------------------------------------------------------


class _FleetWorker:
    """One warm worker process with a private pipe and shm ring.

    The handle :func:`repro.exp.supervise.run_supervised` dispatches to.
    Replies it reads are counted in the owning fleet's ``stats``.
    """

    def __init__(self, ctx, ring_bytes: int, shm_threshold: int,
                 use_shm: bool, stats: "FleetStats"):
        self.stats = stats
        self.ring = None
        ring_name = None
        if use_shm and ring_bytes > 0:
            from multiprocessing import shared_memory

            try:
                self.ring = shared_memory.SharedMemory(create=True,
                                                       size=ring_bytes)
                ring_name = self.ring.name
            except Exception:
                self.ring = None
        self.ring_bytes = ring_bytes
        self.conn, child_conn = ctx.Pipe()
        untrack_ring = ctx.get_start_method() != "fork"
        self.process = ctx.Process(
            target=_fleet_worker_main,
            args=(child_conn, ring_name, ring_bytes, shm_threshold,
                  untrack_ring),
            daemon=True)
        self.process.start()
        child_conn.close()
        self.seq = 0
        #: Spec hashes acknowledged as installed on this worker.
        self.installed: set = set()

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def dispatch(self, task: SupervisedTask, spec_hash: str,
                 timeout_s: "float | None") -> int:
        seq = self.next_seq()
        self.conn.send(("task", seq, task.kind, spec_hash, task.point,
                        task.trials, timeout_s))
        return seq

    def recv(self) -> tuple:
        """The next reply.  An ``ok-shm`` payload comes back as bytes
        copied out of the ring, so the worker may overwrite its slot as
        soon as it is dispatched again."""
        reply = self.conn.recv()
        seq, status, detail, elapsed = reply
        if status == "ok-shm":
            offset, nbytes = detail
            self.stats.shm_results += 1
            self.stats.shm_bytes += nbytes
            return (seq, status,
                    bytes(self.ring.buf[offset:offset + nbytes]), elapsed)
        if status == "ok":
            self.stats.pipe_results += 1
        return reply

    def alive(self) -> bool:
        return self.process.is_alive()

    def destroy(self) -> None:
        """Hard-stop and release everything the worker owns."""
        try:
            if self.process.is_alive():
                if hasattr(self.process, "kill"):
                    self.process.kill()
                else:
                    self.process.terminate()
        except (OSError, ValueError):
            pass
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass
        self._release_ring()

    def shutdown(self) -> None:
        """Soft-stop: sentinel, short join, then escalate."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.destroy()
        else:
            try:
                self.conn.close()
            except OSError:
                pass
            self._release_ring()

    def _release_ring(self) -> None:
        if self.ring is None:
            return
        try:
            self.ring.close()
            self.ring.unlink()
        except Exception:
            pass
        self.ring = None


@dataclass
class FleetStats:
    """Lifetime counters for one fleet (see also per-run info dicts)."""

    sweeps: int = 0
    installs: int = 0
    tasks: int = 0
    memo_hits: int = 0
    shm_results: int = 0
    pipe_results: int = 0
    shm_bytes: int = 0
    respawns: int = 0

    def to_dict(self) -> dict:
        return {"sweeps": self.sweeps, "installs": self.installs,
                "tasks": self.tasks, "memo_hits": self.memo_hits,
                "shm_results": self.shm_results,
                "pipe_results": self.pipe_results,
                "shm_bytes": self.shm_bytes, "respawns": self.respawns}


class WorkerFleet:
    """A set of warm worker processes (see module docstring).

    Spawn once, run many sweeps::

        with WorkerFleet(workers=4) as fleet:
            run_experiment(spec_a, fleet=fleet)
            run_experiment(spec_b, fleet=fleet)   # warm: no respawn,
                                                  # no recompiles

    Workers are forked at construction time (where fork is available),
    so they inherit in-process protocol registrations.  The fleet is not
    thread-safe: one sweep runs at a time (the ``repro serve`` layer
    will own the queueing).
    """

    def __init__(self, workers: "int | None" = None, *,
                 ring_bytes: int = DEFAULT_RING_BYTES,
                 shm_threshold: int = SHM_THRESHOLD_BYTES,
                 memo_capacity: int = MEMO_CAPACITY):
        self.size = max(1, workers or os.cpu_count() or 1)
        self.ring_bytes = ring_bytes
        self.shm_threshold = shm_threshold
        self.memo_capacity = memo_capacity
        self.shm_reason = (shared_memory_reason() if ring_bytes > 0
                           else "disabled (ring_bytes=0)")
        self._ctx = _mp_context()
        self.stats = FleetStats()
        self._workers = [self._spawn() for _ in range(self.size)]
        #: spec_hash -> spec_dict, in install order (replayed on respawn).
        self._installed: "OrderedDict[str, dict]" = OrderedDict()
        self._memo: "OrderedDict[str, dict]" = OrderedDict()
        self.closed = False

    # -- Lifecycle -------------------------------------------------------------

    def _spawn(self) -> _FleetWorker:
        return _FleetWorker(self._ctx, self.ring_bytes, self.shm_threshold,
                            use_shm=self.shm_reason is None,
                            stats=self.stats)

    def __enter__(self) -> "WorkerFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut every worker down and release the shared-memory rings."""
        if self.closed:
            return
        self.closed = True
        for worker in self._workers:
            worker.shutdown()
        self._workers = []

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError("this WorkerFleet has been closed")

    # -- Install broadcast -----------------------------------------------------

    def _ack(self, worker: _FleetWorker, seq: int,
             timeout_s: float = _INSTALL_ACK_TIMEOUT_S):
        """Wait for the reply with ``seq`` on a synchronous exchange."""
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("fleet worker did not acknowledge in "
                                   f"{timeout_s:.0f}s")
            if not worker.conn.poll(min(remaining, 0.2)):
                if not worker.alive():
                    raise RuntimeError(
                        f"fleet worker died (exitcode "
                        f"{worker.process.exitcode})")
                continue
            reply = worker.conn.recv()
            if reply[0] != seq:
                continue  # stale reply from an abandoned dispatch
            return reply

    def _send_install(self, worker: _FleetWorker, spec_hash: str,
                      spec_dict: dict) -> int:
        seq = worker.next_seq()
        worker.conn.send(("install", seq, spec_dict, spec_hash))
        return seq

    def _await_install(self, worker: _FleetWorker, seq: int,
                       spec_hash: str) -> None:
        _, status, detail, _ = self._ack(worker, seq)
        if status != "installed":
            error_type, message, trace = detail
            raise RuntimeError(
                f"fleet install failed in worker: [{error_type}] {message}")
        worker.installed.add(spec_hash)
        self.stats.installs += 1

    def install(self, spec, spec_hash: "str | None" = None) -> str:
        """Broadcast ``spec`` to every worker that lacks it (idempotent).

        Returns the spec's content hash.  After this, task messages for
        the sweep carry only the hash, not the spec.
        """
        self._check_open()
        spec_hash = spec_hash or spec.content_hash()
        spec_dict = spec.to_dict()
        self._installed[spec_hash] = spec_dict
        self._installed.move_to_end(spec_hash)
        while len(self._installed) > MAX_INSTALLED_SPECS:
            self._installed.popitem(last=False)
        # Send to every worker before awaiting any ack, so the workers
        # parse and warm up in parallel.
        sent = [(worker, self._send_install(worker, spec_hash, spec_dict))
                for worker in self._workers
                if spec_hash not in worker.installed]
        for worker, seq in sent:
            try:
                self._await_install(worker, seq, spec_hash)
            except RuntimeError:
                if worker.alive():
                    raise
                # Died mid-handshake: one warm respawn retry.
                self._respawn(worker)
        return spec_hash

    def _respawn(self, worker: _FleetWorker) -> _FleetWorker:
        """Replace a dead/wedged worker with a freshly *warmed* one.

        The replacement gets every installed spec replayed before it
        rejoins the fleet, so a respawn after a crash never reintroduces
        cold-start costs into the sweep.
        """
        index = self._workers.index(worker)
        worker.destroy()
        fresh = self._spawn()
        self._workers[index] = fresh
        self.stats.respawns += 1
        for spec_hash, spec_dict in self._installed.items():
            seq = self._send_install(fresh, spec_hash, spec_dict)
            self._await_install(fresh, seq, spec_hash)
        return fresh

    # -- Trial memo ------------------------------------------------------------

    def cached(self, trial_id: str) -> "dict | None":
        """The memoized record for a content-addressed trial id, or None."""
        record = self._memo.get(trial_id)
        if record is None:
            return None
        self._memo.move_to_end(trial_id)
        self.stats.memo_hits += 1
        return dict(record)

    def memoize(self, record: dict) -> None:
        """Remember one finished record (bounded LRU by trial id)."""
        tid = record.get("id")
        if tid is None:
            return
        self._memo[tid] = dict(record)
        self._memo.move_to_end(tid)
        while len(self._memo) > self.memo_capacity:
            self._memo.popitem(last=False)

    def memoize_records(self, records) -> None:
        """Bulk-seed the memo, e.g. from a ResultStore's records."""
        for record in records:
            self.memoize(record)

    def memo_size(self) -> int:
        return len(self._memo)

    # -- Execution -------------------------------------------------------------

    def run_pending(self, spec, pending, spec_hash: str, *,
                    on_record, on_failure) -> tuple:
        """Execute a sweep's pending trials; the runner's entry point
        for a persistent fleet.

        Serves memoized records first (byte-identical, zero execution),
        then runs the rest as :func:`repro.exp.runner.build_tasks` tasks
        through :meth:`execute` under ``spec.execution``.  Returns
        ``(SupervisionStats, per-run info dict)``.
        """
        from repro.exp.runner import build_tasks, trial_id

        self._check_open()
        self.install(spec, spec_hash)
        before = self.stats.to_dict()
        served = 0
        remaining = []
        for point, trial in pending:
            record = self.cached(trial_id(spec_hash, point, trial))
            if record is not None:
                on_record(record)
                served += 1
            else:
                remaining.append((point, trial))
        tasks = build_tasks(spec, remaining, self.size)

        def collect(records) -> None:
            for record in records:
                self.memoize(record)
                on_record(record)

        stats = self.execute(tasks, policy=spec.execution,
                             spec_hash=spec_hash, on_records=collect,
                             on_failure=on_failure)
        self.stats.sweeps += 1
        after = self.stats.to_dict()
        info = {
            "workers": self.size,
            "memo_hits": served,
            "shm_results": after["shm_results"] - before["shm_results"],
            "pipe_results": after["pipe_results"] - before["pipe_results"],
            "shm_bytes": after["shm_bytes"] - before["shm_bytes"],
            "respawns": after["respawns"] - before["respawns"],
        }
        return stats, info

    def execute(self, tasks, *, policy, spec_hash: str, on_records=None,
                on_failure=None, poll_s: float = 0.05) -> SupervisionStats:
        """Supervised dispatch of ``tasks`` across the warm workers.

        :func:`repro.exp.supervise.run_supervised` over this fleet's
        workers, with the warm respawn hook: a killed or crashed worker
        is replaced by one with every installed spec replayed.  Workers
        survive the call.
        """
        self._check_open()

        def done(records) -> None:
            self.stats.tasks += 1
            if on_records is not None:
                on_records(records)

        return run_supervised(tasks, policy=policy, spec_hash=spec_hash,
                              workers=self._workers, respawn=self._respawn,
                              on_records=done, on_failure=on_failure,
                              poll_s=poll_s)

    # -- Observability ---------------------------------------------------------

    def worker_stats(self) -> list:
        """Cache/warmth stats from every (idle) worker.

        Call between sweeps only — the exchange shares the task pipes.
        """
        self._check_open()
        payloads = []
        for worker in self._workers:
            seq = worker.next_seq()
            try:
                worker.conn.send(("stats", seq))
                _, status, payload, _ = self._ack(worker, seq,
                                                  timeout_s=30.0)
            except (RuntimeError, OSError, EOFError):
                payloads.append(None)
                continue
            payloads.append(payload if status == "stats" else None)
        return payloads


# -- Module-level keep-warm fleet ----------------------------------------------

_shared_fleet: "WorkerFleet | None" = None


def get_fleet(workers: "int | None" = None, **kwargs) -> WorkerFleet:
    """The process-wide keep-warm fleet, created (or grown) on demand.

    Repeated calls return the same fleet while it satisfies the
    requested size; a larger request replaces it.  The shared fleet is
    shut down at interpreter exit (or explicitly via
    :func:`shutdown_fleet`).
    """
    global _shared_fleet
    wanted = max(1, workers or os.cpu_count() or 1)
    fleet = _shared_fleet
    if fleet is not None and not fleet.closed and fleet.size >= wanted:
        return fleet
    if fleet is not None:
        fleet.close()
    _shared_fleet = WorkerFleet(wanted, **kwargs)
    return _shared_fleet


def shutdown_fleet() -> None:
    """Close the shared keep-warm fleet, if any."""
    global _shared_fleet
    if _shared_fleet is not None:
        _shared_fleet.close()
        _shared_fleet = None


atexit.register(shutdown_fleet)
