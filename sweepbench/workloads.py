"""The benchmark's workloads: ``repro exp run`` sweeps made from a seed.

Each workload is one client issuing one command at a time (a closed
loop) to the real CLI, with at most two worker processes.  The seed
given to the benchmark becomes each sweep's ``--seed``; the program sees
only the generated command lines.

``DIGESTS`` pins :func:`metrics.records_digest` of every workload's
records at :data:`DEFAULT_SEED`.  Other seeds are checked against the
registry ground truth alone.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0

_SUPERVISED_FLEET = ["--engine", "batched", "--workers", "2", "--keep-warm",
                     "--timeout-s", "120", "--on-error", "quarantine"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``exp run`` arguments of each sweep, without ``--seed``/``--store``.
    sweeps: tuple

    @property
    def in_process(self) -> bool:
        """Whether every sweep runs its trials in the sweep's own process."""
        return all("--workers" not in sweep for sweep in self.sweeps)

    @property
    def plan_trials(self) -> int:
        """Trials in one repetition: ``len(ns) * trials`` per sweep."""
        total = 0
        for sweep in self.sweeps:
            ns = sweep[sweep.index("--ns") + 1].split(",")
            total += len(ns) * int(sweep[sweep.index("--trials") + 1])
        return total

    def commands(self, seed: int, stores: list) -> list:
        """The ``repro`` argv of every sweep, one store per sweep."""
        return [["exp", "run", *sweep, "--seed", str(seed), "--store", store]
                for sweep, store in zip(self.sweeps, stores)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "flock-agent",
        "default exp run: agent engine in-process on 80-state "
        "flock-of-birds, so scalar pair sampling dominates",
        (["--protocol", "flock-of-birds", "--input", "fraction:0.05",
          "--stop", "correct-stable", "--ns", "20,40,80",
          "--trials", "40"],)),
    Workload(
        "flock-ensemble",
        "flock-of-birds on the lockstep ensemble engine in-process: the "
        "numpy count-matrix kernel dominates, no scheduler or IPC",
        (["--protocol", "flock-of-birds", "--input", "fraction:0.05",
          "--stop", "correct-stable", "--engine", "ensemble",
          "--ns", "40,80", "--trials", "128"],)),
    Workload(
        "tiny-trials-pool",
        "8192 leader-election trials of ~100 interactions on a 2-worker "
        "pool: per-trial overhead, store appends, dispatch and report "
        "reading dominate",
        (["--protocol", "leader-election", "--stop", "silent",
          "--ns", ",".join(str(n) for n in range(3, 19)),
          "--trials", "512", "--workers", "2"],)),
    Workload(
        "warm-campaign",
        "four supervised batched sweeps on one keep-warm 2-worker fleet: "
        "spawn, install, warm kernels and per-task dispatch",
        (["--protocol", "leader-election", "--stop", "silent",
          "--ns", "16,32,64", "--trials", "32", *_SUPERVISED_FLEET],
         ["--protocol", "majority", "--input", "fraction:0.6",
          "--stop", "correct-stable", "--ns", "32,64,128", "--trials", "32",
          *_SUPERVISED_FLEET],
         ["--protocol", "parity", "--input", "fraction:0.5",
          "--stop", "correct-stable", "--ns", "16,32,64", "--trials", "32",
          *_SUPERVISED_FLEET],
         ["--protocol", "flock-of-birds", "--input", "fraction:0.05",
          "--stop", "correct-stable", "--ns", "40,80", "--trials", "32",
          *_SUPERVISED_FLEET])),
)}

#: ``records_digest`` of each workload's records at ``DEFAULT_SEED``.
DIGESTS = {
    "flock-agent":
        "2937fc062501b8f5171117d03f05dd194dd521bda47e869e601caf80aec3bc92",
    "flock-ensemble":
        "12a54345e840ecc022bfb1be73cc7ecd89e292959dead31b8051268ca9fdccdd",
    "tiny-trials-pool":
        "1569472fc3c5c5a9444c876df21eca52eb9bbdbe5e97aaadfe736add9ac93428",
    "warm-campaign":
        "255be74629a74a617e90d5aa8f05d96578775021dd98333c613d2b3639fe4e68",
}


def check_records(spec: dict, records: list, failures: list) -> list:
    """Ids of the trials that failed, judged against the ground truth.

    ``spec`` is the store header's spec dict.  A trial fails when it has
    a failure record, did not stop, or its output differs from the
    registry's verdict for its input counts (``None`` for protocols
    without one).  Plan trials with no record at all fail too.
    """
    from repro.exp.spec import ExperimentSpec
    from repro.protocols import registry

    parsed = ExperimentSpec.from_dict(spec)
    entry = registry.get(parsed.protocol)
    params = dict(parsed.params)
    failed = {record["id"] for record in failures}
    expected = {}
    for n in parsed.ns:
        counts = parsed.inputs.counts_for(n)
        expected[n] = (None if entry.truth is None
                       else int(entry.evaluate_truth(counts, **params)))
    seen = set()
    for record in records:
        seen.add(record["id"])
        if not record["stopped"] or record["output"] != expected[record["n"]]:
            failed.add(record["id"])
    missing = len(parsed.ns) * parsed.trials - len(seen | failed)
    return sorted(failed) + [f"missing-{i}" for i in range(max(0, missing))]
