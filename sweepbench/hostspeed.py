"""Host-speed probes: how fast each CPU runs a fixed burst of Python.

The benchmark runs on vCPUs of a shared host, where other tenants'
load changes how fast the same code runs by up to 2x, from one second to
the next and over minutes.  One probe process per CPU, pinned to it,
wakes every ``PERIOD_S``, times ``burst()`` (about 0.15 ms of interpreter
work) and sleeps again, so it takes under 1% of that CPU.  The burst
times recorded while a measured process ran on the same CPU tell how
slow the host was then; :func:`metrics.speed_factor` turns them into
the factor that rescales a wall time to the speed at which one burst
takes ``metrics.REFERENCE_BURST_S``.

Usage (the benchmark launches this; it is not a user entry point)::

    python3 sweepbench/hostspeed.py --cpu N

The probe records until its standard input reaches end of file, then
prints its samples, ``[[monotonic time, burst seconds], ...]``, as one
JSON list on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.025
#: Bursts run and discarded before the first sample is kept.
WARM_UP = 40
#: Probes started at most, one per CPU, on the lowest-numbered CPUs.
MAX_PROBES = 4


def burst() -> int:
    """Fixed interpreter work: integer arithmetic and dict updates."""
    total, table = 0, {}
    for i in range(600):
        key = (i * 7919) % 83
        table[key] = table.get(key, 0) + i
        total += key * i % 13
    return total


def _probe(cpu: int) -> int:
    os.sched_setaffinity(0, {cpu})
    for _ in range(WARM_UP):
        burst()
    samples = []
    stdin = sys.stdin.fileno()
    while not select.select([stdin], [], [], PERIOD_S)[0]:
        start = time.perf_counter()
        burst()
        took = time.perf_counter() - start
        samples.append((time.clock_gettime(time.CLOCK_MONOTONIC), took))
    json.dump(samples, sys.stdout)
    return 0


def probe_cpus() -> list[int]:
    """The CPUs this process may run on, lowest first, ``MAX_PROBES`` at
    most."""
    return sorted(os.sched_getaffinity(0))[:MAX_PROBES]


class Probes:
    """One running probe per CPU; :meth:`stop` returns their samples."""

    def __init__(self, cpus: list[int]):
        self.cpus = cpus
        self.procs = [
            subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                              "--cpu", str(cpu)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            for cpu in cpus]

    def stop(self) -> dict[int, list]:
        """Stop every probe, wait for it, and return ``{cpu: samples}``."""
        samples = {}
        for cpu, proc in zip(self.cpus, self.procs):
            try:
                out, _ = proc.communicate(timeout=10)
                samples[cpu] = [tuple(s) for s in json.loads(out or b"[]")]
            except (OSError, ValueError, subprocess.TimeoutExpired):
                samples[cpu] = []
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    return _probe(parser.parse_args(argv).cpu)


if __name__ == "__main__":
    raise SystemExit(main())
