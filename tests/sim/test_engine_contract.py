"""One engine contract: twin engines give the same convergence results.

Each batched engine steps exactly the interactions of its reference
engine (``test_batched.py`` pins the trajectories).  The convergence
drivers read only the shared engine contract (:mod:`repro.sim.base`):
the ``last_change`` and ``last_output_change`` clocks, ``output_counts``
and the survivors' verdict.  So every driver must return a
field-identical :class:`~repro.sim.convergence.ConvergenceResult` on
either twin.  Flock-of-birds and majority settle their outputs long
before their states go silent, so a twin that reports the state clock as
``converged_at`` fails here.
"""

import functools

import pytest

from repro.protocols import registry
from repro.sim.batched import BatchedMultisetSimulation, batched_simulate_counts
from repro.sim.convergence import (
    run_until_correct_stable,
    run_until_quiescent,
    run_until_silent,
)
from repro.sim.engine import simulate_counts
from repro.sim.multiset_engine import MultisetSimulation

#: (registry name, input counts); n = 40 keeps the block-decoded draw
#: stream (and so every kernel backend) active.
CASES = [
    ("flock-of-birds", {0: 38, 1: 2}),
    ("majority", {1: 21, 0: 19}),
]

#: Twin pair name -> (reference factory, batched factory).
TWINS = {
    "agent": (
        lambda protocol, counts, seed, backend: simulate_counts(
            protocol, counts, seed=seed),
        lambda protocol, counts, seed, backend: batched_simulate_counts(
            protocol, counts, seed=seed, backend=backend),
    ),
    "multiset": (
        lambda protocol, counts, seed, backend: MultisetSimulation(
            protocol, counts, seed=seed),
        lambda protocol, counts, seed, backend: BatchedMultisetSimulation(
            protocol, counts, seed=seed, backend=backend),
    ),
}

MAX_STEPS = 200_000

DRIVERS = {
    "silent": lambda sim, expected: run_until_silent(
        sim, max_steps=MAX_STEPS),
    "quiescent": lambda sim, expected: run_until_quiescent(
        sim, patience=20_000, max_steps=MAX_STEPS),
    "correct-stable": lambda sim, expected: run_until_correct_stable(
        sim, expected, max_steps=MAX_STEPS),
}


def _run(twin, side, driver, name, counts, seed, backend=None):
    entry = registry.get(name)
    protocol = entry.build()
    sim = TWINS[twin][side](protocol, counts, seed, backend)
    expected = int(entry.evaluate_truth(counts))
    return DRIVERS[driver](sim, expected)


@functools.lru_cache(maxsize=None)
def _reference(twin, driver, name, counts_items, seed):
    return _run(twin, 0, driver, name, dict(counts_items), seed)


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("twin", sorted(TWINS))
@pytest.mark.parametrize("name,counts", CASES, ids=[c[0] for c in CASES])
def test_twins_return_identical_results(name, counts, twin, driver, seed,
                                        kernel_backend):
    ref = _reference(twin, driver, name, tuple(counts.items()), seed)
    fast = _run(twin, 1, driver, name, counts, seed, kernel_backend)
    assert fast == ref
