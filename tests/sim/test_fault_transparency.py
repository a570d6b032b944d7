"""RNG bit-compatibility of the fault layer.

The fault-injection hooks must be *transparent*: with no plan attached
(and, on the agent engine, even with one attached) the engines consume
their RNG streams exactly as they did before the fault layer existed.
These fingerprints were recorded from the pre-fault-layer code; any drift
in states, interaction counts, convergence bookkeeping, or the RNG state
itself fails the suite.
"""

import hashlib

from repro.protocols.counting import CountToK, Epidemic
from repro.protocols.majority import majority_protocol
from repro.sim.engine import simulate_counts
from repro.sim.faults import CrashAt, FaultPlan, OmissionRate
from repro.sim.multiset_engine import MultisetSimulation


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _agent_fingerprint(protocol, counts, seed, steps):
    sim = simulate_counts(protocol, counts, seed=seed)
    sim.run(steps)
    return (_digest(tuple(sim.states)), sim.interactions,
            sim.last_output_change, _digest(sim.rng.getstate()))


def _multiset_fingerprint(protocol, counts, seed, steps):
    sim = MultisetSimulation(protocol, counts, seed=seed)
    sim.run(steps)
    return (tuple(sorted(sim.counts.items(), key=repr)), sim.interactions,
            sim.last_change, _digest(sim.rng.getstate()))


def test_agent_engine_majority_fingerprint():
    assert _agent_fingerprint(majority_protocol(), {0: 6, 1: 9},
                              12345, 4000) == \
        ("5672e4e6aeab4b8e", 4000, 42, "460482d3e52f73a4")


def test_agent_engine_count_to_k_fingerprint():
    assert _agent_fingerprint(CountToK(5), {1: 6, 0: 10}, 777, 3000) == \
        ("ae9254e7e103b8a2", 3000, 186, "96a14dd0e5574013")


def test_agent_engine_epidemic_fingerprint():
    assert _agent_fingerprint(Epidemic(), {1: 1, 0: 19}, 99, 2500) == \
        ("7164da702ea96c81", 2500, 62, "d23f7e8a2e78f02f")


def test_multiset_engine_majority_fingerprint():
    counts, interactions, last_change, rng = _multiset_fingerprint(
        majority_protocol(), {0: 60, 1: 90}, 12345, 4000)
    assert counts == (((0, 0, 0), 4), ((0, 1, -1), 7), ((0, 1, -2), 6),
                      ((0, 1, 0), 127), ((1, 1, -1), 1), ((1, 1, -2), 5))
    assert (interactions, last_change, rng) == (4000, 3981,
                                                "703659b9ae103f39")


def test_multiset_engine_count_to_k_fingerprint():
    assert _multiset_fingerprint(CountToK(5), {1: 6, 0: 44}, 777, 3000) == \
        ((((5, 50),), 3000, 1203, "4f65830cf3b3ec7f"))


def test_inert_plan_is_transparent_on_agent_engine():
    plain = simulate_counts(CountToK(5), {1: 6, 0: 10}, seed=4321)
    planned = simulate_counts(CountToK(5), {1: 6, 0: 10}, seed=4321,
                              faults=FaultPlan(OmissionRate(0.0), seed=9))
    plain.run(2000)
    planned.run(2000)
    assert planned.states == plain.states
    assert planned.rng.getstate() == plain.rng.getstate()
    assert planned.last_output_change == plain.last_output_change


def test_inert_plan_is_transparent_on_multiset_engine():
    plain = MultisetSimulation(majority_protocol(), {0: 30, 1: 40},
                               seed=4321)
    planned = MultisetSimulation(majority_protocol(), {0: 30, 1: 40},
                                 seed=4321,
                                 faults=FaultPlan(OmissionRate(0.0), seed=9))
    plain.run(2000)
    planned.run(2000)
    assert planned.counts == plain.counts
    assert planned.rng.getstate() == plain.rng.getstate()


def test_crash_faults_leave_engine_stream_untouched():
    # Crashes draw from the plan's RNG; the scheduler stream of the engine
    # advances exactly as in a fault-free run of the same length.
    plain = simulate_counts(Epidemic(), {1: 2, 0: 18}, seed=55)
    faulty = simulate_counts(Epidemic(), {1: 2, 0: 18}, seed=55,
                             faults=FaultPlan(CrashAt(40, 6), seed=8))
    plain.run(1500)
    faulty.run(1500)
    assert len(faulty.crashed) == 6
    assert faulty.rng.getstate() == plain.rng.getstate()
    assert faulty.interactions == plain.interactions == 1500
