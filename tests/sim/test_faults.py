"""Tests for fault injection (Sect. 8 discussion)."""

import pytest

from repro.protocols.counting import Epidemic, count_to_five
from repro.protocols.threshold import ThresholdProtocol
from repro.sim.engine import Simulation, simulate_counts
from repro.sim.faults import (
    CorruptAt,
    CorruptionRate,
    CrashAt,
    CrashRate,
    FaultModel,
    FaultPlan,
    OmissionRate,
    OmitAt,
    TargetedCrash,
    reset_corruptor,
)
from repro.sim.engine import SimulationHalted
from repro.sim.multiset_engine import MultisetSimulation
from repro.util.rng import spawn_seeds


class TestMechanics:
    def test_crash_removes_agent(self, seed):
        sim = simulate_counts(Epidemic(), {1: 1, 0: 3}, seed=seed)
        sim.crash(2)
        assert sim.n_alive == 3
        assert 2 in sim.crashed

    def test_crash_idempotent(self, seed):
        sim = simulate_counts(Epidemic(), {1: 1, 0: 3}, seed=seed)
        sim.crash(2)
        sim.crash(2)
        assert sim.n_alive == 3

    def test_cannot_crash_below_two(self, seed):
        sim = simulate_counts(Epidemic(), {1: 1, 0: 2}, seed=seed)
        sim.crash(0)
        with pytest.raises(RuntimeError):
            sim.crash(1)

    def test_crashed_agents_never_interact(self, seed):
        sim = Simulation(Epidemic(), [1, 0, 0, 0, 0, 0], seed=seed)
        sim.crash(0)  # the only infected agent dies
        frozen_state = sim.states[0]
        sim.run(5000)
        assert sim.states[0] == frozen_state
        # Nobody else could ever catch the bit.
        assert sim.unanimous_surviving_output() == 0

    def test_crash_random_reports_victims(self, seed):
        sim = simulate_counts(Epidemic(), {0: 8}, seed=seed)
        victims = sim.crash_random(3)
        assert len(victims) == 3
        assert sim.n_alive == 5


class TestRobustness:
    """The paper's observation: the epidemic survives crashes among the
    uninfected; token-holder crashes can change the answer."""

    def test_epidemic_survives_follower_crashes(self, seed):
        for s in spawn_seeds(seed, 10):
            sim = Simulation(Epidemic(), [1] + [0] * 19, seed=s)
            # Crash five agents that are currently uninfected.
            sim.run(5)
            uninfected = [a for a in sim.alive_agents()
                          if sim.states[a] == 0][:5]
            for victim in uninfected:
                sim.crash(victim)
            sim.run(20_000)
            assert sim.unanimous_surviving_output() == 1

    def test_count_to_five_breaks_when_token_holder_dies(self, seed):
        """Crashing the agent holding all tokens silently flips the
        survivors' answer — the fragility the paper warns about."""
        # Kill the agent that consolidates all four tokens the moment
        # it appears.
        plan = FaultPlan(TargetedCrash(lambda state: state == 4), seed=seed)
        sim = Simulation(count_to_five(), [1, 1, 1, 1, 0, 0, 0, 0],
                         seed=seed, faults=plan)
        sim.run_until(lambda s: plan.crashes, max_steps=100_000)
        if not plan.crashes:
            pytest.skip("tokens never consolidated")
        sim.run(20_000)
        # Survivors now hold zero tokens: the population can never answer
        # "yes" even if more 1-inputs arrive conceptually.
        assert all(sim.states[a] == 0 for a in sim.alive_agents())

    def test_leaderless_threshold_survives_nonleader_crashes(self, seed):
        """Crashing agents with zero count after convergence does not
        disturb the verdict."""
        protocol = ThresholdProtocol({"a": 1, "b": -1}, c=1)
        inputs = ["b"] * 8 + ["a"] * 4
        sim = Simulation(protocol, inputs, seed=seed)
        sim.run(30_000)
        # Crash three non-leader, zero-count agents.
        victims = [a for a in sim.alive_agents()
                   if sim.states[a][0] == 0 and sim.states[a][2] == 0][:3]
        for victim in victims:
            sim.crash(victim)
        sim.run(30_000)
        assert sim.unanimous_surviving_output() == 1  # 4 - 8 < 1


class TestFaultPlan:
    def test_crash_at_fires_once(self, seed):
        plan = FaultPlan(CrashAt(10, 3), seed=seed)
        sim = simulate_counts(Epidemic(), {1: 2, 0: 10}, seed=seed,
                              faults=plan)
        sim.run(200)
        assert len(sim.crashed) == 3
        assert plan.crashes == 3
        assert sim.n_alive == 9

    def test_omit_at_drops_exact_encounter(self, seed):
        # Two agents: every encounter infects.  Dropping encounter 1
        # leaves the states untouched while the clock still ticks.
        plan = FaultPlan(OmitAt([1]), seed=seed)
        sim = Simulation(Epidemic(), [1, 0], seed=seed, faults=plan)
        sim.run(1)
        assert sim.states == [1, 0]
        assert sim.interactions == 1
        assert plan.omissions == 1
        sim.run(1)
        assert sim.states == [1, 1]

    def test_omission_rate_one_freezes_states(self, seed):
        plan = FaultPlan(OmissionRate(1.0), seed=seed)
        sim = simulate_counts(Epidemic(), {1: 1, 0: 7}, seed=seed,
                              faults=plan)
        before = list(sim.states)
        sim.run(500)
        assert sim.states == before
        assert sim.interactions == 500
        assert plan.omissions == 500

    def test_corrupt_at_with_custom_corruptor(self, seed):
        # Glitch one all-zero agent to state 1: the epidemic then spreads
        # the corrupted bit to the whole population.
        plan = FaultPlan(CorruptAt(5, corruptor=lambda s, p, r: 1),
                         seed=seed)
        sim = simulate_counts(Epidemic(), {0: 10}, seed=seed, faults=plan)
        sim.run(2000)
        assert plan.corruptions == 1
        assert sim.unanimous_surviving_output() == 1

    def test_reset_corruptor_reinitializes(self, seed):
        import random
        state = reset_corruptor(4, count_to_five(), random.Random(seed))
        assert state in (0, 1)

    def test_targeted_crash_honours_after_step(self, seed):
        plan = FaultPlan(TargetedCrash(lambda s: s == 0, 2, after_step=50),
                         seed=seed)
        sim = simulate_counts(Epidemic(), {0: 8}, seed=seed, faults=plan)
        sim.run(49)
        assert not sim.crashed
        sim.run(10)
        assert len(sim.crashed) == 2

    def test_crash_rate_never_empties_population(self, seed):
        plan = FaultPlan(CrashRate(1.0), seed=seed)
        sim = simulate_counts(Epidemic(), {1: 1, 0: 9}, seed=seed,
                              faults=plan)
        sim.run(500)
        assert sim.n_alive == 2

    def test_plan_counters_in_repr(self, seed):
        plan = FaultPlan([CrashAt(0, 1), OmissionRate(1.0)], seed=seed)
        simulate_counts(Epidemic(), {0: 6}, seed=seed, faults=plan).run(9)
        assert "crashes=1" in repr(plan)
        # Encounters hitting the dead agent are inert before the omission
        # layer is consulted, so omissions counts only live-live drops.
        assert f"omissions={plan.omissions}" in repr(plan)
        assert 0 < plan.omissions <= 9

    def test_plan_rejects_second_simulation(self, seed):
        plan = FaultPlan(OmissionRate(0.5), seed=seed)
        simulate_counts(Epidemic(), {0: 4}, seed=seed, faults=plan)
        with pytest.raises(ValueError, match="already attached"):
            simulate_counts(Epidemic(), {0: 4}, seed=seed, faults=plan)

    def test_plan_rejects_non_models(self):
        with pytest.raises(TypeError):
            FaultPlan([OmissionRate(0.5), "not a model"])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CrashAt(-1)
        with pytest.raises(ValueError):
            CrashAt(0, 0)
        with pytest.raises(ValueError):
            CrashRate(1.5)
        with pytest.raises(ValueError):
            CorruptAt(0, 0)
        with pytest.raises(ValueError):
            CorruptionRate(-0.1)
        with pytest.raises(ValueError):
            OmitAt([0])
        with pytest.raises(ValueError):
            OmissionRate(2.0)

    def test_custom_model_hooks(self, seed):
        class EveryOther(FaultModel):
            def omits_encounter(self, sim, plan):
                return sim.interactions % 2 == 0

        plan = FaultPlan(EveryOther(), seed=seed)
        sim = simulate_counts(Epidemic(), {1: 1, 0: 5}, seed=seed,
                              faults=plan)
        sim.run(100)
        assert plan.omissions == 50


class TestFaultPlanMultiset:
    def test_crash_at_on_multiset_engine(self, seed):
        plan = FaultPlan(CrashAt(10, 3), seed=seed)
        sim = MultisetSimulation(Epidemic(), {1: 2, 0: 10}, seed=seed,
                                 faults=plan)
        sim.run(200)
        assert sim.dead == 3
        assert sim.n_alive == 9
        assert sum(sim.crashed_counts.values()) == 3

    def test_targeted_crash_kills_lone_alert(self, seed):
        plan = FaultPlan(TargetedCrash(lambda s: s == 1, 1), seed=seed)
        sim = MultisetSimulation(Epidemic(), {1: 1, 0: 9}, seed=seed,
                                 faults=plan)
        sim.run(5000)
        # The only infected sensor died before spreading anything.
        assert sim.crashed_counts == {1: 1}
        assert sim.unanimous_surviving_output() == 0

    def test_dead_sensors_burn_clock_ticks(self, seed):
        plan = FaultPlan(CrashAt(0, 5), seed=seed)
        sim = MultisetSimulation(Epidemic(), {1: 3, 0: 9}, seed=seed,
                                 faults=plan)
        sim.run(300)
        assert sim.interactions == 300
        assert sim.n_alive == 7

    def test_corruption_rate_on_multiset_engine(self, seed):
        plan = FaultPlan(
            CorruptionRate(1.0, corruptor=lambda s, p, r: 1), seed=seed)
        sim = MultisetSimulation(Epidemic(), {0: 8}, seed=seed, faults=plan)
        sim.run(100)
        assert plan.corruptions == 100
        assert sim.unanimous_surviving_output() == 1


class TestAllOrNothingCrash:
    """crash_random validates the whole request before applying any of it."""

    def test_agent_engine_rejects_oversized_request(self, seed):
        sim = simulate_counts(Epidemic(), {0: 4}, seed=seed)
        with pytest.raises(RuntimeError):
            sim.crash_random(3)
        assert sim.crashed == set()
        assert sim.n_alive == 4

    def test_multiset_engine_rejects_oversized_request(self, seed):
        sim = MultisetSimulation(Epidemic(), {0: 4}, seed=seed)
        with pytest.raises(RuntimeError):
            sim.crash_random(3)
        assert sim.dead == 0
        assert sim.crashed_counts == {}

    def test_exact_boundary_is_allowed(self, seed):
        sim = simulate_counts(Epidemic(), {0: 5}, seed=seed)
        assert len(sim.crash_random(3)) == 3
        assert sim.n_alive == 2

    def test_crash_refusal_names_the_invariant(self, seed):
        sim = simulate_counts(Epidemic(), {0: 3}, seed=seed)
        sim.crash(0)
        with pytest.raises(RuntimeError,
                           match="at least two live agents"):
            sim.crash(1)


class TestLoneSurvivor:
    def test_scheduler_halts_instead_of_crashing(self, seed):
        # crash_random() enforces the >= 2-survivors invariant, so reach
        # the degenerate state the way a buggy harness would: crash
        # through the bookkeeping directly.  The engine must raise the
        # structured SimulationHalted, not an error from an empty draw.
        sim = MultisetSimulation(Epidemic(), {1: 1, 0: 3}, seed=seed)
        for _ in range(3):
            sim._crash_state(0)
        with pytest.raises(SimulationHalted, match="1 live agent"):
            sim.run(1)
        assert sim.interactions == 0  # nothing was simulated

    def test_zero_survivors_also_halt(self, seed):
        sim = MultisetSimulation(Epidemic(), {1: 1, 0: 1}, seed=seed)
        sim._crash_state(0)
        sim._crash_state(1)
        with pytest.raises(SimulationHalted, match="0 live agent"):
            sim.step()

    def test_two_survivors_keep_running(self, seed):
        sim = simulate_counts(Epidemic(), {1: 1, 0: 3}, seed=seed)
        sim.crash(1)
        sim.crash(2)
        sim.run(100)
        assert sim.interactions == 100
