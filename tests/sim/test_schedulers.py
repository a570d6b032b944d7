"""Tests for interaction schedulers."""

import random
from collections import Counter

import pytest

from repro.core.population import Population, complete_population, line_population
from repro.protocols.counting import Epidemic, count_to_five
from repro.sim.engine import Simulation
from repro.sim.schedulers import (
    GreedyChangeScheduler,
    RoundRobinScheduler,
    ShuffledSweepScheduler,
    UniformEdgeScheduler,
    UniformPairScheduler,
)


class TestUniformPair:
    def test_never_self_pair(self):
        sched = UniformPairScheduler(5)
        rng = random.Random(0)
        for _ in range(2000):
            i, j = sched.next_encounter([], rng)
            assert i != j
            assert 0 <= i < 5 and 0 <= j < 5

    def test_roughly_uniform(self):
        sched = UniformPairScheduler(4)
        rng = random.Random(1)
        counts = Counter(sched.next_encounter([], rng) for _ in range(24_000))
        assert len(counts) == 12
        for pair_count in counts.values():
            assert abs(pair_count - 2000) < 300

    def test_small_population_rejected(self):
        with pytest.raises(ValueError):
            UniformPairScheduler(1)

    def test_draws_are_the_randrange_draws(self):
        # The scheduler's fast draw must consume the RNG exactly like
        # randrange(n), randrange(n - 1): the reference trajectories, the
        # stored records and the batched decoder all rest on that stream.
        for n in list(range(2, 70)) + [127, 128, 129, 1000, 2 ** 20 + 1]:
            fast, slow = random.Random(n), random.Random(n)
            sched = UniformPairScheduler(n)
            for _ in range(200):
                i = slow.randrange(n)
                j = slow.randrange(n - 1)
                assert sched.next_encounter([], fast) == (i, j + (j >= i))
            assert fast.getstate() == slow.getstate()

    def test_other_rng_types_use_their_randrange(self):
        class Counting(random.Random):
            calls = 0

            def randrange(self, *args):
                Counting.calls += 1
                return super().randrange(*args)

        sched = UniformPairScheduler(9)
        for _ in range(10):
            sched.next_encounter([], Counting(3))
        assert Counting.calls == 20


class TestUniformEdge:
    def test_only_graph_edges(self):
        pop = line_population(4)
        sched = UniformEdgeScheduler(pop)
        rng = random.Random(0)
        for _ in range(500):
            edge = sched.next_encounter([], rng)
            assert edge in pop.edges


class TestRoundRobin:
    def test_cycles_through_all_edges(self):
        pop = line_population(3)
        sched = RoundRobinScheduler(pop)
        rng = random.Random(0)
        seen = [sched.next_encounter([], rng) for _ in range(len(pop.edges))]
        assert sorted(seen) == sorted(pop.edges)
        # Next round repeats the same order.
        again = [sched.next_encounter([], rng) for _ in range(len(pop.edges))]
        assert again == seen

    def test_drives_computation(self):
        sim = Simulation(count_to_five(), [1] * 5 + [0] * 3,
                         scheduler=RoundRobinScheduler(complete_population(8)),
                         seed=0)
        sim.run_until(lambda s: s.unanimous_output() == 1,
                      max_steps=20_000, check_every=10)
        assert sim.unanimous_output() == 1


class TestShuffledSweep:
    def test_every_edge_once_per_round(self):
        pop = line_population(4)
        sched = ShuffledSweepScheduler(pop)
        rng = random.Random(2)
        first_round = [sched.next_encounter([], rng)
                       for _ in range(len(pop.edges))]
        assert sorted(first_round) == sorted(pop.edges)

    def test_order_varies_between_rounds(self):
        pop = complete_population(6)
        sched = ShuffledSweepScheduler(pop)
        rng = random.Random(3)
        size = len(pop.edges)
        round1 = [sched.next_encounter([], rng) for _ in range(size)]
        round2 = [sched.next_encounter([], rng) for _ in range(size)]
        assert round1 != round2
        assert sorted(round1) == sorted(round2)


class TestGreedy:
    def test_prefers_state_changing_pairs(self):
        p = Epidemic()
        pop = complete_population(4)
        sched = GreedyChangeScheduler(pop, p)
        rng = random.Random(0)
        states = [1, 0, 0, 0]
        i, j = sched.next_encounter(states, rng)
        assert p.delta(states[i], states[j]) != (states[i], states[j])

    def test_falls_back_when_silent(self):
        p = Epidemic()
        pop = complete_population(3)
        sched = GreedyChangeScheduler(pop, p)
        rng = random.Random(0)
        edge = sched.next_encounter([1, 1, 1], rng)
        assert edge in pop.edges

    def test_epidemic_in_linear_steps(self):
        p = Epidemic()
        n = 40
        sim = Simulation(p, [1] + [0] * (n - 1),
                         scheduler=GreedyChangeScheduler(complete_population(n), p),
                         seed=0)
        sim.run(n - 1)
        assert sim.unanimous_output() == 1
