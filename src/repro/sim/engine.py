"""The agent-array simulation engine.

:class:`Simulation` executes a population protocol on an explicit array of
agent states under a pluggable scheduler (uniform random pairing by
default, i.e. the conjugating-automata model of Sect. 6).  It counts
interactions, tracks when the output assignment last changed, and supports
the stopping rules in :mod:`repro.sim.convergence`.

For fault-free runs under the default uniform scheduler, the batched twin
:class:`~repro.sim.batched.BatchedSimulation` executes the same trajectory
(bit-identical for the same seed) several times faster; see
``docs/PERFORMANCE.md`` for the engine selection guide.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.configuration import AgentConfiguration
from repro.core.population import Population
from repro.core.protocol import PopulationProtocol, State, Symbol
from repro.sim.base import AgentArrayEngine
from repro.sim.schedulers import Scheduler, UniformEdgeScheduler, UniformPairScheduler
from repro.util.multiset import FrozenMultiset
from repro.util.rng import resolve_rng


class SimulationHalted(RuntimeError):
    """The simulation cannot take another step.

    Raised when the model's preconditions for an encounter no longer hold
    — e.g. fewer than two live agents remain, so no pair can interact.
    Distinct from a :class:`~repro.sim.monitors.MonitorViolation`: halting
    is the engine refusing to proceed, not an invariant breaking silently.
    """


class Simulation(AgentArrayEngine):
    """A running population-protocol execution.

    Parameters
    ----------
    protocol:
        The population protocol to execute.
    inputs:
        The input assignment: one input symbol per agent.  Alternatively
        pass ``states`` to start from explicit agent states.
    states:
        Explicit initial states (mutually exclusive with ``inputs``).
    population:
        Interaction graph; defaults to the complete graph (the standard
        population).
    scheduler:
        Encounter scheduler; defaults to uniform random pairing.
    seed:
        Seed or ``random.Random`` driving the scheduler.
    faults:
        Optional :class:`~repro.sim.faults.FaultPlan` injecting crash,
        corruption, and omission faults.  Fault randomness comes from the
        plan's own RNG, so with no plan attached (and even with one, on
        this engine) the scheduler's RNG stream is identical to a
        fault-free run of the same seed.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        inputs: "Sequence[Symbol] | None" = None,
        *,
        states: "Sequence[State] | None" = None,
        population: "Population | None" = None,
        scheduler: "Scheduler | None" = None,
        seed: "int | None" = None,
        faults=None,
        monitors=(),
    ):
        self.protocol = protocol
        if (inputs is None) == (states is None):
            raise ValueError("pass exactly one of inputs= or states=")
        if inputs is not None:
            for symbol in inputs:
                if symbol not in protocol.input_alphabet:
                    raise ValueError(f"input symbol {symbol!r} not in alphabet")
            self.states: list[State] = [
                protocol.initial_state(symbol) for symbol in inputs]
        else:
            self.states = list(states)
        n = len(self.states)
        if n < 2:
            raise ValueError("a population needs at least two agents")
        if population is not None and population.n != n:
            raise ValueError(
                f"population has {population.n} agents but {n} states given")
        self.population = population
        if scheduler is None:
            if population is None or population.is_complete:
                scheduler = UniformPairScheduler(n)
            else:
                scheduler = UniformEdgeScheduler(population)
        self.scheduler = scheduler
        self.rng = resolve_rng(seed)
        self.interactions = 0
        self._outputs: list[Symbol] = [
            protocol.output(state) for state in self.states]
        #: Interaction count after which the output assignment last changed.
        self.last_output_change = 0
        #: Interaction count of the last effective (state-changing)
        #: transition; convergence drivers use it to skip re-checks.
        self.last_change = 0
        self._delta_cache: dict[tuple[State, State], tuple[State, State]] = {}
        #: Agents that have crashed (state frozen, encounters inert).
        self.crashed: set[int] = set()
        self._observe(faults, monitors)

    # -- Introspection ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.states)

    def _state(self, agent: int) -> State:
        return self.states[agent]

    def outputs(self) -> tuple[Symbol, ...]:
        """Current output assignment."""
        return tuple(self._outputs)

    def configuration(self) -> AgentConfiguration:
        """Snapshot of the current agent-indexed configuration."""
        return AgentConfiguration(self.states)

    def multiset(self) -> FrozenMultiset:
        """Snapshot of the current multiset configuration."""
        return FrozenMultiset(self.states)

    def output_counts(self) -> dict[Symbol, int]:
        """Histogram of current agent outputs."""
        counts: dict[Symbol, int] = {}
        for out in self._outputs:
            counts[out] = counts.get(out, 0) + 1
        return counts

    def unanimous_output(self) -> "Symbol | None":
        """The common output if all agents agree, else ``None``.

        One C-level scan of the output list: the correct-stable stopping
        rule asks this every ``n / 2`` interactions.
        """
        first = self._outputs[0]
        return first if self._outputs.count(first) == len(self._outputs) else None

    # -- Fault primitives --------------------------------------------------------

    def crash(self, agent: int) -> None:
        """Silently stop ``agent``: freeze its state and make every later
        encounter involving it inert.

        Invariant: at least two agents must remain alive after the crash
        (a population protocol needs a pair to interact), so crashing is
        refused when only two live agents are left.  Crashing an
        already-crashed agent is a no-op.
        """
        if not 0 <= agent < len(self.states):
            raise ValueError(f"no such agent: {agent}")
        if agent in self.crashed:
            return
        if self.n_alive <= 2:
            raise RuntimeError(
                "cannot crash: a crash must leave at least two live agents")
        self.crashed.add(agent)

    def set_state(self, agent: int, state: State) -> bool:
        """Overwrite one agent's state, keeping output bookkeeping intact.

        Returns True iff the state changed.  Used by corruption faults and
        by experiment code that perturbs a running simulation.
        """
        if self.states[agent] == state:
            return False
        self.states[agent] = state
        self.last_change = self.interactions
        out = self.protocol.output(state)
        if out != self._outputs[agent]:
            self._outputs[agent] = out
            self.last_output_change = self.interactions
        return True

    # -- Stepping --------------------------------------------------------------

    def _delta(self, p: State, q: State) -> tuple[State, State]:
        key = (p, q)
        result = self._delta_cache.get(key)
        if result is None:
            result = self.protocol.delta(p, q)
            self._delta_cache[key] = result
        return result

    # -- Checkpointing -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the full simulation state (agents, clock, RNG, scheduler).

        Restoring a snapshot makes subsequent runs bit-identical to what
        they would have been at capture time — useful for branching
        experiments ("what if the computation continued twice from here?")
        and for long-run checkpointing.
        """
        import copy

        snap = {
            "states": list(self.states),
            "outputs": list(self._outputs),
            "interactions": self.interactions,
            "last_output_change": self.last_output_change,
            "last_change": self.last_change,
            "rng_state": self.rng.getstate(),
            "scheduler": copy.deepcopy(self.scheduler),
            "crashed": set(self.crashed),
        }
        if self._faults is not None:
            # Seed the memo so the plan copy keeps pointing at *this* sim
            # instead of dragging a deep copy of it into the snapshot.
            snap["faults"] = copy.deepcopy(self._faults, {id(self): self})
        return snap

    def restore(self, snap: dict) -> None:
        """Return to a previously captured :meth:`snapshot`."""
        import copy

        self.states = list(snap["states"])
        self._outputs = list(snap["outputs"])
        self.interactions = snap["interactions"]
        self.last_output_change = snap["last_output_change"]
        self.last_change = snap.get("last_change", 0)
        self.rng.setstate(snap["rng_state"])
        self.scheduler = copy.deepcopy(snap["scheduler"])
        self.crashed = set(snap.get("crashed", ()))
        if "faults" in snap:
            # Re-copy so the same snapshot can be restored repeatedly.
            self._faults = copy.deepcopy(snap["faults"], {id(self): self})

    def step(self) -> bool:
        """Run one interaction.  Returns True iff any state changed.

        With a fault plan attached, step-boundary faults (crashes and
        corruptions) are applied first; the scheduled encounter is then
        inert if either party has crashed, and may be dropped by omission
        faults.  Inert and omitted encounters still advance the
        interaction counter (global time passes).
        """
        plan = self._faults
        if plan is not None:
            plan.pre_step(self)
        initiator, responder = self.scheduler.next_encounter(self.states, self.rng)
        self.interactions += 1
        if self.crashed and (initiator in self.crashed
                             or responder in self.crashed):
            return False
        if plan is not None and plan.drop_encounter(self):
            return False
        p, q = self.states[initiator], self.states[responder]
        p2, q2 = self._delta(p, q)
        if p2 == p and q2 == q:
            return False
        self.states[initiator] = p2
        self.states[responder] = q2
        self.last_change = self.interactions
        changed_output = False
        out_p = self.protocol.output(p2)
        if out_p != self._outputs[initiator]:
            self._outputs[initiator] = out_p
            changed_output = True
        out_q = self.protocol.output(q2)
        if out_q != self._outputs[responder]:
            self._outputs[responder] = out_q
            changed_output = True
        if changed_output:
            self.last_output_change = self.interactions
        return True


def simulate_counts(
    protocol: PopulationProtocol,
    input_counts: Mapping[Symbol, int],
    *,
    seed: "int | None" = None,
    scheduler: "Scheduler | None" = None,
    faults=None,
    monitors=(),
) -> Simulation:
    """Build a :class:`Simulation` from symbol counts (symbol-count inputs).

    Agents are laid out symbol-by-symbol; under uniform random pairing the
    layout is irrelevant.
    """
    inputs: list[Symbol] = []
    for symbol, count in sorted(input_counts.items(), key=lambda kv: repr(kv[0])):
        if count < 0:
            raise ValueError("counts must be non-negative")
        inputs.extend([symbol] * count)
    return Simulation(protocol, inputs, seed=seed, scheduler=scheduler,
                      faults=faults, monitors=monitors)
