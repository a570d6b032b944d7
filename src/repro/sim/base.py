"""The single-trial engine contract, written once.

Every single-trial engine steps one interaction at a time (``step``),
keeps an interaction clock (``interactions``) and runs through the same
loop: :class:`RunLoop`.  The five engines of the paper's pairing model —
:class:`~repro.sim.engine.Simulation`,
:class:`~repro.sim.multiset_engine.MultisetSimulation` (and its
:class:`~repro.sim.skipping.SkippingSimulation`),
:class:`~repro.sim.batched.BatchedSimulation` and
:class:`~repro.sim.batched.BatchedMultisetSimulation` — share the rest
of the contract through :class:`Engine`: the fault plan and monitor
hooks, the two change clocks the convergence drivers read
(``last_change`` for any state change, ``last_output_change`` for the
outputs), and unanimity read off ``output_counts``.  The two agent-array
engines add the per-agent fault primitives through
:class:`AgentArrayEngine`.
"""

from __future__ import annotations

from collections import Counter


def output_multiset_changed(op, oq, op2, oq2) -> bool:
    """Does a transition with outputs ``(op, oq) -> (op2, oq2)`` change
    the output multiset?

    The multiset engines' quiescence clock: the output multiset stays
    put exactly when the result outputs are a permutation of the
    argument outputs.
    """
    return not ((op == op2 and oq == oq2) or (op == oq2 and oq == op2))


class RunLoop:
    """``run`` and ``run_until`` over an engine's ``step``."""

    def run(self, steps: int) -> None:
        """Run a fixed number of interactions."""
        for _ in range(steps):
            self.step()

    def run_until(self, condition, max_steps: int, check_every: int = 1) -> bool:
        """Run until ``condition(self)`` holds or ``max_steps`` pass.

        Returns True iff the condition was met.  ``condition`` is
        evaluated every ``check_every`` interactions (and before the
        first step), so twin engines that step the same interactions
        stop at the same interaction count.
        """
        if condition(self):
            return True
        remaining = max_steps
        while remaining > 0:
            chunk = min(check_every, remaining)
            self.run(chunk)
            remaining -= chunk
            if condition(self):
                return True
        return False


class Engine(RunLoop):
    """The contract the convergence drivers and harnesses rely on.

    Subclasses provide ``step``, ``interactions``, ``last_change``,
    ``last_output_change`` and ``output_counts``; those that take
    ``faults=``/``monitors=`` call :meth:`_observe` at the end of their
    constructor.
    """

    _faults = None

    def _observe(self, faults=None, monitors=()) -> None:
        """Bind the fault plan and attach the monitors."""
        self._faults = faults
        if faults is not None:
            faults.bind(self)
        #: Attached runtime monitors (see :mod:`repro.sim.monitors`).
        self.monitors: list = []
        #: Reproduction tuple embedded into MonitorViolations; harnesses
        #: set this to a declarative description of the trial.
        self.monitor_context: "dict | None" = None
        for monitor in monitors:
            self.attach_monitor(monitor)

    @property
    def faults(self):
        """The attached :class:`~repro.sim.faults.FaultPlan`, or None."""
        return self._faults

    def attach_monitor(self, monitor) -> None:
        """Attach a runtime monitor to this simulation instance.

        Swaps ``step`` for a monitored wrapper on this instance only, so
        simulations with no monitors keep the original hot path untouched.
        """
        monitor.on_attach(self)
        self.monitors.append(monitor)
        self.step = self._monitored_step

    def _monitored_step(self) -> bool:
        changed = type(self).step(self)
        for monitor in self.monitors:
            monitor.after_step(self, changed)
        return changed

    def unanimous_output(self):
        """The common output if all agents agree, else ``None``."""
        outputs = self.output_counts()
        return next(iter(outputs)) if len(outputs) == 1 else None

    def unanimous_surviving_output(self):
        """The common output of the *live* agents if they agree, else None.

        The paper reads the verdict off the surviving population: a dead
        sensor's frozen output does not count against unanimity.
        """
        outputs = self._surviving_output_counts()
        return next(iter(outputs)) if len(outputs) == 1 else None

    def _surviving_output_counts(self) -> dict:
        # The multiset engines keep crashed mass out of their live
        # counts, so their output histogram already is the survivors'.
        return self.output_counts()


class AgentArrayEngine(Engine):
    """Fault primitives over an explicit agent array.

    Subclasses provide ``n``, ``crashed`` (the set of crashed agent ids),
    ``crash``, ``set_state``, ``outputs`` and ``_state(agent)``, an O(1)
    lookup of a live agent's state; the batched engine also overrides
    the fault-RNG resolution :meth:`_fault_rng`.
    """

    def _fault_rng(self, rng):
        """The RNG a fault primitive draws from (default: the engine's)."""
        return self.rng if rng is None else rng

    @property
    def n_alive(self) -> int:
        """Number of agents that have not crashed."""
        return self.n - len(self.crashed)

    def alive_agents(self) -> list[int]:
        """Ids of the live agents, in ascending order."""
        if not self.crashed:
            return list(range(self.n))
        return [a for a in range(self.n) if a not in self.crashed]

    def surviving_outputs(self) -> list:
        """Outputs of the live agents (= all outputs when nothing crashed)."""
        outputs = self.outputs()
        if not self.crashed:
            return list(outputs)
        return [out for a, out in enumerate(outputs) if a not in self.crashed]

    def _surviving_output_counts(self) -> dict:
        if not self.crashed:
            return self.output_counts()
        return Counter(self.surviving_outputs())

    def crash_random(self, count: int = 1, *, rng=None) -> list[int]:
        """Crash ``count`` uniformly chosen live agents; all-or-nothing.

        The count is validated up front against the >= 2-survivors
        invariant: an impossible request raises ``RuntimeError`` before
        any agent is crashed.  ``rng`` defaults to the engine RNG; fault
        plans pass their own, so a plan's crash draws replay
        bit-identically across the agent-array engines.
        """
        if count < 0:
            raise ValueError("crash count must be non-negative")
        if count > self.n_alive - 2:
            raise RuntimeError(
                f"cannot crash {count} of {self.n_alive} live agents: "
                "a crash must leave at least two live agents")
        rng = self._fault_rng(rng)
        alive = self.alive_agents()
        victims = []
        for _ in range(count):
            victim = alive.pop(rng.randrange(len(alive)))
            self.crash(victim)
            victims.append(victim)
        return victims

    def crash_matching(self, match, count: int = 1, *, rng=None) -> int:
        """Crash up to ``count`` random live agents whose state satisfies
        ``match``; returns how many were crashed.

        Best-effort (used by adversarial fault models): stops early when
        no live agent matches or only two survivors remain.
        """
        rng = self._fault_rng(rng)
        candidates = [a for a in self.alive_agents()
                      if match(self._state(a))]
        applied = 0
        while candidates and applied < count and self.n_alive > 2:
            victim = candidates.pop(rng.randrange(len(candidates)))
            self.crash(victim)
            applied += 1
        return applied

    def corrupt_random(self, corruptor, *, rng=None) -> bool:
        """Rewrite a uniformly random live agent's state via
        ``corruptor(state, protocol, rng)``; returns True iff it changed."""
        rng = self._fault_rng(rng)
        alive = self.alive_agents()
        agent = alive[rng.randrange(len(alive))]
        return self.set_state(
            agent, corruptor(self._state(agent), self.protocol, rng))
