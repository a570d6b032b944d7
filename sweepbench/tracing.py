"""Spans around the calls into each ``repro`` layer, taken from outside.

The benchmark never edits the program.  It replaces module attributes
(functions, and methods on classes) with wrappers that time each call.
``repro`` resolves most of these at call time -- ``repro.exp.runner``
imports its engine, convergence and compile functions inside the
functions that use them -- so a wrapper installed on the defining
module is what the program calls.

Modules the program imports lazily are patched right after their first
import (:class:`_PatchOnImport`), so tracing moves no import cost out of
the layer that pays it in an untraced run.

Two levels:

* ``spans=False`` (the untraced run) installs only the marks the
  end-to-end metrics need: entry to and exit from ``run_experiment``,
  and the first record handed to ``ResultStore.append``, after which
  that wrapper removes itself.
* ``spans=True`` records one span per call into every layer below.

Spans are recorded in this process only.  Wrappers inherited by forked
worker processes pass calls straight through.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import os
import sys
import time


def now() -> float:
    """System-wide monotonic seconds, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory spans and marks of one process."""

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.pid = os.getpid()
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: list = []
        self._stack: list = []
        self.run_enter: list = []
        self.run_exit: list = []
        self.first_record: "float | None" = None
        #: ``ExperimentResult.fleet`` / ``.supervision`` of every sweep.
        self.results: list = []
        #: Results yielded by ``Pool.imap_unordered``.
        self.pool_results = 0

    def record(self, name: str, start: float, end: float) -> None:
        """Add a closed span under the currently open one."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent])

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, now(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = now()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call in this process recorded as a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def timed_iter(self, name: str, iterable):
        """Yield from ``iterable``, one span per wait for the next item."""
        iterator = iter(iterable)
        while True:
            index = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(index)
            self.pool_results += 1
            yield item

    def export(self, origin: float, run: str) -> list[dict]:
        """Closed spans as dicts, times in seconds after ``origin``."""
        return [{"run": run, "id": index, "parent": parent, "name": name,
                 "start": start - origin, "end": end - origin}
                for index, (name, start, end, parent) in enumerate(self.spans)
                if end is not None]


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Runs ``patch(module)`` right after a module's first import."""

    def __init__(self, patches: dict):
        self._patches = patches

    def find_spec(self, name, path, target=None):
        patch = self._patches.pop(name, None)
        if patch is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


#: Plain layers: module -> ``(class or None, span name, attributes)``.
LAYERS = {
    "repro.exp.spec": [("ExperimentSpec", "spec.validate", ["validate"]),
                       ("ExperimentSpec", "spec.hash", ["content_hash"])],
    "repro.protocols.registry": [("ProtocolEntry", "compile.build",
                                  ["build"])],
    "repro.sim.compiled": [(None, "compile.compile", ["compile_protocol"])],
    "repro.sim.engine": [(None, "sim.construct", ["simulate_counts"])],
    "repro.sim.schedulers": [(None, "sim.construct",
                              ["scheduler_from_spec"])],
    "repro.sim.batched": [(None, "sim.construct",
                           ["batched_simulate_counts"])],
    "repro.sim.ensemble": [
        ("EnsembleMultisetSimulation", "sim.construct", ["__init__"]),
        (None, "sim.run", ["run_ensemble_until_quiescent",
                           "run_ensemble_until_silent",
                           "run_ensemble_until_correct_stable"])],
    "repro.sim.convergence": [(None, "sim.run", [
        "run_until_quiescent", "run_until_silent",
        "run_until_correct_stable"])],
    "repro.exp.fleet": [("WorkerFleet", "dispatch.spawn", ["__init__"]),
                        ("WorkerFleet", "dispatch.install", ["install"]),
                        ("WorkerFleet", "dispatch.run", ["run_pending"])],
    "repro.exp.supervise": [(None, "dispatch.run", ["run_supervised"])],
    "repro.exp.report": [(None, "report.aggregate", ["aggregate"]),
                         (None, "report.format", ["format_report",
                                                  "failure_summary",
                                                  "report_dict"])],
}


def _wrap_attrs(tracer: Tracer, owner, name: str, attrs) -> None:
    for attr in attrs:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))


def _patch_layers(tracer: Tracer, module) -> None:
    for cls, name, attrs in LAYERS[module.__name__]:
        owner = module if cls is None else getattr(module, cls)
        _wrap_attrs(tracer, owner, name, attrs)


def install(tracer: Tracer) -> None:
    """Patch every layer now, or at its first import if not loaded yet."""
    patches = {"repro.exp.runner": functools.partial(_patch_runner, tracer),
               "repro.exp.store": functools.partial(_patch_store, tracer)}
    if tracer.spans_on:
        patches.update((module, functools.partial(_patch_layers, tracer))
                       for module in LAYERS)
        patches["repro.cli"] = functools.partial(_patch_cli, tracer)
        patches["multiprocessing"] = functools.partial(_patch_pool, tracer)
    for name in list(patches):
        if name in sys.modules:
            patches.pop(name)(sys.modules[name])
    sys.meta_path.insert(0, _PatchOnImport(patches))


def _patch_runner(tracer: Tracer, runner) -> None:
    run_experiment = runner.run_experiment

    @functools.wraps(run_experiment)
    def marked(*args, **kwargs):
        tracer.run_enter.append(now())
        index = tracer.open("runner.sweep") if tracer.spans_on else None
        try:
            result = run_experiment(*args, **kwargs)
        finally:
            if index is not None:
                tracer.close(index)
            tracer.run_exit.append(now())
        tracer.results.append({"fleet": result.fleet,
                               "supervision": result.supervision})
        return result

    runner.run_experiment = marked
    if not tracer.spans_on:
        return
    _wrap_attrs(tracer, runner, "runner.trial",
                ["run_trial", "run_ensemble_point", "run_fluid_point"])
    # The in-process point path looks its functions up in this table.
    for engine, fn in list(runner._POINT_FUNCS.items()):
        runner._POINT_FUNCS[engine] = tracer.wrap("runner.trial", fn)


def _patch_store(tracer: Tracer, store) -> None:
    cls = store.ResultStore
    append = cls.append

    if tracer.spans_on:
        traced = tracer.wrap("store.append", append)

        def marked(self, record):
            if tracer.first_record is None:
                tracer.first_record = now()
            return traced(self, record)

        cls.append = functools.wraps(append)(marked)
        _wrap_attrs(tracer, cls, "store.append", ["append_failure"])
        _wrap_attrs(tracer, cls, "store.open", ["__init__", "bind_spec"])
        return

    def first(self, record):
        tracer.first_record = now()
        cls.append = append  # later appends run unwrapped
        return append(self, record)

    cls.append = functools.wraps(append)(first)


def _patch_cli(tracer: Tracer, cli) -> None:
    build_parser = cli.build_parser

    @functools.wraps(build_parser)
    def traced_build():
        parser = tracer.wrap("cli.parse", build_parser)()
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
        return parser

    cli.build_parser = traced_build
    _wrap_attrs(tracer, cli, "cli.command", ["cmd_exp_run", "cmd_exp_report"])


def _patch_pool(tracer: Tracer, multiprocessing) -> None:
    import multiprocessing.pool

    multiprocessing.Pool = tracer.wrap("dispatch.spawn", multiprocessing.Pool)
    imap_unordered = multiprocessing.pool.Pool.imap_unordered

    @functools.wraps(imap_unordered)
    def traced(self, *args, **kwargs):
        return tracer.timed_iter("dispatch.wait",
                                 imap_unordered(self, *args, **kwargs))

    multiprocessing.pool.Pool.imap_unordered = traced
