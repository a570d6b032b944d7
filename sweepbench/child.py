"""One measured ``repro`` process: run CLI commands, record when.

Usage (the benchmark launches this; it is not a user entry point)::

    python3 sweepbench/child.py --launch T --commands FILE \\
        --stdout FILE --marks FILE [--spans FILE --run ID]

``FILE`` given to ``--commands`` holds ``{"timed": [argv, ...],
"after": [argv, ...]}``.  Each argv goes to ``repro.cli.main`` in this
interpreter, in order, with standard output sent to ``--stdout``.  The
``end`` mark is taken once the last timed command's report is flushed;
``after`` commands run past it (the traced run's in-process
``exp report``), so they never count toward the sweep's wall time.

``--launch`` is the parent's clock reading just before it started this
process; with ``--spans`` the gap up to this file's first line becomes
the ``python.start`` span.
"""

import time

START = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer, install, now  # noqa: E402


def _run(cli, commands: list) -> None:
    for argv in commands:
        code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"repro {' '.join(argv)} exited with {code}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--commands", required=True)
    parser.add_argument("--stdout", required=True)
    parser.add_argument("--marks", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--run", default="run")
    opts = parser.parse_args()
    with open(opts.commands, encoding="utf-8") as handle:
        commands = json.load(handle)

    tracer = Tracer(spans=opts.spans is not None)
    if tracer.spans_on:
        tracer.record("python.start", opts.launch, START)
    install(tracer)
    index = tracer.open("cli.import") if tracer.spans_on else None
    import repro.cli as cli

    if index is not None:
        tracer.close(index)
    with open(opts.stdout, "w", encoding="utf-8") as out:
        with contextlib.redirect_stdout(out):
            _run(cli, commands["timed"])
            out.flush()
            end = now()
            _run(cli, commands.get("after", []))

    # Reap the keep-warm fleet's workers so their peak memory is counted.
    fleet = sys.modules.get("repro.exp.fleet")
    if fleet is not None:
        fleet.shutdown_fleet()
    compiled = sys.modules.get("repro.sim.compiled")
    marks = {
        "start": START,
        "end": end,
        "run_enter": tracer.run_enter,
        "run_exit": tracer.run_exit,
        "first_record": tracer.first_record,
        "results": tracer.results,
        "pool_results": tracer.pool_results,
        "compile_cache": (compiled.compile_cache_stats()
                          if compiled is not None else {}),
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    with open(opts.marks, "w", encoding="utf-8") as handle:
        json.dump(marks, handle)
    if opts.spans:
        with open(opts.spans, "w", encoding="utf-8") as handle:
            for span in tracer.export(opts.launch, opts.run):
                handle.write(json.dumps(span) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
