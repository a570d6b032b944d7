"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` subpackage, collects the names its ``__init__``
re-exports (``__all__``), and renders one line per name with the first
sentence of its docstring.  Run from the repository root:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

PACKAGES = [
    "repro.core",
    "repro.protocols",
    "repro.presburger",
    "repro.sim",
    "repro.analysis",
    "repro.exp",
    "repro.machines",
    "repro.util",
]


#: A sentence ends at a period followed by whitespace, except inside
#: ``code`` spans, in an ellipsis, and after the abbreviations the
#: docstrings use ("e.g.", "i.e.", "Sect.", "Fig.", "vs.").
_SENTENCE_END = re.compile(
    r"``.*?``|(?<!e\.g)(?<!i\.e)(?<!Sect)(?<!Fig)(?<!vs)(?<!\.)\.(?:\s|$)")


def first_sentence(obj) -> str:
    """The first sentence of ``obj``'s docstring, on one line."""
    doc = inspect.getdoc(obj) or ""
    paragraph = " ".join(doc.strip().split("\n\n")[0].split())
    for end in _SENTENCE_END.finditer(paragraph):
        if not end.group().startswith("``"):
            paragraph = paragraph[:end.start()]
            break
    return paragraph.rstrip(".") + "." if paragraph else "(undocumented)"


def render() -> str:
    lines = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py`; one line per public",
        "name (the first sentence of its docstring).  See the module",
        "docstrings for the full story.",
        "",
    ]
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        lines.append(f"## `{package_name}`")
        lines.append("")
        summary = first_sentence(package)
        lines.append(summary)
        lines.append("")
        exported = sorted(getattr(package, "__all__", []))
        for name in exported:
            obj = getattr(package, name)
            kind = ("class" if inspect.isclass(obj)
                    else "function" if callable(obj)
                    else "constant")
            summary = (f"``{obj!r}``." if kind == "constant"
                       else first_sentence(obj))
            lines.append(f"- **`{name}`** ({kind}) — {summary}")
        lines.append("")
    lines.extend(FAULTS_SECTION)
    cli = importlib.import_module("repro.cli")
    lines.append("## `repro.cli` / `python -m repro`")
    lines.append("")
    lines.append(first_sentence(cli))
    lines.append("")
    lines.append("Commands: `qe`, `simulate`, `verify`, `exact`, "
                 "`protocols`, `run`, `robustness`, `exp run`, "
                 "`exp report`, `chaos run`, `chaos replay`, `bench` "
                 "(see `python -m repro --help`).")
    lines.append("")
    lines.append("Engine selection, the compiled/batched fast paths, and "
                 "the `bench` regression gate are covered in "
                 "`docs/PERFORMANCE.md`.")
    lines.append("")
    return "\n".join(lines)


FAULTS_SECTION = [
    "## Fault injection & robustness",
    "",
    "The fault layer (`repro.sim.faults`) plugs into both engines via the",
    "`faults=` constructor parameter: a `FaultPlan` bundles `FaultModel`",
    "instances — crashes (`CrashAt`, `CrashRate`, `TargetedCrash`),",
    "transient state corruption (`CorruptAt`, `CorruptionRate`), and",
    "interaction omission (`OmitAt`, `OmissionRate`) — and composes with",
    "any scheduler, interaction graph, and the convergence/stats",
    "machinery.  Fault randomness comes from the plan's own RNG, so a run",
    "without a plan is bit-identical to the pre-fault-layer engines and a",
    "run with one leaves the engine's scheduling stream untouched.",
    "",
    "```python",
    "from repro.sim.engine import simulate_counts",
    "from repro.sim.faults import FaultPlan, TargetedCrash",
    "from repro.protocols.counting import CountToK",
    "",
    "plan = FaultPlan(TargetedCrash(lambda s: 3 <= s < 5), seed=1)",
    "sim = simulate_counts(CountToK(5), {1: 5, 0: 11}, seed=0, faults=plan)",
    "sim.run(30_000)",
    "print(sim.unanimous_surviving_output(), repr(plan))",
    "```",
    "",
    "The resilience harness (`repro.analysis.robustness`) sweeps fault",
    "scenarios over registry protocols (`run_robustness`,",
    "`resilience_curve`, `measure_correctness`) and is exposed as",
    "`python -m repro robustness --protocol epidemic --protocol count_to_k`.",
    "Direct crash primitives live on the engines themselves (`crash`,",
    "`crash_random`, `crash_matching`, `corrupt_random`,",
    "`surviving_outputs`, `unanimous_surviving_output`); schedule",
    "crashes with a `FaultPlan` (`CrashAt`, `CrashRate`, `TargetedCrash`).",
    "",
]


def main() -> None:
    output = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    output.write_text(render())
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
