"""Self-check of the benchmark itself, on tiny workloads.

    python3 perfbench/selfcheck.py

Checks that
  1. each workload emits every metric BENCHMARK.json names, with its unit,
     in both modes, and passes its correctness gate;
  2. the gate trips when a layer function is replaced by one that returns
     wrong answers;
  3. the benchmark's files import nothing but the standard library, the
     package and each other.
Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from realizability import bamodels, dinfty, pole  # noqa: E402


def tiny_run(name: str, trace: int) -> dict:
    args = argparse.Namespace(workload=name, seed=1, seconds=0.0, trace=trace)
    result, _ = run.measure(args, workloads.build(name, 1, tiny=True),
                            tiny=True)
    return result


def metric_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.WORKLOADS:
            result = tiny_run(name, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in set(got) & set(want)
                               if got[k] != want[k])
                problems.append(f"{name} --trace {trace}: missing {missing}, "
                                f"extra {extra}, units differ on {units}")
            if not result["correct"]:
                problems.append(f"{name} --trace {trace}: gate failed "
                                f"on the unmodified package")
    return problems


def _always_valid(A, *args, **kwargs):
    return bamodels.Verdict("valid", bamodels.Justification.GROUND)


def _never_enters(p, cfg=None):
    return None


def _theta_of_bottom(alpha):
    return _THETA(dinfty.bottom())


_THETA = dinfty.theta
MUTANTS = [
    ("decide", bamodels, "valid_all_bas", _always_valid),
    ("realize", pole, "in_pole_limit", _never_enters),
    ("lattice", dinfty, "theta", _theta_of_bottom),
]


def gate_trips() -> list[str]:
    problems = []
    for name, owner, attr, wrong in MUTANTS:
        undo = tracer.rebind(owner, attr, wrong)
        try:
            result = tiny_run(name, 0)
        finally:
            tracer.restore(undo)
        if result["correct"] or not result["failed"]:
            problems.append(f"{name}: wrong {attr} passed the gate")
    return problems


def stdlib_only() -> list[str]:
    local = {p.stem for p in HERE.glob("*.py")}
    allowed = set(sys.stdlib_module_names) | local | {"realizability",
                                                      "__future__"}
    problems = []
    for path in sorted(HERE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if not node.level else []
            else:
                continue
            for n in names:
                if n.split(".")[0] not in allowed:
                    problems.append(f"{path.name} imports {n}")
    return problems


def main() -> int:
    failed = False
    for label, check in (("metric names and units", metric_names),
                         ("gate trips on wrong answers", gate_trips),
                         ("stdlib-only imports", stdlib_only)):
        problems = check()
        failed |= bool(problems)
        print(f"{'ok  ' if not problems else 'FAIL'} {label}")
        for p in problems:
            print(f"     {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
