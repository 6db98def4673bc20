"""The printed answers of the seeded benchmark workloads, pinned as digests.

For `decide`, `realize` and `lattice` at seeds 11 and 12, every request of
the harness's request list (`perfbench/workloads.py`, loaded read-only) is
answered as the harness answers it, and the request, its printed answer
and its unknown flag go into one sha256.  `tests/answers.json` holds that
digest and the counts by request kind and status for each workload and
seed.  A mismatch prints the counts that changed.

The text is the harness's, which for `validity` leaves out the CLI's
` ({detail})` after an `unknown`.

A deliberate change of answers re-pins the digests with

    PYTHONPATH=src python tests/test_answers.py --write

and lists the changed counts in CHANGES.md.
"""

import functools
import hashlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "answers.json"
RUNS = [(name, seed) for name in ("decide", "realize", "lattice")
        for seed in (11, 12)]


@functools.cache
def _harness(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def _status(argv, answer) -> str:
    """A short class of the answer, for the counts."""
    if answer.unknown:
        return "unknown"
    kind, text = argv[0], answer.printed
    if kind in ("validity", "theory", "seq-check"):
        return text.split()[0]
    if kind == "realizes":
        return text.rsplit("\n", 1)[-1].split()[0]
    if kind == "pole-member":
        return "member" if text.startswith("k=") else "absent"
    if kind == "term-search":
        return "none" if text == "none" else "found"
    if kind == "eval":
        return "stuck" if "(stuck)" in text else "fuel"
    return "ok"


def digest(name: str, seed: int) -> dict:
    """The sha256 of a cold pass's printed answers, and their counts."""
    workloads = _harness("workloads")
    for clear in _harness("run")._cache_clearers():
        clear()
    sha, counts = hashlib.sha256(), Counter()
    for argv in workloads.build(name, seed).requests:
        answer = workloads.handle(argv)
        sha.update(json.dumps([argv, answer.printed, answer.unknown])
                   .encode() + b"\n")
        counts[f"{argv[0]} {_status(argv, answer)}"] += 1
    return {"sha256": sha.hexdigest(), "counts": dict(sorted(counts.items()))}


def _key(name: str, seed: int) -> str:
    return f"{name}:{seed}"


@pytest.mark.parametrize("name, seed", RUNS)
def test_printed_answers_match_the_pins(name, seed):
    pinned = json.loads(PINS.read_text())[_key(name, seed)]
    got = digest(name, seed)
    if got != pinned:
        old, new = Counter(pinned["counts"]), Counter(got["counts"])
        changed = {k: (old[k], new[k]) for k in sorted(old.keys() | new.keys())
                   if old[k] != new[k]}
        pytest.fail(f"{name} at seed {seed}: the printed answers changed; "
                    f"counts (pinned, now): {changed or 'unchanged'}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_answers.py --write")
    PINS.write_text(json.dumps({_key(n, s): digest(n, s) for n, s in RUNS},
                               indent=1) + "\n")
    print(f"wrote {PINS}")
