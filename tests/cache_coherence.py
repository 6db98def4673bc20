"""Lattice requests print the same warm, cold and in a fresh process.

Each request runs in this process, then again after every package
lru_cache is cleared, and each time its (stdout, exit code) must equal
that of a fresh `python -m realizability.cli` process.  θ printing shares
selector codes across calls, and term-search fills the candidates cache
and their components on demand, so a state left from one request must not
change the next, warm or cold.

Run it from the repository root:  python3 tests/cache_coherence.py
It exits non-zero on the first mismatch.  pytest does not collect it.
"""

import contextlib
import io
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")
sys.path.insert(0, SRC)

from realizability.cli import main  # noqa: E402

REQUESTS = [["theta", "--rank", "3", "--element", i]
            for i in ("0", "2863", "120548", "0", "120548")]
REQUESTS += [["seq-check", "--rank", "2", "--element", str(i)]
             for i in range(10)]
REQUESTS += [["seq-check", "--rank", "3", "--element", "2863"]]
REQUESTS += [["term-search", "--rank", "2", "--element", str(i),
              "--size-budget", "6"] for i in range(10)]


def clear_caches():
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "realizability":
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return out.getvalue(), code


def fresh(argv):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "realizability.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    return done.stdout, done.returncode


if __name__ == "__main__":
    for cold in (False, True):
        if cold:
            clear_caches()
        for argv in REQUESTS:
            got, want = in_process(argv), fresh(argv)
            if got != want:
                sys.exit(f"{' '.join(argv)} ({'cold' if cold else 'warm'}): "
                         f"{got!r} in process, {want!r} fresh")
    print(f"{len(REQUESTS)} requests agree warm, cold and fresh")
