"""End-to-end benchmark of the realizability toolkit.

    python3 perfbench/run.py --workload decide|realize|lattice --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the run's
metadata.  Exit code 0 means a result was printed, 2 that the package
could not be imported.

Load model: a closed loop with one client.  One process, no threads; each
request is issued when the previous one has been answered.  A request is
the argument vector of one `realiz` command and goes through parse, layer
call and print, as the CLI does.  The loop repeats whole passes over the
workload's request list until `--seconds` have gone by, clearing the
package's `lru_cache`s before each pass, because every CLI call starts
with cold caches.  Every answer is checked against an independent
reference outside the timed region; a contradiction, an exception or an
answer that differs between passes counts as failed.

The host this was tuned on runs the same code at speeds up to 2x apart
and switches between them every few seconds, so a run's raw times say as
much about the host as about the program.  The loop therefore times a
fixed pure-Python reference walk every PROBE_EVERY_S seconds, from a
timer signal, also while a request runs (its time is taken out of the
request's), and scales each request's latency by REFERENCE_S over the
walk's median time around that request, so that the end-to-end times
read as on a host that runs the walk in REFERENCE_S; each fresh
interpreter that `setup_s` times walks before and after its set-up, and
its time is scaled the same way.  `requests_per_s` is the requests
completed over the scaled time spent in them.  The metadata line holds
the raw times and the walk's times as well.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs one pass
untraced and one traced, reports the per-layer metrics from the traced
pass, times the baseline probes and the acceptance criteria untraced, and
writes the spans to `.perfbench-out/`.

The sandbox this was tuned in allows no CPU pinning and no control of
caches or frequency, and shares its two cores with other tenants: what
the reference walk does not cancel of that noise is left in the times,
which is why runs report medians and quantiles over many requests.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import gc
import hashlib
import json
import os
import resource
import shlex
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
SETUP_WALKS = 3         # reference walks before and after each set-up
PROBE_EVERY_S = 0.05
REFERENCE_S = 2e-3      # the walk's time on the reference host
SPEED_WINDOW_S = 0.1    # walks this close to a request set its speed

NOTES = ("no CPU pinning and no cache control in the sandbox, so times "
         "carry that noise; request times and setup_s are scaled to a host "
         "that runs the reference walk in REFERENCE_S, raw times are under "
         "'raw'; the 5-quantifier Atomless sentence is left out of decide "
         "and of the probes because model_check has no budget that bounds "
         "it")


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=float, metavar="START",
                    help="only import and print the requests, then write "
                         "the seconds this took since START and the "
                         "reference walk's median time to stderr")
    return ap.parse_args(argv)


# --------------------------------------------------------------------------
# The timed loop
# --------------------------------------------------------------------------

class Outcome:
    """Latencies, answers and failures of the passes run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []   # (start, end)
        self.walks: list[tuple[float, float]] = []   # (start, seconds)
        self.answers: dict = {}          # request -> first answer
        self.unknown = 0
        self.errors: list[str] = []      # raised or differed between passes
        self.wall = 0.0
        self.passes = 0
        self.last_pass: list = []        # (request, answer) of the last pass

    @property
    def attempted(self) -> int:
        return len(self.latencies)


class _Node:
    __slots__ = ("op", "kids")

    def __init__(self, op, kids):
        self.op, self.kids = op, kids


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node(i % 3, ())
    return _Node(i % 5, (_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1)))


def _walk(n: _Node, env: dict) -> int:
    if not n.kids:
        return env.get(n.op, n.op)
    a, b = _walk(n.kids[0], env), _walk(n.kids[1], env)
    if isinstance(a, int) and n.op & 1:
        return (a + b) & 0xFFFF
    return (a * 31 ^ b) & 0xFFFF


_WALK_ENV = {0: 3, 1: 5}


@functools.cache
def _walk_tree() -> _Node:
    return _tree(12, 1)


def reference_walk() -> tuple[float, float]:
    """(start, seconds) of one walk over a fixed 8191-node tree: calls,
    attribute reads, isinstance and small-integer arithmetic, with no
    allocation that the garbage collector tracks."""
    tree = _walk_tree()
    t0 = time.perf_counter()
    _walk(tree, _WALK_ENV)
    return t0, time.perf_counter() - t0


def _cache_clearers():
    """cache_clear of every lru_cache in the package, found once before
    any tracing wraps them."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "realizability":
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    out[id(value)] = value.cache_clear
    return list(out.values())


class Walker:
    """Times the reference walk every PROBE_EVERY_S seconds from a SIGALRM
    handler, which runs between the program's bytecodes, so that a long
    request is probed while it runs.  `walks` holds (start, seconds)."""

    def __init__(self, walks: list, active: bool):
        self.walks = walks
        self.active = active

    def _tick(self, signum, frame):
        self.walks.append(reference_walk())

    def __enter__(self):
        _walk_tree()
        if self.active:
            self.old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.old)

    def walked(self, first: int, t0: float, t1: float) -> float:
        """Seconds spent walking within [t0, t1], among walks[first:]."""
        return sum(d for s, d in self.walks[first:] if t0 <= s and s + d <= t1)


def run_passes(w, outcome: Outcome, clearers, *, seconds: float,
               max_passes: int | None = None, tracer=None) -> float:
    """Issue whole passes until `seconds` have gone by; returns the wall
    time of these passes, less the reference walks made during them.  No
    walks are made while tracing."""
    from workloads import handle
    clock = time.perf_counter
    pole_config = tracer.pole_config if tracer else None
    requests = w.requests
    wall = 0.0
    passes = 0
    walks = outcome.walks
    walker = Walker(walks, active=tracer is None)
    while True:
        for clear in clearers:
            clear()
        # Move what the harness holds (requests, earlier answers) out of the
        # collector's reach, so the program's garbage collections cost what
        # they cost in a CLI process that holds none of it.
        gc.collect()
        gc.freeze()
        outcome.last_pass = []
        walks.append(reference_walk())
        first = len(walks)
        with walker:
            start = clock()
            for i, argv in enumerate(requests):
                if tracer:
                    tracer.begin("request." + argv[0], i)
                before = len(walks)
                t0 = clock()
                try:
                    ans = handle(argv, pole_config)
                except Exception as e:  # a crash is a failed request
                    ans = None
                    err = f"{argv[0]} raised {e!r}"
                t1 = clock()
                if tracer:
                    tracer.end()
                outcome.latencies.append(t1 - t0 - walker.walked(before, t0, t1))
                outcome.spans.append((t0, t1))
                if ans is None:
                    outcome.errors.append(err)
                    continue
                outcome.unknown += ans.unknown
                outcome.last_pass.append((argv, ans))
                seen = outcome.answers.setdefault(argv, ans)
                if seen.printed != ans.printed:
                    outcome.errors.append(
                        f"answer changed between passes: {argv}")
            end = clock()
        wall += end - start - walker.walked(first, start, end)
        walks.append(reference_walk())
        passes += 1
        if wall >= seconds or (max_passes and passes >= max_passes):
            break
    outcome.wall += wall
    outcome.passes += passes
    return wall


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Time from spawning a fresh interpreter until it has imported the
    package and generated and printed the workload's requests, as the
    interpreter itself reports it (perf_counter is one clock for all
    processes), so its exit and this process's wake-up are left out.
    The interpreter also times the reference walk before it imports the
    package and after it has printed, leaving those walks out of the set-up
    time: it need not run on this process's core, and the cores' speeds
    differ.  Returns the set-up times and the walk's median time in each."""
    times, walks = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(seed), "--setup-probe", repr(start)]
        p = subprocess.run(cmd, check=True, cwd=ROOT, text=True, timeout=120,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        elapsed, walk = p.stderr.split()[-2:]
        times.append(float(elapsed))
        walks.append(float(walk))
    return times, walks


def speeds(outcome: Outcome) -> list[float]:
    """For each request, the median time of the reference walks within
    SPEED_WINDOW_S of it, or of the three nearest when fewer are."""
    starts = [t for t, _ in outcome.walks]
    least = min(3, len(starts))
    out = []
    for t0, t1 in outcome.spans:
        lo = bisect.bisect_left(starts, t0 - SPEED_WINDOW_S)
        hi = bisect.bisect_right(starts, t1 + SPEED_WINDOW_S)
        while hi - lo < least:
            if lo > 0 and (hi == len(starts)
                           or t0 - starts[lo - 1] < starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        out.append(statistics.median(d for _, d in outcome.walks[lo:hi]))
    return out


def _quantiles(lat: list[float]) -> tuple[float, float, int]:
    lat = sorted(lat)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    return statistics.median(lat), p90, sum(x > p90 for x in lat)


def end_to_end(outcome: Outcome, failed: int, setup):
    setup_raw, setup_walks = setup
    speed = speeds(outcome)
    lat = [x * REFERENCE_S / s for x, s in zip(outcome.latencies, speed)]
    p50, p90, beyond = _quantiles(lat)
    if beyond < 10:
        raise RuntimeError(f"only {beyond} samples beyond p90; "
                           "the workload is too small")
    raw_p50, raw_p90, _ = _quantiles(outcome.latencies)
    n = outcome.attempted
    walk_s = [d for _, d in outcome.walks]
    return {
        "setup_s": (statistics.median(
            t * REFERENCE_S / s for t, s in zip(setup_raw, setup_walks)), "s"),
        "requests_per_s": (n / sum(lat), "1/s"),
        "p50_ms": (p50 * 1e3, "ms"),
        "p90_ms": (p90 * 1e3, "ms"),
        "decided_ratio": (1 - outcome.unknown / n, "ratio"),
        "correct_ratio": (1 - failed / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }, {"samples": n, "beyond_p90": beyond,
        "raw": {"requests_per_s": n / outcome.wall, "p50_ms": raw_p50 * 1e3,
                "p90_ms": raw_p90 * 1e3, "setup_s": setup_raw},
        "reference_walk_ms": {
            "runs": len(walk_s),
            "min": min(walk_s) * 1e3,
            "median": statistics.median(walk_s) * 1e3,
            "max": max(walk_s) * 1e3,
            "in_setup": [s * 1e3 for s in setup_walks]}}


# --------------------------------------------------------------------------
# Metadata
# --------------------------------------------------------------------------

def _git_sha() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "realizability").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def metadata(args, w, outcome: Outcome, extra: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "requests_per_pass": len(w.requests), "passes": outcome.passes,
        "unknown": outcome.unknown, "errors": outcome.errors[:20],
        "notes": NOTES, **extra,
    }


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def measure(args, w, *, tiny: bool = False) -> tuple[dict, dict]:
    """Run the workload as `--trace` asks; returns the result object and
    the metadata."""
    import workloads
    clearers = _cache_clearers()
    outcome = Outcome()
    if args.trace:
        import layers
        metrics, extra = layers.traced_run(w, outcome, clearers, run_passes,
                                           tiny=tiny)
        failures = extra.pop("failures")
    else:
        run_passes(w, outcome, clearers, seconds=args.seconds)
        failures = []
    failures = workloads.check(w, outcome.answers) + failures
    failed = len(failures) + len(outcome.errors)
    if not args.trace:
        setup = (([0.0], [REFERENCE_S]) if tiny
                 else setup_seconds(args.workload, args.seed))
        metrics, extra = end_to_end(outcome, failed, setup)
    extra["failures"] = failures[:20]
    result = {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return result, metadata(args, w, outcome, extra)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe is not None:
        started = time.perf_counter() - args.setup_probe
        before = [reference_walk()[1] for _ in range(SETUP_WALKS)]
        resumed = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import realizability
    except ImportError as e:
        print(f"perfbench: cannot import realizability from {SRC}: {e}",
              file=sys.stderr)
        return 2
    if SRC not in Path(realizability.__file__).resolve().parents:
        print(f"perfbench: realizability was imported from "
              f"{realizability.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 64
    w = workloads.build(args.workload, args.seed)
    if args.setup_probe is not None:
        for argv in w.requests:
            print("realiz " + shlex.join(argv))
        sys.stdout.flush()
        elapsed = started + time.perf_counter() - resumed
        after = [reference_walk()[1] for _ in range(SETUP_WALKS)]
        print(elapsed, statistics.median(before + after), file=sys.stderr)
        return 0
    result, meta = measure(args, w)
    print(json.dumps({"meta": meta}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
