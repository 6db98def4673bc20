"""Spans and counters around the package's public functions.

`Tracer.install` rebinds each listed function in every `realizability.*`
module namespace (and class) that holds it, so calls made inside the
package are seen as well; `uninstall` puts the originals back.  Nothing in
the package is edited.

A spanned function records (name, start, end, parent, request id).  A call
made while a span of the same group is innermost is part of that span and
records nothing, so recursion and printer-to-printer calls cost one span.
Hot recursive functions are only counted.  Spans stay in memory until the
run ends; a span's self time is its duration minus the time its direct
children cover, and counted calls are part of the self time of the span
they run in.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

from realizability import (
    bamodels, corpus, dinfty, formulas, lcterms, machine, pole, syntax,
)


def _model_check_name(args, kwargs):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    kind = "atomless" if isinstance(spec, bamodels.Atomless) else "finite"
    return f"bamodels.model_check.{kind}"


# (owner, attribute, span name or naming function, group)
SPANNED = [
    *[(syntax, f, f"syntax.{f}", "syntax") for f in (
        "parse_formula", "parse_lcterm", "parse_process", "parse_stack",
        "print_formula", "print_lcterm", "print_process", "print_stack")],
    (formulas, "eval_formula_01", "formulas.eval_formula_01", "formulas"),
    (formulas, "classify_horn", "formulas.classify_horn", "formulas"),
    (formulas, "canon", "formulas.canon", "formulas"),
    (bamodels, "valid_all_bas", "bamodels.valid_all_bas", "valid_all_bas"),
    (bamodels, "model_check", _model_check_name, "model_check"),
    (bamodels, "is_prop_tautology", "bamodels.is_prop_tautology",
     "is_prop_tautology"),
    (bamodels.TheoryOracle, "membership", "bamodels.theory_membership",
     "theory_membership"),
    (lcterms, "canon_process", "lcterms.canon_process", "canon_process"),
    (machine, "evaluate", "machine.evaluate", "machine"),
    (pole, "in_pole_limit", "pole.in_pole_limit", "pole"),
    (pole, "realizes_bounded", "pole.realizes_bounded", "pole"),
    (pole, "constraint_check", "pole.constraint_check", "pole"),
    # level itself runs on every val() call, cached or not: span level_size,
    # which every rank enumeration in the handlers goes through
    (dinfty, "level_size", "dinfty.level", "level"),
    (dinfty, "denote", "dinfty.denote", "denote"),
    (dinfty, "denote_formula", "dinfty.denote_formula", "denote_formula"),
    (dinfty, "theta", "dinfty.theta", "theta"),
    (dinfty, "seq_check", "dinfty.seq_check", "seq_check"),
    (dinfty, "term_search", "dinfty.term_search", "term_search"),
    *[(corpus, f, f"corpus.{f}", "corpus") for f in (
        "formula_corpus", "process_corpus", "exhaustive_formulas_height2",
        "random_bterm")],
]

COUNTED = [
    (formulas, "eval_term_01", "formulas.eval_term_01.calls"),
    (formulas, "decompose", "formulas.decompose.calls"),
    (formulas, "subst_formula", "formulas.subst_formula.calls"),
    (lcterms, "free_lvars", "lcterms.free_lvars.calls"),
    (lcterms, "subst_lc", "lcterms.subst_lc.calls"),
    (machine, "step", "machine.steps"),
    (pole, "in_pole", "pole.in_pole.calls"),
    (dinfty, "tbl_join", "dinfty.tbl_join.calls"),
]


def rebind(owner, attr, replacement) -> list[tuple[object, str, object]]:
    """Put `replacement` wherever `owner.attr` is bound: in the class, or in
    every loaded `realizability.*` module.  Returns what to restore."""
    original = getattr(owner, attr)
    if isinstance(owner, type):
        holders = [owner]
    else:
        holders = [m for n, m in list(sys.modules.items())
                   if n.split(".")[0] == "realizability"]
    undo = []
    for holder in holders:
        for key, value in list(vars(holder).items()):
            if value is original:
                undo.append((holder, key, value))
                setattr(holder, key, replacement)
    return undo


def restore(undo) -> None:
    for holder, key, value in reversed(undo):
        setattr(holder, key, value)


class CountingMemo(dict):
    """A pole memo that counts its lookups and hits into `stats`."""

    def __init__(self, stats: list[int]):
        super().__init__()
        self.stats = stats

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        self.stats[0] += 1
        self.stats[1] += value is not None
        return value


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, group, start, end, parent, req]
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[str, list[int]] = {}
        self.level_elements = 0
        self.search_hits = 0
        self.memo_stats = [0, 0]      # lookups, hits
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, group in SPANNED:
            self._rebind(owner, attr, self._spanned(getattr(owner, attr),
                                                    name, group))
        for owner, attr, name in COUNTED:
            self._rebind(owner, attr, self._counted(getattr(owner, attr),
                                                    name))

    def pole_config(self, **kwargs) -> pole.PoleConfig:
        """A fresh PoleConfig whose memo counts lookups and hits."""
        return pole.PoleConfig(memo=CountingMemo(self.memo_stats), **kwargs)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo.clear()

    def _rebind(self, owner, attr, wrapper) -> None:
        self._undo += rebind(owner, attr, wrapper)

    def _spanned(self, fn, name, group):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        naming = name if callable(name) else None
        before, after = self._hooks(name)

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][1] == group:
                return fn(*args, **kwargs)
            span = [naming(args, kwargs) if naming else name, group,
                    0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            state = before() if before else None
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after:
                after(result, state)
            return result

        return wrapper

    def _counted(self, fn, name):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self, name):
        """Outcome counters: elements of levels enumerated afresh (not
        served by the lru cache), and term searches that found a witness."""
        if name == "dinfty.level":
            info = dinfty.level.cache_info

            def after(size, misses):
                if info().misses > misses:
                    self.level_elements += size
            return (lambda: info().misses), after
        if name == "dinfty.term_search":
            def after(result, _):
                self.search_hits += result is not None
            return None, after
        return None, None

    # -- request spans ------------------------------------------------------

    def begin(self, name: str, request: int) -> None:
        self.request = request
        self.stack.append(len(self.spans))
        self.spans.append([name, "request", time.perf_counter(), 0.0,
                           -1, request])

    def end(self) -> None:
        self.spans[self.stack.pop()][3] = time.perf_counter()
        self.request = -1

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per span name and per module; counters."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for s in spans:
            if s[4] >= 0:
                covered[s[4]] += s[3] - s[2]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        candidates = 0
        for i, s in enumerate(spans):
            own = s[3] - s[2] - covered[i]
            calls[s[0]] += 1
            self_s[s[0]] += own
            module = s[0].split(".")[0]
            if module != s[0]:
                self_s[module] += own
            if s[0] == "dinfty.denote" \
                    and self._inside(i, "dinfty.term_search"):
                candidates += 1
        out = {"calls": dict(calls), "self_s": dict(self_s),
               "counts": {k: v[0] for k, v in self.counts.items()},
               "spans": len(spans), "denote_in_term_search": candidates,
               "level_elements": self.level_elements,
               "term_search_hits": self.search_hits,
               "memo_lookups": self.memo_stats[0],
               "memo_hits": self.memo_stats[1]}
        return out

    def _inside(self, i: int, name: str) -> bool:
        p = self.spans[i][4]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][4]
        return False

    def write(self, path) -> None:
        """All spans as JSON: a name table and rows of
        [name index, start, end, parent, request]."""
        names: dict[str, int] = {}
        rows = [[names.setdefault(s[0], len(names)), round(s[2], 7),
                 round(s[3], 7), s[4], s[5]] for s in self.spans]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": list(names), "spans": rows}, fh,
                      separators=(",", ":"))
