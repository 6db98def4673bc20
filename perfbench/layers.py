"""The traced run: per-layer metrics, baseline probes and criterion times.

Names are `<module>.<what>`.  A ratio comes with its numerator and
denominator as separate counts.  Probes and criteria run with tracing off,
so their times compare with untraced runs of the same code.

Which end-to-end metric each layer metric should move, and where:

  syntax.*                           p50_ms on decide, realize
  formulas.*                         p90_ms, requests_per_s on decide;
                                     p50_ms on realize
  bamodels.valid_all_bas.*,          p50_ms on decide
    bamodels.fast_path_ratio
  bamodels.model_check.*,            p90_ms, requests_per_s, decided_ratio
    is_prop_tautology, guard_ratio   on decide; p90_ms on lattice
  lcterms.*                          p90_ms, requests_per_s on realize
  machine.*                          requests_per_s on realize
  pole.*                             p50_ms, p90_ms, peak_rss_mb on realize
  dinfty.level.*, tbl_join           requests_per_s, peak_rss_mb on lattice
  dinfty.term_search.*, denote,      p90_ms on lattice
    denote_formula, seq_check
  dinfty.theta                       p50_ms on lattice
  corpus.self_s                      setup_s on all
  trace.overhead_ratio               nothing; the cost of tracing itself
  probe.*, suite.criterion_<n>_s     the ROADMAP baseline table; criteria
                                     2-3 go with decide, 5-7 with realize,
                                     8-10 with lattice
"""

from __future__ import annotations

import time
from pathlib import Path

from realizability import bamodels, corpus, dinfty, formulas, lcterms
from realizability import machine, pole, suite, syntax

import workloads
from tracer import Tracer

FAST_PATHS = {bamodels.Justification.GROUND, bamodels.Justification.HORN,
              bamodels.Justification.TAUTOLOGY}
OUT_DIR = ".perfbench-out"


def traced_run(w, outcome, clearers, run_passes, *, tiny=False):
    """One untraced pass, then the set-up and one pass traced; then the
    probes and criteria untraced.  Returns (metrics, metadata)."""
    untraced = run_passes(w, outcome, clearers, seconds=0, max_passes=1)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin("setup", -1)
        workloads.build(w.name, w.seed, tiny=tiny)
        tracer.end()
        traced = run_passes(w, outcome, clearers, seconds=0, max_passes=1,
                            tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, outcome.last_pass)
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    for clear in clearers:
        clear()
    probe_metrics, failures = probes(w.seed, tiny)
    metrics.update(probe_metrics)
    crit_metrics, crit_failures = criteria()
    metrics.update(crit_metrics)
    out = Path(__file__).resolve().parent.parent / OUT_DIR
    out.mkdir(exist_ok=True)
    trace_file = out / f"trace-{w.name}-seed{w.seed}.json.gz"
    tracer.write(trace_file)
    return metrics, {"failures": failures + crit_failures,
                     "spans": len(tracer.spans),
                     "trace_file": str(trace_file.relative_to(out.parent))}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, answered) -> dict:
    s = tracer.summary()
    calls, own, counts = s["calls"], s["self_s"], s["counts"]

    def c(name):
        return (calls.get(name, 0), "count")

    def t(name):
        return (own.get(name, 0.0), "s")

    def n(name):
        return (counts.get(name, 0), "count")

    validity = [a for argv, a in answered if argv[0] == "validity"]
    decide = [a for argv, a in answered if argv[0] in ("validity", "theory")]
    fast = sum(a.value.justification in FAST_PATHS for a in validity)
    guard = sum(a.unknown and (a.value is None
                               or a.value.detail.startswith("guard"))
                for a in decide)
    members = [a for argv, a in answered if argv[0] == "pole-member"]
    absent = sum(a.value is None for a in members)
    levels = [a.value for a in members if a.value is not None]
    levels += [k for argv, a in answered if argv[0] == "realizes"
               for _, k in a.value.results if k is not None]
    memo = sum(a.memo for _, a in answered)
    eval_steps = sum(len(a.value.steps) for argv, a in answered
                     if argv[0] == "eval")
    evaluate_s = own.get("machine.evaluate", 0.0)
    lookups, hits = s["memo_lookups"], s["memo_hits"]
    searches = calls.get("dinfty.term_search", 0)
    found = s["term_search_hits"]
    return {
        "request.self_s": t("request"),
        "syntax.calls": (sum(v for k, v in calls.items()
                             if k.startswith("syntax.")), "count"),
        "syntax.self_s": t("syntax"),
        "formulas.eval_term_01.calls": n("formulas.eval_term_01.calls"),
        "formulas.decompose.calls": n("formulas.decompose.calls"),
        "formulas.subst_formula.calls": n("formulas.subst_formula.calls"),
        "formulas.self_s": t("formulas"),
        "bamodels.valid_all_bas.calls": c("bamodels.valid_all_bas"),
        "bamodels.valid_all_bas.self_s": t("bamodels.valid_all_bas"),
        "bamodels.fast_path_ratio": (_ratio(fast, len(validity)), "ratio"),
        "bamodels.fast_path.verdicts": (fast, "count"),
        "bamodels.validity.requests": (len(validity), "count"),
        "bamodels.model_check.finite.calls": c("bamodels.model_check.finite"),
        "bamodels.model_check.finite.self_s": t("bamodels.model_check.finite"),
        "bamodels.model_check.atomless.calls":
            c("bamodels.model_check.atomless"),
        "bamodels.model_check.atomless.self_s":
            t("bamodels.model_check.atomless"),
        "bamodels.is_prop_tautology.self_s": t("bamodels.is_prop_tautology"),
        "bamodels.theory_membership.self_s": t("bamodels.theory_membership"),
        "bamodels.guard_ratio": (_ratio(guard, len(decide)), "ratio"),
        "bamodels.guard.answers": (guard, "count"),
        "bamodels.requests": (len(decide), "count"),
        "lcterms.free_lvars.calls": n("lcterms.free_lvars.calls"),
        "lcterms.subst_lc.calls": n("lcterms.subst_lc.calls"),
        "lcterms.canon_process.calls": c("lcterms.canon_process"),
        "lcterms.canon_process.self_s": t("lcterms.canon_process"),
        "machine.steps": n("machine.steps"),
        "machine.eval_steps": (eval_steps, "count"),
        "machine.self_s": t("machine"),
        "machine.steps_per_s": (_ratio(eval_steps, evaluate_s), "1/s"),
        "pole.in_pole.calls": n("pole.in_pole.calls"),
        "pole.memo_entries": (memo, "count"),
        "pole.memo_hit_ratio": (_ratio(hits, lookups), "ratio"),
        "pole.memo.hits": (hits, "count"),
        "pole.memo.lookups": (lookups, "count"),
        "pole.self_s": t("pole"),
        "pole.entry_level.max": (max(levels, default=0), "level"),
        "pole.absent_ratio": (_ratio(absent, len(members)), "ratio"),
        "pole.absent.answers": (absent, "count"),
        "pole.member.requests": (len(members), "count"),
        "dinfty.level.elements": (s["level_elements"], "count"),
        "dinfty.level.self_s": t("dinfty.level"),
        "dinfty.tbl_join.calls": n("dinfty.tbl_join.calls"),
        "dinfty.term_search.calls": (searches, "count"),
        "dinfty.term_search.candidates": (s["denote_in_term_search"], "count"),
        "dinfty.term_search.hit_ratio": (_ratio(found, searches), "ratio"),
        "dinfty.term_search.hits": (found, "count"),
        "dinfty.denote.self_s": t("dinfty.denote"),
        "dinfty.denote_formula.self_s": t("dinfty.denote_formula"),
        "dinfty.seq_check.self_s": t("dinfty.seq_check"),
        "dinfty.theta.self_s": t("dinfty.theta"),
        "corpus.self_s": t("corpus"),
        "trace.spans": (s["spans"], "count"),
    }


# --------------------------------------------------------------------------
# Baseline probes (ROADMAP item 1) and acceptance-criterion times
# --------------------------------------------------------------------------

def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def probes(seed: int, tiny: bool) -> tuple[dict, list[str]]:
    """The baseline cases, run with cold caches.  The 5-quantifier
    Atomless sentence is left out: model_check has no budget that bounds
    it (over 60 s)."""
    failures = []
    out = {}
    rank = 2 if tiny else 3
    size, dt = _timed(lambda: dinfty.level_size(rank))
    out["probe.level3_s"] = (dt, "s")
    if size != (10 if tiny else 120549):
        failures.append(f"probe: |rank {rank}| = {size}")
    sentences = corpus.formula_corpus(10 if tiny else 100, seed, height=4,
                                      max_qdepth=3)
    for label, spec in (("pf1", bamodels.PowerFinite(1)),
                        ("pf6", bamodels.PowerFinite(6)),
                        ("atomless", bamodels.Atomless())):
        _, dt = _timed(lambda: [bamodels.model_check(a, spec)
                                for a in sentences])
        out[f"probe.model_check_h4_{label}_s"] = (dt, "s")
    zs = ("z0", "z1") if tiny else ("z0", "z1", "z2", "z3")
    deep = formulas.forall_many(zs, formulas.Impl(
        formulas.Neq(formulas.Var(zs[0]), formulas.Var(zs[-1])),
        formulas.Neq(formulas.Var(zs[-1]), formulas.Var(zs[0]))))
    ok, dt = _timed(lambda: bamodels.model_check(deep, bamodels.Atomless()))
    out["probe.deep4_atomless_s"] = (dt, "s")
    if ok is not True:
        failures.append("probe: depth-4 symmetric sentence refuted")
    n = 5 if tiny else 60
    cfg = pole.PoleConfig(k_max=2 * n + 8)
    chain = workloads.identity_chain(n, lcterms.Gamma(formulas.bot()))
    level, dt = _timed(lambda: pole.in_pole_limit(chain, cfg))
    out["probe.pole_chain60_s"] = (dt, "s")
    out["probe.pole_chain60.memo_entries"] = (len(cfg.memo), "count")
    if level != 2 * n + 1:
        failures.append(f"probe: {n}-redex chain entered at {level}")
    omega = syntax.parse_process(r"(\x. x x) (\x. x x) * []")
    fuel = 200 if tiny else 20000
    tr, dt = _timed(lambda: machine.evaluate(omega, fuel=fuel))
    out["probe.machine_omega20k_s"] = (dt, "s")
    if len(tr.steps) != fuel:
        failures.append("probe: omega stopped early")
    return out, failures


def criteria() -> tuple[dict, list[str]]:
    """suite.criterion_<n>() wall time, in run_all's order; criterion 6
    reuses criterion 5's certified processes as run_all does."""
    out, failures = {}, []
    certified: list = []
    calls = [(i, getattr(suite, f"criterion_{i}")) for i in range(1, 13)]
    for i, fn in calls:
        arg = (certified,) if i in (5, 6) else ()
        r, dt = _timed(lambda: fn(*arg))
        out[f"suite.criterion_{i}_s"] = (dt, "s")
        if not r.ok:
            failures.append(f"criterion {i}: {r.detail}")
    return out, failures
