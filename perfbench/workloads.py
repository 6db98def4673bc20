"""Seeded request lists, request handlers and reference checks.

A request is the argument vector of one `realiz` command line, such as
("validity", "forall z. z != 0 -> 0 != z").  `build` turns a workload name
and a seed into a head (issued first, in order) and a body (shuffled by
the seed); `handle` answers one request the way the matching `cli.cmd_*`
does: parse the text, call the layer, print the result; and a workload's
`check` compares the answers with references that do not go through the
function under test: `brute_check` for validity and theory, closed-form
entry levels and the tag constraint (criterion 6) for the pole, a
Push/Grab cycle for the machine, and `denote_formula` round trips and the
criterion-10 triple for the lattice.

Layer functions are looked up through their modules at call time, so the
tracer's rebinding of module attributes is seen by the handlers too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from realizability import bamodels, corpus, dinfty, formulas, lcterms
from realizability import machine, pole, syntax

WORKLOADS = ("decide", "realize", "lattice")

# decide: seeded corpus sentences per height, drawn to fixed quotas per
# (quantifier depth, fast path) stratum.  The quotas are the generator's own
# proportions per 100 sentences, measured over 20000 draws of
# formula_corpus; fixing them keeps the mix of cheap and costly sentences,
# and so the quantiles, from moving with the seed.  A sentence is on the
# syntactic fast path when it is ground or Horn.  The generator's depth-3
# non-Horn stratum (7 and 14 per 100 at heights 4 and 5) is left out: its
# cost runs from 0.1 ms to 0.3 s by the seed, so a pass's total moved with
# the seed; the seeded depth-3 sweeps below stand in for it at a bounded
# cost.
DECIDE_QUOTAS = {
    3: {(0, True): 45, (1, False): 21, (1, True): 14, (2, False): 14,
        (2, True): 4, (3, True): 2},
    4: {(0, True): 42, (1, False): 16, (1, True): 13, (2, False): 18,
        (2, True): 3, (3, True): 1},
    5: {(0, True): 41, (1, False): 12, (1, True): 12, (2, False): 17,
        (2, True): 3, (3, True): 1},
}
DECIDE_CORPUS_SCALE = 8
# Family sweeps that end `unknown`: depth-2 sentences (3-9 ms each), enough
# of them that p90 falls inside their group, and depth-3 sentences
# (45-90 ms each), which with the rank-2 thetas (0.1-0.2 s each) set
# requests_per_s.  The depth-4 sentences (seconds each over Atomless) are
# left to the traced run's probe.deep4_atomless_s: one of them per pass
# would be half of the pass, one seeded sample that sets the throughput.
DECIDE_SWEEPS = {2: 260, 3: 20}
# realize: seeded identity sentences and pole-member processes per pass.
REALIZE_ID_SENTENCES = 40
REALIZE_PROCESSES = 500
ID_CHAINS = (10, 20, 30, 40, 60)
CC_CHAINS = (4, 8, 12, 16, 24)
CHAIN_K = 128
OMEGA_FUEL = 20000
# lattice: one sweep over ranks 0-2 and seeded rank-3 requests per pass,
# after the cold level(3).  The counts put p50 among the rank-3 thetas
# (10-50 ms each) and p90 among the rank-3 seq-checks (0.2-0.26 s each),
# so that neither quantile sits on the edge between two groups of requests.
LATTICE_RANK3_THETAS = 130
LATTICE_RANK3_SEQ_CHECKS = 30
LATTICE_TINY_SWEEPS = 3
RANK3_SIZE = 120549
PEIRCE_RANK3_INDEX = 2863   # ((top -> top) -> top) -> top, checked below
TERM_SEARCH_BUDGET = 6

OMEGA = r"(\x. x x) (\x. x x) * []"
# g{_|_} enters the pole at 1; the chains end in it, so their cost does not
# move with the seed
LEVEL_ONE_TAIL = lcterms.Gamma(formulas.bot())
IDENTITY = r"\x. x"


@dataclass
class Workload:
    name: str
    seed: int
    head: list[tuple[str, ...]]
    body: list[tuple[str, ...]]
    tiny: bool = False
    # pole-member request -> entry level known in closed form
    levels: dict = field(default_factory=dict)

    @property
    def requests(self) -> list[tuple[str, ...]]:
        return self.head + self.body


def _opt(argv: tuple[str, ...], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


# --------------------------------------------------------------------------
# Request generation (this is the set-up a user pays before the first call)
# --------------------------------------------------------------------------

def _sweep_sentence(rng: random.Random, depth: int,
                    term: bool) -> formulas.Formula:
    """forall z0..z<depth-1>. c != t -> t != c, with t a seeded term (or a
    single variable) that is not ground: true everywhere, and not ground,
    Horn or a propositional tautology, so validity sweeps the whole
    family.  The depth sets the cost; the term spreads it."""
    zs = tuple(f"z{i}" for i in range(depth))
    c = rng.choice((formulas.ZERO, formulas.ONE))
    while True:
        t = (corpus.random_bterm(rng, zs, 3) if term
             else formulas.Var(rng.choice(zs)))
        if formulas.term_vars(t):
            return formulas.forall_many(zs, formulas.Impl(
                formulas.Neq(c, t), formulas.Neq(t, c)))


def _qdepth(a: formulas.Formula) -> int:
    if isinstance(a, formulas.Forall):
        return 1 + _qdepth(a.body)
    if isinstance(a, formulas.Impl):
        return max(_qdepth(a.ante), _qdepth(a.cons))
    return 0


def _stratum(a: formulas.Formula) -> tuple[int, bool]:
    fast = formulas.is_ground(a) or (formulas.classify_horn(a)
                                     is not formulas.HornKind.NOT_HORN)
    return _qdepth(a), fast


def _stratified(rng: random.Random, height: int, scale: int) -> list:
    """formula_corpus sentences of one height, kept in draw order until
    every stratum's quota is met."""
    want = {k: q * scale for k, q in DECIDE_QUOTAS[height].items()}
    out = []
    while any(want.values()):
        for a in corpus.formula_corpus(200, rng.randrange(2**31),
                                       height=height, max_qdepth=3):
            k = _stratum(a)
            if want.get(k):
                want[k] -= 1
                out.append(a)
    return out


def _build_decide(rng: random.Random, tiny: bool):
    pf = syntax.print_formula
    sentences = []
    for h in DECIDE_QUOTAS:
        sentences += _stratified(rng, h, 1 if tiny else DECIDE_CORPUS_SCALE)
    thetas = [dinfty.theta(dinfty.elem(2, dinfty.val(2, i)))
              for i in range(dinfty.level_size(2))]
    if tiny:
        thetas = thetas[5:]   # the five that settle without a family sweep
    sweeps = [_sweep_sentence(rng, depth, True)
              for depth, n in DECIDE_SWEEPS.items()
              for _ in range(max(n // 20, 1) if tiny else n)]
    body = []
    for a in sentences + thetas + sweeps:
        text = pf(a)
        body += [("validity", text), ("theory", "--contains", text)]
    return [], body, {}


def identity_chain(n: int, tail: lcterms.LcTerm) -> lcterms.Process:
    """(\\x. x) applied n times to a level-1 tail, on the empty stack: each
    redex costs a Push and a Grab, so the entry level is 2n + 1."""
    t = tail
    for _ in range(n):
        t = lcterms.App(lcterms.Lam("x", lcterms.LVar("x")), t)
    return lcterms.Process(t, lcterms.EMPTY)


def cc_chain(n: int, tail: lcterms.LcTerm) -> lcterms.Process:
    """cc (\\k. k t) nested n times over a level-1 tail: each layer takes
    Push, Save, Grab, Push, Restore, so the entry level is 5n + 1."""
    t = tail
    for _ in range(n):
        t = lcterms.App(lcterms.CC, lcterms.Lam(
            "k", lcterms.App(lcterms.LVar("k"), t)))
    return lcterms.Process(t, lcterms.EMPTY)


def _build_realize(rng: random.Random, tiny: bool):
    pf, pl = syntax.print_formula, syntax.print_lcterm
    body = []
    suite = corpus.exhaustive_formulas_height2()
    suite += [a for a in corpus.formula_corpus(130, seed=43, height=3,
                                               max_qdepth=3)
              if not formulas.free_vars(a)][:100]
    if tiny:
        suite = suite[::60]
    for a in suite:
        body.append(("realizes", pl(lcterms.Gamma(a)), pf(a)))
    eqs = list(formulas.tbool_equations())
    for _ in range(4 if tiny else REALIZE_ID_SENTENCES):
        vs = ("z", "w")[:rng.randrange(3)]
        eqs.append(formulas.forall_many(vs, formulas.Neq(
            corpus.random_bterm(rng, vs), corpus.random_bterm(rng, vs))))
    body += [("realizes", IDENTITY, pf(a)) for a in eqs]
    procs = corpus.process_corpus(60 if tiny else REALIZE_PROCESSES,
                                  rng.randrange(2**31))
    body += [("pole-member", syntax.print_process(p), "--k", "32")
             for p in procs]
    levels = {("pole-member", p, "--k", "32"): k
              for p, k in HAND_LEVELS.items()}
    for n in ID_CHAINS[:2] if tiny else ID_CHAINS:
        chain = syntax.print_process(identity_chain(n, LEVEL_ONE_TAIL))
        levels[("pole-member", chain, "--k", str(CHAIN_K))] = 2 * n + 1
    for n in CC_CHAINS[:2] if tiny else CC_CHAINS:
        chain = syntax.print_process(cc_chain(n, LEVEL_ONE_TAIL))
        levels[("pole-member", chain, "--k", str(CHAIN_K))] = 5 * n + 1
    body += list(levels)
    body.append(("eval", OMEGA, "--fuel", str(200 if tiny else OMEGA_FUEL)))
    return [], body, levels


# criterion 7 of the acceptance suite: entry levels derived by hand
HAND_LEVELS = {
    "g{_|_} * []": 1,
    "g{0 != 1} * []": None,
    "g{0 != 1} * g{_|_} . []": None,
    r"g{0 != 1} * (\x. x) . []": None,
    "g{_|_ -> _|_} * g{_|_} . []": 2,
    r"(\x. x) g{_|_} * []": 3,
}


def _build_lattice(rng: random.Random, tiny: bool):
    head = [("lattice", "--rank", "3")] if not tiny else []
    body = [("lattice", "--rank", str(n)) for n in (0, 1, 2)]
    for _ in range(LATTICE_TINY_SWEEPS if tiny else 1):
        for n in (0, 1, 2):
            for i in range(dinfty.level_size(n)):
                el = ("--rank", str(n), "--element", str(i))
                body += [("seq-check",) + el, ("theta",) + el,
                         ("term-search",) + el
                         + ("--size-budget", str(TERM_SEARCH_BUDGET))]
    if not tiny:
        body.append(("seq-check", "--rank", "3", "--element",
                     str(PEIRCE_RANK3_INDEX)))
        for cmd, count in (("theta", LATTICE_RANK3_THETAS),
                           ("seq-check", LATTICE_RANK3_SEQ_CHECKS)):
            body += [(cmd, "--rank", "3", "--element",
                      str(rng.randrange(RANK3_SIZE))) for _ in range(count)]
    return head, body, {}


BUILDERS = {"decide": _build_decide, "realize": _build_realize,
            "lattice": _build_lattice}


def build(name: str, seed: int, *, tiny: bool = False) -> Workload:
    """The workload's requests; the same seed gives the same list."""
    rng = random.Random(f"{name}:{seed}")
    head, body, levels = BUILDERS[name](rng, tiny)
    rng.shuffle(body)
    return Workload(name, seed, head, body, tiny, levels)


# --------------------------------------------------------------------------
# Handlers: parse -> layer call -> print, as the CLI subcommands do
# --------------------------------------------------------------------------

@dataclass
class Answer:
    printed: str
    value: object = None        # what the checks look at
    unknown: bool = False       # an explicit "don't know" answer
    memo: int = 0               # pole memo entries the request left


def _h_validity(argv, cfg):
    v = bamodels.valid_all_bas(syntax.parse_formula(argv[1]),
                               bamodels.DEFAULT_FAMILY)
    just = f" ({v.justification.value})" if v.justification else ""
    wit = f" witness {v.witness}" if v.witness else ""
    tr = "".join(f"\n  {line}" for line in v.trace)
    return Answer(f"{v.status}{just}{wit}{tr}", v, v.status == "unknown")


def _h_theory(argv, cfg):
    oracle = bamodels.TheoryOracle(bamodels.DEFAULT_FAMILY)
    try:
        member = oracle.membership(syntax.parse_formula(argv[2]))
    except bamodels.GuardExceeded as e:
        return Answer(f"unknown: {e}", None, True)
    return Answer(str(member).lower(), member)


def _h_realizes(argv, cfg):
    cfg = cfg(k_max=int(_opt(argv, "--k-max", 32)))
    rep = pole.realizes_bounded(syntax.parse_lcterm(argv[1]),
                                syntax.parse_formula(argv[2]), cfg,
                                depth=int(_opt(argv, "--depth", 2)))
    lines = [f"{'ok' if k is not None else 'FAIL'} k={k}: "
             f"{syntax.print_stack(pi)}" for pi, k in rep.results]
    lines.append(f"{'clean' if rep.clean else 'failures'} over "
                 f"{len(rep.results)} stacks")
    return Answer("\n".join(lines), rep, memo=len(cfg.memo))


def _h_pole_member(argv, cfg):
    k = int(_opt(argv, "--k", 32))
    cfg = cfg(k_max=k)
    least = pole.in_pole_limit(syntax.parse_process(argv[1]), cfg)
    text = f"k={least}" if least is not None else f"not a member up to k={k}"
    return Answer(text, least, memo=len(cfg.memo))


def _h_eval(argv, cfg):
    tr = machine.evaluate(syntax.parse_process(argv[1]),
                          fuel=int(_opt(argv, "--fuel", 1000)))
    pp = syntax.print_process
    lines = [f"{rule}: {pp(p)}" for p, rule in tr.steps]
    status = "stuck" if tr.stuck else "fuel exhausted"
    lines.append(f"final ({status}): {pp(tr.final)}")
    return Answer("\n".join(lines), tr)


def _element(argv):
    n = int(_opt(argv, "--rank"))
    return n, dinfty.elem(n, dinfty.val(n, int(_opt(argv, "--element"))))


def _h_lattice(argv, cfg):
    n = int(_opt(argv, "--rank"))
    size = dinfty.level_size(n)
    return Answer(f"|rank {n}| = {size}", size)


def _h_theta(argv, cfg):
    _, alpha = _element(argv)
    text = syntax.print_formula(dinfty.theta(alpha))
    return Answer(text, text)


def _h_seq_check(argv, cfg):
    _, alpha = _element(argv)
    sv = dinfty.seq_check(alpha, family=bamodels.DEFAULT_FAMILY)
    wit = syntax.print_lcterm(sv.witness) if sv.witness is not None else None
    text = (sv.status + (f" witness {wit}" if wit else "")
            + (f" ({sv.detail})" if sv.detail else ""))
    return Answer(text, sv, sv.status == "unknown")


def _h_term_search(argv, cfg):
    _, alpha = _element(argv)
    w = dinfty.term_search(alpha, int(_opt(argv, "--size-budget", 5)))
    return Answer(syntax.print_lcterm(w) if w is not None else "none", w)


HANDLERS = {
    "validity": _h_validity, "theory": _h_theory,
    "realizes": _h_realizes, "pole-member": _h_pole_member,
    "eval": _h_eval, "lattice": _h_lattice, "theta": _h_theta,
    "seq-check": _h_seq_check, "term-search": _h_term_search,
}


def handle(argv: tuple[str, ...], pole_config=None) -> Answer:
    """Answer one request.  `pole_config` builds the fresh PoleConfig each
    pole request gets, as the CLI does; the tracer passes one whose memo
    counts its hits."""
    return HANDLERS[argv[0]](argv, pole_config or pole.PoleConfig)


# --------------------------------------------------------------------------
# Reference checks (outside the timed region)
# --------------------------------------------------------------------------

def check(w: Workload, answers: dict) -> list[str]:
    """Every request whose answer contradicts the reference, with why."""
    return {"decide": _check_decide, "realize": _check_realize,
            "lattice": _check_lattice}[w.name](w, answers)


def _check_decide(w: Workload, answers: dict) -> list[str]:
    bad = []
    by_text = {}
    brute_of = {}
    for argv, ans in answers.items():
        if argv[-1] not in brute_of:
            a = syntax.parse_formula(argv[-1])
            brute_of[argv[-1]] = [bamodels.brute_check(a, k)
                                  for k in (1, 2, 3)]
        brute = brute_of[argv[-1]]
        by_text.setdefault(argv[-1], {})[argv[0]] = ans.value
        if argv[0] == "validity":
            v = ans.value
            if v.status in ("valid", "unknown") and not all(brute):
                bad.append(f"{v.status} but false at some k <= 3: {argv}")
            k = getattr(v.witness, "atoms", None)
            if v.status == "refuted" and k is not None and k <= 3 \
                    and brute[k - 1]:
                bad.append(f"refuted at {k} atoms but true there: {argv}")
        elif ans.value is True and not all(brute):
            bad.append(f"theory member but false at some k <= 3: {argv}")
    for text, pair in by_text.items():
        v, member = pair.get("validity"), pair.get("theory")
        if v is not None and v.status == "valid" and member is False:
            bad.append(f"valid but not a theory member: {text}")
    return bad


def _check_realize(w: Workload, answers: dict) -> list[str]:
    bad = []
    eq_texts = {syntax.print_formula(a) for a in formulas.tbool_equations()}
    for argv, ans in answers.items():
        cmd = argv[0]
        if cmd == "realizes" and argv[1] != IDENTITY:
            if not ans.value.clean:
                bad.append(f"g{{A}} does not realize A: {argv[2]}")
        elif cmd == "realizes":
            if argv[2] in eq_texts and not ans.value.clean:
                bad.append(f"identity fails on equation {argv[2]}")
            for pi, k in ans.value.results:
                if k is not None:
                    bad += _unsound(lcterms.Process(
                        lcterms.Lam("x", lcterms.LVar("x")), pi), argv)
        elif cmd == "pole-member":
            want = w.levels.get(argv, ans.value)
            if ans.value != want:
                bad.append(f"entry level {ans.value}, expected {want}: "
                           f"{argv[1][:60]}")
            if ans.value is not None:
                bad += _unsound(syntax.parse_process(argv[1]), argv)
        elif cmd == "eval":
            bad += _check_omega(argv, ans.value)
    # the suite's counts, over the requests as issued (the corpus repeats
    # some formulas)
    gamma = [argv for argv in w.requests
             if argv[0] == "realizes" and argv[1] != IDENTITY]
    stacks = sum(len(answers[argv].value.results) for argv in gamma
                 if argv in answers)
    if not w.tiny and (len(gamma), stacks) != (1044, 1986):
        bad.append(f"suite corpus gave {len(gamma)} formulas, {stacks} stacks")
    asked = {argv[2] for argv in w.requests
             if argv[:2] == ("realizes", IDENTITY)}
    if not eq_texts <= asked:
        bad.append("not all 12 equations were asked")
    return bad


def _unsound(p: lcterms.Process, argv) -> list[str]:
    """A pole member's instruction tags must not be jointly satisfiable:
    the negation of their conjunction is never refuted (criterion 6)."""
    v = pole.constraint_check(p)
    return [f"member with refuted constraint: {argv[1][:60]}"] \
        if v.is_refuted else []


def _check_omega(argv, tr) -> list[str]:
    """The loop alternates Push and Grab and is back at its start after
    every even number of steps."""
    fuel = int(_opt(argv, "--fuel"))
    start = syntax.parse_process(argv[1])
    rules = [r for _, r in tr.steps]
    if len(rules) != fuel or tr.stuck or any(
            r != ("Push", "Grab")[i % 2] for i, r in enumerate(rules)):
        return [f"omega trace is not Push/Grab for {fuel} steps"]
    if fuel % 2 == 0 and not lcterms.proc_alpha_eq(tr.final, start):
        return ["omega did not return to its start state"]
    return []


def _check_lattice(w: Workload, answers: dict) -> list[str]:
    bad = []
    sizes = {0: 2, 1: 3, 2: 10, 3: RANK3_SIZE}
    searched, seq, rank3 = {}, {}, {}
    for argv, ans in answers.items():
        cmd = argv[0]
        if cmd == "lattice":
            n = int(_opt(argv, "--rank"))
            if ans.value != sizes[n]:
                bad.append(f"|rank {n}| = {ans.value}, expected {sizes[n]}")
            continue
        n, alpha = _element(argv)
        key = (n, int(_opt(argv, "--element")))
        if cmd == "theta" and n == 3:
            rank3[key] = (alpha, ans.value)
        elif cmd == "theta":
            bad += _round_trip(key, alpha, ans.value)
        elif cmd == "term-search":
            searched[key] = ans.value
        else:
            seq[key] = ans.value
            bad += _witness_dominates(key, alpha, ans.value.witness)
    # A rank-3 round trip costs seconds: one is made exactly; the rest must
    # at least be told apart, since theta is injective.
    for key, (alpha, text) in list(rank3.items())[:1]:
        bad += _round_trip(key, alpha, text)
    if len({text for _, text in rank3.values()}) != len(rank3):
        bad.append("theta gave one formula for two rank-3 elements")
    for key, w_term in searched.items():
        if w_term is not None and key in seq \
                and seq[key].status == "not-sequentialisable":
            bad.append(f"term {w_term} dominates {key} but it is "
                       "not sequentialisable")
    bad += _check_triple(seq)
    return bad


def _witness_dominates(key, alpha, witness) -> list[str]:
    """A searched witness must denote at or above the element at the
    search's work rank (2); cc is settled by criterion 10's check."""
    if witness is None or witness == lcterms.CC:
        return []
    if dinfty.leq(alpha, dinfty.denote(witness), min(key[0], 2)):
        return []
    return [f"witness {syntax.print_lcterm(witness)} does not dominate "
            f"rank {key[0]}, element {key[1]}"]


def _round_trip(key, alpha, text) -> list[str]:
    back = dinfty.denote_formula(syntax.parse_formula(text))
    if dinfty.eq_at(back, alpha, key[0]):
        return []
    return [f"theta round trip fails at rank {key[0]}, element {key[1]}"]


def _check_triple(seq: dict) -> list[str]:
    """Criterion 10: the identity arrow has the witness \\x. x, top is not
    sequentialisable, and the control pattern has the witness cc."""
    bad = []
    ident = lcterms.Lam("x", lcterms.LVar("x"))
    if (1, 1) in seq:
        sv = seq[(1, 1)]
        if sv.status != "sequentialisable" or sv.witness is None \
                or not lcterms.lc_alpha_eq(sv.witness, ident):
            bad.append(f"identity arrow: {sv.status} {sv.witness}")
    if (0, 1) in seq and seq[(0, 1)].status != "not-sequentialisable":
        bad.append(f"top: {seq[(0, 1)].status}")
    key = (3, PEIRCE_RANK3_INDEX)
    if key in seq:
        top = dinfty.top()
        peirce = dinfty.arrow(dinfty.arrow(dinfty.arrow(top, top), top), top)
        if dinfty.val(3, key[1]) != peirce.component(3):
            bad.append("rank-3 element 2863 is not the control pattern")
        sv = seq[key]
        if sv.status != "sequentialisable" or sv.witness != lcterms.CC:
            bad.append(f"control pattern: {sv.status} {sv.witness}")
    return bad
