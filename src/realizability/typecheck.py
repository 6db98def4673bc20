"""Checker for explicit typing derivations over eight rules.

The rule set (abstraction, application, quantifier introduction and
elimination, context axiom, the control-operator axiom, inequation
substitution and inequation elimination) is not syntax-directed, so
derivations are explicit input trees and the checker verifies each node,
reporting the path of the first offending node.  Judgements are compared
up to context permutation and alpha-equivalence of formulas and subjects.

Also here: the admissible equality-elimination macro cc (\\k. x (k t)),
a builder for its full derivation, and a weakening transform.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from .formulas import (
    BTerm, Formula, Forall, Impl, Neq, UsageError, ZERO, alpha_eq, canon,
    eq, free_vars, subst_formula, term_vars,
)
from .lcterms import (
    App, CC, Cc, LVar, Lam, LcTerm, free_lvars, lc_alpha_eq, walk,
)
from .syntax import parse_bterm, parse_formula, parse_lcterm

_ARITY = {"Abs": 1, "App": 2, "ForallIntro": 1, "ForallElim": 1,
          "Axiom": 0, "Peirce": 0, "NeqSubst": 1, "NeqElim": 1}

Context = tuple[tuple[str, Formula], ...]


class TypingError(Exception):
    def __init__(self, path: str, msg: str):
        super().__init__(f"at {path}: {msg}")
        self.path = path
        self.msg = msg


@dataclass(frozen=True)
class Judgement:
    context: Context
    subject: LcTerm
    type: Formula

    def __post_init__(self):
        names = [x for x, _ in self.context]
        if len(set(names)) != len(names):
            raise UsageError("context variables must be pairwise distinct")
        if not free_lvars(self.subject) <= set(names):
            raise UsageError("subject has free variables outside the context")


@dataclass(frozen=True)
class Derivation:
    rule: str
    premises: tuple["Derivation", ...]
    conclusion: Judgement
    rule_data: object = None

    def __post_init__(self):
        if self.rule not in _ARITY:
            raise UsageError(f"unknown rule {self.rule!r}")
        if len(self.premises) != _ARITY[self.rule]:
            raise UsageError(
                f"{self.rule} takes {_ARITY[self.rule]} premises, "
                f"got {len(self.premises)}")


def _ctx_map(ctx: Context) -> dict[str, Formula]:
    return {x: canon(A) for x, A in ctx}


def ctx_eq(c1: Context, c2: Context) -> bool:
    return _ctx_map(c1) == _ctx_map(c2)


def judgement_eq(j1: Judgement, j2: Judgement) -> bool:
    return (ctx_eq(j1.context, j2.context)
            and lc_alpha_eq(j1.subject, j2.subject)
            and alpha_eq(j1.type, j2.type))


def _require(cond: bool, path: str, msg: str):
    if not cond:
        raise TypingError(path, msg)


def _unchanged(p: Judgement, c: Judgement, path: str) -> None:
    """The premise keeps the conclusion's context, then its subject."""
    _require(ctx_eq(p.context, c.context), path, "context must be unchanged")
    _require(lc_alpha_eq(p.subject, c.subject), path,
             "subject must be unchanged")


def check_derivation(d: Derivation, path: str = "root") -> Judgement:
    """Verify every node and return the root conclusion."""
    for i, p in enumerate(d.premises):
        check_derivation(p, f"{path}.{i}")
    c = d.conclusion
    ctx = c.context

    if d.rule == "Axiom":
        hit = any(c.subject == LVar(x) and alpha_eq(A, c.type)
                  for x, A in ctx)
        _require(hit, path, "subject is not a context entry of this type")

    elif d.rule == "Peirce":
        _require(isinstance(c.subject, Cc), path, "subject must be cc")
        t = c.type
        ok = (isinstance(t, Impl) and isinstance(t.ante, Impl)
              and isinstance(t.ante.ante, Impl)
              and alpha_eq(t.ante.ante.ante, t.ante.cons)
              and alpha_eq(t.ante.cons, t.cons))
        _require(ok, path, "type is not of the shape ((A -> B) -> A) -> A")

    elif d.rule == "Abs":
        _require(isinstance(c.subject, Lam), path, "subject must be an abstraction")
        _require(isinstance(c.type, Impl), path, "type must be an implication")
        x = c.subject.var
        _require(all(y != x for y, _ in ctx), path,
                 f"abstracted variable {x} already occurs in the context")
        want = Judgement(ctx + ((x, c.type.ante),), c.subject.body, c.type.cons)
        _require(judgement_eq(d.premises[0].conclusion, want), path,
                 "premise does not extend the context by the bound variable")

    elif d.rule == "App":
        _require(isinstance(c.subject, App), path, "subject must be an application")
        p1, p2 = d.premises[0].conclusion, d.premises[1].conclusion
        _require(ctx_eq(p1.context, ctx) and ctx_eq(p2.context, ctx), path,
                 "premise contexts differ from the conclusion context")
        _require(lc_alpha_eq(p1.subject, c.subject.fn)
                 and lc_alpha_eq(p2.subject, c.subject.arg), path,
                 "premise subjects do not split the application")
        _require(isinstance(p1.type, Impl), path,
                 "function premise type must be an implication")
        _require(alpha_eq(p1.type.ante, p2.type), path,
                 "argument type does not match the implication domain")
        _require(alpha_eq(p1.type.cons, c.type), path,
                 "conclusion type does not match the implication codomain")

    elif d.rule == "ForallIntro":
        p = d.premises[0].conclusion
        _require(isinstance(c.type, Forall), path, "type must be quantified")
        z = c.type.var
        _unchanged(p, c, path)
        _require(alpha_eq(c.type.body, p.type), path,
                 "quantifier body does not match the premise type")
        _require(all(z not in free_vars(A) for _, A in ctx), path,
                 f"side condition violated: {z} is free in the context")

    elif d.rule == "ForallElim":
        p = d.premises[0].conclusion
        b = d.rule_data
        _require(isinstance(b, BTerm), path,
                 "rule_data must be the instantiating term")
        _require(isinstance(p.type, Forall), path,
                 "premise type must be quantified")
        _unchanged(p, c, path)
        inst = subst_formula(p.type.body, [p.type.var], [b])
        _require(alpha_eq(c.type, inst), path,
                 "conclusion type is not the instantiated quantifier body")

    elif d.rule == "NeqSubst":
        p = d.premises[0].conclusion
        _require(isinstance(d.rule_data, tuple) and len(d.rule_data) == 4,
                 path, "rule_data must be (z, a, b, context template)")
        z, a, b, template = d.rule_data
        _require(isinstance(c.type, Neq) and c.type.lhs == a
                 and c.type.rhs == b, path,
                 "conclusion type must be the inequation a != b")
        _require(alpha_eq(p.type, c.type), path, "type must be unchanged")
        _require(lc_alpha_eq(p.subject, c.subject), path,
                 "subject must be unchanged")
        _require(z not in term_vars(a) | term_vars(b), path,
                 f"substituted variable {z} occurs in the inequation sides")
        want_p = tuple((x, subst_formula(A, [z], [a])) for x, A in template)
        want_c = tuple((x, subst_formula(A, [z], [b])) for x, A in template)
        _require(ctx_eq(p.context, want_p), path,
                 "premise context is not the a-instance of the template")
        _require(ctx_eq(ctx, want_c), path,
                 "conclusion context is not the b-instance of the template")

    elif d.rule == "NeqElim":
        p = d.premises[0].conclusion
        _unchanged(p, c, path)
        _require(isinstance(p.type, Neq) and p.type.lhs == p.type.rhs, path,
                 "premise type must be a reflexive inequation a != a")

    return c


# --------------------------------------------------------------------------
# Weakening
# --------------------------------------------------------------------------

def _all_lvars(d: Derivation) -> set[str]:
    """Every context name, lambda variable and binder in d."""
    out, todo = set(), [d]
    while todo:
        d = todo.pop()
        out.update(x for x, _ in d.conclusion.context)
        for t, _, _ in walk(d.conclusion.subject):
            if isinstance(t, LVar):
                out.add(t.name)
            elif isinstance(t, Lam):
                out.add(t.var)
        todo += d.premises
    return out


def weaken(d: Derivation, x: str, A: Formula) -> Derivation:
    """Add an unused context entry x : A to every judgement of an accepted
    derivation; the result is again accepted."""
    if x in _all_lvars(d):
        raise UsageError(f"weakening variable {x} occurs in the derivation")
    rule_data = d.rule_data
    if d.rule == "NeqSubst":
        z, a, b, template = rule_data
        if z in free_vars(A):
            raise UsageError(
                f"weakening formula must not contain the substituted variable {z}")
        rule_data = (z, a, b, template + ((x, A),))
    c = d.conclusion
    return Derivation(
        d.rule,
        tuple(weaken(p, x, A) for p in d.premises),
        Judgement(c.context + ((x, A),), c.subject, c.type),
        rule_data)


# --------------------------------------------------------------------------
# The equality-elimination macro and its derivation
# --------------------------------------------------------------------------

def eq_elim_macro(x: str, t: LcTerm, k: str = "k") -> LcTerm:
    """cc (\\k. x (k t)): turns a proof of A[z := a] and a hypothesis
    a = b into a proof of A[z := b]."""
    return App(CC, Lam(k, App(LVar(x), App(LVar(k), t))))


def eq_elim_derivation(d: Derivation, z: str, a: BTerm, b: BTerm,
                       A: Formula) -> Derivation:
    """Derivation of Gamma, x : a=b |- cc (\\k. x (k t)) : A[z := b] from
    a derivation d of Gamma |- t : A[z := a].

    A is the template with z free; z must not occur in a, b or Gamma.
    The tree instantiates the admissible rule: weaken by x and k, apply k
    to t, rewrite the context hypothesis on k along a = b, refute with x,
    eliminate the reflexive inequation, abstract k and cut with the
    control-operator axiom.
    """
    c = d.conclusion
    gamma = c.context
    t = c.subject
    a_inst = subst_formula(A, [z], [a])
    b_inst = subst_formula(A, [z], [b])
    if not alpha_eq(c.type, a_inst):
        raise UsageError("derivation does not conclude the a-instance of A")
    bad = term_vars(a) | term_vars(b)
    bad |= set().union(set(), *(free_vars(F) for _, F in gamma))
    if z in bad:
        raise UsageError(f"{z} must not occur in a, b or the context")

    used = _all_lvars(d) | {z}
    def fresh(base: str) -> str:
        name = base
        while name in used:
            name += "'"
        used.add(name)
        return name
    x = fresh("x")
    k = fresh("k")

    eq_ab = eq(a, b)
    hyp_a = Impl(a_inst, Neq(a, b))     # the k-hypothesis at the a-instance
    hyp_tmpl = Impl(A, Neq(a, b))       # its template in z
    hyp_b = Impl(b_inst, Neq(a, b))

    d0 = weaken(weaken(d, x, eq_ab), k, hyp_a)
    ctx_a = gamma + ((x, eq_ab), (k, hyp_a))
    ctx_b = gamma + ((x, eq_ab), (k, hyp_b))

    ax_k = Derivation("Axiom", (), Judgement(ctx_a, LVar(k), hyp_a))
    kt_a = Derivation("App", (ax_k, d0),
                      Judgement(ctx_a, App(LVar(k), t), Neq(a, b)))
    template = gamma + ((x, eq_ab), (k, hyp_tmpl))
    kt_b = Derivation("NeqSubst", (kt_a,),
                      Judgement(ctx_b, App(LVar(k), t), Neq(a, b)),
                      rule_data=(z, a, b, template))
    ax_x = Derivation("Axiom", (), Judgement(ctx_b, LVar(x), eq_ab))
    xkt_bot = Derivation("App", (ax_x, kt_b),
                         Judgement(ctx_b, App(LVar(x), App(LVar(k), t)),
                                   Neq(ZERO, ZERO)))
    xkt_b = Derivation("NeqElim", (xkt_bot,),
                       Judgement(ctx_b, App(LVar(x), App(LVar(k), t)), b_inst))
    ctx_xb = gamma + ((x, eq_ab),)
    lam_k = Derivation("Abs", (xkt_b,),
                       Judgement(ctx_xb, Lam(k, App(LVar(x), App(LVar(k), t))),
                                 Impl(hyp_b, b_inst)))
    peirce = Derivation("Peirce", (),
                        Judgement(ctx_xb, CC,
                                  Impl(Impl(hyp_b, b_inst), b_inst)))
    return Derivation("App", (peirce, lam_k),
                      Judgement(ctx_xb, eq_elim_macro(x, t, k), b_inst))


# --------------------------------------------------------------------------
# Text format for derivations
# --------------------------------------------------------------------------
#
# (RuleName
#   [(term "<b-term>")]                              ; ForallElim data
#   [(subst z "<a>" "<b>" ((x "<F>") ...))]          ; NeqSubst data
#   (premises <node> ...)
#   (judgement ((x "<formula>") ...) "<term>" "<formula>"))

# one match per blank run, ; comment, parenthesis, string or atom; a "
# with no closing " matches with an empty third group
_SEXPR_RE = re.compile(r'\s+|;.*|([()])|"([^"]*)("?)|([^\s()";]+)')


def _sexpr_tokens(src: str):
    """The tokens of src, lazily, so that a lexical error is raised only
    where the reader reaches it; None ends them."""
    for m in _SEXPR_RE.finditer(src):
        paren, text, close, atom = m.groups()
        if paren:
            yield paren
        elif atom:
            yield ("atom", atom)
        elif text is not None:
            if not close:
                raise UsageError("unterminated string in derivation text")
            yield ("str", text)
    yield None  # end of input


def _read_back(tok, toks):
    if tok == "(":
        out = []
        while True:
            tok2 = next(toks)
            if tok2 == ")":
                return out
            out.append(_read_back(tok2, toks))
    if isinstance(tok, tuple):
        return tok
    raise UsageError(f"unexpected {tok or 'end of input'} in derivation text")


def _items(form, what: str, n: int | None = None) -> list:
    if not isinstance(form, list) or n not in (None, len(form)):
        raise UsageError(f"malformed {what} in derivation text")
    return form


def _text(form, what: str) -> str:
    if not isinstance(form, tuple):
        raise UsageError(f"{what} must be a string, not a list")
    return form[1]


def _head(form, what: str) -> str:
    form = _items(form, what)
    if not form or not isinstance(form[0], tuple) or form[0][0] != "atom":
        raise UsageError(f"{what} must start with a name")
    return form[0][1]


def _ctx_of(form) -> Context:
    out = []
    for entry in _items(form, "context"):
        name, fsrc = _items(entry, "context entry", 2)
        x = _text(name, "context variable")
        if x == "cc":  # a cc subject is always the control operator
            raise UsageError("context variable 'cc' in derivation text "
                             "names the control operator")
        out.append((x, parse_formula(_text(fsrc, "context formula"))))
    return tuple(out)


def _node(form) -> Derivation:
    rule = _head(form, "derivation node")
    rule_data = None
    premises: tuple[Derivation, ...] = ()
    judgement = None
    for part in form[1:]:
        block = _head(part, "derivation block")
        if block == "term":
            _, t = _items(part, "term block", 2)
            rule_data = parse_bterm(_text(t, "term"))
        elif block == "subst":
            _, z, asrc, bsrc, tmpl = _items(part, "subst block", 5)
            rule_data = (_text(z, "substituted variable"),
                         parse_bterm(_text(asrc, "term")),
                         parse_bterm(_text(bsrc, "term")), _ctx_of(tmpl))
        elif block == "premises":
            premises = tuple(_node(sub) for sub in part[1:])
        elif block == "judgement":
            _, ctx, subject, ftype = _items(part, "judgement block", 4)
            judgement = Judgement(_ctx_of(ctx),
                                  parse_lcterm(_text(subject, "subject")),
                                  parse_formula(_text(ftype, "type")))
        else:
            raise UsageError(f"unknown derivation block {block!r}")
    if judgement is None:
        raise UsageError(f"rule {rule} has no judgement block")
    return Derivation(rule, premises, judgement, rule_data)


def parse_derivation(src: str) -> Derivation:
    toks = _sexpr_tokens(src)
    form = _read_back(next(toks), toks)
    if next(toks) is not None:
        raise UsageError("trailing input after derivation")
    return _node(form)
