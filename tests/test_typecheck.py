import random

import pytest

from realizability.formulas import (
    Forall, Impl, Neq, ONE, Or, UsageError, Var, ZERO, bot, eq,
)
from realizability.lcterms import App, CC, Lam, LVar
from realizability.syntax import parse_formula, parse_lcterm
from realizability.typecheck import (
    Derivation, Judgement, TypingError, check_derivation, eq_elim_derivation,
    _sexpr_tokens, eq_elim_macro, parse_derivation, weaken,
)


def axiom(name, A, ctx=()):
    ctx = tuple(ctx) + ((name, A),)
    return Derivation("Axiom", (), Judgement(ctx, LVar(name), A))


def test_axiom_ok():
    A = parse_formula("0 != 1")
    check_derivation(axiom("x", A))


def test_axiom_requires_binding():
    A = parse_formula("0 != 1")
    bad = Derivation("Axiom", (), Judgement((("y", A),), LVar("y"), bot()))
    with pytest.raises(TypingError):
        check_derivation(bad)


def test_identity_abstraction():
    A = parse_formula("0 != 1")
    body = axiom("x", A)
    d = Derivation("Abs", (body,),
                   Judgement((), Lam("x", LVar("x")), Impl(A, A)))
    check_derivation(d)


def test_application():
    A, B = parse_formula("0 != 1"), bot()
    ctx = (("f", Impl(A, B)), ("x", A))
    f = Derivation("Axiom", (), Judgement(ctx, LVar("f"), Impl(A, B)))
    x = Derivation("Axiom", (), Judgement(ctx, LVar("x"), A))
    d = Derivation("App", (f, x), Judgement(ctx, App(LVar("f"), LVar("x")), B))
    check_derivation(d)


def test_app_mismatch_reports_path():
    A, B = parse_formula("0 != 1"), bot()
    ctx = (("f", Impl(A, B)), ("x", B))
    f = Derivation("Axiom", (), Judgement(ctx, LVar("f"), Impl(A, B)))
    x = Derivation("Axiom", (), Judgement(ctx, LVar("x"), B))
    d = Derivation("App", (f, x), Judgement(ctx, App(LVar("f"), LVar("x")), B))
    with pytest.raises(TypingError) as e:
        check_derivation(d)
    assert e.value.path.startswith("root")


def test_peirce_leaf():
    A, B = parse_formula("0 != 1"), bot()
    peirce = Impl(Impl(Impl(A, B), A), A)
    d = Derivation("Peirce", (), Judgement((), CC, peirce))
    check_derivation(d)
    wrong = Impl(Impl(Impl(A, B), A), B)
    with pytest.raises(TypingError):
        check_derivation(Derivation("Peirce", (), Judgement((), CC, wrong)))


def test_forall_intro_and_elim():
    A = Neq(Var("z"), ONE)
    prem = axiom("x", A)
    intro = Derivation("ForallIntro", (prem,),
                       Judgement((("x", A),), LVar("x"), Forall("z", A)))
    # z is free in the context, so generalization must fail
    with pytest.raises(TypingError) as e:
        check_derivation(intro)
    assert "free in the context" in e.value.msg

    closed = axiom("x", parse_formula("0 != 1"))
    ok = Derivation("ForallIntro", (closed,),
                    Judgement((("x", parse_formula("0 != 1")),), LVar("x"),
                              Forall("z", parse_formula("0 != 1"))))
    check_derivation(ok)
    inst = Derivation("ForallElim", (ok,),
                      Judgement((("x", parse_formula("0 != 1")),), LVar("x"),
                                parse_formula("0 != 1")),
                      rule_data=ONE)
    check_derivation(inst)


def test_neq_elim():
    ctx = (("x", Neq(ZERO, ZERO)),)
    prem = Derivation("Axiom", (), Judgement(ctx, LVar("x"), Neq(ZERO, ZERO)))
    d = Derivation("NeqElim", (prem,), Judgement(ctx, LVar("x"), bot()))
    check_derivation(d)
    ctx2 = (("x", Neq(ZERO, ONE)),)
    prem2 = Derivation("Axiom", (), Judgement(ctx2, LVar("x"), Neq(ZERO, ONE)))
    bad = Derivation("NeqElim", (prem2,), Judgement(ctx2, LVar("x"), bot()))
    with pytest.raises(TypingError):
        check_derivation(bad)


_A = parse_formula("0 != 1")
_KEEPS_PREMISE = {  # rule: premise type, conclusion type, rule_data
    "ForallIntro": (_A, Forall("z", _A), None),
    "ForallElim": (Forall("z", _A), _A, ONE),
    "NeqElim": (Neq(ZERO, ZERO), bot(), None),
}


@pytest.mark.parametrize("rule", _KEEPS_PREMISE)
def test_unchanged_premise_messages(rule):
    # the context is checked before the subject, and either message is
    # reported at the node whose premise changed, not at the premise
    prem_type, concl_type, rule_data = _KEEPS_PREMISE[rule]
    ctx = (("x", prem_type), ("y", prem_type))
    prem = Derivation("Axiom", (), Judgement(ctx, LVar("x"), prem_type))
    wider = ctx + (("w", prem_type),)
    for concl_ctx, msg in ((wider, "context must be unchanged"),
                           (ctx, "subject must be unchanged")):
        node = Derivation(rule, (prem,),
                          Judgement(concl_ctx, LVar("y"), concl_type),
                          rule_data=rule_data)
        parent = Derivation("NeqElim", (node,),
                            Judgement(concl_ctx, LVar("y"), bot()))
        with pytest.raises(TypingError) as e:
            check_derivation(parent)
        assert (e.value.path, e.value.msg) == ("root.0", msg)


def test_weaken_property():
    A = parse_formula("0 != 1")
    d = Derivation("Abs", (axiom("x", A),),
                   Judgement((), Lam("x", LVar("x")), Impl(A, A)))
    w = weaken(d, "u", bot())
    j = check_derivation(w)
    assert ("u", bot()) in j.context
    with pytest.raises(UsageError):
        weaken(d, "x", bot())


def test_eq_elim_macro_shape():
    t = eq_elim_macro("x", LVar("t"), "k")
    assert t == App(CC, Lam("k", App(LVar("x"), App(LVar("k"), LVar("t")))))


def test_eq_elim_derivation_checks():
    a, b = ONE, Or(ONE, ZERO)
    A = Neq(Var("z"), ZERO)
    base = Derivation("Axiom", (),
                      Judgement((("y", Neq(ONE, ZERO)),), LVar("y"),
                                Neq(ONE, ZERO)))
    d = eq_elim_derivation(base, "z", a, b, A)
    j = check_derivation(d)
    from realizability.formulas import alpha_eq, subst_formula
    assert alpha_eq(j.type, subst_formula(A, ["z"], [b]))


def test_parse_derivation_roundtrip():
    src = """
    ; identity proof
    (Abs
      (premises
        (Axiom (premises)
          (judgement ((x "0 != 1")) "x" "0 != 1")))
      (judgement () "\\x. x" "0 != 1 -> 0 != 1"))
    """
    d = parse_derivation(src)
    j = check_derivation(d)
    assert j.context == ()


@pytest.mark.parametrize("name", ['"cc"', "cc"])
def test_parse_derivation_rejects_cc_as_context_variable(name):
    # no subject can name it: a cc subject is the control operator
    src = f'(Axiom (judgement (({name} "0 != 1")) "cc" "0 != 1"))'
    with pytest.raises(UsageError, match="context variable 'cc'"):
        parse_derivation(src)


def test_judgement_rejects_unbound_subject():
    with pytest.raises(Exception):
        Judgement((), LVar("x"), bot())


def _reference_sexpr_tokens(src):
    # the character loop that the one-regex lexer replaced, kept as an oracle
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            yield ch
            i += 1
        elif ch == '"':
            j = src.find('"', i + 1)
            if j < 0:
                raise UsageError("unterminated string in derivation text")
            yield ("str", src[i + 1:j])
            i = j + 1
        elif ch == ";":
            i = src.index("\n", i) if "\n" in src[i:] else len(src)
        else:
            j = i
            while j < len(src) and not src[j].isspace() and src[j] not in '()";':
                j += 1
            yield ("atom", src[i:j])
            i = j
    yield None  # end of input


def _lexed(lex, src):
    """The tokens, and the error text if one is raised after them."""
    toks = []
    try:
        toks.extend(lex(src))
    except UsageError as e:
        return toks, str(e)
    return toks, None


def test_sexpr_lexer_matches_the_character_loop():
    rng = random.Random(38)
    chars = '()";\n\t \x0ba1_.\\!=\'|'
    texts = ["", ";", '"', '""', "; a\n(b)", '(a "x ; y" ;z\n)', "a;b", '"\n"']
    texts += ["".join(rng.choices(chars, k=rng.randrange(16)))
              for _ in range(100_000)]
    for src in texts:
        assert _lexed(_sexpr_tokens, src) == \
            _lexed(_reference_sexpr_tokens, src), src
