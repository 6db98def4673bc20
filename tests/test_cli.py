import hashlib
import json
import random
import shlex
import sys
import time
from pathlib import Path

import pytest

from realizability import cli, dinfty, lcterms, suite, syntax
from realizability.cli import main, parse_family
from realizability.bamodels import Atomless, PowerFinite


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_family():
    assert parse_family("pf1,pf3,atomless") == (
        PowerFinite(1), PowerFinite(3), Atomless())


def test_parse_command(capsys):
    code, out = run(capsys, "parse", "formula", "forall z. z!=0 -> z != 1")
    assert code == 0
    assert out.strip() == "forall z. z != 0 -> z != 1"


def test_parse_error_exit_code(capsys):
    assert main(["parse", "formula", "z != "]) == 65
    assert capsys.readouterr().err.endswith("(at position 5)\n")
    # forall is reserved, so no formula prints as `forall != 0`
    assert main(["parse", "formula", "(forall) != 0"]) == 65
    # the instruction forms zeta<n> and eta<n> are not machine terms
    assert main(["pole-member", "zeta<0> * []"]) == 65
    # a cc binder would bind nothing: cc in the body is the operator
    assert main(["eval", "(\\cc. cc) (\\x. x) * g{_|_} . []"]) == 65


def test_usage_exit_code():
    assert main(["no-such-command"]) == 64


def test_eval_prints_rules(capsys):
    code, out = run(capsys, "eval", "(\\x. x) cc * []")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("Push: ")
    assert lines[1].startswith("Grab: ")
    assert "stuck" in lines[-1]


def test_validity_exit_codes(capsys):
    assert run(capsys, "validity", "0 != 1")[0] == 0
    assert run(capsys, "validity", "forall z. z != 0")[0] == 1
    hard = "forall z. (z != 0 -> z \\/ ~z != 0)"
    assert run(capsys, "validity", hard)[0] == 2
    # a family that passes is no proof of validity, so no flag claims it
    assert run(capsys, "validity", hard, "--family-complete")[0] == 64
    # {0,1} refutes these before model_check reaches the depth guard
    for matrix in ("a == 0", "0 != 0"):
        text = "".join(f"forall {v}. " for v in "abcdefg") + matrix
        code, out = run(capsys, "validity", text)
        assert code == 1 and out.strip() == "refuted witness PowerFinite(1)"


def test_validity_horn_example(capsys):
    code, out = run(capsys, "validity",
                    "forall z. forall w. z /\\ w == w /\\ z")
    assert code == 0 and "horn" in out


def test_theory_command(capsys):
    assert run(capsys, "theory", "--contains", "0 != 1")[0] == 0
    assert run(capsys, "theory", "--contains", "0 != 0")[0] == 1


def test_pole_member(capsys):
    code, out = run(capsys, "pole-member", "g{_|_} * []", "--k", "1")
    assert code == 0 and "k=1" in out
    assert run(capsys, "pole-member", "g{0 != 1} * []", "--k", "3")[0] == 1


def test_realizes(capsys):
    code, _ = run(capsys, "realizes", "\\x. x",
                  "forall z. forall w. z /\\ w == w /\\ z")
    assert code == 0


def test_realizes_prints_premises_as_written(capsys):
    # the falsity stacks push the premise under the user's own binder name
    code, out = run(capsys, "realizes", "\\x. x",
                    "forall z. ((forall w. w != z) -> z != 1)")
    assert code == 0
    assert out.splitlines() == [
        "ok k=2: g{forall w. w != 1} . []",
        "ok k=2: g{forall w. w != 1} . g{0 != 0} . []",
        "ok k=2: g{forall w. w != 1} . g{0 != 0} . g{0 != 0} . []",
        "clean over 3 stacks",
    ]


@pytest.mark.parametrize("n, level", [(3, 138), (5, 12504)])
def test_pole_member_on_a_machine_grown_long_stack(capsys, n, level):
    # n^n cc entries pile up on the stack before g{_|_} runs
    church = "\\s. \\z. " + "s (" * (n - 1) + "s z" + ")" * (n - 1)
    code, out = run(capsys, "pole-member",
                    f"({church}) ({church}) (\\h. h cc) g{{_|_}} * []",
                    "--k", "20000")
    assert (code, out.strip()) == (0, f"k={level}")


@pytest.mark.parametrize("n", [1200, 5000])
def test_pole_member_on_a_long_written_stack(capsys, n):
    # the parser reads stack entries in a loop, not one call per entry
    code, out = run(capsys, "pole-member", "g{_|_} * " + "cc . " * n + "[]")
    assert (code, out.strip()) == (0, "k=1")


@pytest.mark.parametrize("n", [1200, 5000])
def test_pole_member_on_a_long_stack_constant(capsys, n):
    # the pole's memo key reads a k[...]'s entries in one walk, so a long
    # one costs no recursion, as a premise process's stack entry too
    kont = "k[" + ", ".join(["cc"] * n) + "]"
    code, out = run(capsys, "pole-member", f"g{{_|_}} * {kont} . []")
    assert (code, out.strip()) == (0, "k=1")
    code, out = run(capsys, "pole-member", f"g{{_|_ -> _|_}} * {kont} . []")
    assert (code, out.strip()) == (1, "not a member up to k=32")


def test_pole_member_on_a_long_application_in_a_stack_entry(capsys):
    # the premise process faces this entry; its memo key is read flat
    body = " ".join(["x"] * 3001)
    code, out = run(capsys, "pole-member",
                    f"g{{_|_ -> _|_}} * (\\x. {body}) . []")
    assert (code, out.strip()) == (1, "not a member up to k=32")


def _conjunction_tag(n):
    # true head only when every a<i> is 1: the last of 2^n bit choices
    names = [f"a{i}" for i in range(n)]
    return ("g{" + "".join(f"forall {v}. " for v in names)
            + " /\\ ".join(names) + " != 1} * []")


def test_pole_guard_bounds_the_bit_choices_of_a_tag(capsys):
    # a tag with n spine variables has 2^n bit choices; the pole visits
    # at most 2^14 of them in one read of a tag, then answers unknown
    spine = "".join(f"forall z{i}. " for i in range(300)) + "z0 != 0"
    start = time.perf_counter()
    code = main(["realizes", "\\x. x", spine])
    assert code == 2 and time.perf_counter() - start < 1
    assert "guard of 2^14 bit choices" in capsys.readouterr().err
    assert run(capsys, "pole-member", _conjunction_tag(14)) == (0, "k=1\n")
    assert main(["pole-member", _conjunction_tag(15)]) == 2
    assert "15 spine variables" in capsys.readouterr().err


@pytest.mark.parametrize("n", [20, 300])
def test_pole_guard_skips_shadowed_binders(capsys, n):
    # each forall z. but the last is shadowed before anything reads it, so
    # the spine has one variable and two bit choices
    start = time.perf_counter()
    code, out = run(capsys, "realizes", "\\x. x", "forall z. " * n + "z != 0")
    assert (code, out.splitlines()[-1]) == (1, "failures over 3 stacks")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", [20, 300])
def test_pole_guard_counts_the_choices_visited(capsys, n):
    # the all-zero choice makes the head true and obliges no premise, so
    # the tag enters at level 1 before the pole reads a second choice
    tag = "g{" + "forall z. " * n + "z != 0} * []"
    assert run(capsys, "pole-member", tag) == (0, "k=1\n")


@pytest.mark.parametrize("sep", [" \\/ ", " /\\ "])
@pytest.mark.parametrize("n", [1200, 5000])
def test_parse_term_on_a_long_chain(capsys, sep, n):
    # the printer reads a left-nested chain in a loop, not one call per link
    src = sep.join(["z"] * n)
    code, out = run(capsys, "parse", "term", src)
    assert (code, out) == (0, src + "\n")


def test_parse_formula_reads_an_implication_chain_in_a_loop(capsys):
    # a -> chain costs the parser no frame per link, so each nested group
    # costs two frames: the group's fatom and its formula
    src = "(z != 0 -> " * 400 + "_|_" + ")" * 400
    code, out = run(capsys, "parse", "formula", src)
    assert (code, out) == (0, "z != 0 -> " * 400 + "0 != 0\n")
    src = "(" * 400 + "z != 0" + ")" * 400
    assert run(capsys, "parse", "formula", src) == (0, "z != 0\n")


def test_lattice(capsys):
    code, out = run(capsys, "lattice", "--rank", "1", "--list")
    assert code == 0
    assert "|rank 1| = 3" in out


# sha256 and line count of `lattice --rank n --list` as printed when the
# listing read a materialised rank, before the tables were streamed
LATTICE_LIST_PINS = {
    2: (11, "0a64976c583d33a9d4e714db808a6818c822e4743c0adb570877459154ed9179"),
    3: (120_550,
        "bab8c7585bf060a8768379b80644a1a2b319bd4d895f9d9f4f3f741e63bd8868"),
}


@pytest.mark.parametrize("rank", sorted(LATTICE_LIST_PINS))
def test_lattice_list_is_pinned(capsys, rank):
    code, out = run(capsys, "lattice", "--rank", str(rank), "--list")
    assert code == 0
    assert (out.count("\n"), hashlib.sha256(out.encode()).hexdigest()) == \
        LATTICE_LIST_PINS[rank]


def test_denote(capsys):
    code, out = run(capsys, "denote", "\\x. x", "--rank", "1")
    assert code == 0 and "component(1)" in out


def test_validity_unknown_says_why(capsys):
    # as seq-check does: a family pass, and the atom guard, which is
    # reached before the family passes
    src = "forall z. forall w. z /\\ w != 0 -> z != 0"
    assert run(capsys, "validity", src) == (2, "unknown (family-passed)\n")
    assert run(capsys, "validity", "--family", "pf7", src) == (
        2, "unknown (guard: 7 atoms exceeds the guard of 6)\n")


def test_theta_and_seq(capsys):
    code, out = run(capsys, "theta", "--rank", "1", "--element", "1")
    assert code == 0 and "->" in out
    assert run(capsys, "seq-check", "--rank", "0", "--element", "1")[0] == 1


def test_seq_check_unknown_exit_code(capsys):
    code, out = run(capsys, "seq-check", "--rank", "3", "--element", "111706")
    assert code == 2
    assert out.strip() == ("unknown (guard: quantifier depth 7 exceeds the "
                           "guard of 6)")


# sha256 of `theta --rank 3 --element i` as printed before the row-table
# synthesis, which must keep the text byte-identical
THETA_RANK3_SHA256 = {
    0: "639a4a6516c0015426cf1fdc5105abeaaa468d1f319239044e759df03fa44ff0",
    2863: "81abfcc56a218b2bd9ec36deb7a0e4ae730b1f68e09979ccd9aa633e35bb01d6",
    120548: "d38c5a0d94e1ca63c285454cffe2c3419c1fc3458b396f43fff37a22d22efc30",
}


@pytest.mark.parametrize("element", sorted(THETA_RANK3_SHA256))
def test_theta_rank_3_text_is_pinned(capsys, element):
    code, out = run(capsys, "theta", "--rank", "3", "--element", str(element))
    assert code == 0 and out.endswith("\n")
    digest = hashlib.sha256(out[:-1].encode()).hexdigest()
    assert digest == THETA_RANK3_SHA256[element]


def test_rank_3_requests_list_no_rank_3_table(capsys, monkeypatch):
    # answers computed first without the guard, then with every cache
    # cleared and the rank-3 listing and index map made to raise
    rank3 = [("lattice", "--rank", "3")]
    rank3 += [("theta", "--rank", "3", "--element", str(i))
              for i in random.Random(7).sample(range(120_549), 4)]
    rank3 += [("seq-check", "--rank", "3", "--element", str(i))
              for i in (2863, 33481)]
    want = [run(capsys, *argv) for argv in rank3]
    assert want[0] == (0, "|rank 3| = 120549\n")

    def guard(fn):
        def guarded(n):
            if n == 3:
                raise AssertionError(f"{fn.__name__}(3) called")
            return fn(n)
        return guarded

    for value in vars(dinfty).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    monkeypatch.setattr(dinfty, "level", guard(dinfty.level))
    monkeypatch.setattr(dinfty, "_index_map", guard(dinfty._index_map))
    assert [run(capsys, *argv) for argv in rank3] == want


def test_term_search_prints_the_witness_or_none(capsys):
    # every rank 0-2 element at budget 6: the first dominating term, exit
    # 0, or "none", exit 1; the identity arrow's witness is \x0. x0
    seen = set()
    for n in (0, 1, 2):
        for i in range(dinfty.level_size(n)):
            code, out = run(capsys, "term-search", "--rank", str(n),
                            "--element", str(i), "--size-budget", "6")
            w = dinfty.term_search(dinfty.elem(n, dinfty.val(n, i)), 6)
            want = "none" if w is None else syntax.print_lcterm(w)
            assert (code, out) == (0 if w else 1, want + "\n"), (n, i)
            seen.add(code)
    assert seen == {0, 1}
    assert run(capsys, "term-search", "--rank", "1", "--element", "1") \
        == (0, "\\x0. x0\n")


def test_corpus_reproducible(capsys):
    _, out1 = run(capsys, "corpus", "formulas", "--size", "5", "--seed", "8")
    _, out2 = run(capsys, "corpus", "formulas", "--size", "5", "--seed", "8")
    assert out1 == out2 and len(out1.strip().splitlines()) == 5


def test_json_mode(capsys):
    code, out = run(capsys, "--json", "validity", "0 != 1")
    assert code == 0
    rec = json.loads(out.strip().splitlines()[-1])
    assert rec["status"] == "valid"
    # a refutation carries its path, with --json before or after validity
    src = "forall z. forall w. z /\\ w != 0"
    for argv in (("--json", "validity", src), ("validity", "--json", src)):
        code, out = run(capsys, *argv)
        rec = json.loads(out)
        assert (code, rec["status"], rec["witness"]) == (
            1, "refuted", "PowerFinite(1)")
        assert rec["trace"] == [
            "inequation fails on cell sizes {0: 0, 2: 0, 1: 1, 3: 0}",
            "forall w: failing split {0: (0, 0), 1: (1, 0)}",
            "forall z: failing split {0: (0, 1)}",
        ]


@pytest.mark.parametrize("command", [
    ("validity", "forall z. z != 0"),
    ("validity", "0 != 1"),
    ("theta", "--rank", "2", "--element", "3"),
    ("pole-member", "g{_|_} * []", "--k", "1"),
    ("pole-member", "g{_|_ -> _|_} * []"),
])
def test_json_before_or_after_the_subcommand(capsys, command):
    name, *rest = command
    before = run(capsys, "--json", name, *rest)
    assert json.loads(before[1].splitlines()[-1])
    assert run(capsys, name, "--json", *rest) == before
    assert run(capsys, name, *rest, "--json") == before
    # the copy after the subcommand does not reset one given before it
    assert run(capsys, "--json", name, *rest, "--json") == before
    assert run(capsys, name, *rest)[1] != before[1]


SEVEN_FORALLS = ("forall a. forall b. forall c. forall d. forall e. "
                 "forall f. forall g. a != 0")


def _conjunction_clause(n, goal):
    # forall a0. ... forall a<n-1>. a0 /\ ... /\ a<n-1> != 0 (a goal
    # clause) or == itself (a definite one); every quantifier is read
    names = [f"a{i}" for i in range(n)]
    conj = " /\\ ".join(names)
    return ("".join(f"forall {v}. " for v in names)
            + (f"{conj} != 0" if goal else f"{conj} == {conj}"))


def test_horn_clause_at_the_read_bound_is_decided_in_01(capsys):
    definite = _conjunction_clause(14, False)
    goal = _conjunction_clause(14, True)
    assert run(capsys, "validity", definite) == (0, "valid (horn)\n")
    assert run(capsys, "theory", "--contains", definite) == (0, "true\n")
    assert run(capsys, "validity", goal) == (
        1, "refuted witness PowerFinite(1)\n")
    assert run(capsys, "theory", "--contains", goal) == (1, "false\n")


@pytest.mark.parametrize("n", [15, 20, 30])
@pytest.mark.parametrize("goal, validity, theory", [
    (False, (0, "valid (tautology)"), (0, "true")),
    (True, (1, "refuted witness PowerFinite(1)"), (1, "false")),
], ids=["definite", "goal"])
def test_horn_clause_past_the_read_bound_answers_at_once(
        capsys, n, goal, validity, theory):
    # {0,1} would try 2^n assignments: past 14 read variables it holds the
    # outermost extra ones at 0, which refutes the goal clause; the
    # definite clause goes on to the family, whose depth guard meets it,
    # and to the tautology check, which both commands run
    src = _conjunction_clause(n, goal)
    for argv, (code, text) in ((("validity",), validity),
                               (("theory", "--contains"), theory)):
        start = time.perf_counter()
        assert main([*argv, src]) == code
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert text in captured.out + captured.err


FORTY_VACUOUS = "".join(f"forall a{i}. " for i in range(40)) + "a0 \\/ ~a0 == 1"


@pytest.mark.parametrize("argv, code, out", [
    # a Horn goal clause past the depth guard, which {0,1} refutes
    (("validity", SEVEN_FORALLS), 1, "refuted witness PowerFinite(1)\n"),
    (("theory", "--contains", SEVEN_FORALLS), 1, "false\n"),
    # forty quantifiers, all but the first vacuous
    (("validity", FORTY_VACUOUS), 0, "valid (horn)\n"),
    (("theory", "--contains", FORTY_VACUOUS), 0, "true\n"),
])
def test_theory_and_validity_agree_past_the_depth_guard(capsys, argv, code,
                                                        out):
    start = time.perf_counter()
    assert run(capsys, *argv) == (code, out)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv, code, message", [
    (("denote", "\\x. x", "--rank", "4"), 2, "rank cap 3"),
    # SEVEN_FORALLS is a Horn goal clause, which {0,1} decides; this
    # implication is neither Horn nor ground, so the family is swept
    (("theory", "--contains", SEVEN_FORALLS + " -> a != 1"), 2, "guard of 6"),
    (("theta", "--rank", "4", "--element", "0"), 2, "enumeration cap 3"),
    (("typecheck", "/nonexistent/derivation.sexpr"), 64, "cannot read"),
    (("theta", "--rank", "2", "--element", "99"), 64, "0..9"),
    (("pole-member", "x * []"), 64, "must be closed"),
    (("pole-member", "g{_|_} * x . []"), 64, "must be closed"),
    (("pole-member", "cc * k[x] . []"), 64, "must be closed"),
    (("realizes", "x", "0 != 1"), 64, "must be closed"),
    (("realizes", "g{z != 0}", "0 != 1"), 64, "open instruction tag"),
    (("pole-member", "(\\x. g{z != 0}) * []"), 64, "open instruction tag"),
    (("pole-member", "g{0 != 1 -> 0 != 0} * g{z != 0} . []"), 64,
     "open instruction tag"),
    (("denote", "cc", "--cc-trunc", "0"), 64, "unrecognized arguments"),
    (("validity", "x != 0"), 64, "valid_all_bas needs a closed formula"),
    (("theory", "--contains", "x != 0"), 64,
     "TheoryOracle.membership needs a closed formula, free: ['x']"),
    (("realizes", "\\x. x", "x != 0"), 64,
     "canonical_falsity_stacks needs a closed formula"),
    # the falsity stacks' continuations hold at most two g{_|_} entries
    (("realizes", "\\x. x", "forall z. ((forall w. w != z) -> z != 1)",
      "--depth", "3"), 64, "depth must be in 0..2"),
    # an open formula is refused before any algebra's guard
    (("theory", "--contains", "x != 0", "--family", "pf7"), 64,
     "TheoryOracle.membership needs a closed formula, free: ['x']"),
    # machine input is checked where it enters, the process term first
    (("pole-member", "x * y . []"), 64, "process terms must be closed"),
    (("eval", "x * []"), 64, "process terms must be closed"),
    (("eval", "g{z != 0} * []"), 64, "open instruction tag"),
    (("denote", "\\y. k[y]"), 64, "stack entries must be closed"),
])
def test_crash_exit_codes(capsys, argv, code, message):
    assert main(list(argv)) == code
    assert message in capsys.readouterr().err


def test_parse_reads_syntax_only(capsys):
    # an open process parses and prints; closedness is checked where a
    # command needs closed input
    assert run(capsys, "parse", "process", "x * []") == (0, "x * []\n")


@pytest.mark.parametrize("argv", [
    ("pole-member", "(\\x. x) (k[cc, \\y. y]) * g{_|_} . []"),
    ("eval", "(\\x. x) (k[cc, \\y. y]) * g{_|_} . []"),
    ("denote", "\\x. x (k[cc, \\y. y])"),
])
def test_machine_input_is_checked_once(capsys, monkeypatch, argv):
    # one request walks its input once, by lcterms.check_closed, and
    # never through free_lvars, wherever the package binds them
    calls = {"check_closed": 0, "free_lvars": 0}
    for name, original in (("check_closed", lcterms.check_closed),
                           ("free_lvars", lcterms.free_lvars)):
        def counted(x, name=name, original=original):
            calls[name] += 1
            return original(x)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "realizability":
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
    assert run(capsys, *argv)[0] == 0
    assert calls == {"check_closed": 1, "free_lvars": 0}


def test_internal_error_exit_code(capsys, monkeypatch):
    # an exception no handler expects is a fault, not a "false" answer
    def broken(args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "cmd_theta", broken)
    assert main(["theta", "--rank", "1", "--element", "0"]) == 70
    out, err = capsys.readouterr()
    assert out == "" and err == "internal error: KeyError: 'lost'\n"


@pytest.mark.parametrize("argv", [
    ("theta", "--rank", "1", "--element", "-1"),
    ("seq-check", "--rank", "1", "--element", "-3"),
    ("seq-check", "--rank", "1", "--element", "3"),
    ("pole-member", "g{_|_} * []", "--k", "-3"),
    ("realizes", "\\x. x", "_|_", "--k-max", "-1"),
    ("realizes", "\\x. x", "_|_", "--depth", "-1"),
    ("eval", "(\\x. x) cc * []", "--fuel", "-1"),
    ("corpus", "formulas", "--size", "-1"),
    ("lattice", "--rank", "-1"),
    ("denote", "\\x. x", "--rank", "-2"),
    ("seq-check", "--rank", "-1", "--element", "0"),
    ("theta", "--rank", "-1", "--element", "0"),
    ("term-search", "--rank", "2", "--element", "10"),
    ("term-search", "--rank", "1", "--element", "0", "--size-budget", "-1"),
    ("pole-member", "g{_|_} * []", "--k", "x"),
    ("term-search", "--rank", "1", "--element", "0", "--size-budget", "1.5"),
])
def test_out_of_range_numbers_are_usage_errors(capsys, argv):
    assert main(list(argv)) == 64
    out, err = capsys.readouterr()
    assert out == ""
    # argparse names the first count whose value is negative or not an
    # integer; an --element outside its rank is named by the command
    count = next((flag for flag, value in zip(argv, argv[1:])
                  if flag.startswith("--") and not value.isdigit()
                  and flag != "--element"), None)
    assert (f"argument {count}: " if count else "--element must be in ") in err


def _readme_command_lines() -> list[list[str]]:
    """The argument vectors of the `realiz ...` lines in README's
    "Command line" block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.split("```", 1)[0].splitlines()
            if line.startswith("realiz ")]


def test_readme_command_lines_run(capsys):
    # typecheck needs a file; test_acceptance runs the suite
    argvs = [a for a in _readme_command_lines()
             if a[0] not in ("typecheck", "suite")]
    assert len(argvs) >= 9
    codes = [(argv, main(argv)) for argv in argvs]
    assert [c for c in codes if c[1] not in (0, 1)] == []


@pytest.mark.parametrize("text", [
    '(Axiom "x',
    "(Axiom (judgement x))",
    '(Axiom (judgement () "x"))',
    '(Axiom (premises) (judgement (("x")) "x" "0 != 1"))',
])
def test_malformed_derivation_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "bad.sexpr"
    path.write_text(text)
    assert main(["typecheck", str(path)]) == 64
    assert "derivation text" in capsys.readouterr().err


def test_cc_context_variable_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cc.sexpr"
    path.write_text('(Axiom (judgement (("cc" "0 != 1")) "cc" "0 != 1"))')
    assert main(["typecheck", str(path)]) == 64
    assert "context variable 'cc'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("validity", "(" * 1500 + "0 != 1" + ")" * 1500),
    ("parse", "lcterm", "\\x. " * 2000 + "x"),
])
def test_deep_nesting_is_unknown(capsys, argv):
    assert main(list(argv)) == 2
    assert "nests too deeply" in capsys.readouterr().err


def test_validity_answers_under_a_long_disjunction_chain(capsys):
    # the chain's hash is filled in a loop, so validity reaches its answer
    chain = " \\/ ".join(["z"] * 601)
    code, out = run(capsys, "validity",
                    f"forall z. ({chain} != 0 -> z != 1) -> z != 0")
    assert (code, out.splitlines()[0]) == (1, "refuted witness PowerFinite(1)")


def test_eval_prints_a_long_application_spine(capsys):
    # the printer walks an application spine in a loop, so each step's
    # process prints: three Pushes move three arguments to the stack
    src = "(\\x. x) " * 3000 + "g{_|_} * []"
    code, out = run(capsys, "eval", src, "--fuel", "3")
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "Push", "Push", "Push", "final (fuel exhausted)"]
    assert all(line.count("(\\x. x)") == 3000 for line in lines)
    assert lines[-1].endswith(
        " * (\\x. x) . (\\x. x) . g{0 != 0} . []")


def test_eval_prints_the_omega_loop(capsys):
    # 20,000 steps of the Push/Grab cycle and the final line, as printed
    code, out = run(capsys, "eval", "(\\x. x x) (\\x. x x) * []",
                    "--fuel", "20000")
    assert code == 0
    assert (out.count("\n"), hashlib.sha256(out.encode()).hexdigest()) == (
        20001,
        "e2218f4a1391b7b9b6c6e7b8802704d5e4b0cb750ab51c0bb39d4d041db9f08c")


@pytest.mark.parametrize("only", ["99", "xyz"])
def test_suite_filter_matching_nothing_is_usage_error(capsys, only):
    assert main(["suite", only]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and repr(only) in captured.err


def test_suite_runs_only_the_matching_criteria(capsys, monkeypatch):
    def fail():
        raise AssertionError("an unselected criterion ran")

    monkeypatch.setattr(suite, "criterion_1", fail)
    monkeypatch.setattr(suite, "criterion_5", fail)
    code, out = run(capsys, "suite", "7")
    assert code == 0
    assert out.startswith("[PASS] criterion  7 hand-derived pole values: ")
    assert out.count("\n") == 1
    # criterion 6 on its own runs criterion 5's pass, not criterion_5
    code, out = run(capsys, "suite", "6")
    assert code == 0 and "1986 certified processes" in out
    monkeypatch.setattr(cli, "run_all", fail)
    assert main(["suite", "99"]) == 64


def test_family_flag_only_where_read():
    for argv in (["pole-member", "g{_|_} * []"],
                 ["realizes", "\\x. x", "_|_"]):
        assert main(argv + ["--family", "pf1"]) == 64
