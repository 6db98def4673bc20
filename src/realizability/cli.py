"""Command-line entry point.

Exit codes: 0 success/true/valid, 1 false/refuted, 2 unknown or
inconclusive (a model-checking guard, a rank above 3, too deep nesting),
64 usage error, 65 parse error, 70 internal error (any other exception).
With --json, given before or after the subcommand, every result is one
JSON object per line.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bamodels import (
    Atomless, BASpec, DEFAULT_FAMILY, GuardExceeded, PowerFinite,
    TheoryOracle, Verdict, valid_all_bas,
)
from .corpus import formula_corpus, lcterm_corpus
from .dinfty import (
    DElem, RankCapError, denote, elem, level_size, seq_check, tables,
    term_search, theta, val,
)
from .formulas import UsageError
from .machine import evaluate
from .pole import PoleConfig, in_pole_limit, realizes_bounded
from .suite import NAMES, run_all
from .syntax import (
    ParseError, parse_bterm, parse_formula, parse_lcterm, parse_process,
    parse_stack, print_bterm, print_formula, print_lcterm, print_process,
    print_stack,
)
from .typecheck import TypingError, check_derivation, parse_derivation

EX_OK, EX_FALSE, EX_UNKNOWN, EX_USAGE, EX_PARSE, EX_SOFTWARE = 0, 1, 2, 64, 65, 70


def parse_family(text: str) -> tuple[BASpec, ...]:
    out: list[BASpec] = []
    for item in text.split(","):
        item = item.strip().lower()
        if item == "atomless":
            out.append(Atomless())
        elif item.startswith("pf"):
            out.append(PowerFinite(int(item[2:])))
        else:
            raise UsageError(f"unknown algebra spec {item!r} (use pfN or atomless)")
    return tuple(out)


def _emit(args, payload: dict, human: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _verdict_exit(v: Verdict) -> int:
    return {"valid": EX_OK, "refuted": EX_FALSE, "unknown": EX_UNKNOWN}[v.status]


def _verdict_payload(v: Verdict) -> dict:
    return {
        "status": v.status,
        "justification": v.justification.value if v.justification else None,
        "witness": str(v.witness) if v.witness else None,
        "trace": list(v.trace),
        "detail": v.detail,
    }


def cmd_parse(args) -> int:
    printers = {
        "term": (parse_bterm, print_bterm),
        "formula": (parse_formula, print_formula),
        "lcterm": (parse_lcterm, print_lcterm),
        "stack": (parse_stack, print_stack),
        "process": (parse_process, print_process),
    }
    p, pr = printers[args.kind]
    text = pr(p(args.source))
    _emit(args, {"kind": args.kind, "printed": text}, text)
    return EX_OK


def cmd_eval(args) -> int:
    trace = evaluate(parse_process(args.process), fuel=args.fuel)
    for proc, rule in trace.steps:
        _emit(args, {"rule": rule, "process": print_process(proc)},
              f"{rule}: {print_process(proc)}")
    status = "stuck" if trace.stuck else "fuel exhausted"
    _emit(args, {"final": print_process(trace.final), "status": status},
          f"final ({status}): {print_process(trace.final)}")
    return EX_OK


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}") from None


def cmd_typecheck(args) -> int:
    src = sys.stdin.read() if args.file == "-" else _read(args.file)
    try:
        j = check_derivation(parse_derivation(src))
    except TypingError as e:
        _emit(args, {"accepted": False, "path": e.path, "error": e.msg}, str(e))
        return EX_FALSE
    ctx = ", ".join(f"{x} : {print_formula(A)}" for x, A in j.context)
    human = (f"accepted: {ctx}{' ' if ctx else ''}|- "
             f"{print_lcterm(j.subject)} : {print_formula(j.type)}")
    _emit(args, {"accepted": True, "subject": print_lcterm(j.subject),
                 "type": print_formula(j.type)}, human)
    return EX_OK


def cmd_validity(args) -> int:
    v = valid_all_bas(parse_formula(args.formula), args.family)
    just = f" ({v.justification.value})" if v.justification else ""
    wit = f" witness {v.witness}" if v.witness else ""
    detail = f" ({v.detail})" if v.detail else ""
    tr = "".join(f"\n  {line}" for line in v.trace)
    _emit(args, _verdict_payload(v), f"{v.status}{just}{wit}{detail}{tr}")
    return _verdict_exit(v)


def cmd_theory(args) -> int:
    member = TheoryOracle(args.family).membership(parse_formula(args.contains))
    _emit(args, {"member": member}, str(member).lower())
    return EX_OK if member else EX_FALSE


def cmd_pole_member(args) -> int:
    cfg = PoleConfig(k_max=args.k)
    least = in_pole_limit(parse_process(args.process), cfg)
    _emit(args, {"member": least is not None, "k": least},
          f"k={least}" if least is not None else f"not a member up to k={args.k}")
    return EX_OK if least is not None else EX_FALSE


def cmd_realizes(args) -> int:
    cfg = PoleConfig(k_max=args.k_max)
    rep = realizes_bounded(parse_lcterm(args.term), parse_formula(args.formula),
                           cfg, depth=args.depth)
    for pi, k in rep.results:
        _emit(args, {"stack": print_stack(pi), "k": k},
              f"{'ok' if k is not None else 'FAIL'} k={k}: {print_stack(pi)}")
    _emit(args, {"clean": rep.clean, "stacks": len(rep.results)},
          f"{'clean' if rep.clean else 'failures'} over {len(rep.results)} stacks")
    return EX_OK if rep.clean else EX_FALSE


def cmd_denote(args) -> int:
    d = denote(parse_lcterm(args.term))
    comp = d.component(args.rank)
    _emit(args, {"rank": args.rank, "component": comp},
          f"component({args.rank}) = {comp}")
    return EX_OK


def cmd_lattice(args) -> int:
    n = args.rank
    size = level_size(n)
    _emit(args, {"rank": n, "size": size}, f"|rank {n}| = {size}")
    if args.list:
        for i, v in enumerate(tables(n)):
            _emit(args, {"index": i, "value": v}, f"{i}: {v}")
    return EX_OK


def _element(args) -> DElem:
    """The element through the rank value at index --element."""
    size = level_size(args.rank)
    if not 0 <= args.element < size:
        raise UsageError(f"--element must be in 0..{size - 1} at rank "
                         f"{args.rank}, got {args.element}")
    return elem(args.rank, val(args.rank, args.element))


def cmd_theta(args) -> int:
    alpha = _element(args)
    text = print_formula(theta(alpha))
    _emit(args, {"rank": args.rank, "element": args.element, "formula": text},
          text)
    return EX_OK


def cmd_seq_check(args) -> int:
    alpha = _element(args)
    sv = seq_check(alpha, family=args.family)
    wit = print_lcterm(sv.witness) if sv.witness is not None else None
    _emit(args, {"status": sv.status, "witness": wit, "detail": sv.detail},
          f"{sv.status}" + (f" witness {wit}" if wit else "")
          + (f" ({sv.detail})" if sv.detail else ""))
    return {"sequentialisable": EX_OK, "not-sequentialisable": EX_FALSE,
            "unknown": EX_UNKNOWN}[sv.status]


def cmd_term_search(args) -> int:
    alpha = _element(args)
    w = term_search(alpha, args.size_budget)
    wit = print_lcterm(w) if w is not None else None
    _emit(args, {"rank": args.rank, "element": args.element, "witness": wit},
          wit or "none")
    return EX_OK if w is not None else EX_FALSE


def cmd_corpus(args) -> int:
    if args.kind == "formulas":
        for a in formula_corpus(args.size, args.seed):
            _emit(args, {"formula": print_formula(a)}, print_formula(a))
    else:
        for t in lcterm_corpus(args.size, args.seed):
            _emit(args, {"term": print_lcterm(t)}, print_lcterm(t))
    return EX_OK


def cmd_suite(args) -> int:
    only = args.only or ""
    indices = [i for i, name in NAMES.items() if str(i) == only or only in name]
    if not indices:
        raise UsageError(f"no criterion matches {args.only!r}")
    results = run_all(indices)
    ok = all(r.ok for r in results)
    for r in results:
        _emit(args, {"index": r.index, "name": r.name, "ok": r.ok,
                     "detail": r.detail, "elapsed": round(r.elapsed, 2)},
              r.line)
    return EX_OK if ok else EX_FALSE


def natural(text: str) -> int:
    """The argparse type of a count: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="realiz",
        description="Machine, models and checks for tagged lambda calculus "
                    "over Boolean-algebra theories.")
    json_help = "one JSON object per result line"
    ap.add_argument("--json", action="store_true", help=json_help)
    # --json may also follow the subcommand; that copy sets nothing when
    # absent, so it leaves a --json given before the subcommand in place
    after = argparse.ArgumentParser(add_help=False)
    after.add_argument("--json", action="store_true",
                       default=argparse.SUPPRESS, help=json_help)
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", type=parse_family, default=DEFAULT_FAMILY,
                        help="comma list of pfN and atomless")
    rank = argparse.ArgumentParser(add_help=False)
    rank.add_argument("--rank", type=natural, required=True)
    element = argparse.ArgumentParser(add_help=False, parents=[rank])
    element.add_argument("--element", type=int, required=True)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name: str, help: str, fn, *parents):
        p = sub.add_parser(name, help=help, parents=[after, *parents])
        p.set_defaults(fn=fn)
        return p

    p = command("parse", "parse and reprint", cmd_parse)
    p.add_argument("kind", choices=("term", "formula", "lcterm", "stack",
                                    "process"))
    p.add_argument("source")

    p = command("eval", "run the machine", cmd_eval)
    p.add_argument("process")
    p.add_argument("--fuel", type=natural, default=1000)

    p = command("typecheck", "check a derivation file ('-' = stdin)",
                cmd_typecheck)
    p.add_argument("file")

    p = command("validity", "truth in all Boolean algebras >= 2",
                cmd_validity, family)
    p.add_argument("formula")

    p = command("theory", "membership in a family theory", cmd_theory, family)
    p.add_argument("--contains", required=True)

    p = command("pole-member", "bounded pole membership", cmd_pole_member)
    p.add_argument("process")
    p.add_argument("--k", type=natural, default=32)

    p = command("realizes", "bounded realizability report", cmd_realizes)
    p.add_argument("term")
    p.add_argument("formula")
    p.add_argument("--depth", type=natural, default=2)
    p.add_argument("--k-max", type=natural, default=32)

    p = command("denote", "model component of a machine term", cmd_denote)
    p.add_argument("term")
    p.add_argument("--rank", type=natural, default=2)

    p = command("lattice", "finite lattice sizes and elements", cmd_lattice,
                rank)
    p.add_argument("--list", action="store_true")

    command("theta", "synthesize a formula for an element", cmd_theta,
            element)
    command("seq-check", "sequentialisability of an element", cmd_seq_check,
            element, family)

    p = command("term-search", "first small term dominating an element",
                cmd_term_search, element)
    p.add_argument("--size-budget", type=natural, default=5)

    p = command("corpus", "reproducible random corpora", cmd_corpus)
    p.add_argument("kind", choices=("formulas", "terms"))
    p.add_argument("--size", type=natural, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = command("suite", "run the acceptance checks", cmd_suite)
    p.add_argument("only", nargs="?", help="criterion index or name fragment")

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except SystemExit as e:
        return EX_USAGE if e.code not in (0, None) else 0
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EX_PARSE
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EX_USAGE
    except (GuardExceeded, RankCapError) as e:
        print(f"unknown: {e}", file=sys.stderr)
        return EX_UNKNOWN
    except RecursionError:
        print("unknown: the input nests too deeply", file=sys.stderr)
        return EX_UNKNOWN
    except Exception as e:  # a bug: exit 1 would read as "false"
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
