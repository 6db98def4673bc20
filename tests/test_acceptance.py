"""End-to-end acceptance gate.

Each criterion prints exactly one [PASS]/[FAIL] line with a short detail,
then asserts.  Budgeted work only; see the suite module for the checks."""

import pytest

from realizability.suite import run_all

RESULTS = None


def _results():
    global RESULTS
    if RESULTS is None:
        RESULTS = {r.index: r for r in run_all()}
    return RESULTS


# The suite must print the same thing before and after a change: its
# counts and its hand-derived entry levels.
DETAILS = {
    1: "4 unit transitions, 500-process determinism",
    2: "200 Horn clauses x 3 algebras, zero discrepancies",
    3: "200 formulas x 3 algebras, zero discrepancies",
    4: "12 axioms realized by the identity; 87 true inequations with empty stacks",
    5: "1044 formulas, 1986 stacks, all clean",
    6: "1986 certified processes, none refuted",
    7: "entry levels 1, absent, 2, 3 as derived by hand",
    8: "sizes 2/3/10, projection pairs, lattice laws",
    9: "15 elements roundtrip exactly",
    10: "triple plus rank <= 1 consistency sweep",
    11: "identity > bottom, loop = bottom at ranks <= 2",
    12: "macro derivation, axioms accepted; freshness rejected",
}


@pytest.mark.parametrize("index", range(1, 13))
def test_criterion(index):
    r = _results()[index]
    print(r.line)
    assert r.ok, r.detail
    assert r.detail == DETAILS[index]
