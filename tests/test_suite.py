import copy
import random

from morozov.liealg import build
from morozov.suite import _structure_law_failures, run_suite


def _laws_failing_on(h, samples=20):
    return _structure_law_failures(h, random.Random(0), samples)


def _copy_of(g):
    # the built algebra is cached: every mutant is a copy, with its own memo
    h = copy.copy(g)
    h._memo = {}
    return h


def test_a_changed_structure_constant_breaks_jacobi():
    g = build("sl", 3, 5)
    h = _copy_of(g)
    rows = [list(row) for row in g._rows]
    i = next(i for i, row in enumerate(rows) if row)
    j, ((k, c), *rest) = rows[i][0]
    rows[i][0] = (j, ((k, 2 * c % g.p), *rest))
    h._rows = tuple(map(tuple, rows))
    failed = _laws_failing_on(h)
    assert "jacobi" in failed and "antisymmetry" not in failed
    assert _laws_failing_on(g) == []


def test_a_bracket_with_a_multiple_of_x_breaks_antisymmetry():
    g = build("sl", 3, 5)
    h = _copy_of(g)
    h.bracket_vec = lambda x, y: [a + 2 * b for a, b in
                                  zip(g.bracket_vec(x, y), x)]
    assert "antisymmetry" in _laws_failing_on(h)


def test_a_p_map_shifted_by_b0_breaks_the_three_p_power_laws():
    g = build("sl", 3, 5)
    h = _copy_of(g)
    h.p_power_vec = lambda x: [c + (k == 0) for k, c in
                               enumerate(g.p_power_vec(x))]
    assert _laws_failing_on(h) == ["ad-power", "scale-power", "jacobson"]


# criteria 2-10 at seed 0, by the first word of each criterion's line, with
# the detail each prints when it passes (criterion 1, the slowest, runs in
# tests/test_tooling.py)
PASSING_DETAILS = {
    "2": "36 towers",
    "3": "status=stabilized, steps=2",
    "4": "29 optimizations",
    "5": "both fixtures behave as non-parabolic with Borel content",
    "6": "12 nondegenerate fixtures",
    "7": "sl4@5: 280 failure witnesses recorded (not asserted); "
         "sp4@5: 348 failure witnesses recorded (not asserted)",
    "8": "all rows match; documented anomalies: D-row good column at p=3 "
         "(and D3 at p=2), torsion column lists the generic-rank value at "
         "B2/D3, A_n coxeter entry is n vs formula n+1",
    "9": "501 inputs compared",
    "10": "1000 filtrations, 924 perturbations rejected",
}


def test_criteria_2_to_10_pass_with_their_details():
    results = run_suite(list(PASSING_DETAILS))
    assert [(r.criterion.split()[0], r.status, r.detail) for r in results] \
        == [(key, "pass", detail) for key, detail in PASSING_DETAILS.items()]
    assert sum(r.elapsed for r in results) > 0  # run_suite times each
