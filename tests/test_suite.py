import copy
import random

from morozov.liealg import build
from morozov.suite import _structure_law_failures


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
