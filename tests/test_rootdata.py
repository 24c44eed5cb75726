import itertools
import random
from fractions import Fraction

import pytest

from morozov.gfp import is_prime
from morozov.kempf import support_weights
from morozov.liealg import build, standard_parabolic
from morozov.rootdata import (EXCEPTIONAL, PRINTED_TABLE, build_rootdatum,
                              classify_prime, is_closed, min_norm_point,
                              parabolic_roots, simple_subsets, table_rows)


def _solve_rational(basis, target):
    """Write target as a rational combination of the basis vectors (free
    coefficients set to 0), as Fractions, by Gauss-Jordan elimination."""
    cols = len(basis)
    rows = len(target)
    aug = [[Fraction(basis[j][i]) for j in range(cols)] + [Fraction(target[i])]
           for i in range(rows)]
    r = 0
    piv_cols = []
    for c in range(cols):
        piv = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    coeffs = [Fraction(0)] * cols
    for i, c in enumerate(piv_cols):
        coeffs[c] = aug[i][cols]
    for i in range(r, rows):
        if aug[i][cols] != 0:
            raise ValueError("target not in the span")
    return coeffs


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _fraction_walk(points):
    """Wolfe's algorithm with every quantity a Fraction: the oracle for
    `min_norm_point`, with the same steps, pivot order, tie-break and drop
    rule."""
    pts = sorted(set(points))
    active = [min(pts, key=lambda w: (_dot(w, w), w))]
    while True:
        k = len(active)
        cols = [[_dot(s, t) for s in active] + [1] for t in active]
        a = _solve_rational(cols + [[1] * k + [0]], [0] * k + [1])[:k]
        if all(c > 0 for c in a):
            x = [sum(m * s[i] for m, s in zip(a, active))
                 for i in range(len(active[0]))]
            nearest = min(pts, key=lambda w: (_dot(x, w), w))
            if _dot(x, nearest) >= _dot(x, x):
                return active, a, x
            active, mu = active + [nearest], a + [0]
        else:
            theta = min([1] + [m / (m - c) for m, c in zip(mu, a) if c < 0])
            mu = [(1 - theta) * m + theta * c for m, c in zip(mu, a)]
            active = [s for s, m in zip(active, mu) if m]
            mu = [m for m in mu if m]


@pytest.mark.parametrize("label,n,count", [
    ("A", 2, 6), ("A", 3, 12), ("B", 2, 8), ("B", 3, 18),
    ("C", 2, 8), ("C", 3, 18), ("D", 3, 12), ("D", 4, 24),
])
def test_root_counts(label, n, count):
    rd = build_rootdatum(label, n)
    assert len(rd.roots) == count
    assert len(rd.positive_roots) * 2 == count
    neg = {tuple(-x for x in r) for r in rd.positive_roots}
    assert neg | set(rd.positive_roots) == set(rd.roots)


def test_invalid_ranks():
    for label, n in (("B", 1), ("C", 1), ("D", 2)):
        with pytest.raises(ValueError):
            build_rootdatum(label, n)


@pytest.mark.parametrize("label,n,h", [
    ("A", 1, 2), ("A", 2, 3), ("A", 3, 4),
    ("B", 2, 4), ("B", 3, 6), ("C", 2, 4), ("C", 4, 8),
    ("D", 3, 4), ("D", 4, 6),
])
def test_coxeter_formula(label, n, h):
    assert build_rootdatum(label, n).coxeter_number() == h


def test_coxeter_table_values():
    assert build_rootdatum("G2").coxeter_number() == 6
    assert build_rootdatum("E8").coxeter_number() == 30
    assert build_rootdatum("F4").coxeter_number() == 12
    assert build_rootdatum("E6").coxeter_number() == 12
    assert build_rootdatum("E7").coxeter_number() == 18


def test_highest_root_coeffs_positive():
    for label, n in (("A", 3), ("B", 3), ("C", 3), ("D", 4)):
        rd = build_rootdatum(label, n)
        assert all(a >= 1 for a in rd.highest_root_coeffs)


def test_classify_e8():
    e8 = build_rootdatum("E8")
    assert classify_prime(e8, 7).is_good
    pc5 = classify_prime(e8, 5)
    assert not pc5.is_good and pc5.is_torsion


def test_classify_b2_edge():
    # the printed table lists torsion "2" for the whole B row; the highest
    # coroot of B2 has coefficients (1, 1), so the definitional predicate
    # gives no torsion prime (B2 = C2), while p = 2 is bad
    b2 = build_rootdatum("B", 2)
    pc = classify_prime(b2, 2)
    assert pc.is_bad and not pc.is_good
    assert not pc.is_torsion
    assert pc.table_row["torsion_integer"] == 2
    assert b2.highest_coroot_coeffs == (1, 1)


def test_classify_a2_at_3():
    a2 = build_rootdatum("A", 2)
    pc = classify_prime(a2, 3)
    assert pc.is_good and not pc.is_very_good and not pc.is_separably_good


def test_classify_flags_consistency():
    primes = [q for q in range(2, 51) if is_prime(q)]
    for row in table_rows():
        for n in row["ranks"]:
            rd = build_rootdatum(row["type"], n)
            h = rd.coxeter_number()
            for q in primes:
                pc = classify_prime(rd, q)
                assert pc.is_good == (not pc.is_bad)
                if pc.is_very_good:
                    assert pc.is_good
                if q > h:
                    assert pc.is_very_good


def test_bound_inequalities():
    # 2h - 2 < 2^(2 rg) <= 2^(2d) with d = rank + 1 a floor for any
    # faithful representation dimension
    for row in table_rows():
        for n in row["ranks"]:
            rd = build_rootdatum(row["type"], n)
            h = rd.coxeter_number()
            assert 2 * h - 2 < 2 ** (2 * rd.rank)
            assert 2 ** (2 * rd.rank) <= 2 ** (2 * (rd.rank + 1))


def _closed_supersets_of_positives(rd):
    """Exhaustive oracle: all closed subsets containing the positive system."""
    import itertools
    pos = set(rd.positive_roots)
    negatives = [r for r in rd.roots if r not in pos]
    found = []
    for k in range(len(negatives) + 1):
        for extra in itertools.combinations(negatives, k):
            subset = pos | set(extra)
            if is_closed(rd, subset) and \
                    {tuple(-x for x in r) for r in subset} | subset == set(rd.roots):
                found.append(frozenset(subset))
    return set(found)


def _all_parabolic_roots(rd):
    """parabolic_roots for each of the 2^rank sets of simple roots."""
    return [parabolic_roots(rd, [i for i in range(rd.rank) if mask >> i & 1])
            for mask in range(1 << rd.rank)]


def test_parabolic_subsets_a1():
    rd = build_rootdatum("A", 1)
    subs = _all_parabolic_roots(rd)
    assert len(subs) == 2
    sizes = sorted(len(s) for s in subs)
    assert sizes == [1, 2]


def test_parabolic_subsets_exhaustive_a2():
    rd = build_rootdatum("A", 2)
    subs = _all_parabolic_roots(rd)
    assert len(subs) == 4
    oracle = _closed_supersets_of_positives(rd)
    assert {frozenset(s) for s in subs} == oracle
    assert any(set(s) == set(rd.roots) for s in subs)


def test_parabolic_subsets_properties():
    for label, n in (("A", 3), ("C", 2), ("B", 2)):
        rd = build_rootdatum(label, n)
        for subset in _all_parabolic_roots(rd):
            assert is_closed(rd, subset)
            assert {tuple(-x for x in r) for r in subset} | set(subset) \
                == set(rd.roots)
            assert set(rd.positive_roots) <= set(subset)


def test_is_closed_examples():
    rd = build_rootdatum("A", 2)
    assert is_closed(rd, rd.positive_roots)
    assert not is_closed(rd, [rd.simple_roots[0], rd.simple_roots[1]])
    assert is_closed(rd, [rd.simple_roots[0]])


def test_exceptional_stub():
    g2 = build_rootdatum("G2")
    assert not g2.constructive
    with pytest.raises(ValueError):
        parabolic_roots(g2, ())
    assert g2.highest_root_coeffs == (3, 2)
    assert g2.highest_coroot_coeffs == (1, 2)


def test_printed_table_carried():
    d4 = build_rootdatum("D", 4)
    pc = classify_prime(d4, 3)
    # definitional: only 2 is bad for D; the printed row says "> 3"
    assert pc.is_good
    assert pc.table_row["good_gt"] == 3


# every family and size `build` accepts
BUILT = ([(fam, n) for fam in ("gl", "sl", "pgl") for n in range(2, 9)]
         + [("sp", n) for n in range(4, 11, 2)]
         + [("so", n) for n in range(5, 12)])


def _roots_from_the_natural_module(weights, family):
    """The nonzero weights of the adjoint module, read from the weights w
    of the realization's rows: V (x) V* (w_a - w_b) on gl, sl and pgl,
    S^2 V (w_a + w_b, a <= b) on sp and Lambda^2 V (a < b) on so."""
    if family in ("gl", "sl", "pgl"):
        pairs = itertools.product(weights, [tuple(-x for x in w) for w in weights])
    elif family == "sp":
        pairs = itertools.combinations_with_replacement(weights, 2)
    else:
        pairs = itertools.combinations(weights, 2)
    return {r for r in (tuple(x + y for x, y in zip(u, v)) for u, v in pairs)
            if any(r)}


@pytest.mark.parametrize("family,n", BUILT, ids=[f"{f}{n}" for f, n in BUILT])
def test_root_data_match_an_oracle_without_the_orbit(family, n):
    g = build(family, n, 5)
    rd = g.frame.rootdatum
    assert set(rd.roots) == _roots_from_the_natural_module(
        g.frame.position_weights, family)
    assert len(rd.roots) == len(set(rd.roots))
    for root in rd.roots:
        coeffs = rd.simple_coefficients(root)
        assert tuple(sum(c * s[k] for c, s in zip(coeffs, rd.simple_roots))
                     for k in range(len(root))) == root
        assert rd.is_positive(root) == all(c >= 0 for c in coeffs) \
            == (root in rd.positive_roots)
    # the highest coroot 2 theta / (theta, theta) in the simple coroots
    def coroot(v):
        return [Fraction(2 * x, sum(y * y for y in v)) for x in v]
    theta = rd.positive_roots[-1]
    assert list(rd.highest_coroot_coeffs) == _solve_rational(
        [coroot(s) for s in rd.simple_roots], coroot(theta))
    # the roots sorted, the positive roots by (height, root)
    assert list(rd.roots) == sorted(rd.roots)
    assert list(rd.positive_roots) == sorted(
        (r for r in rd.roots if rd.is_positive(r)),
        key=lambda r: (sum(rd.simple_coefficients(r)), r))


def _random_point_sets():
    """Seeded point sets of dimension 1-6: plain, with a repeated point,
    with a point on the line through two others, and with p and -p, so
    that 0 lies in the hull."""
    rng = random.Random("min-norm-point")
    out = []
    for i in range(600):
        dim = 1 + i % 6
        pts = [tuple(rng.randint(-4, 4) for _ in range(dim))
               for _ in range(rng.randint(1, 8))]
        p, q = rng.choice(pts), rng.choice(pts)
        kind = i // 6 % 4
        if kind == 1:
            pts.append(p)
        elif kind == 2:
            pts.append(tuple(2 * b - a for a, b in zip(p, q)))
        elif kind == 3:
            pts.append(tuple(-a for a in p))
        out.append(pts)
    return out


def test_min_norm_point_matches_the_fraction_walk_on_random_sets():
    sets = _random_point_sets()
    zero = 0
    for pts in sets:
        got = min_norm_point(pts)
        assert got == _fraction_walk(pts), pts
        assert all(type(c) is Fraction for c in got[1] + got[2])
        zero += not any(got[2])
    # both outcomes are well represented: 0 in the hull, and not
    assert 100 < zero < len(sets) - 100


@pytest.mark.parametrize("family,n", [("sl", 8), ("sp", 10), ("so", 11)])
def test_min_norm_point_matches_the_fraction_walk_on_the_reach(family, n):
    # the support weights of every proper standard nilradical at p = 13
    g = build(family, n, 13)
    subsets = simple_subsets(g.frame.rootdatum.rank)[:-1]
    for chosen in subsets:
        weights = support_weights(g, standard_parabolic(g, chosen)["nilradical"])
        assert min_norm_point(weights) == _fraction_walk(weights), chosen
