import itertools
from fractions import Fraction

import pytest

from morozov.gfp import is_prime
from morozov.liealg import build
from morozov.rootdata import (EXCEPTIONAL, PRINTED_TABLE, _solve_rational,
                              build_rootdatum, classify_prime, is_closed,
                              parabolic_roots, table_rows)


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
