import copy
import itertools
import json
import random

import pytest

from morozov.gfp import FieldMatrix, Subspace, rref
from morozov.liealg import (LieAlgebra, build, conjugate_subspace,
                            coordinate_split, exp_trunc_matrix,
                            jacobson_defect, jacobson_defect_reference,
                            parabolic_parts, split_sum, standard_borel,
                            standard_parabolic, torus_subspace,
                            weyl_matrices)
from morozov.serialize import (algebra_from_dict, algebra_to_dict,
                               canonical_json)


def test_dimensions():
    assert build("sl", 2, 5).dim == 3
    assert build("pgl", 3, 3).dim == 8
    assert build("sp", 4, 3).dim == 10
    assert build("gl", 3, 5).dim == 9
    assert build("so", 5, 5).dim == 10
    assert build("so", 6, 5).dim == 15


def test_dimension_cap():
    # sp12 (dim 78) and so12 (dim 66) exceed gfp.MAX_DIM = 64
    for fam in ("sp", "so"):
        with pytest.raises(ValueError):
            build(fam, 12, 5)
    # so does a 65-dimensional algebra file, before any bracket is formed
    units = [[[int(9 * i + j == t) for j in range(9)] for i in range(9)]
             for t in range(65)]
    data = {"p": 5, "labels": [f"x{t}" for t in range(65)],
            "realization": {"n": 9, "mats": units, "mod_scalars": False}}
    with pytest.raises(ValueError, match="exceeds the supported bound 64"):
        algebra_from_dict(data)


def test_build_accepts_what_fits_the_dimension_cap():
    # one up-front cap on the family's dimension, n^2 on gl, n^2 - 1 on sl
    # and pgl, k(2k + 1) on sp_2k and n(n - 1)/2 on so, against gfp.MAX_DIM
    # = 64; below it the lower bounds and the parity of sp refuse
    accepted, capped = set(), set()
    for fam in ("gl", "sl", "pgl", "sp", "so"):
        for n in range(2, 14):
            try:
                build(fam, n, 3)
                accepted.add((fam, n))
            except ValueError as exc:
                if "above the cap 64" in str(exc):
                    capped.add((fam, n))
    assert accepted == {(fam, n) for fam in ("gl", "sl", "pgl")
                        for n in range(2, 9)} | {
        ("sp", n) for n in (4, 6, 8, 10)} | {("so", n) for n in range(5, 12)}
    assert capped == {(fam, n) for fam in ("gl", "sl", "pgl", "so")
                      for n in range(9 if fam != "so" else 12, 14)} | {
        ("sp", n) for n in (11, 12, 13)}
    with pytest.raises(ValueError, match="^so_12 has dimension 66, above "
                       "the cap 64$"):
        build("so", 12, 3)
    with pytest.raises(ValueError, match="so is not supported at p = 2"):
        build("so", 5, 2)


def test_sl2_relations():
    g = build("sl", 2, 5)
    e, f, h = (g.element_by_label(x) for x in ("e12", "f12", "h1"))
    assert e.bracket(f) == h
    assert h.bracket(e) == e.scale(2)
    assert h.bracket(f) == f.scale(-2)


def test_antisymmetry_random():
    rng = random.Random(7)
    for fam, n, p in (("sl", 3, 5), ("sp", 4, 3), ("pgl", 3, 3)):
        g = build(fam, n, p)
        for _ in range(200):
            x = g.element([rng.randrange(p) for _ in range(g.dim)])
            y = g.element([rng.randrange(p) for _ in range(g.dim)])
            assert x.bracket(y) == -(y.bracket(x))


def test_jacobi_random():
    rng = random.Random(11)
    g = build("sp", 4, 5)
    zero = g.zero()
    for _ in range(200):
        x, y, z = (g.element([rng.randrange(5) for _ in range(g.dim)])
                   for _ in range(3))
        total = (x.bracket(y.bracket(z)) + y.bracket(z.bracket(x))
                 + z.bracket(x.bracket(y)))
        assert total == zero


def test_p_power_examples():
    g = build("sl", 2, 5)
    e, h = g.element_by_label("e12"), g.element_by_label("h1")
    assert e.p_power().is_zero()
    assert h.p_power() == h


def test_p_power_companion_class():
    g = build("pgl", 3, 3)
    c = FieldMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 3)
    x = g.element(g.coordinates_of_matrix(c))
    # the cube is the identity matrix, i.e. zero in the scalar quotient,
    # although the matrix itself is invertible
    assert x.p_power().is_zero()
    assert not x.is_zero()


def test_ad_p_power_axiom():
    rng = random.Random(3)
    for fam, n, p in (("sl", 3, 3), ("sp", 4, 5), ("pgl", 3, 3)):
        g = build(fam, n, p)
        for _ in range(100):
            x = g.element([rng.randrange(p) for _ in range(g.dim)])
            assert x.p_power().ad() == x.ad().pow(p)


def test_scale_p_power_axiom():
    rng = random.Random(4)
    g = build("sl", 3, 5)
    for _ in range(100):
        lam = rng.randrange(5)
        x = g.element([rng.randrange(5) for _ in range(g.dim)])
        assert x.scale(lam).p_power() == x.p_power().scale(pow(lam, 5, 5))


def test_jacobson_commuting():
    g = build("sl", 3, 5)
    e12, e13 = g.element_by_label("e12"), g.element_by_label("e13")
    assert e12.bracket(e13).is_zero()
    assert jacobson_defect(e12, e13).is_zero()
    assert (e12 + e13).p_power() == e12.p_power() + e13.p_power()


def test_jacobson_sl2_p3():
    g = build("sl", 2, 3)
    e, f = g.element_by_label("e12"), g.element_by_label("f12")
    w = jacobson_defect(e, f)
    assert (e + f).p_power() == e.p_power() + f.p_power() - w
    assert w == jacobson_defect_reference(e, f)


@pytest.mark.parametrize("fam,n,p,count", [
    ("sp", 4, 5, 60), ("sl", 3, 3, 60), ("pgl", 3, 3, 60), ("sl", 2, 7, 40),
])
def test_jacobson_identity_random(fam, n, p, count):
    rng = random.Random(p * 100 + n)
    g = build(fam, n, p)
    for _ in range(count):
        x = g.element([rng.randrange(p) for _ in range(g.dim)])
        y = g.element([rng.randrange(p) for _ in range(g.dim)])
        w = jacobson_defect(x, y)
        assert (x + y).p_power() == x.p_power() + y.p_power() - w


def test_jacobson_reference_crosscheck():
    rng = random.Random(9)
    for fam, n, p in (("sl", 2, 3), ("sl", 2, 5), ("sl", 3, 3)):
        g = build(fam, n, p)
        for _ in range(10):
            x = g.element([rng.randrange(p) for _ in range(g.dim)])
            y = g.element([rng.randrange(p) for _ in range(g.dim)])
            assert jacobson_defect(x, y) == jacobson_defect_reference(x, y)


def test_exp_identity_and_inverse():
    g = build("sl", 2, 5)
    e = g.element_by_label("e12")
    assert g.exp_trunc(g.zero()) == FieldMatrix.identity(2, 5)
    prod = g.exp_trunc(e) @ g.exp_trunc(-e)
    assert prod == FieldMatrix.identity(2, 5)


def test_exp_rejections():
    g = build("sl", 2, 5)
    h = g.element_by_label("h1")
    with pytest.raises(ValueError):
        g.exp_trunc(h)
    g3 = build("sl", 2, 3)
    e, f = g3.element_by_label("e12"), g3.element_by_label("f12")
    # e + f is semisimple, not nilpotent
    with pytest.raises(ValueError):
        g3.exp_trunc(e + f)
    # the regular nilpotent of sl4@3 has x^3 != 0: its truncated
    # exponential is no group element
    g = build("sl", 4, 3)
    x = (g.element_by_label("e12") + g.element_by_label("e23")
         + g.element_by_label("e34"))
    assert not g.matrix_of(x.coords).pow(3).is_zero()
    with pytest.raises(ValueError):
        g.exp_trunc(x)


def test_exp_trunc_of_a_short_root_element_of_so5_at_3():
    # the short-root elements of so5@3 have x^2 != 0 and x^3 = 0: sum_{i<3}
    # x^i / i! is inverted by exp(-x) and preserves the form, P^T J P = J
    g = build("so", 5, 3)
    perm, sign = g.frame.form
    form = FieldMatrix(5, 5, 3, [sign[c] if perm[c] == r else 0
                                 for r in range(5) for c in range(5)])
    short = [x for x in (g.basis_element(g.frame.root_index[r])
                         for r in g.frame.rootdatum.roots)
             if not g.matrix_of(x.coords).pow(2).is_zero()]
    assert len(short) == 4
    for x in short:
        e = g.exp_trunc(x)
        assert e @ g.exp_trunc(-x) == FieldMatrix.identity(5, 3)
        assert e.transpose() @ form @ e == form


def test_ad_exp_compat_examples():
    g = build("sl", 2, 5)
    assert g.ad_exp_compat(g.element_by_label("e12"))
    assert g.ad_exp_compat(g.element_by_label("f12"))
    g7 = build("sl", 3, 7)
    assert g7.ad_exp_compat(g7.element_by_label("e13"))


def test_killing_sl2():
    g = build("sl", 2, 5)
    e, f, h = (g.element_by_label(x) for x in ("e12", "f12", "h1"))
    assert int(g.killing_form(h, h)) == 8 % 5
    assert int(g.killing_form(e, f)) == 4 % 5
    assert int(g.killing_form(e, e)) == 0


def test_killing_degenerate_sl3_at_3():
    g = build("sl", 3, 3)
    assert rref(g.killing_gram())[1] < g.dim
    assert not g.killing_nondegenerate()


@pytest.mark.parametrize("fam,n,p", [("sl", 3, 5), ("pgl", 3, 3),
                                     ("sp", 4, 7), ("so", 5, 5)])
def test_killing_gram_is_the_trace_of_the_ad_products(fam, n, p):
    # entrywise tr(xy) = sum x_ij y_ji agrees exactly with the traced product
    g = build.__wrapped__(fam, n, p)            # fresh memo
    ads = [g.ad_matrix_vec(g.unit(i)) for i in range(g.dim)]
    assert list(g.killing_gram().entries) == [(x @ y).trace() for x in ads
                                              for y in ads]


def test_killing_invariance():
    rng = random.Random(5)
    g = build("sp", 4, 5)
    for _ in range(100):
        x, y, z = (g.element([rng.randrange(5) for _ in range(g.dim)])
                   for _ in range(3))
        lhs = g.killing_form(x.bracket(y), z)
        rhs = g.killing_form(x, y.bracket(z))
        assert lhs == rhs
        assert g.killing_form(x, y) == g.killing_form(y, x)


def test_normalizer_examples():
    g = build("sl", 2, 5)
    assert g.normalizer(g.full_space()) == g.full_space()
    e = g.element_by_label("e12")
    n = g.normalizer(g.subspace([e.coords]))
    h = g.element_by_label("h1")
    assert n == g.subspace([h.coords, e.coords])


def test_normalizer_contains_subalgebra_as_ideal():
    rng = random.Random(13)
    g = build("sl", 3, 5)
    for _ in range(20):
        gens = [g.element([rng.randrange(5) for _ in range(g.dim)])
                for _ in range(2)]
        u = g.subalgebra_closure(gens)
        n = g.normalizer(u)
        assert n.contains(u)
        # u an ideal of N(u): brackets [n, u] land in u
        for nb in n.basis:
            for ub in u.basis:
                assert u.contains_vector(g.bracket_vec(list(nb), list(ub)))


def test_centralizer_and_center():
    gl2 = build("gl", 2, 5)
    center = gl2.center()
    assert center.dim == 1
    assert center.contains_vector(
        gl2.coordinates_of_matrix(FieldMatrix.identity(2, 5)))
    sl3 = build("sl", 3, 3)
    assert sl3.center().dim == 1  # scalars lie in sl_3 when p | n


def _closure_by_rounds(g, gens):
    """The round loop the worklist replaced: add [span, span] until a round
    adds nothing."""
    span = Subspace.from_vectors([x.coords for x in gens], g.dim, g.p)
    while True:
        grown = span.sum(g.bracket_spaces(span, span))
        if grown.dim == span.dim:
            return span
        span = grown


@pytest.mark.parametrize("alg", [("sl", 3, 5), ("sp", 4, 3), ("so", 5, 5),
                                 ("pgl", 3, 3)],
                         ids=lambda alg: "{}{}@{}".format(*alg))
def test_worklists_match_the_round_loops(alg):
    g = build(*alg)
    rng = random.Random(str(alg))

    def draw(support):
        return [rng.randrange(g.p) if i in support else 0
                for i in range(g.dim)]

    for _ in range(12):
        gens = [g.element(draw(rng.sample(range(g.dim), rng.choice([1, 2]))))
                for _ in range(rng.randrange(1, 4))]
        assert g.subalgebra_closure(gens) == _closure_by_rounds(g, gens)
    assert g.subalgebra_closure([]) == g.subspace([])


def test_closure_examples():
    g = build("sl", 2, 5)
    e, f = g.element_by_label("e12"), g.element_by_label("f12")
    assert g.subalgebra_closure([e]).dim == 1
    assert g.subalgebra_closure([e, f]) == g.full_space()


def test_series_and_solvability():
    g = build("sl", 3, 5)
    b = standard_borel(g)["parabolic"]
    assert g.is_solvable(b)
    assert not g.is_nilpotent(b)
    n = standard_borel(g)["nilradical"]
    assert g.is_nilpotent(n)
    assert not g.is_solvable(g.full_space())


def test_largest_ideal_inside():
    g = build("sl", 2, 5)
    full = g.full_space()
    assert g.largest_ideal_inside(full, full) == full
    e = g.element_by_label("e12")
    line = g.subspace([e.coords])
    assert g.largest_ideal_inside(full, line).dim == 0
    b = standard_borel(g)["parabolic"]
    # within the Borel the line through e is an ideal
    view_ideal = g.largest_ideal_inside(b, line)
    assert view_ideal == line


def test_weights_match_matrix_conjugation():
    # the frame weight of each root vector agrees with conjugation by the
    # diagonal one-parameter subgroup in the realization
    for fam, n, lam in (("sl", 3, (1, 0, -1)), ("sp", 4, (2, 1))):
        g = build(fam, n if fam != "sp" else 4, 5)
        exps = g.frame.diag_exponents(list(lam))
        for idx, root in g.frame.index_root.items():
            m = g.realization.mats[idx]
            w = g.frame.weight(list(lam), idx)
            positions = [(i, j) for i in range(m.rows) for j in range(m.cols)
                         if m.entries[i * m.cols + j]]
            assert positions
            for i, j in positions:
                assert exps[i] - exps[j] == w


def test_weyl_matrices_preserve_algebra():
    g = build("sp", 4, 5)
    b = standard_borel(g)["parabolic"]
    mats = weyl_matrices(g)
    assert len(mats) == 8
    for w in mats:
        conj = conjugate_subspace(g, w, b)
        assert conj.dim == b.dim


def test_standard_parabolic_structure():
    g = build("sl", 3, 5)
    data = standard_parabolic(g, (0,))
    par, nil, levi = data["parabolic"], data["nilradical"], data["levi"]
    assert par.dim == 6 and nil.dim == 2
    assert par.contains(nil) and par.contains(levi)
    assert par.contains(torus_subspace(g))
    assert g.is_subalgebra(par)


@pytest.mark.parametrize("fam,n,p", [("sl", 3, 5), ("gl", 3, 5), ("pgl", 3, 3),
                                     ("sp", 4, 7), ("so", 5, 5)])
def test_coordinate_split_matches_its_definition(fam, n, p):
    # s is split when dim(s n t) plus the number of root lines inside s
    # is dim s
    g = build(fam, n, p)
    t = torus_subspace(g)
    rng = random.Random(n * p)
    roots = sorted(g.frame.index_root)
    splits = 0
    for trial in range(60):
        vecs = [g.unit(i) for i in rng.sample(roots, rng.randint(0, 4))]
        for _ in range(rng.randint(0, 2)):
            vecs.append([rng.randrange(p) if i in g.frame.torus_indices else 0
                         for i in range(g.dim)])
        if trial % 3 == 0:
            vecs.append([rng.randrange(p) for _ in range(g.dim)])
        s = g.subspace(vecs)
        lines = frozenset(i for i in roots if s.contains_vector(g.unit(i)))
        torus = s.intersect(t)
        expected = (torus, lines) if torus.dim + len(lines) == s.dim else None
        assert coordinate_split(g, s) == expected
        splits += expected is not None
    assert 0 < splits < 60


@pytest.mark.parametrize("fam,n,p", [("sl", 4, 5), ("sp", 6, 7), ("so", 7, 7)])
def test_split_sum_inverts_coordinate_split(fam, n, p):
    # on every standard parabolic, Levi and nilradical: coordinate_split
    # reads the torus part and the root indices of the role's roots, and
    # split_sum rebuilds the subspace from them, adopting its rows with no
    # elimination, as standard_parabolic's own are; the elimination of the
    # units, last index first, and the torus rows gives the same basis.
    # Moved by a product of root-group elements exp(t x_-a) exp(t x_a)
    # over the simple roots a, no proper nonzero one of them is split
    g = build(fam, n, p)
    rng = random.Random(f"split-form:{fam}{n}@{p}")
    simples = g.frame.rootdatum.simple_roots
    w = FieldMatrix.identity(g.realization.n, p)
    for root in [tuple(-x for x in a) for a in simples] + list(simples):
        v = [0] * g.dim
        v[g.frame.root_index[tuple(root)]] = rng.randrange(1, p)
        w = w @ g.exp_trunc(g.element(v))
    rank, t = len(simples), torus_subspace(g)
    for mask in range(1 << rank):
        data = standard_parabolic(g, [i for i in range(rank) if mask >> i & 1])
        roots = set(data["roots"])
        levi = {r for r in roots if tuple(-x for x in r) in roots}
        for role, role_roots, torus in (
                ("parabolic", roots, t), ("levi", levi, t),
                ("nilradical", roots - levi, g.subspace([]))):
            s = data[role]
            lines = frozenset(g.frame.root_index[r] for r in role_roots)
            assert coordinate_split(g, s) == (torus, lines), (mask, role)
            rebuilt = split_sum(g, lines, torus)
            assert rebuilt == s and rebuilt._span is None and s._span is None
            assert rebuilt == g.subspace(
                [g.unit(i) for i in sorted(lines, reverse=True)]
                + list(torus.basis)), (mask, role)
            if 0 < s.dim < g.dim:
                assert coordinate_split(
                    g, conjugate_subspace(g, w, s)) is None, (mask, role)


def _negatives_rule(g, roots):
    """The parts of a parabolic root subset by the rule `standard_parabolic`
    once wrote out itself, each span eliminated from its units: the
    nilradical holds the lines whose negative root is absent, the Levi
    part t and the lines whose negative is present."""
    roots = set(roots)
    levi = {r for r in roots if tuple(-x for x in r) in roots}
    t = [g.unit(i) for i in g.frame.torus_indices]

    def units(subset):
        return [g.unit(g.frame.root_index[r]) for r in subset]
    return {"parabolic": g.subspace(units(roots) + t),
            "nilradical": g.subspace(units(roots - levi)),
            "levi": g.subspace(units(levi) + t)}


@pytest.mark.parametrize("fam,n,p", [("sl", 4, 5), ("sp", 6, 7), ("so", 7, 7)])
def test_parabolic_parts_match_the_negatives_rule(fam, n, p):
    # on every standard parabolic, all three parts together and each one
    # asked for alone, which is all that is written
    g = build(fam, n, p)
    rank = g.frame.rootdatum.rank
    for mask in range(1 << rank):
        data = standard_parabolic(g, [i for i in range(rank) if mask >> i & 1])
        oracle = _negatives_rule(g, data["roots"])
        assert parabolic_parts(g, data["roots"]) == oracle, mask
        assert {key: data[key] for key in oracle} == oracle, mask
        for key, part in oracle.items():
            assert parabolic_parts(g, data["roots"], key) == {key: part}


@pytest.mark.parametrize("fam,n,p", [
    ("gl", 2, 2), ("gl", 3, 5), ("sl", 2, 3), ("sl", 4, 2), ("pgl", 3, 3),
    ("pgl", 4, 5), ("sp", 4, 2), ("sp", 6, 5), ("so", 5, 3), ("so", 6, 5),
    ("so", 7, 7)])
def test_torus_indices_are_the_first_coordinates(fam, n, p):
    # the basis indices with no root are 0, ..., t - 1, and their
    # realization matrices are diagonal
    g = build(fam, n, p)
    t = len(g.frame.torus_indices)
    assert g.frame.torus_indices == range(t)
    assert set(range(g.dim)) - set(g.frame.index_root) == set(range(t))
    for i in range(t):
        m = g.realization.mats[i]
        assert all(not x for k, x in enumerate(m.entries)
                   if k // m.cols != k % m.cols)


def _character_reference(g, z, idx):
    """b(z) read through `basis_bracket`, one lookup per entry of the torus
    row z."""
    return sum(x * c for t, x in enumerate(z) if x
               for _, c in g.basis_bracket(t, idx)) % g.p


def _line_row(g, entries):
    """The canonical row of the line through sum c b_k, entries ((k, c),
    ...), as `Subspace` reduces it."""
    v = [0] * g.dim
    for k, c in entries:
        v[k] = c
    return g.subspace([v]).basis[0]


def _split_bracket_reference(g, a, b, coroots):
    """`split_bracket` read through `basis_bracket`, one lookup per pair."""
    found = {g.basis_bracket(i, j) for i in a for j in b} - {()}
    lines = {e for e in found if e[0][0] in g.frame.index_root}
    return {e[0][0] for e in lines} | {
        i for i in a if any(_character_reference(g, z, i) for z in coroots)
    }, {_line_row(g, e) for e in found - lines}


def _table_coroots(g):
    """The canonical rows of the torus lines [e_i, e_j] of root lines."""
    roots = g.frame.index_root
    return {_line_row(g, e) for i in roots for j in roots
            if (e := g.basis_bracket(i, j)) and e[0][0] not in roots}


# pgl with p | n, and sp and so at p = 2 and 3, among them
ROOT_TABLE_CASES = [
    (fam, n, p) for p in (2, 3, 5, 7)
    for fam, n in (("gl", 2), ("gl", 3), ("sl", 2), ("sl", 3), ("pgl", 2),
                   ("pgl", 3), ("sp", 4), ("so", 5)) if (fam, p) != ("so", 2)
] + [("pgl", 4, 2), ("sp", 6, 2), ("sl", 8, 13), ("sp", 10, 13),
     ("so", 11, 13)]


@pytest.mark.parametrize("fam,n,p", ROOT_TABLE_CASES)
def test_split_bracket_matches_the_pairwise_lookups(fam, n, p):
    # root-index sets as the callers pass them, with coroot sets as the
    # radical spins them and torus rows with zero entries
    g = build(fam, n, p)
    rng = random.Random(f"split:{fam}{n}@{p}")
    roots, torus = sorted(g.frame.index_root), g.frame.torus_indices
    every_coroot = sorted(_table_coroots(g))
    assert every_coroot or (fam, n, p) == ("pgl", 2, 2)
    for trial in range(40):
        a = set(rng.sample(roots, rng.choice(
            [0, 1, rng.randrange(len(roots) + 1)])))
        b = a if trial % 4 == 0 else set(rng.sample(
            roots, rng.choice([1, rng.randrange(len(roots) + 1)])))
        if trial % 2:
            zs = set(rng.sample(every_coroot, min(len(every_coroot),
                                                  rng.randrange(4))))
        else:
            zs = [tuple(rng.randrange(p) if i in torus and rng.randrange(2)
                        else 0 for i in range(g.dim))
                  for _ in range(rng.randrange(4))]
        assert g.split_bracket(a, b, zs) == _split_bracket_reference(g, a, b, zs)
        assert g.split_bracket(b, a, ()) == _split_bracket_reference(g, b, a, ())
        for z in zs:
            for idx in rng.sample(roots, min(len(roots), 8)):
                assert g.character(z, idx) == _character_reference(g, z, idx)


@pytest.mark.parametrize("fam,n,p", ROOT_TABLE_CASES)
def test_root_table_kill_sets_and_unit_p_powers(fam, n, p):
    # each coroot of the table, and each row of a torus part as the
    # normaliser passes it, moves exactly the roots on which its character
    # is nonzero, kept in the algebra's memo; each unit's kept p-power is
    # its p-power; and the p-closure test that reads them agrees with the
    # matrix p-powers
    g = build(fam, n, p)
    roots = sorted(g.frame.index_root)
    table = _table_coroots(g)
    assert {z for row in g._root_table[1].values()
            for z in row.values()} == table
    rng = random.Random(f"kill-sets:{fam}{n}@{p}")
    parts = [torus_subspace(g)] + [
        g.subspace([[rng.randrange(p) if t in g.frame.torus_indices else 0
                     for t in range(g.dim)] for _ in range(2)])
        for _ in range(4)]
    for z in table | {z for s in parts for z in s.basis}:
        assert g.moved_lines(z) == {
            idx for idx in roots if _character_reference(g, z, idx)}, z
        assert ("moved", z) in g._memo
    for i in range(g.dim):
        assert list(g.unit_powers[i]) == g.p_power_vec(g.unit(i)), g.labels[i]
    rng = random.Random(f"p-closed:{fam}{n}@{p}")
    for _ in range(12):
        units = [g.unit(i) for i in rng.sample(range(g.dim), rng.randrange(
            1, min(4, g.dim) + 1))]
        mixed = [[rng.randrange(p) for _ in range(g.dim)]] + units[1:]
        for u in (g.subalgebra_closure([g.element(v) for v in units]),
                  g.subspace(units), g.subspace(mixed)):
            assert g.is_p_closed(u) == all(
                u.contains_vector(g.p_power_vec(list(b))) for b in u.basis), \
                u.basis


def test_json_roundtrip_bit_exact():
    for fam, n, p in (("sl", 3, 5), ("pgl", 3, 3), ("sp", 4, 7)):
        g = build(fam, n, p)
        blob = canonical_json(algebra_to_dict(g))
        g2 = algebra_from_dict(json.loads(blob))
        assert canonical_json(algebra_to_dict(g2)) == blob


def test_exp_trunc_matrix_truncation():
    m = FieldMatrix.from_rows([[0, 1], [0, 0]], 7)
    e = exp_trunc_matrix(m, 7)
    assert e == FieldMatrix.from_rows([[1, 1], [0, 1]], 7)


# -- the bracket and ad kernels against the realization ------------------------

def _test_vectors(g, rng):
    """Random, unit and 1-2-sparse vectors, some with unreduced entries
    (>= p or negative)."""
    p, d = g.p, g.dim
    vecs = [g.unit(i) for i in range(d)]
    for _ in range(12):
        vecs.append([rng.randrange(p) for _ in range(d)])
        vecs.append([rng.randrange(-2 * p, 2 * p) for _ in range(d)])
        for size in (1, 2):
            v = [0] * d
            for i in rng.sample(range(d), size):
                v[i] = rng.choice([rng.randrange(1, p), p + 1, -1, 3 * p])
            vecs.append(v)
    return vecs


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("fam,n", [("gl", 3), ("sl", 3), ("pgl", 3), ("sp", 4),
                                   ("so", 5)])
def test_bracket_and_ad_match_the_matrix_commutator(fam, n, p):
    g = build(fam, n, p)
    rng = random.Random(f"{fam}{n}@{p}")
    vecs = _test_vectors(g, rng)
    for _ in range(150):
        x, y = rng.choice(vecs), rng.choice(vecs)
        mx, my = g.matrix_of(x), g.matrix_of(y)
        assert g.bracket_vec(x, y) == g.coordinates_of_matrix(mx @ my - my @ mx)
    for x in rng.sample(vecs, 20):
        cols = [g.bracket_vec(x, g.unit(j)) for j in range(g.dim)]
        expected = [cols[j][i] for i in range(g.dim) for j in range(g.dim)]
        assert g.ad_matrix_vec(x).entries == tuple(expected)


@pytest.mark.parametrize("fam,n,p", [
    (fam, n, p) for fam, n in [("gl", 3), ("sl", 3), ("pgl", 3), ("sp", 4),
                               ("so", 5), ("so", 6)]
    for p in (2, 3, 5) if fam != "so" or p > 2])    # so at odd p only
def test_coordinates_of_matrix_round_trip(fam, n, p):
    g = build(fam, n, p)
    rng = random.Random(f"coordinates_of_matrix:{fam}{n}@{p}")
    for _ in range(30):
        x = [rng.randrange(-p, 2 * p) for _ in range(g.dim)]
        m = g.matrix_of(x)
        assert g.coordinates_of_matrix(m) == [c % p for c in x]
        if fam == "pgl":
            # a representative modulo scalars
            scalar = FieldMatrix.identity(n, p).scale(rng.randrange(p))
            assert g.coordinates_of_matrix(m + scalar) == [c % p for c in x]
    # each unit matrix E_ab, taken modulo scalars on pgl, is outside the
    # span exactly when it raises the rank of the realization matrices
    vecs = [list(m.entries) for m in g.realization.mats]
    outside = 0
    for k in range(n * n):
        e = FieldMatrix(n, n, p, [int(i == k) for i in range(n * n)])
        canon = e - FieldMatrix.identity(n, p).scale(e.entries[-1]) \
            if fam == "pgl" else e
        if rref(FieldMatrix.from_rows(vecs + [list(canon.entries)], p))[1] \
                > g.dim:
            outside += 1
            with pytest.raises(ValueError, match="not in the span"):
                g.coordinates_of_matrix(e)
        else:
            coords = g.coordinates_of_matrix(e)
            assert g.matrix_of(coords) == canon
    # gl and pgl take every matrix; the other families are proper subspaces
    assert (outside > 0) == (fam not in ("gl", "pgl"))


@pytest.mark.parametrize("fam,n,p", [
    ("gl", 3, 5), ("sl", 4, 3), ("pgl", 3, 3), ("pgl", 4, 5), ("sp", 6, 5),
    ("so", 5, 7), ("so", 6, 3)])
def test_matrix_of_matches_the_dense_combination(fam, n, p):
    # matrix_of adds c_i times the nonzero entries of each realization
    # matrix M_i; the dense sum of c_i M_i is the reference
    g = build(fam, n, p)
    rng = random.Random(f"matrix_of:{fam}{n}@{p}")
    vecs = _test_vectors(g, rng) + [[rng.randrange(p) for _ in range(g.dim)]
                                    for _ in range(20)]
    for v in vecs:
        dense = FieldMatrix.zero(n, n, p)
        for c, m in zip(v, g.realization.mats):
            dense = dense + m.scale(c)
        assert g.matrix_of(v) == dense


@pytest.mark.parametrize("fam,n,p", [("sl", 3, 5), ("sp", 4, 5), ("so", 5, 7)])
def test_view_bracket_and_ad_match_the_parent(fam, n, p):
    from morozov.radicals import SubView
    g = build(fam, n, p)
    rng = random.Random(n * p)
    # exp(t x_-a), then exp(t x_a), over the simple roots a
    w = FieldMatrix.identity(g.realization.n, p)
    simples = g.frame.rootdatum.simple_roots
    for root in [tuple(-x for x in a) for a in simples] + list(simples):
        v = [0] * g.dim
        v[g.frame.root_index[tuple(root)]] = rng.randrange(1, p)
        w = w @ g.exp_trunc(g.element(v))
    q = conjugate_subspace(g, w, standard_parabolic(g, (0,))["parabolic"])
    assert not coordinate_split(g, q)
    view = SubView(g, q)
    vecs = _test_vectors(view, rng)
    for _ in range(60):
        a, b = rng.choice(vecs), rng.choice(vecs)
        assert view.lift(view.bracket_vec(a, b)) == \
            g.bracket_vec(view.lift(a), view.lift(b))
    for a in rng.sample(vecs, 10):
        cols = [view.local(g.bracket_vec(view.lift(a), list(b)))
                for b in q.basis]
        expected = [cols[j][i] for i in range(q.dim) for j in range(q.dim)]
        assert view.ad_matrix_vec(a).entries == tuple(expected)


def _with_table(g, table):
    """A copy of g whose [b_i, b_j], i < j, has the coordinates {k: c} of
    table[i, j] (0 where absent), filled by `_set_structure` as in every
    build, so that every view of the table holds the same brackets."""
    h = copy.copy(g)
    h._set_structure(lambda i, j: [table.get((i, j), {}).get(k, 0)
                                   for k in range(g.dim)])
    return h


def _single_entry_corruptions(g):
    """The tables of g with one stored coefficient c of one [b_i, b_j]
    replaced by c + 1 (the entry goes when c + 1 = p), one per entry."""
    table = {ij: dict(e) for ij, e in g.structure_constants().items()}
    for ij, entries in table.items():
        for k, c in entries.items():
            yield {**table, ij: {**entries, k: (c + 1) % g.p}}


@pytest.mark.parametrize("fam,n,p,count", [("sl", 4, 7, 64), ("sp", 6, 7, 105),
                                           ("sl", 5, 7, 136)])
def test_structure_check_rejects_every_single_entry_corruption(fam, n, p,
                                                               count):
    g = build(fam, n, p)
    g._verify_structure()
    seen = 0
    for table in _single_entry_corruptions(g):
        with pytest.raises(AssertionError):
            _with_table(g, table)._verify_structure()
        seen += 1
    assert seen == count


@pytest.mark.parametrize("fam,n,p", [("sp", 4, 5), ("pgl", 3, 5)])
def test_structure_check_rejects_a_wrong_p_power(fam, n, p):
    # x^[p] off by one in the coefficient of b_i on b_i alone; ad(b_i) != 0
    # since both algebras are centreless
    g = build(fam, n, p)
    for i in range(g.dim):
        def wrong(x, i=i):
            out = g.p_power_vec(x)
            if list(x) == g.unit(i):
                out[i] += 1
            return out
        h = copy.copy(g)
        h.p_power_vec = wrong
        with pytest.raises(AssertionError, match="ad"):
            h._verify_structure()


@pytest.mark.parametrize("fam,n", [("gl", 3), ("sl", 3), ("pgl", 3), ("sp", 4),
                                   ("so", 5), ("so", 6)])
def test_every_build_checks_its_structure_once(fam, n, monkeypatch):
    calls = []
    check = LieAlgebra._verify_structure

    def counting(self):
        calls.append(self)
        check(self)
    monkeypatch.setattr(LieAlgebra, "_verify_structure", counting)
    g = build.__wrapped__(fam, n, 5)
    assert calls == [g]


@pytest.mark.parametrize("fam,n,p", [("sl", 3, 5), ("sp", 4, 5), ("so", 5, 7)])
def test_structure_check_agrees_with_brute_force_jacobi(fam, n, p):
    # random tables near g's, entries added as well as changed, against
    # the Jacobiator of every basis triple through bracket_vec
    g = build(fam, n, p)
    rng = random.Random(f"jacobi {fam}{n}@{p}")
    units = [g.unit(i) for i in range(g.dim)]
    outcomes = set()
    for _ in range(40):
        table = {ij: dict(e) for ij, e in g.structure_constants().items()}
        for _ in range(rng.choice([1, 1, 2, 3])):
            i, j = sorted(rng.sample(range(g.dim), 2))
            entries = table.setdefault((i, j), {})
            entries[rng.randrange(g.dim)] = rng.randrange(p)
        h = _with_table(g, table)
        brute = all(not any(
            (x + y + z) % p for x, y, z in zip(
                h.bracket_vec(units[i], h.bracket_vec(units[j], units[k])),
                h.bracket_vec(units[j], h.bracket_vec(units[k], units[i])),
                h.bracket_vec(units[k], h.bracket_vec(units[i], units[j]))))
            for i, j, k in itertools.combinations(range(g.dim), 3))
        try:
            h._verify_structure()
            jacobi = True
        except AssertionError as exc:
            jacobi = "Jacobi" not in str(exc)
        assert jacobi == brute
        outcomes.add(brute)
    assert outcomes == {True, False}
