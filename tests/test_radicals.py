import itertools
import json
import random

import pytest

from morozov.gfp import FieldMatrix, Subspace, rref, solve_linear
from morozov.kempf import check_search_class
from morozov.liealg import (build, conjugate_subspace, coordinate_split,
                            split_sum, standard_borel, standard_parabolic)
from morozov.radicals import (DEFAULT_BUDGET, InputError, SubView,
                              Undetermined, _act_nilpotently, _ad_lift,
                              _certified_root_support, _framed_radical,
                              _nilpotent_cone, _reach,
                              _structured_solvable_radical, _view_radical,
                              _walk, check_p_nil, is_p_nil_subalgebra,
                              is_p_nilpotent,
                              nilradical, p_radical, pnil_part_of_radical,
                              radical_report, solvable_radical)
from morozov.rootdata import is_closed, min_norm_point
from morozov.suite import literal_p_nilpotent
from morozov.tower import check_tower_input, run_tower, verify_morozov


def line(g, label):
    x = g.element_by_label(label)
    return g.subspace([x.coords])


def test_is_p_nilpotent_examples():
    g = build("sl", 2, 5)
    assert is_p_nilpotent(g.element_by_label("e12"))
    assert not is_p_nilpotent(g.element_by_label("h1"))
    pgl3 = build("pgl", 3, 3)
    c = FieldMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 3)
    assert is_p_nilpotent(pgl3.element(pgl3.coordinates_of_matrix(c)))


def test_minimal_abelian_ideal_examples():
    # a minimal abelian ideal is the last nonzero derived term of the radical
    g = build("sl", 2, 5)
    b = standard_borel(g)["parabolic"]
    assert solvable_radical(g, b) == b
    assert [s for s in g.derived_series(b) if s.dim][-1] == line(g, "e12")
    assert solvable_radical(g, g.full_space()).dim == 0
    # abelian algebra: the whole torus is its own radical
    t = g.subspace([g.element_by_label("h1").coords])
    assert solvable_radical(g, t) == t
    assert g.bracket_spaces(t, t).dim == 0


def test_minimal_abelian_matches_exhaustive_oracle_sl2():
    # oracle: enumerate all subspaces, keep abelian ideals
    from morozov.suite import enumerate_subspaces
    for p in (3, 5):
        g = build("sl", 2, p)
        view = SubView(g, g.full_space())
        found = []
        for s in enumerate_subspaces(view):
            if s.dim == 0:
                continue
            ideal = all(
                s.contains_vector(view.bracket_vec(view.unit(i), list(bv)))
                for i in range(view.dim) for bv in s.basis)
            abelian = view.bracket_spaces(s, s).dim == 0
            if ideal and abelian:
                found.append(s)
        assert not found
        assert solvable_radical(g, g.full_space()).dim == 0


@pytest.mark.parametrize("fam,n", [("sl", 3), ("sp", 4), ("so", 5)])
def test_full_subview_calculus_matches_ambient(fam, n):
    # the subalgebra calculus run on g as a view, lifted back, is g's own
    g = build(fam, n, 5)
    full = g.full_space()
    view = SubView(g, full)
    vfull = view.full_space()
    lift, restrict = view.lift_subspace, view.restrict_subspace
    assert [lift(s) for s in view.derived_series(vfull)] == g.derived_series(full)
    assert [lift(s) for s in view.lower_central_series(vfull)] \
        == g.lower_central_series(full)
    assert lift(view.center()) == g.center()
    assert rref(view.killing_gram())[1] == rref(g.killing_gram())[1]
    assert lift(view.killing_kernel()) == g.killing_kernel()
    borel = standard_borel(g)
    b, nil = borel["parabolic"], borel["nilradical"]
    assert lift(view.largest_ideal_inside(vfull, restrict(b))) \
        == g.largest_ideal_inside(full, b)
    assert lift(view.largest_ideal_inside(restrict(b), restrict(nil))) \
        == g.largest_ideal_inside(b, nil) == nil
    assert lift(view.centralizer(restrict(nil))) == g.centralizer(nil)
    assert lift(view.normalizer(restrict(nil))) == g.normalizer(nil) == b
    assert lift(view.orthogonal(restrict(b))) == g.orthogonal(b)


def _root_group_word(g, rng, length=6):
    """exp(t_1 x_a1) ... exp(t_k x_ak) for seeded roots and coefficients."""
    w = FieldMatrix.identity(g.realization.n, g.p)
    for _ in range(length):
        v = [0] * g.dim
        root = rng.choice(g.frame.rootdatum.roots)
        v[g.frame.root_index[tuple(root)]] = rng.randrange(1, g.p)
        w = w @ g.exp_trunc(g.element(v))
    return w


def _view_inputs(g):
    """(name, h, an ideal of h, generators of h's root lines): a standard
    parabolic over its nilradical, a root-group conjugate of both, and the
    Borel nilradical over the third term of its lower central series."""
    data = standard_parabolic(g, (0,))
    w = _root_group_word(g, random.Random(f"views:{g.family}@{g.p}"))
    lines = [g.unit(g.frame.root_index[r]) for r in data["roots"]]
    conj = [g.coordinates_of_matrix(w @ g.matrix_of(v) @ w.inverse())
            for v in lines]
    nil = standard_borel(g)["nilradical"]
    return [
        ("parabolic", data["parabolic"], data["nilradical"], lines),
        ("conjugated", conjugate_subspace(g, w, data["parabolic"]),
         conjugate_subspace(g, w, data["nilradical"]), conj),
        ("nilradical", nil, g.lower_central_series(nil)[2],
         [v for v in lines if nil.contains_vector(v)]),
    ]


@pytest.mark.parametrize("fam,n,p", [("sl", 4, 5), ("sp", 4, 7)])
def test_view_tables_match_the_parent_round_trip(fam, n, p):
    # the structure table a view fills once agrees with the operation in
    # the ambient algebra, local(g op lift), on subalgebras and quotients;
    # the quotient built in one step is the one built in two, through the
    # coordinate change x -> quot.local(sub.lift(two_step.lift(x)))
    g = build(fam, n, p)
    rng = random.Random(f"tables:{fam}{n}@{p}")
    for name, h, ideal, _ in _view_inputs(g):
        sub = SubView(g, h)
        quot = SubView(g, h, ideal)
        two_step = SubView(sub, sub.full_space(), sub.restrict_subspace(ideal))
        assert quot.dim == two_step.dim == h.dim - ideal.dim > 0, name
        assert sub.lift_subspace(Subspace.zero(sub.dim, p)).dim == 0, name
        assert quot.lift_subspace(Subspace.zero(quot.dim, p)) == ideal, name
        assert quot.lift_subspace(quot.full_space()) == h, name

        def change(x):
            return quot.local(sub.lift(two_step.lift(x)))

        for view in (sub, quot, two_step):
            for _ in range(40):
                x = [rng.randrange(p) for _ in range(view.dim)]
                y = [rng.randrange(p) for _ in range(view.dim)]
                if view is two_step:
                    assert change(view.bracket_vec(x, y)) == quot.bracket_vec(
                        change(x), change(y)), name
                    assert change(view.p_power_vec(x)) == quot.p_power_vec(
                        change(x)), name
                else:
                    assert view.bracket_vec(x, y) == view.local(g.bracket_vec(
                        view.lift(x), view.lift(y))), name
                    assert view.p_power_vec(x) == view.local(
                        g.p_power_vec(view.lift(x))), name


@pytest.mark.parametrize("fam,n,p", [("sl", 4, 5), ("sp", 4, 7)])
def test_subview_rejects_a_subspace_not_closed_under_the_bracket(fam, n, p):
    g = build(fam, n, p)
    root = g.frame.rootdatum.simple_roots[0]
    pair = g.subspace([g.unit(g.frame.root_index[tuple(s * x for x in root)])
                       for s in (1, -1)])
    with pytest.raises(ValueError, match="not closed"):
        SubView(g, pair)
    rng = random.Random(f"closed:{fam}{n}@{p}")
    verdicts = set()
    for name, h, ideal, _ in _view_inputs(g):
        for base in (h, ideal):
            for _ in range(4):
                s = base.sum(g.subspace([[rng.randrange(p) for _ in range(g.dim)]]))
                closed = g.is_subalgebra(s)
                verdicts.add(closed)
                if closed:
                    assert SubView(g, s).dim == s.dim
                else:
                    with pytest.raises(ValueError, match="not closed"):
                        SubView(g, s)
    assert False in verdicts


def test_solvable_radical_examples():
    sl2 = build("sl", 2, 5)
    b = standard_borel(sl2)["parabolic"]
    assert solvable_radical(sl2, b) == b
    assert solvable_radical(sl2, sl2.full_space()).dim == 0
    gl2 = build("gl", 2, 5)
    r = solvable_radical(gl2, gl2.full_space())
    assert r.dim == 1
    assert r.contains_vector(
        gl2.coordinates_of_matrix(FieldMatrix.identity(2, 5)))


def test_solvable_radical_sl3_p3():
    g = build("sl", 3, 3)
    r = solvable_radical(g, g.full_space())
    assert r.dim == 1   # the scalars sit inside sl_3 when p | n
    assert r == g.center()


def test_solvable_radical_identically_zero_killing():
    # sp_4 at p = 3 has kappa identically zero yet trivial radical: the
    # complete quadratic-cone scan certifies it
    g = build("sp", 4, 3)
    assert not g.killing_nondegenerate()
    assert solvable_radical(g, g.full_space()).dim == 0


def test_nilradical_examples():
    sl2 = build("sl", 2, 5)
    b = standard_borel(sl2)["parabolic"]
    assert nilradical(sl2, b)["nil"] == line(sl2, "e12")
    sl3 = build("sl", 3, 5)
    assert nilradical(sl3, sl3.full_space())["nil"].dim == 0
    t = sl2.subspace([sl2.element_by_label("h1").coords])
    assert nilradical(sl2, t)["nil"] == t


def test_p_radical_examples():
    sl2 = build("sl", 2, 5)
    b = standard_borel(sl2)["parabolic"]
    out = p_radical(sl2, b)
    assert out["rad_p"] == line(sl2, "e12")
    assert radical_report(sl2, b).p_closed
    sl3 = build("sl", 3, 5)
    assert p_radical(sl3, sl3.full_space())["rad_p"].dim == 0


def test_p_radical_of_parabolic_is_nilradical():
    sl3 = build("sl", 3, 5)
    for chosen in ((), (0,), (1,)):
        data = standard_parabolic(sl3, chosen)
        out = p_radical(sl3, data["parabolic"])
        assert out["rad_p"] == data["nilradical"]


def test_largest_ideal_step_cuts_the_cone_down_to_rad_p():
    # h = <h1, h2, e12, e13 + 2 f12, f23, f13> in sl3@3 is a subalgebra
    # with rad(h) of dimension 3, off the split calculus; the envelope's
    # cone is P = <e12 + f13, f23>, but no nonzero h-ideal lies in P, so
    # rad_p(h) = 0, as the exhaustive oracle finds.  A p_radical that
    # returned P without the largest-ideal step fails here
    from morozov.suite import _brute_radicals
    g = build("sl", 3, 3)
    e = g.element_by_label

    def span(*elements):
        return g.subspace([x.coords for x in elements])
    h = span(e("h1"), e("h2"), e("e12"), e("e13") + e("f12").scale(2),
             e("f23"), e("f13"))
    assert h.dim == 6 and g.is_subalgebra(h) and coordinate_split(g, h) is None
    assert solvable_radical(g, h).dim == 3
    part = pnil_part_of_radical(g, h)
    assert part["cone"] == span(e("e12") + e("f13"), e("f23"))
    rad_p = p_radical(g, h)["rad_p"]
    assert rad_p != part["cone"]
    assert rad_p == _brute_radicals(g, h)["rad_p"] == g.subspace([])


def test_p_radical_is_undetermined_when_the_cone_is_not_a_subspace():
    # sl3 at p = 2, S = (0,): rad(q) = q, since sl2 is nilpotent there, and
    # the p-nilpotent elements of q do not form a subspace; rad_p(q), the
    # largest ideal inside the x whose lift lies in J(A), is the
    # nilradical, decided with no walk, so the tower, which steps by rad_p,
    # stabilises on the nilradical
    g = build("sl", 3, 2)
    data = standard_parabolic(g, (0,))
    q = data["parabolic"]
    assert not _oracle_cone(q, lambda v: literal_p_nilpotent(g, v))[1]
    assert p_radical(g, q)["rad_p"] == data["nilradical"]
    trace = run_tower(g, data["nilradical"])
    assert trace.status == "stabilized"
    assert (trace.u_limit, trace.q_limit) == (data["nilradical"], q)
    rep = radical_report(g, q)
    assert rep.status == "ok" and rep.rad_p == data["nilradical"]


def _refuse_enumeration(monkeypatch):
    def refuse(self):
        raise AssertionError("enumerate_vectors called")

    monkeypatch.setattr(Subspace, "enumerate_vectors", refuse)


def test_tower_walk_finds_a_cone_larger_than_p(monkeypatch):
    # the p-nilpotent elements C of rad(h), by the literal p-power
    # iteration, are more than P; rad_p(h), the largest ideal inside P, is
    # 0, decided with no walk, so the tower, which steps by rad_p, needs
    # none.  gl2@2, h = <E11, E22, E12 + E21>: h is solvable, [h, h] being
    # the line of E12 + E21, so h = rad(h); its envelope is M_2, J = 0 and
    # P = 0, while C is the line of [[1, 1], [1, 1]]
    g = build.__wrapped__("gl", 2, 2)           # fresh memo
    swap = g.element_by_label("e12") + g.element_by_label("f12")
    h = g.subspace([g.element_by_label("t1").coords,
                    g.element_by_label("t2").coords, swap.coords])
    ones = g.coordinates_of_matrix(FieldMatrix.from_rows([[1, 1], [1, 1]], 2))
    assert _oracle_cone(h, lambda v: literal_p_nilpotent(g, v)) == (
        g.subspace([ones]), True)
    _refuse_enumeration(monkeypatch)
    part = pnil_part_of_radical(g, h)
    assert part["radical"] == h
    assert (part["cone"].dim, part["method"]) == (0, "envelope")
    assert p_radical(g, h)["rad_p"].dim == 0


def test_walked_cone_that_is_no_subalgebra_is_no_next_u(monkeypatch):
    # sl3@3, h = <h1, h2, e23 + f13, e12, e13 + f12, f23 + f12>: rad(h) =
    # <h1 + 2h2, e23 + 2e12 + f13, e13 + 2f23> and P = 0, while C is the
    # plane <h1 + 2h2 + e23 + 2e12 + f13, e13 + 2f23>, whose basis vectors
    # bracket to 2h1 + h2, outside it: C is no subalgebra, so no next u;
    # the tower steps by rad_p(h) = 0 instead, decided with no walk
    g = build.__wrapped__("sl", 3, 3)           # fresh memo
    e = g.element_by_label
    h = g.subspace([e("h1").coords, e("h2").coords,
                    (e("e23") + e("f13")).coords, e("e12").coords,
                    (e("e13") + e("f12")).coords, (e("f23") + e("f12")).coords])
    assert g.is_subalgebra(h)
    cone, is_subspace = _oracle_cone(solvable_radical(g, h),
                                     lambda v: literal_p_nilpotent(g, v))
    assert is_subspace and cone.dim == 2 and not g.is_subalgebra(cone)
    _refuse_enumeration(monkeypatch)
    part = pnil_part_of_radical(g, h)
    assert part["radical"] == solvable_radical(g, h)
    assert (part["cone"].dim, part["method"]) == (0, "envelope")
    assert p_radical(g, h)["rad_p"].dim == 0


def test_radical_chain_and_closures():
    for fam, n, p in (("sl", 3, 5), ("sp", 4, 3), ("sl", 4, 7), ("pgl", 3, 3)):
        g = build(fam, n, p)
        for chosen in ((), (0,)):
            h = standard_parabolic(g, chosen)["parabolic"]
            rep = radical_report(g, h)
            assert rep.status == "ok"
            assert rep.rad.contains(rep.nil)
            assert rep.nil.contains(rep.rad_p)
            # rad_p closed under bracket with h and under the p-map
            for hb in h.basis:
                for rb in rep.rad_p.basis:
                    assert rep.rad_p.contains_vector(
                        g.bracket_vec(list(hb), list(rb)))
            assert rep.p_closed
            for rb in rep.rad_p.basis:
                assert is_p_nilpotent(g.element(list(rb)))


def test_semisimple_nil_equals_rad_p():
    # with a nondegenerate ambient form, ad-nilpotent and p-nilpotent agree,
    # so the two radicals coincide on subalgebras
    g = build("sl", 3, 5)
    assert g.killing_nondegenerate()
    for chosen in ((), (0,), (1,), (0, 1)):
        h = standard_parabolic(g, chosen)["parabolic"]
        rep = radical_report(g, h)
        assert rep.nil == rep.rad_p


def test_quotient_p_radical_idempotence():
    # rad_p of h / rad_p(h) vanishes, computed through induced structure
    # constants and the induced p-map on the quotient view
    cases = [("sl", 2, 5, ()), ("sl", 3, 5, (0,)), ("sp", 4, 3, (1,))]
    for fam, n, p, chosen in cases:
        g = build(fam, n, p)
        h = standard_parabolic(g, chosen)["parabolic"]
        out = p_radical(g, h)
        ideal = out["rad_p"]
        quot = SubView(g, h, ideal)
        # enumerate the radical of the quotient and check no nonzero
        # p-nil ideal survives
        rad_quot = _view_radical(quot, quot.full_space())
        pnil = []
        for v in rad_quot.enumerate_vectors():
            # literal iteration of the quotient's p-map: x^[p]^m, m <= dim
            cur = list(v)
            for _ in range(quot.dim + 1):
                if not any(cur):
                    break
                cur = quot.p_power_vec(cur)
                assert cur is not None
            if any(v) and not any(cur):
                pnil.append(v)
        assert not pnil


def test_structured_vs_enumeration_agree():
    # the certified structured cone agrees with plain enumeration where
    # both run
    g = build("sl", 3, 5)
    for chosen in ((), (0,)):
        h = standard_parabolic(g, chosen)["parabolic"]
        part = pnil_part_of_radical(g, h)
        assert part["method"] == "structured"
        r = part["radical"]
        members = [tuple(v) for v in r.enumerate_vectors()
                   if any(v) and is_p_nilpotent(g.element(v))]
        span = Subspace.from_vectors([list(m) for m in members], g.dim, g.p)
        assert span == part["cone"]
        assert len(members) + 1 == g.p ** span.dim  # cone is a subspace


def _conjugated_sl3_at_2_parabolic():
    """The sl3@2 parabolic S = (0,) moved by 1 + E_31: not
    coordinate-split, and its own radical, as its Levi gl2 is solvable at
    p = 2.  The lifts of its M_2 block do not commute modulo J of their
    envelope, so only a walk decides its set of p-nilpotent elements."""
    g = build("sl", 3, 2)
    w = FieldMatrix.from_rows([[1, 0, 0], [0, 1, 0], [1, 0, 1]], 2)
    return g, conjugate_subspace(
        g, w, standard_parabolic(g, (0,))["parabolic"])


def _gl3_at_2_cycle_algebra():
    """The subalgebra of gl3@2 generated by the 3-cycle e1 -> e2 -> e3 -> e1
    and E_21 + E_23: solvable, its own radical, and the ad lifts of it do
    not commute modulo J of their envelope."""
    g = build("gl", 3, 2)
    return g, g.subalgebra_closure([g.element(g.coordinates_of_matrix(
        FieldMatrix.from_rows(rows, 2))) for rows in (
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[0, 0, 0], [1, 0, 1], [0, 0, 0]])])


def _p2_inputs():
    """22 subalgebras at p = 2: the proper standard parabolics and their
    Levis of gl3, sl3 and pgl3, moved by a unipotent lower-triangular
    element; the sl3@2 parabolic S = (0,) in standard position and moved by
    1 + E_31; sl2@2; and `_gl3_at_2_cycle_algebra`."""
    w = FieldMatrix.from_rows([[1, 0, 0], [1, 1, 0], [1, 1, 1]], 2)
    out = []
    for fam in ("gl", "sl", "pgl"):
        g = build(fam, 3, 2)
        for chosen in ((), (0,), (1,)):
            data = standard_parabolic(g, chosen)
            out += [(g, conjugate_subspace(g, w, data[role]))
                    for role in ("parabolic", "levi")]
    g = build("sl", 3, 2)
    sl2 = build("sl", 2, 2)
    return out + [(g, standard_parabolic(g, (0,))["parabolic"]),
                  _conjugated_sl3_at_2_parabolic(), (sl2, sl2.full_space()),
                  _gl3_at_2_cycle_algebra()]


def test_radicals_at_2_match_brute_force(monkeypatch):
    # rad, nil and rad_p of radical_report, with no walk, against the
    # exhaustive ideal scan, where the p-nilpotent and ad-nilpotent
    # elements need not form subspaces
    from morozov.suite import _brute_radicals
    inputs = _p2_inputs()
    assert len(inputs) == 22
    brute = [_brute_radicals(g, h) for g, h in inputs]

    def refuse(self):
        raise AssertionError("enumerate_vectors called")

    monkeypatch.setattr(Subspace, "enumerate_vectors", refuse)
    for (g, h), want in zip(inputs, brute):
        rep = radical_report(g, h)
        assert rep.status == "ok", h.basis
        assert (rep.rad, rep.nil, rep.rad_p) == (
            want["rad"], want["nil"], want["rad_p"]), (g.family, h.basis)


def test_undetermined_budget():
    # the walk's one budget: on the conjugated pgl8@2 Borel, whose
    # envelopes pass the word cap, the cone of rad_p is a walk over 2^35
    # vectors, past DEFAULT_BUDGET, so it is left undecided, never guessed
    g, b = build("pgl", 8, 2), _conjugated_pgl8_at_2_borel()
    assert coordinate_split(g, b) is None
    with pytest.raises(Undetermined, match=f"enumeration of {2 ** 35} "
                       f"elements exceeds budget {DEFAULT_BUDGET}"):
        p_radical(g, b)


def test_undetermined_cone_is_memoised(monkeypatch):
    # with one walk budget the undecided cone is exact for h, so a second
    # p_radical or nilradical on the conjugated pgl8@2 Borel, where both
    # walks pass the budget, computes no cone again
    from morozov import radicals
    g, b = build("pgl", 8, 2), _conjugated_pgl8_at_2_borel()
    calls = []

    def counted(*args):
        calls.append(args)
        return _nilpotent_cone(*args)

    monkeypatch.setattr(radicals, "_nilpotent_cone", counted)
    for radical in (p_radical, nilradical):
        monkeypatch.setattr(g, "_memo", {})     # build() is cached
        counts = []
        for _ in range(2):
            with pytest.raises(Undetermined, match=f"enumeration of {2 ** 35} "
                               f"elements exceeds budget {DEFAULT_BUDGET}"):
                radical(g, b)
            counts.append(len(calls))
        assert counts[0] > 0 and counts[1] == counts[0], radical.__name__
        calls.clear()


def _subsets(g):
    rank = g.frame.rootdatum.rank
    return [tuple(i for i in range(rank) if mask >> i & 1)
            for mask in range(1 << rank)]


def _group_element(g, rng):
    """A seeded element of the group that normalises g: any invertible
    matrix for the type-A families, a product of root-group elements
    exp(t x_a) for sp and so."""
    n, p = g.realization.n, g.p
    if g.family.rstrip("0123456789") in ("gl", "sl", "pgl"):
        while True:
            m = FieldMatrix(n, n, p, [rng.randrange(p) for _ in range(n * n)])
            if rref(m)[1] == n:
                return m
    w = FieldMatrix.identity(n, p)
    roots = g.frame.rootdatum.roots
    for _ in range(6):
        v = [0] * g.dim
        v[g.frame.root_index[tuple(rng.choice(roots))]] = rng.randrange(1, p)
        w = w @ g.exp_trunc(g.element(v))
    return w


def _random_vector(space, rng):
    vec = [0] * space.ambient_dim
    for row in space.basis:
        c = rng.randrange(space.p)
        vec = [(a + c * b) % space.p for a, b in zip(vec, row)]
    return vec


@pytest.mark.parametrize("fam,n,p,samples", [
    ("sl", 2, 5, None), ("sl", 3, 3, None), ("gl", 2, 5, None),
    ("sp", 4, 5, 2000), ("so", 5, 5, 2000), ("pgl", 3, 3, 2000),
    ("pgl", 2, 2, None), ("pgl", 4, 2, 2000), ("pgl", 6, 3, 400),
    ("pgl", 4, 5, 2000)])
def test_is_p_nilpotent_matches_literal_iteration(fam, n, p, samples):
    # every vector of the small algebras; on the others a seeded sample,
    # in turn from g, the Borel and its nilradical, so that both answers
    # occur; on pgl also from the nilradical conjugated by 1 + E_n1, whose
    # elements have a nonzero last diagonal entry, so that their nilpotent
    # lift is a shifted matrix even when p | n
    g = build(fam, n, p)
    if samples is None:
        vectors = list(g.full_space().enumerate_vectors())
    else:
        rng = random.Random(f"{fam}{n}@{p}")
        borel = standard_borel(g)
        spaces = [g.full_space(), borel["parabolic"], borel["nilradical"]]
        if fam == "pgl":
            w = FieldMatrix.identity(n, p) + FieldMatrix(
                n, n, p, [int(i == (n - 1) * n) for i in range(n * n)])
            spaces.append(conjugate_subspace(g, w, borel["nilradical"]))
        vectors = [_random_vector(spaces[k % len(spaces)], rng)
                   for k in range(samples)]
    verdicts = set()
    for v in vectors:
        verdict = is_p_nilpotent(g.element(v))
        assert verdict == literal_p_nilpotent(g, v), v
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _every_vector_p_nilpotent(g, u):
    return all(literal_p_nilpotent(g, v)
               for v in u.enumerate_vectors() if any(v))


def _flag_inputs(g, rng):
    """Standard nilradicals, parabolics and Levis; seeded group conjugates
    of the nilradicals; subalgebra closures of one or two seeded elements
    of conjugated nilradicals or of g; last, a conjugated root sl2 with a
    nilpotent canonical basis."""
    out, nils = [], []
    for chosen in _subsets(g):
        data = standard_parabolic(g, chosen)
        out += [data["nilradical"], data["parabolic"], data["levi"]]
        nils.append(conjugate_subspace(g, _group_element(g, rng),
                                       data["nilradical"]))
    out += nils

    def draw(space):
        return g.element(_random_vector(space, rng))

    for _ in range(4):
        a, b = rng.choice(nils), rng.choice(nils)
        out.append(g.subalgebra_closure([draw(a)]))
        out.append(g.subalgebra_closure([draw(a), draw(a)]))
        out.append(g.subalgebra_closure([draw(a), draw(b)]))
        out.append(g.subalgebra_closure([draw(g.full_space())]))
    # conjugates of the root sl2 of the last simple root whose canonical
    # basis consists of nilpotent elements: a basis-only test accepts them
    root = tuple(g.frame.rootdatum.simple_roots[-1])
    sl2 = g.subalgebra_closure([
        g.basis_element(g.frame.root_index[r])
        for r in (root, tuple(-x for x in root))])
    for _ in range(500):
        u = conjugate_subspace(g, _group_element(g, rng), sl2)
        if all(is_p_nilpotent(g.element(list(b))) for b in u.basis):
            return out + [u]
    raise AssertionError("no conjugated sl2 with a nilpotent basis")


@pytest.mark.parametrize("fam,n,p", [
    ("sl", 3, 3), ("sl", 3, 5), ("gl", 3, 5), ("sp", 4, 5), ("so", 5, 5),
    ("sl", 4, 3), ("pgl", 3, 3), ("pgl", 3, 5), ("pgl", 4, 3)])
def test_engel_flag_matches_enumeration(fam, n, p):
    # the p-nil gate (the Engel flag of u's basis lifts, or of ad_g on pgl
    # with p | n) against every vector of u, on every family, pgl with
    # p | n included
    g = build(fam, n, p)
    rng = random.Random(f"flag:{fam}{n}@{p}")
    inputs = _flag_inputs(g, rng)
    if (fam, n, p) == ("pgl", 3, 3):
        from morozov.fixtures import ex2_subalgebra
        inputs.insert(0, ex2_subalgebra(g))
    verdicts, nilpotent_not_p_nil = [], 0
    for u in inputs:
        assert g.is_subalgebra(u)
        rule = is_p_nil_subalgebra(g, u)
        assert rule == _every_vector_p_nilpotent(g, u), u.basis
        verdicts.append(rule)
        nilpotent_not_p_nil += g.is_nilpotent(u) and not rule
    assert True in verdicts and False in verdicts
    # the verdicts are not read off nilpotency: some nilpotent input is
    # refused, and so is the rotated sl2, last, whose basis is nilpotent
    assert nilpotent_not_p_nil
    assert not rule


def _random_p_nilpotent(g, rng, support=None):
    """A seeded nonzero p-nilpotent element of g, on `support` seeded
    coordinates when given."""
    while True:
        if support is None:
            v = [rng.randrange(g.p) for _ in range(g.dim)]
        else:
            v = [0] * g.dim
            for i in rng.sample(range(g.dim), support):
                v[i] = rng.randrange(g.p)
        if any(v) and is_p_nilpotent(g.element(v)):
            return g.element(v)


@pytest.mark.parametrize("fam,n,p", [
    ("gl", 3, 2), ("sl", 3, 2), ("pgl", 3, 2), ("gl", 4, 2), ("sp", 4, 2),
    ("pgl", 2, 2), ("pgl", 4, 2), ("sl", 3, 3), ("gl", 3, 3), ("pgl", 3, 3),
    ("sp", 4, 3), ("so", 5, 3), ("pgl", 4, 3), ("sl", 3, 5)])
def test_p_nil_gate_matches_enumeration_at_p_2_and_3(fam, n, p):
    # subalgebra closures of two or three seeded p-nilpotent elements of g,
    # the nilpotent ones, against every vector: a p-nilpotent basis proves
    # nothing, and the Engel flag decides (on pgl with p | n, the flag of
    # ad_g).  The last 100 closures are of elements on two or three
    # coordinates, whose closures are small: on pgl4@3 and sl3@5 no closure
    # of the first 300 is both nilpotent and within the cap
    g = build(fam, n, p)
    rng = random.Random(f"gate:{fam}{n}@{p}")
    kept = 0
    for k in range(400):
        support = None if k < 300 else 2 + k % 2
        u = g.subalgebra_closure([_random_p_nilpotent(g, rng, support)
                                  for _ in range(2 + k % 2)])
        if not g.is_nilpotent(u) or p ** u.dim > 2 ** 10:
            continue
        kept += 1
        assert is_p_nil_subalgebra(g, u) == _every_vector_p_nilpotent(g, u), \
            u.basis
    assert kept


def test_p_nil_gate_refuses_a_nilpotent_subalgebra_with_p_nilpotent_basis():
    # sl3 at p = 2, basis (h1, h2, e23, e12, e13, f23, f12, f13): a
    # nilpotent subalgebra of class 2 whose three basis vectors are
    # p-nilpotent, while 4 of its 7 nonzero elements are not
    g = build("sl", 3, 2)
    u = g.subspace([[1, 0, 0, 1, 0, 1, 1, 1], [0, 1, 1, 0, 0, 1, 1, 1],
                    [0, 0, 0, 0, 1, 0, 0, 0]])
    assert g.is_subalgebra(u) and g.is_nilpotent(u)
    assert all(is_p_nilpotent(g.element(list(b))) for b in u.basis)
    assert sum(not literal_p_nilpotent(g, v)
               for v in u.enumerate_vectors() if any(v)) == 4
    assert is_p_nil_subalgebra(g, u) is False
    with pytest.raises(ValueError, match="not p-nil"):
        check_tower_input(g, u)
    # ex2 (pgl3 at p = 3, where the lifts are not linear) stays accepted
    from morozov.fixtures import ex2_subalgebra
    g = build("pgl", 3, 3)
    assert is_p_nil_subalgebra(g, ex2_subalgebra(g)) is True



def test_p_nil_gate_refuses_a_non_p_nil_subalgebra_of_pgl4_at_2():
    # a conjugate of the sl3@2 subalgebra above in the top-left block of
    # pgl4@2, where p | n: nilpotent of class 2 = p with a p-nilpotent
    # canonical basis, while 4 of its 7 nonzero elements are not
    # p-nilpotent.  The flag of ad_g of the basis refuses it; the basis rule
    # alone accepted it
    g = build("pgl", 4, 2)
    u = g.subspace([[1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0],
                    [0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0],
                    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0]])
    assert g.is_subalgebra(u) and len(g.lower_central_series(u)) == 3
    assert all(is_p_nilpotent(g.element(list(b))) for b in u.basis)
    assert sum(not literal_p_nilpotent(g, v)
               for v in u.enumerate_vectors() if any(v)) == 4
    assert is_p_nil_subalgebra(g, u) is False


@pytest.mark.parametrize("n,p,tries", [(4, 2, 30), (6, 2, 30), (6, 3, 90),
                                       (8, 2, 30)])
def test_p_nil_gate_on_pgl_with_p_dividing_n(n, p, tries):
    # subalgebra closures of two or three elements, each a seeded
    # combination of two basis rows of the standard Borel nilradical or of
    # one of three seeded conjugates of it, kept when nilpotent of class
    # >= p: there the flag of ad_g of the basis decides, against every vector
    g = build("pgl", n, p)
    rng = random.Random(f"ad-flag:pgl{n}@{p}")
    nil = standard_borel(g)["nilradical"]
    spaces = [nil] + [conjugate_subspace(g, _group_element(g, rng), nil)
                      for _ in range(3)]

    def draw():
        a, b = rng.sample(rng.choice(spaces).basis, 2)
        s, t = rng.randrange(1, p), rng.randrange(1, p)
        return g.element([s * x + t * y for x, y in zip(a, b)])
    kept = 0
    for k in range(tries):
        u = g.subalgebra_closure([draw() for _ in range(2 + k % 2)])
        series = g.lower_central_series(u)
        if series[-1].dim or len(series) <= p or p ** u.dim > 2 ** 10:
            continue
        kept += 1
        assert is_p_nil_subalgebra(g, u) == _every_vector_p_nilpotent(g, u), \
            u.basis
    assert kept >= 5


def test_centre_of_pgl_is_zero_when_p_divides_n():
    # ad is faithful on pgl_n, which the p-nil gate relies on when p | n
    for n, p in ((2, 2), (4, 2), (6, 2), (8, 2), (3, 3), (6, 3), (5, 5),
                 (7, 7)):
        assert build("pgl", n, p).center().dim == 0


@pytest.mark.parametrize("fam,n", [("sl", 3), ("sl", 4), ("sl", 5), ("so", 5),
                                   ("so", 7), ("sp", 4), ("sp", 6), ("so", 8)])
def test_root_support_certificate_matches_min_norm_point(fam, n):
    # A2-A4, B2, B3, C2, C3 and D4: on the closure of every set of at most
    # three roots, "no pair +-alpha" holds exactly when the point of least
    # norm of the convex hull is nonzero (Gordan's theorem)
    g = build(fam, n, 5)
    rd = g.frame.rootdatum
    closed = {tuple(_closure(rd, roots)) for k in range(4)
              for roots in itertools.combinations(rd.roots, k)}
    outcomes = set()
    for roots in closed:
        gordan = not roots or any(min_norm_point(list(roots))[2])
        assert _certified_root_support(g, list(roots)) == gordan, roots
        outcomes.add(gordan)
    assert outcomes == {True, False}

def test_root_supported_line_that_is_not_nil():
    # e12 + e23 + e31 is a permutation matrix with x^3 = 1: its line is
    # supported on root coordinates but is not p-nil
    g = build("sl", 3, 5)
    x = g.element_by_label("e12") + g.element_by_label("e23") \
        + g.element_by_label("f13")
    u = g.subspace([x.coords])
    assert not is_p_nilpotent(x)
    assert is_p_nil_subalgebra(g, u) is False
    assert not _every_vector_p_nilpotent(g, u)
    with pytest.raises(ValueError, match="not p-nil"):
        check_search_class(g, u)


def test_is_p_nil_subalgebra_decides_pgl_without_enumeration(monkeypatch):
    # the rule needs no budget: the pgl4@5 Borel nilradical (5^6 vectors)
    # is accepted and its Borel refused without walking either
    def refuse(self):
        raise AssertionError("enumerate_vectors called")

    monkeypatch.setattr(Subspace, "enumerate_vectors", refuse)
    g = build("pgl", 4, 5)
    borel = standard_borel(g)
    assert is_p_nil_subalgebra(g, borel["nilradical"]) is True
    assert is_p_nil_subalgebra(g, borel["parabolic"]) is False


@pytest.mark.parametrize("fam,n", [("sl", 3), ("sl", 4), ("sl", 5), ("gl", 3),
                                   ("sp", 4), ("so", 5), ("so", 7)])
def test_linear_torus_part_matches_view_path(fam, n):
    # the structured path takes every coordinate-split h at every p, the
    # small ones included, where root characters coincide on the finite
    # torus; where the view path cannot certify its answer (an envelope
    # past its word cap), the known radical of a standard parabolic,
    # u + z(l), is the reference
    for p in (3, 5, 7):
        g = build(fam, n, p)
        compared = 0
        for chosen in _subsets(g):
            data = standard_parabolic(g, chosen)
            levi = data["levi"]
            centre = levi.intersect(g.centralizer(levi))
            known = {"parabolic": data["nilradical"].sum(centre),
                     "levi": centre, "nilradical": data["nilradical"]}
            for role, h in known.items():
                structured = _structured_solvable_radical(g, data[role])
                assert structured == h, (p, chosen, role)
                try:
                    found = _view_radical(g, data[role])
                except Undetermined:
                    continue
                assert found == structured, (p, chosen, role)
                compared += 1
        assert compared >= 3 * len(_subsets(g)) - 2, p


@pytest.mark.parametrize("fam,n,p", [("sl", 4, 5), ("sp", 6, 7), ("so", 7, 7)])
def test_structured_radical_adopts_its_canonical_rows(fam, n, p, monkeypatch):
    # the root units and the echelon of the torus rows sit on disjoint
    # coordinates, so merged by pivot they are the canonical basis of
    # rad(h): the structured radical adopts them with no elimination, and
    # its basis is the elimination of all its rows, units first in no
    # pivot order, on every standard parabolic, Levi and nilradical
    from morozov import radicals
    g = build(fam, n, p)
    merged = []

    def recording(g, roots, torus):
        merged.append((roots, torus))
        return split_sum(g, roots, torus)

    split_sum = radicals.split_sum
    monkeypatch.setattr(radicals, "split_sum", recording)
    for chosen in _subsets(g):
        data = standard_parabolic(g, chosen)
        for role in ("parabolic", "levi", "nilradical"):
            out = _structured_solvable_radical(g, data[role])
            roots, torus = merged.pop()
            assert out._span is None, (chosen, role)
            assert out == g.subspace(
                [g.unit(i) for i in sorted(roots, reverse=True)]
                + list(torus.basis)), (chosen, role)


def _dense_spin(g, v, h):
    """The smallest subspace holding v and stable under ad(x), x in h:
    bracket the whole span with h's basis until a round adds nothing."""
    span = g.subspace([v])
    while True:
        grown = g.subspace(list(span.basis) + [
            g.bracket_vec(list(x), list(b)) for x in h.basis
            for b in span.basis])
        if grown == span:
            return span
        span = grown


def _dense_structured_radical(g, h):
    """The structured radical by dense spins and derived series: the sum of
    the solvable spin-ideals of h's root lines, plus the torus vectors of h
    that kill every other root line."""
    torus_part, lines = coordinate_split(g, h)
    total, wild = Subspace.zero(g.dim, g.p), []
    for idx in sorted(lines):
        if total.contains_vector(g.unit(idx)):
            continue
        spin = _dense_spin(g, g.unit(idx), h)
        if g.is_solvable(spin):
            total = total.sum(spin)
        else:
            wild.append(idx)
    return total.sum(solve_linear(torus_part, lambda z: [
        c for idx in wild for c in g.bracket_vec(z, g.unit(idx))]))


def _split_closures(g, rng, count):
    """Seeded coordinate-split subalgebras: closures of a few random root
    lines and random torus units."""
    roots = sorted(g.frame.index_root)
    out = []
    while len(out) < count:
        gens = rng.sample(roots, rng.randrange(1, min(5, len(roots) + 1))) + [
            t for t in g.frame.torus_indices if rng.random() < 0.3]
        h = g.subalgebra_closure([g.basis_element(i) for i in gens])
        if coordinate_split(g, h) is not None:
            out.append(h)
    return out


@pytest.mark.parametrize("fam,n,p", [
    (fam, n, p) for fam, n in (("gl", 3), ("sl", 3), ("sl", 4), ("sp", 4),
                               ("sp", 6), ("so", 5), ("so", 7))
    for p in (2, 3, 5, 7) if (fam, p) != ("so", 2)] + [
    ("pgl", 3, 3), ("pgl", 4, 2)])
def test_root_index_radical_matches_dense_spins(fam, n, p):
    # the root-index closures against the dense spins and derived series
    # they replace, on seeded coordinate-split subalgebras, pgl with p | n
    # included; and against the view path where its envelopes fit
    g = build(fam, n, p)
    for h in _split_closures(g, random.Random(f"split:{fam}{n}@{p}"), 12):
        structured = _structured_solvable_radical(g, h)
        assert structured == _dense_structured_radical(g, h), h.basis
        try:
            found = _view_radical(g, h)
        except Undetermined:
            continue
        assert found == structured, h.basis


def _searched_spin(g, lines, idx):
    """The spin of one root line by a search of its own: each round brackets
    the new lines with every line of h, and each new coroot with every line
    of h through `character`, until a round adds nothing."""
    spin = fresh = ({idx}, set())
    while any(fresh):
        found, coroots = g.split_bracket(lines, fresh[0], ())
        found |= {i for i in lines
                  if any(g.character(z, i) for z in fresh[1])}
        fresh = (found - spin[0], coroots - spin[1])
        spin = (spin[0] | fresh[0], spin[1] | fresh[1])
    return spin


@pytest.mark.parametrize("fam,n,p", [
    (fam, n, p) for fam, n in (("gl", 3), ("sl", 3), ("sl", 4), ("sp", 4),
                               ("sp", 6), ("so", 5), ("so", 7))
    for p in (2, 3, 5, 7) if (fam, p) != ("so", 2)] + [
    ("pgl", 3, 3), ("pgl", 4, 2)])
def test_spin_graph_matches_the_search_of_each_line(fam, n, p):
    # every line's spin read off the one graph against a search from that
    # line alone: the same root lines, and the same coroot rows, on
    # the standard parabolics, Levis and nilradicals and on seeded split
    # closures; on rank 3 at p > 2 some Levi has several wild spins
    g = build(fam, n, p)
    inputs = _split_closures(g, random.Random(f"spins:{fam}{n}@{p}"), 12)
    for chosen in itertools.chain.from_iterable(
            itertools.combinations(range(g.frame.rootdatum.rank), k)
            for k in range(g.frame.rootdatum.rank + 1)):
        data = standard_parabolic(g, chosen)
        inputs += [data["parabolic"], data["levi"], data["nilradical"]]
    several = 0
    for h in inputs:
        lines = coordinate_split(g, h)[1]
        spins, wild = _reach(g.line_graph(lines)), set()
        assert set(spins) == lines
        for idx in lines:
            roots, coroots = _searched_spin(g, lines, idx)
            assert spins[idx] == roots, (h.basis, idx)
            found = g.split_bracket(spins[idx], lines, ())[1]
            assert found == coroots, (h.basis, idx)
            ideal = split_sum(g, roots, g.subspace(coroots))
            if not g.is_solvable(ideal):
                wild.add(spins[idx])
        several += len(wild) > 1
    assert several or g.frame.rootdatum.rank < 3 or p == 2


def _dense_normalizer(g, u):
    return solve_linear(g.full_space(), lambda x: [
        c for b in u.basis for c in u.reduce_vector(g.bracket_vec(x, list(b)))])


def _dense_is_subalgebra(g, u):
    return all(u.contains_vector(g.bracket_vec(list(a), list(b)))
               for a, b in itertools.combinations(u.basis, 2))


def _dense_largest_ideal(g, h, v):
    w = v
    while w.dim:
        new = solve_linear(w, lambda x: [
            c for b in h.basis
            for c in w.reduce_vector(g.bracket_vec(list(b), x))])
        if new == w:
            break
        w = new
    return w


def _some_lines(g, rng, h):
    """A seeded subspace of the root lines of the split subspace h."""
    return g.subspace([g.unit(idx) for idx in sorted(coordinate_split(g, h)[1])
                       if rng.random() < 0.6])


def _check_root_index_calculus(g, rng, chosen_sets, closures):
    """The root-index normaliser, subalgebra test, largest ideal and p-nil
    gate against their dense formulas: on the standard parabolics, Levis
    and nilradicals of chosen_sets, on seeded split closures, and on seeded
    split subspaces that are mostly not subalgebras."""
    subalgebras, pairs = [], []
    for chosen in chosen_sets:
        data = standard_parabolic(g, chosen)
        subalgebras += [data["parabolic"], data["levi"], data["nilradical"]]
        pairs += [(data["parabolic"], data["nilradical"]),
                  (data["parabolic"], _some_lines(g, rng, data["parabolic"])),
                  (data["levi"], _some_lines(g, rng, data["levi"]))]
    for h in _split_closures(g, rng, closures):
        subalgebras.append(h)
        pairs += [(h, _some_lines(g, rng, h)),
                  (g.full_space(), _some_lines(g, rng, h))]
    roots = sorted(g.frame.index_root)
    loose = [g.subspace([g.unit(i) for i in rng.sample(roots, rng.randrange(
        1, min(5, len(roots) + 1)))] + [
            g.unit(t) for t in g.frame.torus_indices if rng.random() < 0.3])
        for _ in range(closures)]
    verdicts = set()
    for u in subalgebras + loose:
        assert coordinate_split(g, u) is not None
        assert g.normalizer(u) == _dense_normalizer(g, u), u.basis
        assert g.is_subalgebra(u) == _dense_is_subalgebra(g, u), u.basis
    for u in subalgebras:
        nil = is_p_nil_subalgebra(g, u)
        assert nil == _act_nilpotently(
            [g.linear_lift(list(b)) for b in u.basis], g.p), u.basis
        verdicts.add(nil)
    for h, v in pairs:
        assert g.largest_ideal_inside(h, v) == _dense_largest_ideal(g, h, v), \
            (h.basis, v.basis)
    assert verdicts == {True, False}


@pytest.mark.parametrize("fam,n,p", [
    (fam, n, p) for fam, n in (("gl", 2), ("gl", 3), ("gl", 4), ("sl", 2),
                               ("sl", 3), ("sl", 4), ("pgl", 2), ("pgl", 3),
                               ("pgl", 4), ("sp", 4), ("sp", 6), ("so", 5),
                               ("so", 7))
    for p in (2, 3, 5, 7) if (fam, p) != ("so", 2)])
def test_root_index_calculus_matches_the_dense_formulas(fam, n, p):
    # pgl3@3 and pgl4@2 (p | n) and sp at p = 2 included
    g = build(fam, n, p)
    _check_root_index_calculus(g, random.Random(f"root-index:{fam}{n}@{p}"),
                               _subsets(g), 12)


@pytest.mark.parametrize("fam,n", [("sl", 8), ("sp", 10), ("so", 11)])
def test_root_index_calculus_on_maximal_parabolics_at_13(fam, n):
    g = build(fam, n, 13)
    rank = g.frame.rootdatum.rank
    _check_root_index_calculus(
        g, random.Random(f"root-index:{fam}{n}@13"),
        [tuple(i for i in range(rank) if i != k) for k in range(rank)], 0)


def _conjugated_sl4_parabolic():
    """The sl4@7 parabolic S = (0, 1) moved by a seeded GL_4 element w:
    (g, w, the standard parabolic's data, its conjugate).  Its 12-dim view
    has an 11-dim Killing kernel whose own Killing form vanishes."""
    g = build("sl", 4, 7)
    w = _group_element(g, random.Random("undetermined:0"))
    data = standard_parabolic(g, (0, 1))
    return g, w, data, conjugate_subspace(g, w, data["parabolic"])


def test_radicals_of_the_conjugated_sl4_parabolic(monkeypatch):
    # the view path reads the nilradical of the kappa = 0 view off J(A_ad),
    # with no walk: rad, nil and rad_p are the conjugates of u + z(l), u
    # and u
    def refuse(self):
        raise AssertionError("enumerate_vectors called")

    monkeypatch.setattr(Subspace, "enumerate_vectors", refuse)
    g, w, data, h = _conjugated_sl4_parabolic()
    levi = data["levi"]
    centre = levi.intersect(g.centralizer(levi))
    u = conjugate_subspace(g, w, data["nilradical"])
    rep = radical_report(g, h)
    assert rep.status == "ok" and rep.method_used == "envelope"
    assert rep.rad == conjugate_subspace(g, w, data["nilradical"].sum(centre))
    assert rep.nil == rep.rad_p == u


def _conjugated_pgl8_at_2_borel():
    """The pgl8@2 Borel moved by 1 + E_81: its own radical, of dimension
    35, and every envelope of its radical ideals passes the word cap of
    MAX_DIM words (the ad envelope on the Borel and the 63 x 63 ad
    envelope of the linear lift), so each falls back on a walk over 2^35
    vectors, past the budget."""
    return _conjugated_borel(build("pgl", 8, 2))[1]


def test_radical_report_returns_undetermined():
    g, h = build("pgl", 8, 2), _conjugated_pgl8_at_2_borel()
    rep = radical_report(g, h)
    assert rep.status == "undetermined"
    assert f"enumeration of {2 ** 35} elements exceeds budget" in rep.detail
    assert rep.rad == h and rep.nil is None and rep.rad_p is None
    assert rep.as_dict()["nil"] is None
    # rad_p alone: the 63 x 63 ad envelope of the linear lift (p | n)
    assert g.linear_lift(list(h.basis[0])).rows == 63
    with pytest.raises(Undetermined, match=f"{2 ** 35} elements exceeds"):
        p_radical(g, h)


def test_radicals_of_a_conjugated_pgl6_at_2_nilradical(monkeypatch):
    # the pgl6@2 Borel nilradical moved by 1 + E_61: its lifts, the 35 x 35
    # ad matrices of the linear lift (p | n) and the ad matrices on u, act
    # nilpotently, so the envelope certifies rad = nil = rad_p = u with no
    # walk over its 2^15 vectors
    def refuse(self):
        raise AssertionError("enumerate_vectors called")

    g = build("pgl", 6, 2)
    w, _ = _conjugated_borel(g)
    u = conjugate_subspace(g, w, standard_borel(g)["nilradical"])
    assert u.dim == 15 and coordinate_split(g, u) is None
    monkeypatch.setattr(Subspace, "enumerate_vectors", refuse)
    rep = radical_report(g, u)
    assert rep.status == "ok" and rep.method_used == "envelope"
    assert rep.rad == rep.nil == rep.rad_p == u and rep.p_closed


def test_radical_report_names_the_enumeration_that_gave_up():
    # the radical ideals walk only past an envelope's word cap: the
    # conjugated sl3@2 parabolic, its own radical, whose ad-nilpotent
    # elements are no subspace, is decided by the envelopes and equals the
    # brute force; what gives up is the walk past the cap, and the report
    # names it
    from morozov.suite import _brute_radicals
    g, skew = _conjugated_sl3_at_2_parabolic()
    rep = radical_report(g, skew)
    assert rep.status == "ok" and rep.method_used == "envelope"
    brute = _brute_radicals(g, skew)
    assert (rep.rad, rep.nil, rep.rad_p) == (
        skew, brute["nil"], brute["rad_p"])
    rep = radical_report(build("pgl", 8, 2), _conjugated_pgl8_at_2_borel())
    assert rep.method_used == "enumeration"


def test_radical_compute_cli_exits_undetermined(tmp_path, capsys):
    from morozov.cli import EXIT_UNDETERMINED, main
    from morozov.serialize import canonical_json, subspace_to_dict
    path = tmp_path / "h.json"
    path.write_text(canonical_json(subspace_to_dict(
        _conjugated_pgl8_at_2_borel())))
    args = ["radical", "compute", "--family", "pgl", "--n", "8", "--p", "2",
            "--subspace", str(path)]
    assert main(args) == EXIT_UNDETERMINED
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["status"] == "undetermined" and report["nil"] is None
    assert main(args + ["--text"]) == EXIT_UNDETERMINED
    assert "nil dim None" in capsys.readouterr().out



def _moved(*labels):
    """The span of sl3@5's basis vectors `labels` moved by 1 + E_31 off the
    coordinate split."""
    g = build("sl", 3, 5)
    w = FieldMatrix.identity(3, 5) + FieldMatrix(
        3, 3, 5, [int(i == 6) for i in range(9)])
    return g, conjugate_subspace(g, w, g.subspace(
        [g.element_by_label(x).coords for x in labels]))


def _moved_e12_f12():
    """<e12, f12> moved off the coordinate split: not closed, as
    [e12, f12] = h1 leaves it."""
    g, q = _moved("e12", "f12")
    assert coordinate_split(g, q) is None and not g.is_subalgebra(q)
    return g, q


def test_solvable_radical_refuses_a_non_split_non_subalgebra(tmp_path,
                                                            capsys):
    # the pair test of the peel loop's path refuses it, and `radical
    # compute` reports that refusal, with no test of its own
    from morozov.cli import EXIT_INPUT, main
    from morozov.serialize import canonical_json, subspace_to_dict
    g, q = _moved_e12_f12()
    with pytest.raises(InputError, match="^input is not a subalgebra$"):
        solvable_radical(g, q)
    path = tmp_path / "h.json"
    path.write_text(canonical_json(subspace_to_dict(q)))
    assert main(["radical", "compute", "--family", "sl", "--n", "3", "--p", "5",
                 "--subspace", str(path)]) == EXIT_INPUT
    assert capsys.readouterr() == (
        "", "input error: input is not a subalgebra\n")


def test_input_faults_raise_input_error():
    # not a subalgebra or not p-nil: InputError, a ValueError; the
    # optimizer's other refusals stay plain ValueError, here the p-nil line
    # e13 moved off the root coordinates
    g, q = _moved_e12_f12()
    semisimple = g.subspace([[a + b for a, b in zip(
        g.element_by_label("e12").coords, g.element_by_label("f12").coords)]])
    for check in (check_tower_input, check_search_class):
        for u in (q, semisimple):
            with pytest.raises(InputError):
                check(g, u)
    with pytest.raises(InputError, match="^input is not p-nil$"):
        check_p_nil(g, semisimple)
    with pytest.raises(ValueError) as refusal:
        check_search_class(*_moved("e13"))
    assert not isinstance(refusal.value, InputError)
    assert issubclass(InputError, ValueError)

def _weyl_orbit_of_positive_roots(rd):
    """Every positive system of the root datum: the Weyl orbit of the
    standard one, generated by simple reflections."""
    def reflect(beta, alpha):
        c = 2 * sum(a * b for a, b in zip(beta, alpha)) // sum(a * a for a in alpha)
        return tuple(b - c * a for b, a in zip(beta, alpha))

    seen = {frozenset(rd.positive_roots)}
    frontier = list(seen)
    while frontier:
        cur = frontier.pop()
        for alpha in rd.simple_roots:
            img = frozenset(reflect(b, alpha) for b in cur)
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return seen


def _closure(rd, roots):
    out = set(roots)
    allroots = set(rd.roots)
    while True:
        sums = {tuple(a + b for a, b in zip(x, y)) for x in out for y in out}
        new = (sums & allroots) - out
        if not new:
            return sorted(out)
        out |= new


@pytest.mark.parametrize("fam,n,p", [
    ("sl", 3, 5), ("sl", 4, 5), ("sl", 5, 7), ("gl", 3, 5), ("sp", 4, 5),
    ("sp", 6, 7), ("so", 5, 5), ("so", 7, 7), ("so", 8, 5)])
def test_positive_system_by_min_norm_point_matches_weyl_orbit(fam, n, p):
    g = build(fam, n, p)
    rd = g.frame.rootdatum
    systems = _weyl_orbit_of_positive_roots(rd)
    rng = random.Random(n * p)
    outcomes = set()
    for trial in range(160):
        # random roots, roots of one positive system (with an extra root
        # half of the time), and the closures of both
        pool = sorted(rng.choice(sorted(systems, key=sorted))) \
            if trial % 2 else list(rd.roots)
        roots = rng.sample(pool, rng.randint(1, min(6, len(pool))))
        if trial % 4 == 1:
            roots.append(rng.choice(rd.roots))
        if trial % 3 == 0:
            roots = _closure(rd, roots)
        inside = any(set(roots) <= ps for ps in systems)
        assert bool(any(min_norm_point(roots)[2])) == inside
        closed = is_closed(rd, roots)
        assert _certified_root_support(g, roots) == (closed and inside)
        outcomes.add((closed, inside))
    assert len(outcomes) == 4


def test_positive_system_pinned_cases():
    g = build("sl", 3, 5)
    # the empty support: the radical of a Levi is pure torus
    assert _certified_root_support(g, [])
    levi = standard_parabolic(g, (0,))["levi"]
    part = pnil_part_of_radical(g, levi)
    assert part["method"] == "structured" and part["cone"].dim == 0
    # a pair +-alpha
    assert not _certified_root_support(g, [(1, -1, 0), (-1, 1, 0)])
    # e1-e2, e2-e3, e3-e1: 0 is in the hull with no pair +-alpha
    triangle = [(1, -1, 0), (0, 1, -1), (-1, 0, 1)]
    assert min_norm_point(triangle)[2] == [0, 0, 0]
    assert not _certified_root_support(g, triangle)


def test_borel_tower_of_sl8_at_13():
    g = build("sl", 8, 13)
    trace = run_tower(g, standard_borel(g)["nilradical"])
    checks = verify_morozov(g, trace).checks
    assert checks.pop("kempf_lambda") == [7, 5, 3, 1, -1, -3, -5, -7]
    assert checks.pop("parabolic_status") == "parabolic"
    assert set(checks.values()) == {"pass"}
    assert trace.u_limit == standard_borel(g)["nilradical"]


@pytest.mark.parametrize("fam,n,chosen", [
    ("sl", 8, (0, 1, 2, 4, 5, 6)), ("sp", 10, (0, 1, 2, 3)),
    ("so", 11, (1, 2, 3, 4))])
def test_maximal_parabolic_towers_at_13(fam, n, chosen):
    # maximal parabolics of the largest algebras at p = 13: the tower
    # stabilises on the nilradical and every check of verify_morozov passes
    g = build(fam, n, 13)
    nil = standard_parabolic(g, chosen)["nilradical"]
    trace = run_tower(g, nil)
    assert trace.status == "stabilized" and trace.u_limit == nil
    checks = verify_morozov(g, trace).checks
    checks.pop("kempf_lambda")
    assert checks.pop("parabolic_status") == "parabolic"
    assert set(checks.values()) == {"pass"}


@pytest.mark.parametrize("fam,n,p", [
    ("sl", 3, 3), ("sl", 3, 5), ("gl", 3, 5), ("sl", 4, 5), ("sp", 4, 5),
    ("so", 5, 5), ("sp", 4, 7), ("so", 5, 7)])
def test_view_radical_of_conjugates_matches_structured(fam, n, p, monkeypatch):
    # the view path (centre, Killing kernel, rad of a proper kernel in its
    # own view) on root-group conjugates of standard parabolics, Levis and
    # nilradicals gives the conjugate of the known radical; where the
    # structured path applies it gives that radical too
    from morozov import radicals
    recursions = []

    class CountingSubView(SubView):
        def __init__(self, parent, sub, ideal=None):
            if isinstance(parent, SubView) and sub.dim < parent.dim:
                recursions.append(sub.dim)
            super().__init__(parent, sub, ideal)

    monkeypatch.setattr(radicals, "SubView", CountingSubView)
    g = build(fam, n, p)
    rng = random.Random(f"kernel-recursion:{fam}{n}@{p}")
    for chosen in _subsets(g):
        data = standard_parabolic(g, chosen)
        levi = data["levi"]
        centre = levi.intersect(g.centralizer(levi))
        known = {"parabolic": data["nilradical"].sum(centre), "levi": centre,
                 "nilradical": data["nilradical"]}
        for role, rad in known.items():
            structured = _structured_solvable_radical(g, data[role])
            assert structured in (None, rad), (chosen, role)
            w = _root_group_word(g, rng)
            found = _view_radical(g, conjugate_subspace(g, w, data[role]))
            assert found == conjugate_subspace(g, w, rad), (chosen, role)
    assert recursions


@pytest.mark.parametrize("fam,n,p", [
    ("sl", 3, 3), ("sl", 4, 5), ("gl", 3, 5), ("pgl", 3, 5), ("pgl", 3, 3),
    ("sl", 3, 2), ("sp", 4, 5), ("so", 5, 7), ("so", 8, 5)])
def test_framed_radical_of_conjugates_matches_view_and_structured(fam, n, p):
    # root-group conjugates of every standard parabolic, Levi and
    # nilradical: rad(h) through h's flag frame, where P^-1 h P is split,
    # is the conjugate of the structured radical, and so is what the peel
    # loop gives wherever it decides; every proper parabolic takes the
    # frame.  pgl3@3 and sl3@2 read their frames off J(A(q)), and so8@5
    # takes the plane step and the swap of so_2m
    g = build(fam, n, p)
    rng = random.Random(f"framed-radical:{fam}{n}@{p}")
    framed = 0
    for chosen in _subsets(g):
        data = standard_parabolic(g, chosen)
        for role in ("parabolic", "levi", "nilradical"):
            w = _root_group_word(g, rng)
            moved = conjugate_subspace(g, w, data[role])
            known = conjugate_subspace(
                g, w, _structured_solvable_radical(g, data[role]))
            found = _framed_radical(g, moved)
            if role == "parabolic" and data[role] != g.full_space():
                assert found is not None, chosen
            if found is not None:
                framed += 1
                assert found == known, (chosen, role)
            assert solvable_radical(g, moved) == known, (chosen, role)
            try:
                assert _view_radical(g, moved) == known, (chosen, role)
            except Undetermined:
                assert found is not None, (chosen, role)
    assert framed


def test_solvable_radical_with_no_torus_frame_takes_the_peel_loop():
    # an algebra built from its realization alone has no frame to read a
    # conjugated parabolic through; the peel loop gives the same radical
    from morozov.liealg import LieAlgebra
    g = build("sl", 3, 5)
    bare = LieAlgebra(g.p, g.labels, g.realization)
    w = _group_element(g, random.Random("frameless:sl3@5"))
    q = standard_parabolic(g, (0,))["parabolic"]
    moved = conjugate_subspace(g, w, q)
    assert _framed_radical(bare, moved) is None
    assert solvable_radical(bare, moved) == solvable_radical(g, moved) == \
        conjugate_subspace(g, w, _structured_solvable_radical(g, q))


@pytest.mark.parametrize("chosen", [(0, 1, 2), (1, 2, 3)])
def test_radical_report_of_conjugated_sl5_parabolics_at_3(chosen):
    # conjugates of the sl5@3 parabolics whose kappa = 0 views pass the
    # envelope's word cap and the walk's budget in the peel loop: their
    # flag frame decides rad, and every radical of the report is the
    # conjugate of the standard one
    g = build("sl", 5, 3)
    q = standard_parabolic(g, chosen)["parabolic"]
    w = _group_element(g, random.Random(f"conjugated-view:sl5@3:{chosen}"))
    moved = conjugate_subspace(g, w, q)
    assert coordinate_split(g, moved) is None
    with pytest.raises(Undetermined, match="exceeds budget"):
        _view_radical(g, moved)
    report, standard = radical_report(g, moved), radical_report(g, q)
    assert report.status == "ok"
    for key in ("rad", "nil", "rad_p"):
        assert getattr(report, key) == conjugate_subspace(
            g, w, getattr(standard, key)), key


def test_walk_refuses_a_set_that_is_not_a_subspace():
    # the nilpotent elements a e12 + b f12 of sl2@5 are those with ab = 0,
    # two lines: their span need not act nilpotently, so the walk refuses
    g = build("sl", 2, 5)
    r = g.subspace([g.element_by_label(x).coords for x in ("e12", "f12")])
    with pytest.raises(Undetermined, match="^the p-nilpotent elements do "
                                           "not form a subspace$"):
        _walk(r, g.linear_lift, "p-nilpotent elements")


def _sl2_plus_module(g):
    # sl2 = <h1, e12, f12> with its natural module V = <e13, e23> inside
    # sl3: V is its only minimal abelian ideal, of dimension 2
    return g.subspace([g.element_by_label(x).coords
                       for x in ("h1", "e12", "f12", "e13", "e23")])


def _scan_views():
    """Small views, p^dim <= 5^4, with and without abelian ideals, in and
    out of standard position."""
    shift = FieldMatrix.identity(3, 3) + FieldMatrix(
        3, 3, 3, [int(i == 6) for i in range(9)])
    sl3 = build("sl", 3, 3)
    spaces = [(build("sl", 2, p), None) for p in (2, 3, 5)]
    spaces += [(build("sl", 2, 5), "parabolic"), (build("gl", 2, 5), None),
               (build("pgl", 2, 3), None), (build("sl", 3, 2), "parabolic"),
               (build("sl", 3, 5), "nilradical")]
    out = [SubView(g, g.full_space() if role is None
                   else standard_borel(g)[role]) for g, role in spaces]
    out += [SubView(sl3, conjugate_subspace(
                sl3, shift, standard_borel(sl3)["parabolic"])),
            SubView(sl3, standard_parabolic(sl3, (0,))["levi"]),
            SubView(sl3, _sl2_plus_module(sl3))]
    assert all(view.p ** view.dim <= 5 ** 4 for view in out)
    return out


def test_view_nilradical_is_the_largest_nilpotent_ideal():
    # the oracle keeps every nonzero nilpotent ideal among all subspaces:
    # {x : ad x in J(A_ad)}, the ideal the peel loop takes where kappa
    # vanishes, is the largest, and it is 0 exactly where no abelian ideal
    # exists
    from morozov.suite import enumerate_subspaces
    views = _scan_views()
    sizes = set()
    for view in views:
        whole = view.full_space()
        ideals = [s for s in enumerate_subspaces(view) if s.dim
                  and s.contains(view.bracket_spaces(whole, s))]
        nilpotent = [s for s in ideals if view.is_nilpotent(s)]
        abelian = [s for s in ideals if view.bracket_spaces(s, s).dim == 0]
        nil = _nilpotent_cone(view, whole, view.ad_matrix_vec,
                              "ad-nilpotent elements")[0]
        assert nil == max(nilpotent, key=lambda s: s.dim,
                          default=Subspace.zero(view.dim, view.p)), view
        assert (nil.dim == 0) == (not abelian), view
        sizes.add(nil.dim)
    # views with none, and nilradicals of several sizes
    assert 0 in sizes and len(sizes) >= 3


def test_radical_through_a_kernel_radical_that_is_not_an_ideal():
    # h = (gl2 (x) A) + F.D in gl6@3, with A = F_3[x]/(x^3) acting on
    # F^2 (x) A and D = d/dx + x d/dx acting on A.  The Killing kernel of
    # h is k = gl2 (x) A, and rad(k) = z (x) A + gl2 (x) (x) is not
    # D-stable (D x = 1 + x); the largest ideal of h inside it is z (x) A,
    # and that is rad(h): A has no nonzero proper D-stable ideal
    p = 3
    g = build("gl", 6, p)

    def kron(a, b):
        m = len(b)
        return FieldMatrix.from_rows(
            [[a[i // m][j // m] * b[i % m][j % m] % p for j in range(6)]
             for i in range(6)], p)

    def units(n):
        return [[[int((r, c) == (i, j)) for c in range(n)] for r in range(n)]
                for i in range(n) for j in range(n)]

    mult = [[[int(r == c + k) for c in range(3)] for r in range(3)]
            for k in range(3)]
    d = [[k if r in (k - 1, k) else 0 for k in range(3)] for r in range(3)]
    one = [[1, 0], [0, 1]]
    h = g.subspace([g.coordinates_of_matrix(kron(e, f))
                    for e in units(2) for f in mult]
                   + [g.coordinates_of_matrix(kron(one, d))])
    assert h.dim == 13 and g.is_subalgebra(h)
    view = SubView(g, h)
    assert view.killing_kernel().dim == 12
    centre = g.subspace([g.coordinates_of_matrix(kron(one, f)) for f in mult])
    assert solvable_radical(g, h) == centre


def _oracle_cone(r, test):
    """(span, is_subspace) of the nonzero v in r with test(v), by walking
    all of r: the reference the nilpotent cones are checked against."""
    members = [v for v in r.enumerate_vectors() if any(v) and test(v)]
    span = Subspace.from_vectors(members, r.ambient_dim, r.p)
    return span, len(members) + 1 == r.p ** span.dim


def _view_adnil(g, h):
    """v acts nilpotently on h: its ad matrix in h's own view, built from
    the view's structure table."""
    view = SubView(g, h)
    return lambda v: view.ad_matrix_vec(h.coordinates_of(v)).is_nilpotent()


@pytest.mark.parametrize("fam,n,p", [("sl", 3, 3), ("sl", 3, 5), ("sp", 4, 5)])
def test_ad_nilpotent_test_matches_the_view_ad_matrix(fam, n, p):
    # the ad lift of v on h, from the ambient bracket, is v's ad matrix in
    # h's view
    g = build(fam, n, p)
    rng = random.Random(f"adnil:{fam}{n}@{p}")
    verdicts = set()
    for _, h, _, _ in _view_inputs(g):
        view = SubView(g, h)
        lift = _ad_lift(g, h)
        for _ in range(40):
            v = _random_vector(h, rng)
            ad = view.ad_matrix_vec(h.coordinates_of(v))
            assert lift(v) == ad, (h.basis, v)
            verdicts.add(ad.is_nilpotent())
    assert verdicts == {True, False}


@pytest.mark.parametrize("fam,n,p", [("sl", 3, 5), ("sp", 4, 5), ("so", 5, 5)])
def test_structured_cones_match_enumeration(fam, n, p):
    # on every standard parabolic and Levi the structured step of the cone
    # routine gives, for the linear lift and for ad_h, the sets a walk with
    # the literal p-power iteration and the view's ad matrix picks out
    g = build(fam, n, p)
    for chosen in _subsets(g):
        for role in ("parabolic", "levi"):
            h = standard_parabolic(g, chosen)[role]
            r = solvable_radical(g, h)
            for lift, test in (
                    (g.linear_lift, lambda v: literal_p_nilpotent(g, v)),
                    (_ad_lift(g, h), _view_adnil(g, h))):
                cone, method = _nilpotent_cone(g, r, lift, "cone")
                assert method == "structured"
                assert _oracle_cone(r, test) == (cone, True), (chosen, role)


def _conjugated_borel(g):
    """The standard Borel moved by 1 + E_31 out of standard position."""
    n, p = g.realization.n, g.p
    w = FieldMatrix.identity(n, p) + FieldMatrix(
        n, n, p, [int(i == n * (n - 1)) for i in range(n * n)])
    return w, conjugate_subspace(g, w, standard_borel(g)["parabolic"])


def test_nilradical_enumeration_builds_no_view(monkeypatch):
    # the subalgebra b of gl3@2 generated by the 3-cycle e1 -> e2 -> e3 -> e1
    # and E_21 + E_23: b is solvable, its own radical, and the ad lifts of
    # b do not commute modulo J of their envelope, so its ad-nilpotent
    # elements need not be a subspace; nil(b), the largest ideal inside the
    # x with ad x in J, is read with no view and no walk, and it is the
    # largest nilpotent ideal the exhaustive subspace scan finds
    from morozov import radicals
    from morozov.suite import _brute_radicals
    g, b = _gl3_at_2_cycle_algebra()
    assert solvable_radical(g, b) == b          # memoised before the patch
    nil = _brute_radicals(g, b)["nil"]

    def refuse(*args):
        raise AssertionError("a view was built or a walk run")

    monkeypatch.setattr(radicals, "SubView", refuse)
    monkeypatch.setattr(Subspace, "enumerate_vectors", refuse)
    out = nilradical(g, b)
    assert out["method"] == "envelope"
    assert out["nil"] == nil and nil.dim == 2


@pytest.mark.parametrize("fam,p", [("sl", 5), ("pgl", 3)])
def test_nilradical_by_the_ad_envelope_matches_brute_force(fam, p):
    # the conjugated Borels of sl3@5 and pgl3@3 (p | n): the envelope of
    # ad_b gives the ad-nilpotent cone with no walk, and nil(b) is the
    # largest nilpotent ideal the exhaustive subspace scan finds
    from morozov.suite import _brute_radicals
    g = build(fam, 3, p)
    _, b = _conjugated_borel(g)
    out = nilradical(g, b)
    assert out["method"] == "envelope"
    assert out["nil"] == _brute_radicals(g, b)["nil"]


def _levi_over_the_last_term(g, chosen, rng):
    """[l, l] of a standard parabolic, moved by exp(t x_a) over the roots a
    of its nilradical u off the last nonzero term I of u's lower central
    series, each t != 0 from rng, plus I: a subalgebra that is not
    coordinate-split, whose radical is I."""
    data = standard_parabolic(g, chosen)
    u = data["nilradical"]
    ideal = [s for s in g.lower_central_series(u) if s.dim][-1]
    w = FieldMatrix.identity(g.realization.n, g.p)
    for root in g.frame.rootdatum.roots:
        v = [0] * g.dim
        v[g.frame.root_index[root]] = rng.randrange(1, g.p)
        if u.contains_vector(v) and not ideal.contains_vector(v):
            w = w @ g.exp_trunc(g.element(v))
    return conjugate_subspace(
        g, w, g.bracket_spaces(data["levi"], data["levi"])).sum(ideal)


@pytest.mark.parametrize("fam,chosen,seeds", [("sl", (0,), 3), ("sp", (1,), 5)])
def test_nilradical_of_a_split_radical_is_structured(fam, chosen, seeds):
    # h is not coordinate-split but rad(h) is: the cone of ad_h on rad(h)
    # is read off the split radical with no walk, and nil(h) is the largest
    # nilpotent ideal the exhaustive subspace scan finds
    from morozov.suite import _brute_radicals
    g = build(fam, 4, 5)
    for seed in range(seeds):
        h = _levi_over_the_last_term(
            g, chosen, random.Random(f"split-radical:{fam}:{seed}"))
        assert coordinate_split(g, h) is None
        assert coordinate_split(g, solvable_radical(g, h)) is not None
        out = nilradical(g, h)
        assert out["method"] == "structured"
        assert out["nil"] == _brute_radicals(g, h)["nil"], seed


def _envelope_inputs(g, rng):
    """Seeded solvable radicals, each of p^dim at most 5^4: of the standard
    parabolics, of their conjugates, of the conjugated nilradicals and of
    the normalisers of the subalgebras generated by one of their elements;
    on the type-A families also the Borel and its nilradical moved by
    1 + E_n1, which are not coordinate-split whatever the seeded words
    draw."""
    out = []
    if g.family.rstrip("0123456789") in ("gl", "sl", "pgl"):
        w, b = _conjugated_borel(g)
        out += [b, conjugate_subspace(g, w, standard_borel(g)["nilradical"])]
    for chosen in _subsets(g):
        data = standard_parabolic(g, chosen)
        w = _group_element(g, rng)
        nil = conjugate_subspace(g, w, data["nilradical"])
        hs = [data["parabolic"], conjugate_subspace(g, w, data["parabolic"]),
              nil, g.normalizer(g.subalgebra_closure(
                  [g.element(_random_vector(nil, rng))]))]
        out += [r for r in (solvable_radical(g, h) for h in hs)
                if g.p ** r.dim <= 5 ** 4]
    return out


@pytest.mark.parametrize("fam,n,p", [
    (fam, n, p) for fam, n in (("gl", 2), ("sl", 2), ("pgl", 2), ("gl", 3),
                               ("sl", 3), ("pgl", 3), ("sp", 4), ("so", 5))
    for p in (2, 3, 5, 7) if (fam, p) != ("so", 2)])
def test_envelope_cone_matches_enumeration(fam, n, p):
    # the cone P of the linear lift holds only p-nilpotent elements; where
    # the structured step certifies it, it is the set C of all of them,
    # the set the literal p-power iteration picks out, a subspace; a
    # radical that is not coordinate-split, or split with a root support in
    # no positive system, is certified by the envelope alone.  Wherever C
    # is a subspace, the largest ideal inside it is rad_p, and the envelope
    # decides some such radical of every algebra
    g = build(fam, n, p)
    by_envelope = 0
    for r in _envelope_inputs(g, random.Random(f"envelope:{fam}{n}@{p}")):
        cone, method = _nilpotent_cone(g, r, g.linear_lift, "cone")
        oracle, is_subspace = _oracle_cone(
            r, lambda v: literal_p_nilpotent(g, v))
        assert oracle.contains(cone), r.basis
        part = pnil_part_of_radical(g, r)
        assert (part["cone"], part["method"]) == (cone, method)
        split = coordinate_split(g, r)
        structured = split is not None and _certified_root_support(
            g, [g.frame.index_root[i] for i in split[1]])
        assert method == ("structured" if structured else "envelope")
        assert not structured or (oracle, is_subspace) == (cone, True)
        if is_subspace:
            assert g.largest_ideal_inside(r, oracle) == p_radical(
                g, r)["rad_p"], r.basis
            by_envelope += method == "envelope"
    assert by_envelope


def test_walk_decides_past_the_envelope_cap():
    # pgl5@5 (p | n): the linear lift is ad x, 24 x 24, so an envelope
    # holds at most 113 words.  The plane r through a positive root vector
    # and a seeded element with 10 nonzero coordinates is not split; where
    # its envelope passes that cap the walk over its p^2 vectors decides
    # the cone: the brute-force set of p-nilpotent elements when that set
    # is a subspace, else Undetermined
    g = build("pgl", 5, 5)
    rng = random.Random(7)
    positive = [g.frame.root_index[r] for r in g.frame.rootdatum.positive_roots]
    walked = 0
    for _ in range(8):
        a, x = rng.choice(positive), [0] * g.dim
        for i in rng.sample(range(g.dim), 10):
            x[i] = rng.randrange(1, g.p)
        r = g.subspace([g.unit(a), x])
        assert r.dim == 2 and coordinate_split(g, r) is None
        oracle, is_subspace = _oracle_cone(
            r, lambda v: literal_p_nilpotent(g, v))
        try:
            cone, method = _nilpotent_cone(g, r, g.linear_lift, "cone")
        except Undetermined:
            assert not is_subspace, r.basis
            continue
        if method == "enumeration":
            assert is_subspace and cone == oracle, r.basis
            walked += 1
        else:
            assert method == "envelope" and oracle.contains(cone), r.basis
    assert walked >= 4


def test_envelope_certificate_declines():
    # sl3@3, the scalars plus the conjugated Borel nilradical: the envelope
    # is F + u and tr(1) = 3 = 0, so its trace radical I_0 holds 1; the
    # step g_1(1) = tr(1)/3 = 1 drops it, J = u, and the envelope certifies
    # the cone u alone with no walk
    g = build("sl", 3, 3)
    w = FieldMatrix.from_rows([[1, 0, 0], [1, 1, 0], [0, 1, 1]], 3)
    u = conjugate_subspace(g, w, standard_borel(g)["nilradical"])
    one = g.coordinates_of_matrix(FieldMatrix.identity(3, 3))
    r = solvable_radical(g, g.subspace([one, *u.basis]))
    assert r.dim == 4
    assert _nilpotent_cone(g, r, g.linear_lift, "cone") == (u, "envelope")
    assert pnil_part_of_radical(g, r)["cone"] == u
    # sl2@2 is nilpotent and its envelope is all of M_2, which is simple,
    # so J = 0 and P = 0, while the p-nilpotent elements, by the literal
    # p-power iteration, are no subspace; rad_p(sl2) = P = 0
    g = build("sl", 2, 2)
    r = solvable_radical(g, g.full_space())
    assert r == g.full_space()
    assert pnil_part_of_radical(g, r)["cone"].dim == 0
    assert not _oracle_cone(r, lambda v: literal_p_nilpotent(g, v))[1]
    assert p_radical(g, r)["rad_p"].dim == 0
    # pgl3@3 (p | n): the envelope of ad certifies the cone of the Borel
    # moved by 1 + E_31, which is not coordinate-split
    g = build("pgl", 3, 3)
    w, b = _conjugated_borel(g)
    assert pnil_part_of_radical(g, b)["cone"] == conjugate_subspace(
        g, w, standard_borel(g)["nilradical"])
