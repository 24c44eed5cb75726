import json
import random

import pytest

from morozov.gfp import FieldMatrix, Subspace, rref
from morozov.kempf import check_search_class
from morozov.liealg import (build, conjugate_subspace, standard_borel,
                            standard_parabolic)
from morozov.radicals import (SCAN_BUDGET, QuotientView, SubView,
                              Undetermined, _certified_root_support,
                              _solvable_radical_view,
                              _structured_solvable_radical, is_p_nil_subalgebra,
                              is_p_nilpotent, nilradical, p_radical,
                              pnil_part_of_radical, radical_report,
                              solvable_radical)
from morozov.rootdata import is_closed, min_norm_point
from morozov.suite import literal_p_nilpotent
from morozov.tower import run_tower, verify_morozov


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
    # the ambient algebra, local(g op lift), on subalgebras and quotients
    g = build(fam, n, p)
    rng = random.Random(f"tables:{fam}{n}@{p}")
    for name, h, ideal, _ in _view_inputs(g):
        sub = SubView(g, h)
        quot = QuotientView(sub, sub.restrict_subspace(ideal))
        assert quot.dim == h.dim - ideal.dim > 0, name

        def ambient(view, x):
            return sub.lift(quot.lift(x)) if view is quot else sub.lift(x)

        def local(view, vec):
            loc = sub.local(vec)
            if view is sub or loc is None:
                return loc
            return quot.local(loc)

        for view in (sub, quot):
            for _ in range(40):
                x = [rng.randrange(p) for _ in range(view.dim)]
                y = [rng.randrange(p) for _ in range(view.dim)]
                assert view.bracket_vec(x, y) == local(view, g.bracket_vec(
                    ambient(view, x), ambient(view, y))), name
                assert view.p_power_vec(x) == local(
                    view, g.p_power_vec(ambient(view, x))), name


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


@pytest.mark.parametrize("fam,n,p", [("sl", 4, 5), ("sp", 4, 7)])
def test_spin_inside_h_matches_the_view_spin(fam, n, p):
    g = build(fam, n, p)
    for name, h, _, lines in _view_inputs(g):
        sub = SubView(g, h)
        assert lines
        for v in lines:
            assert g.spin_submodule(v, h) == \
                sub.lift_subspace(sub.spin_submodule(sub.local(v))), name
    # the default spins under the whole algebra
    assert g.spin_submodule(lines[0]) == \
        g.spin_submodule(lines[0], g.full_space())


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
    assert out["cone_is_subspace"] and out["p_closed"]
    sl3 = build("sl", 3, 5)
    assert p_radical(sl3, sl3.full_space())["rad_p"].dim == 0


def test_p_radical_of_parabolic_is_nilradical():
    sl3 = build("sl", 3, 5)
    for chosen in ((), (0,), (1,)):
        data = standard_parabolic(sl3, chosen)
        out = p_radical(sl3, data["parabolic"])
        assert out["rad_p"] == data["nilradical"]


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
        view = SubView(g, h)
        quot = QuotientView(view, view.restrict_subspace(ideal))
        # enumerate the radical of the quotient and check no nonzero
        # p-nil ideal survives
        from morozov.radicals import _solvable_radical_view, _vec_p_nilpotent
        rad_quot = _solvable_radical_view(quot, 10 ** 6)
        pnil = []
        for v in rad_quot.enumerate_vectors():
            if any(v):
                res = _vec_p_nilpotent(quot, v)
                assert res is not None
                if res:
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
        assert span == part["span"]
        assert len(members) + 1 == g.p ** span.dim  # cone is a subspace


def test_undetermined_budget():
    from morozov.radicals import Undetermined
    g = build("sl", 4, 7)
    b = standard_borel(g)["parabolic"]
    view_rad = solvable_radical(g, b)
    assert view_rad == b
    # force the enumeration path with a tiny budget on a non-split input:
    # rotate the Borel off the coordinate frame so the structured split
    # does not apply
    from morozov.liealg import conjugate_subspace
    w = FieldMatrix.from_rows(
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1]], 7)
    skew = conjugate_subspace(g, w, b)
    assert skew != b
    with pytest.raises(Undetermined):
        pnil_part_of_radical(g, skew, budget=10)


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
    ("sp", 4, 5, 2000), ("so", 5, 5, 2000), ("pgl", 3, 3, 2000)])
def test_is_p_nilpotent_matches_literal_iteration(fam, n, p, samples):
    # every vector of the small algebras; on the others a seeded sample,
    # a third each from g, the Borel and its nilradical, so that both
    # answers occur
    g = build(fam, n, p)
    if samples is None:
        vectors = list(g.full_space().enumerate_vectors())
    else:
        rng = random.Random(f"{fam}{n}@{p}")
        borel = standard_borel(g)
        spaces = [g.full_space(), borel["parabolic"], borel["nilradical"]]
        vectors = [_random_vector(spaces[k % 3], rng) for k in range(samples)]
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
    ("sl", 4, 3)])
def test_engel_flag_matches_enumeration(fam, n, p):
    g = build(fam, n, p)
    rng = random.Random(f"flag:{fam}{n}@{p}")
    verdicts = []
    for u in _flag_inputs(g, rng):
        assert g.is_subalgebra(u)
        # budget 1: the faithful families never fall back to enumeration
        flag = is_p_nil_subalgebra(g, u, budget=1)
        assert flag == _every_vector_p_nilpotent(g, u), u.basis
        verdicts.append(flag)
    assert True in verdicts and False in verdicts
    assert not flag     # the rotated sl2 came last


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


def test_is_p_nil_subalgebra_on_pgl_keeps_the_budget():
    g = build("pgl", 3, 5)
    nil = standard_borel(g)["nilradical"]
    assert is_p_nil_subalgebra(g, nil) is True
    assert is_p_nil_subalgebra(g, nil, budget=10) is None


@pytest.mark.parametrize("fam,n", [("sl", 3), ("sl", 4), ("sl", 5), ("gl", 3),
                                   ("sp", 4), ("so", 5), ("so", 7)])
def test_linear_torus_part_matches_view_path(fam, n):
    # p = 7 passes the distinct-torus-characters gate on all of them; where
    # the view path cannot certify its answer within the scan budget, the
    # known radical of a standard parabolic, u + z(l), is the reference
    g = build(fam, n, 7)
    compared = 0
    for chosen in _subsets(g):
        data = standard_parabolic(g, chosen)
        levi = data["levi"]
        centre = levi.intersect(g.centralizer(levi))
        known = {"parabolic": data["nilradical"].sum(centre), "levi": centre,
                 "nilradical": data["nilradical"]}
        for role, h in known.items():
            structured = _structured_solvable_radical(g, data[role])
            assert structured == h, (chosen, role)
            view = SubView(g, data[role])
            try:
                local = _solvable_radical_view(view, SCAN_BUDGET)
            except Undetermined:
                continue
            assert view.lift_subspace(local) == structured, (chosen, role)
            compared += 1
    assert compared >= 2 * len(_subsets(g))


def _conjugated_sl4_parabolic():
    """The sl4@7 parabolic S = (0, 1) moved by a seeded GL_4 element: the
    view path's abelian-ideal scan is far over the budget here."""
    g = build("sl", 4, 7)
    w = _group_element(g, random.Random("undetermined:0"))
    return g, conjugate_subspace(g, w, standard_parabolic(g, (0, 1))["parabolic"])


def test_radical_report_returns_undetermined():
    g, h = _conjugated_sl4_parabolic()
    rep = radical_report(g, h)
    assert rep.status == "undetermined"
    assert "abelian-ideal scan" in rep.detail
    assert rep.rad is None and rep.nil is None and rep.rad_p is None
    assert rep.as_dict()["rad"] is None


def test_radical_compute_cli_exits_undetermined(tmp_path, capsys):
    from morozov.cli import EXIT_UNDETERMINED, main
    from morozov.serialize import canonical_json, subspace_to_dict
    g, h = _conjugated_sl4_parabolic()
    path = tmp_path / "h.json"
    path.write_text(canonical_json(subspace_to_dict(h)))
    args = ["radical", "compute", "--family", "sl", "--n", "4", "--p", "7",
            "--subspace", str(path)]
    assert main(args) == EXIT_UNDETERMINED
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["status"] == "undetermined" and report["rad"] is None
    assert main(args + ["--text"]) == EXIT_UNDETERMINED
    assert "rad dim None" in capsys.readouterr().out


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
    assert part["method"] == "structured" and part["span"].dim == 0
    # a pair +-alpha puts 0 in the hull
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
