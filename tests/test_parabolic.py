import random

import pytest

from morozov import liealg, parabolic
from morozov.fixtures import (ex1_pgl_pattern, ex1_sl3_subalgebra,
                              ex2_corrected_pattern, ex2_printed_pattern,
                              ex2_subalgebra)
from morozov.gfp import (FieldMatrix, Subspace, image_flag, jacobson_radical,
                         kernel, rref, trace_gram)
from morozov.liealg import (LieAlgebra, build, conjugate_subspace,
                            coordinate_split, standard_borel,
                            standard_parabolic, torus_subspace)
from morozov.parabolic import (contains_borel, detect_parabolic,
                               iso_invariants, killing_detector)


def line(g, label):
    return g.subspace([g.element_by_label(label).coords])


def test_detect_full_algebra():
    g = build("sl", 3, 5)
    v = detect_parabolic(g, g.full_space())
    assert v.status == "parabolic"
    assert set(v.root_subset) == set(g.frame.rootdatum.roots)


def test_detect_borel_and_parabolics():
    for fam, n, p in (("sl", 3, 5), ("sl", 4, 7), ("sp", 4, 5), ("sp", 4, 7)):
        g = build(fam, n, p)
        rank = g.frame.rootdatum.rank
        for mask in range(1 << rank):
            chosen = tuple(i for i in range(rank) if mask >> i & 1)
            data = standard_parabolic(g, chosen)
            v = detect_parabolic(g, data["parabolic"])
            assert v.status == "parabolic"
            assert set(v.root_subset) == set(data["roots"])


def test_detect_translated_parabolic():
    # a Weyl-translated Borel is found through the translate frame
    from morozov.liealg import conjugate_subspace, weyl_matrices
    g = build("sl", 3, 5)
    b = standard_borel(g)["parabolic"]
    w = weyl_matrices(g)[3]
    moved = conjugate_subspace(g, w, b)
    if moved != b:
        v = detect_parabolic(g, moved)
        assert v.status == "parabolic"


def test_detect_non_parabolic_line():
    g = build("sl", 3, 5)
    v = detect_parabolic(g, line(g, "e13"))
    assert v.status == "not-parabolic"
    assert detect_parabolic(g, g.subspace([])).status == "not-parabolic"


def test_root_lines_without_the_torus_are_not_parabolic():
    # the Borel nilradical has the root support of a parabolic
    g = build("sl", 3, 5)
    v = detect_parabolic(g, standard_borel(g)["nilradical"])
    assert v.status == "not-parabolic"


def test_counterexample_ex1():
    sl3 = build("sl", 3, 3)
    pgl3 = build("pgl", 3, 3)
    for t in (1, 2):
        q = ex1_sl3_subalgebra(sl3, t)
        assert sl3.is_subalgebra(q)
        assert q.contains(standard_borel(sl3)["parabolic"])
        assert contains_borel(sl3, q) is not None
        v = detect_parabolic(sl3, q)
        assert v.status == "not-parabolic"
        assert "flag frame" in v.details["criterion"]
        # the invariant battery separates q from every standard parabolic
        # of its dimension as well
        same_dim = [par for par in (standard_parabolic(sl3, s)["parabolic"]
                                    for s in _subsets(sl3))
                    if par.dim == q.dim]
        assert same_dim
        assert iso_invariants(sl3, q) not in [iso_invariants(sl3, par)
                                              for par in same_dim]
        # the literal quotient-algebra reading does not close under brackets
        assert not pgl3.is_subalgebra(ex1_pgl_pattern(pgl3, t))


def test_counterexample_ex2_normalizer_pattern():
    g = build("pgl", 3, 3)
    u = ex2_subalgebra(g)
    assert u.dim == 2
    assert g.is_nilpotent(u)
    n = g.normalizer(u)
    assert n == ex2_corrected_pattern(g)
    printed = ex2_printed_pattern(g)
    assert printed.contains(n) and printed.dim == n.dim + 1
    v = detect_parabolic(g, n)
    assert v.status == "not-parabolic"


def test_contains_borel_examples():
    g = build("sl", 3, 5)
    b = standard_borel(g)["parabolic"]
    assert contains_borel(g, b) is not None
    assert contains_borel(g, standard_parabolic(g, (0,))["parabolic"]) is not None
    sl2 = build("sl", 2, 5)
    assert contains_borel(sl2, line(sl2, "e12")) is None


def test_iso_invariants_separate():
    # the battery distinguishes a Borel from a maximal parabolic
    g = build("sl", 3, 5)
    b = standard_borel(g)["parabolic"]
    par = standard_parabolic(g, (0,))["parabolic"]
    assert iso_invariants(g, b) != iso_invariants(g, par)


def test_killing_detector_borel_sl2():
    g = build("sl", 2, 5)
    b = standard_borel(g)["parabolic"]
    rep = killing_detector(g, b)
    assert rep["status"] == "ok"
    assert rep["perp_dim"] == 1
    assert rep["normalizer_check"]


def test_killing_detector_full():
    g = build("sl", 2, 5)
    rep = killing_detector(g, g.full_space())
    assert rep["status"] == "ok" and rep["perp_dim"] == 0


def test_killing_detector_torus_precondition():
    g = build("sl", 2, 5)
    rep = killing_detector(g, line(g, "h1"))
    assert rep["status"] == "precondition-failed"
    assert rep["reason"] == "orthogonal is not a subalgebra"


def test_killing_detector_needs_nondegenerate():
    g = build("sl", 3, 3)
    with pytest.raises(ValueError):
        killing_detector(g, g.full_space())


def test_killing_detector_agrees_with_detect():
    for fam, n, p in (("sl", 3, 5), ("sp", 4, 7)):
        g = build(fam, n, p)
        rank = g.frame.rootdatum.rank
        for mask in range(1 << rank):
            chosen = tuple(i for i in range(rank) if mask >> i & 1)
            par = standard_parabolic(g, chosen)["parabolic"]
            rep = killing_detector(g, par)
            assert rep["status"] == "ok"
            assert detect_parabolic(g, par).status == "parabolic"


def _subsets(g):
    rank = g.frame.rootdatum.rank
    return [tuple(i for i in range(rank) if mask >> i & 1)
            for mask in range(1 << rank)]


def _invertible(n, p, rng):
    while True:
        m = FieldMatrix(n, n, p, [rng.randrange(p) for _ in range(n * n)])
        if rref(m)[1] == n:
            return m


def _root_group_element(g, rng, length=6):
    """A product of root-group elements exp(t x_a): an element of G(F_p)
    that normalises g."""
    w = FieldMatrix.identity(g.realization.n, g.p)
    roots = g.frame.rootdatum.roots
    for _ in range(length):
        v = [0] * g.dim
        v[g.frame.root_index[tuple(rng.choice(roots))]] = rng.randrange(1, g.p)
        w = w @ g.exp_trunc(g.element(v))
    return w


# sl3@3: p | n, where q n q^perp holds the scalars
@pytest.mark.parametrize("fam,n,p", [
    ("sl", 2, 5), ("sl", 3, 5), ("sl", 4, 5), ("sl", 2, 7), ("sl", 3, 7),
    ("sl", 4, 7), ("sl", 3, 3), ("gl", 3, 5), ("pgl", 3, 5), ("pgl", 3, 3)])
def test_conjugated_type_a_parabolics_come_back_with_frame(fam, n, p):
    g = build(fam, n, p)
    t = torus_subspace(g)
    rng = random.Random(100 * n + p)
    full = _subsets(g)[-1]
    frames = 0
    for chosen in _subsets(g):
        data = standard_parabolic(g, chosen)
        for _ in range(2):
            w = _invertible(n, p, rng)
            if chosen != full:
                levi = conjugate_subspace(g, w, data["levi"])
                assert detect_parabolic(g, levi).status != "parabolic"
            q = conjugate_subspace(g, w, data["parabolic"])
            v = detect_parabolic(g, q)
            assert v.status == "parabolic"
            if q.contains(t):
                continue    # decided in the standard frame
            frames += 1
            assert v.details["frame_translate"] is True
            assert set(v.root_subset) == set(data["roots"])
            frame, inverse = v.frame
            assert frame @ inverse == FieldMatrix.identity(g.realization.n, p)
            # P^-1 q P is the standard parabolic, i.e. q = P std P^-1
            assert conjugate_subspace(g, frame, data["parabolic"]) == q
            assert v.torus_used == conjugate_subspace(g, frame, t)
            assert q.contains(v.torus_used)
    assert frames


@pytest.mark.parametrize("fam,n", [("sp", 4), ("so", 5)])
@pytest.mark.parametrize("p", [5, 7])
def test_conjugated_sp_so_subalgebras_never_misclassified(fam, n, p):
    g = build(fam, n, p)
    rng = random.Random(p)
    full = _subsets(g)[-1]
    for chosen in _subsets(g):
        data = standard_parabolic(g, chosen)
        w = _root_group_element(g, rng)
        q = conjugate_subspace(g, w, data["parabolic"])
        assert detect_parabolic(g, q).status != "not-parabolic"
        if chosen != full:
            levi = conjugate_subspace(g, w, data["levi"])
            assert detect_parabolic(g, levi).status != "parabolic"


def test_so_standard_levi_not_parabolic():
    g = build("so", 5, 5)
    v = detect_parabolic(g, standard_parabolic(g, (0,))["levi"])
    assert v.status == "not-parabolic"


@pytest.mark.parametrize("p", [5, 7])
def test_sp4_conjugates_decided_without_weyl_frames(p, monkeypatch):
    # every conjugated parabolic comes back parabolic, with no walk over the
    # Weyl group and no invariant battery: through the Witt frame, or in the
    # standard frame when the conjugate contains t
    def no_weyl_walk(g):
        raise AssertionError("detection walked the Weyl group")

    def no_battery(g, q):
        raise AssertionError("detection reached the invariant battery")

    monkeypatch.setattr(liealg, "weyl_matrices", no_weyl_walk)
    monkeypatch.setattr(parabolic, "weyl_matrices", no_weyl_walk)
    monkeypatch.setattr(parabolic, "iso_invariants", no_battery)
    g = build("sp", 4, p)
    t = torus_subspace(g)
    rng = random.Random(10 * p)
    frames = 0
    for _ in range(2):
        for chosen in _subsets(g)[:-1]:
            data = standard_parabolic(g, chosen)
            w = _root_group_element(g, rng)
            levi = detect_parabolic(g, conjugate_subspace(g, w, data["levi"]))
            assert (levi.status, levi.failure_reason) == ("not-parabolic",
                                                          "not-parabolic-subset")
            q = conjugate_subspace(g, w, data["parabolic"])
            v = detect_parabolic(g, q)
            assert v.status == "parabolic"
            if q.contains(t):
                continue    # decided in the standard frame
            frames += 1
            assert set(v.root_subset) == set(data["roots"])
            frame = v.frame[0]
            assert conjugate_subspace(g, frame, data["parabolic"]) == q
            assert v.torus_used == conjugate_subspace(g, frame, t)
            assert q.contains(v.torus_used)
    assert frames


@pytest.mark.parametrize("fam,n,p", [
    ("sp", 4, 3), ("sp", 4, 5), ("sp", 6, 3), ("sp", 6, 5), ("so", 5, 3),
    ("so", 5, 5), ("so", 7, 3), ("so", 7, 7), ("so", 8, 5)])
def test_conjugated_sp_so_parabolics_come_back_with_a_witt_frame(fam, n, p):
    # P^T J P = cJ for the realization's form J, and P^-1 q P is q's own
    # standard parabolic: on so8 the two maximal parabolics of the
    # Lagrangians, S = (0, 1, 2) and (0, 1, 3), keep their root subsets
    g = build(fam, n, p)
    t = torus_subspace(g)
    perm, sign = g.frame.form
    form = FieldMatrix(n, n, p, [sign[c] if perm[c] == r else 0
                                 for r in range(n) for c in range(n)])
    rng = random.Random(f"witt:{fam}{n}@{p}")
    frames = 0
    for chosen in _subsets(g)[:-1]:
        data = standard_parabolic(g, chosen)
        for _ in range(2):
            w = _root_group_element(g, rng)
            levi = conjugate_subspace(g, w, data["levi"])
            assert detect_parabolic(g, levi).status == "not-parabolic"
            q = conjugate_subspace(g, w, data["parabolic"])
            v = detect_parabolic(g, q)
            assert v.status == "parabolic"
            if q.contains(t):
                continue    # decided in the standard frame
            frames += 1
            assert set(v.root_subset) == set(data["roots"])
            frame = v.frame[0]
            assert any(frame.transpose() @ form @ frame == form.scale(c)
                       for c in range(1, p))
            assert conjugate_subspace(g, frame, data["parabolic"]) == q
            assert v.torus_used == conjugate_subspace(g, frame, t)
    assert frames


@pytest.mark.parametrize("fam,n,p", [("sl", 4, 5), ("pgl", 3, 3), ("sp", 4, 3),
                                     ("so", 5, 3), ("so", 8, 5)])
def test_frame_verdicts_match_the_call_that_inverts_the_frame_itself(
        fam, n, p, monkeypatch):
    # detect_parabolic hands conjugate_subspace the frame's inverse it has
    # computed once; every verdict, frame and torus_used is the one of the
    # three-argument call, which inverts the matrix itself
    g = build(fam, n, p)
    rng = random.Random(f"inverse:{fam}{n}@{p}")
    qs = []
    for chosen in _subsets(g)[:-1]:
        data = standard_parabolic(g, chosen)
        w = _root_group_element(g, rng)
        qs += [conjugate_subspace(g, w, data[role])
               for role in ("parabolic", "levi")]
    given = [detect_parabolic(g, q) for q in qs]
    assert any(v.details.get("frame_translate") for v in given)
    monkeypatch.setattr(parabolic, "conjugate_subspace",
                        lambda g, w, s, winv=None: conjugate_subspace(g, w, s))
    assert [detect_parabolic(g, q) for q in qs] == given


# every family at odd p; type A with p | n included (sl3@3, sl6@3, gl4@3,
# pgl3@3)
@pytest.mark.parametrize("fam,n,p", [
    ("sl", 3, 3), ("sl", 3, 5), ("sl", 4, 3), ("sl", 4, 5), ("sl", 4, 7),
    ("sl", 5, 5), ("sl", 6, 3), ("gl", 3, 5), ("gl", 4, 3), ("pgl", 3, 3),
    ("pgl", 3, 5), ("pgl", 4, 5), ("sp", 4, 3), ("sp", 4, 5), ("sp", 4, 7),
    ("sp", 6, 5), ("so", 5, 3), ("so", 5, 5), ("so", 7, 3), ("so", 7, 7),
    ("so", 6, 3), ("so", 6, 5), ("so", 8, 5)])
def test_frame_certificate_agrees_with_the_invariant_battery(
        fam, n, p, monkeypatch):
    # inputs, each moved by a seeded root-group element: every proper
    # standard Levi and nilradical; closures of two elements of the Borel;
    # closures of the torus and seeded root lines that have the dimension
    # of a standard parabolic but are not parabolic, which the battery
    # must tell apart from those parabolics
    g = build(fam, n, p)
    rng = random.Random(f"certificate:{fam}{n}@{p}")
    standard = {}
    for chosen in _subsets(g):
        par = standard_parabolic(g, chosen)["parabolic"]
        standard.setdefault(par.dim, []).append(par)
    inputs = []
    for chosen in _subsets(g)[:-1]:
        data = standard_parabolic(g, chosen)
        for _ in range(2):
            w = _root_group_element(g, rng)
            inputs += [conjugate_subspace(g, w, data[role])
                       for role in ("levi", "nilradical")]
    proper = len(inputs)
    borel = standard_borel(g)["parabolic"]
    for _ in range(4):
        gens = [g.element([sum(rng.randrange(p) * b[i] for b in borel.basis) % p
                           for i in range(g.dim)]) for _ in range(2)]
        inputs.append(conjugate_subspace(g, _root_group_element(g, rng),
                                         g.subalgebra_closure(gens)))
    torus = [g.element(list(b)) for b in torus_subspace(g).basis]
    roots = g.frame.rootdatum.roots
    coordinate = []
    for _ in range(200):
        lines = [g.basis_element(g.frame.root_index[tuple(r)])
                 for r in rng.sample(roots, rng.randrange(1, len(roots) // 2))]
        q = g.subalgebra_closure(torus + lines)
        if (q.dim in standard and q not in coordinate
                and detect_parabolic(g, q).status == "not-parabolic"):
            coordinate.append(q)
            inputs.append(conjugate_subspace(g, _root_group_element(g, rng), q))
        if len(coordinate) == 2:
            break

    def no_battery(g, q):
        raise AssertionError("detection at odd p reached the invariant battery")

    monkeypatch.setattr(parabolic, "iso_invariants", no_battery)
    verdicts = [detect_parabolic(g, q) for q in inputs]
    monkeypatch.undo()
    # the battery compares q only with standard parabolics of its dimension
    invariants = {}
    for q, v in zip(inputs, verdicts):
        assert v.status in ("parabolic", "not-parabolic")
        if v.status == "not-parabolic":
            assert "flag frame" in v.details["criterion"]
            if q.dim not in standard:
                continue
            if q.dim not in invariants:
                invariants[q.dim] = [iso_invariants(g, par)
                                     for par in standard[q.dim]]
            assert iso_invariants(g, q) not in invariants[q.dim]
    assert all(v.status == "not-parabolic" for v in verdicts[:proper])


def test_witt_frame_declines_a_flag_that_is_not_self_dual():
    # q = <t1, x_e1> in so5: N = q n q^perp is the root line, whose image
    # <e1, z> holds the anisotropic middle vector z; the N-flag closed under
    # orthogonal complements is no chain, so there is no Witt frame
    g = build("so", 5, 5)
    q = g.subspace([g.element_by_label(x).coords for x in ("t1", "x(1,0)")])
    assert parabolic.flag_frame(g, q) is None
    v = detect_parabolic(g, q)
    assert v.status == "not-parabolic"
    assert "Witt flag frame" in v.details["criterion"]


def _borel_conjugated_at_2(g):
    """The standard Borel of a type-A algebra at p = 2, conjugated by the
    unipotent matrix 1 + E_21."""
    n = g.realization.n
    entries = list(FieldMatrix.identity(n, 2).entries)
    entries[n] = 1
    b = standard_borel(g)["parabolic"]
    q = conjugate_subspace(g, FieldMatrix(n, n, 2, entries), b)
    assert q != b
    return q



def test_detect_checks_the_subalgebra_before_the_frame():
    # an algebra built from its realization alone has no torus frame; a
    # subspace that is not closed under the bracket is still refused
    g = build("sl", 3, 5)
    bare = LieAlgebra(g.p, g.labels, g.realization)
    assert bare.frame is None
    with pytest.raises(ValueError, match="not a subalgebra"):
        detect_parabolic(bare, bare.subspace(
            [g.element_by_label(x).coords for x in ("e12", "f12")]))
    v = detect_parabolic(bare, standard_borel(g)["parabolic"])
    assert (v.status, v.failure_reason) == ("undetermined", "no-torus-found")

def test_sl2_at_2_borel_out_of_standard_position_is_not_refuted():
    # the root vanishes on the torus of sl2@2, so N = [q, q n q^perp] = 0
    # for this Borel; A(q) = span(1, e') for its root vector e', whose trace
    # radical holds 1 (tr(1) = 2 = 0) and J(A(q)) = span(e'): the J-flag
    # gives the frame
    g = build("sl", 2, 2)
    v = detect_parabolic(g, _borel_conjugated_at_2(g))
    assert (v.status, v.frame[0].to_rows()) == ("parabolic", [[1, 1], [1, 0]])


@pytest.mark.parametrize("fam,n", [("gl", 2), ("pgl", 2), ("sl", 3),
                                   ("gl", 3)])
def test_type_a_borels_at_2_out_of_standard_position_are_parabolic(fam, n):
    g = build(fam, n, 2)
    v = detect_parabolic(g, _borel_conjugated_at_2(g))
    assert v.status == "parabolic"
    assert v.details["frame_translate"] is True


def _jacobson_flag(g, q):
    """The flag V > JV > J^2 V > ... > 0 of J(A(q)), A(q) generated by 1
    and the matrices of q's basis."""
    n, p = g.realization.n, g.p
    radical = jacobson_radical([g.matrix_of(list(v)) for v in q.basis])
    return image_flag(Subspace.full(n, p), [
        FieldMatrix(n, n, p, row).matvec for row in radical.rows(n * n)])


def _stable_coordinate_subspaces(g, q):
    """Every span of realization basis vectors that q stabilises, largest
    first: for a standard parabolic, the standard flag."""
    n, p = g.realization.n, g.p
    mats = [g.matrix_of(list(v)) for v in q.basis]
    stable = [s for s in range(1 << n) if not any(
        m.entries[r * n + c] for m in mats for c in range(n) if s >> c & 1
        for r in range(n) if not s >> r & 1)]
    return [Subspace.from_vectors([[int(i == k) for i in range(n)]
                                   for k in range(n) if s >> k & 1], n, p)
            for s in sorted(stable, key=lambda s: -bin(s).count("1"))]


@pytest.mark.parametrize("fam,n,p", [
    (fam, n, 2) for fam in ("gl", "sl", "pgl") for n in range(2, 7)]
    + [("sp", 4, 2), ("sp", 6, 2), ("sp", 8, 2), ("pgl", 3, 3),
       ("pgl", 6, 3), ("pgl", 5, 5)])
def test_jacobson_flag_of_a_standard_parabolic_is_its_standard_flag(
        fam, n, p):
    # the completeness of the frame at p = 2 and on pgl with p | n: for
    # every standard parabolic the flag of J(A(q)) is the chain of the
    # coordinate subspaces q stabilises, the full flag of the Borel
    g = build(fam, n, p)
    for chosen in _subsets(g):
        q = standard_parabolic(g, chosen)["parabolic"]
        assert _jacobson_flag(g, q) == _stable_coordinate_subspaces(g, q), \
            chosen
    borel = standard_borel(g)["parabolic"]
    assert [s.dim for s in _jacobson_flag(g, borel)] == list(range(n, -1, -1))


def _movers(g, rng, count):
    """Seeded elements of the group that normalise g: on the type-A
    families 1 + E_n1, which moves every proper standard parabolic, then
    invertible matrices; on sp root-group words."""
    if g.frame.form is not None:
        return [_root_group_element(g, rng) for _ in range(count)]
    n = g.realization.n
    lower = FieldMatrix(n, n, g.p, [int(k == n * (n - 1)) for k in range(n * n)])
    return [FieldMatrix.identity(n, g.p) + lower] + [
        _invertible(n, g.p, rng) for _ in range(count - 1)]


@pytest.mark.parametrize("fam,n", [
    (fam, n) for fam in ("gl", "sl", "pgl") for n in (2, 3, 4)]
    + [("sp", 4), ("sp", 6)])
def test_conjugated_parabolics_and_levis_at_2_are_decided(fam, n,
                                                          monkeypatch):
    # seeded conjugates of every standard parabolic read "parabolic", out of
    # standard position with the standard root subset and a frame P with
    # P std P^-1 = q (P^T J P = J on sp), and of every proper standard Levi
    # "not-parabolic"; never from the invariant battery.  On sl2@2 the torus
    # is the scalars, in every conjugate
    def no_battery(g, q):
        raise AssertionError("detection reached the invariant battery")

    monkeypatch.setattr(parabolic, "iso_invariants", no_battery)
    g = build(fam, n, 2)
    t = torus_subspace(g)
    form = None
    if g.frame.form is not None:
        perm, _ = g.frame.form
        form = FieldMatrix(n, n, 2, [int(perm[c] == r) for r in range(n)
                                     for c in range(n)])
    rng = random.Random(f"jacobson-frame:{fam}{n}")
    full = _subsets(g)[-1]
    frames = 0
    for chosen in _subsets(g):
        data = standard_parabolic(g, chosen)
        for w in _movers(g, rng, 4):
            if chosen != full:
                levi = detect_parabolic(
                    g, conjugate_subspace(g, w, data["levi"]))
                assert levi.status == "not-parabolic", chosen
                assert "J(A(q))" in levi.details["criterion"]
            q = conjugate_subspace(g, w, data["parabolic"])
            v = detect_parabolic(g, q)
            assert v.status == "parabolic", chosen
            if v.frame is None:
                continue    # decided in the standard frame
            frames += 1
            assert set(v.root_subset) == set(data["roots"])
            frame = v.frame[0]
            assert conjugate_subspace(g, frame, data["parabolic"]) == q
            assert v.torus_used == conjugate_subspace(g, frame, t)
            if form is not None:
                assert frame.transpose() @ form @ frame == form
    assert frames


def test_sp10_at_2_past_the_envelope_cap_is_undetermined():
    # A(q) of the Siegel parabolic S = (0, 1, 2, 3) of sp10@2, the
    # block-triangular algebra of a Lagrangian, has 75 words, which passed
    # the old cap of 64 words and left the verdict undetermined; n = 10 is
    # far inside the cap on words x n^2, so the flag of J(A(q)) gives a
    # Witt frame out of standard position too, with the standard root
    # subset
    g = build("sp", 10, 2)
    data = standard_parabolic(g, (0, 1, 2, 3))
    rng = random.Random("cap")
    moved = 0
    for _ in range(3):
        w = _root_group_element(g, rng)
        q = conjugate_subspace(g, w, data["parabolic"])
        if coordinate_split(g, q) is not None:
            continue
        moved += 1
        assert jacobson_radical([g.matrix_of(list(v))
                                 for v in q.basis]) is not None
        v = detect_parabolic(g, q)
        assert v.status == "parabolic" and v.details["frame_translate"]
        assert set(v.root_subset) == set(data["roots"])
    assert moved


def test_a_subalgebra_whose_root_set_is_not_closed():
    # sp4@2, q = t + g_(1,-1) + g_(1,1): [e_(1,-1), e_(1,1)] = +-2 e_(2,0)
    # = 0 at p = 2, so q is a subalgebra, but (1,-1) + (1,1) = (2,0) is a
    # root outside it; the coordinate reading names that failure
    from morozov.liealg import split_sum
    from morozov.rootdata import is_closed
    g = build("sp", 4, 2)
    roots = ((1, -1), (1, 1))
    q = split_sum(g, {g.frame.root_index[r] for r in roots}, torus_subspace(g))
    assert g.is_subalgebra(q) and (2, 0) in g.frame.root_index
    assert not is_closed(g.frame.rootdatum, roots)
    v = detect_parabolic(g, q)
    assert (v.status, v.failure_reason, v.details["coordinate_failure"]) == (
        "not-parabolic", "not-closed", "not-closed")


def _mover(g, rng):
    """A seeded element that normalises g: an invertible matrix on type A,
    a root-group word on sp and so."""
    return (_invertible(g.realization.n, g.p, rng) if g.frame.form is None
            else _root_group_element(g, rng))


def _not_closed(g):
    """The Borel's nilradical plus the line of -a for the first simple root
    a, coordinate-split: not a subalgebra, as [e_a, e_-a] lies in the
    torus, and q n q^perp holds every root line but e_a's."""
    neg = tuple(-x for x in g.frame.rootdatum.simple_roots[0])
    nil = standard_borel(g)["nilradical"]
    q = Subspace.from_vectors(
        list(nil.basis) + [g.unit(g.frame.root_index[neg])], g.dim, g.p)
    assert coordinate_split(g, q) is not None and not g.is_subalgebra(q)
    return q


def _moved_not_closed(g, rng):
    """`_not_closed`, moved out of standard position."""
    q = conjugate_subspace(g, _mover(g, rng), _not_closed(g))
    assert coordinate_split(g, q) is None and not g.is_subalgebra(q)
    return q


# sl3@2 and pgl3@3 read the flag of J(A(q)); the others that of [q, q n q^perp]
@pytest.mark.parametrize("fam,n,p", [("sl", 4, 5), ("sp", 4, 5), ("so", 5, 7),
                                     ("sl", 3, 2), ("pgl", 3, 3)])
def test_non_subalgebras_reach_the_frame_and_still_raise(fam, n, p, tmp_path,
                                                         capsys, monkeypatch):
    # a subspace that no standard parabolic certifies, on the coordinate
    # split or off it, is tested after its frame: the frame, its inverse
    # and the conjugate raise nothing on a non-closed q, and the one
    # subalgebra gate refuses it before a verdict
    from morozov.cli import EXIT_INPUT, main
    from morozov.radicals import InputError
    from morozov.serialize import canonical_json, subspace_to_dict
    g = build(fam, n, p)
    rng = random.Random(n * p)
    inputs = [_moved_not_closed(g, rng), _not_closed(g)]
    if fam == "sl":
        # no frame: the trace form is nondegenerate on <e12, f12>, and at
        # p = 2 its envelope is semisimple
        inputs.append(conjugate_subspace(g, _mover(g, rng), g.subspace(
            [g.element_by_label(x).coords for x in ("e12", "f12")])))
    frames = []
    real_flag_frame = parabolic.flag_frame
    monkeypatch.setattr(parabolic, "flag_frame", lambda g, q: frames.append(
        real_flag_frame(g, q)) or frames[-1])
    path = tmp_path / "q.json"
    argv = ["parabolic", "detect", "--family", fam, "--n", str(n), "--p",
            str(p), "--subspace", str(path)]
    for q in inputs:
        with pytest.raises(InputError, match="^input is not a subalgebra$"):
            detect_parabolic(g, q)
        path.write_text(canonical_json(subspace_to_dict(q)))
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr() == ("", "input error: input is not a "
                                           "subalgebra\n")
    # every input reaches flag_frame; the first two have q n q^perp != 0,
    # and flag_frame builds their frames
    assert len(frames) == 2 * len(inputs)
    assert None not in frames[:4] and frames[0] == frames[1]
    if fam == "sl":
        assert frames[4] is None


def _nil_oracle(g, q):
    """(I, N) for I = q n q^perp and N = [q, I] from all d * dim I
    brackets, with no early stop."""
    ideal = kernel(trace_gram([g.linear_lift(list(v)) for v in q.basis],
                              g.p))
    ideal = Subspace.from_vectors([q.combine(c) for c in ideal.basis],
                                  g.dim, g.p)
    return ideal, Subspace.from_vectors(
        [g.bracket_vec(list(x), list(y)) for x in q.basis for y in ideal.basis],
        g.dim, g.p)


@pytest.mark.parametrize("fam,n,p", [
    (fam, n, p) for fam, n in (("sl", 3), ("sl", 4), ("sp", 4), ("so", 5))
    for p in (5, 7)] + [("pgl", 3, 5)])
def test_nil_maps_stop_at_dim_i_with_the_span_and_flag_of_all_brackets(
        fam, n, p):
    # conjugated parabolics (N = I), Levis (I = 0) and the closures of a
    # random element of the Levi and one of the nilradical, and of two of
    # the nilradical, moved alike (some with dim N = dim I - 1): the early
    # stop spans the N of every bracket, so the flag frame reads the same
    # flag, and N lies in I on each
    g = build(fam, n, p)
    rng = random.Random(10 * n + p)
    inputs = []
    for chosen in _subsets(g):
        w, data = _mover(g, rng), standard_parabolic(g, chosen)
        q, levi, u = (conjugate_subspace(g, w, data[key])
                      for key in ("parabolic", "levi", "nilradical"))
        inputs += [q, levi] + [g.subalgebra_closure(
            [g.element(s.combine([rng.randrange(p) for _ in s.basis]))
             for s in gens]) for gens in ((levi, u), (u, u))]
    full = Subspace.full(g.realization.n, p)
    stops = set()
    for q in inputs:
        ideal, nil = _nil_oracle(g, q)
        assert ideal.contains(nil)
        maps = parabolic._nil_maps(g, q)
        span = Subspace.from_vectors([f.__self__.entries for f in maps],
                                     g.realization.n ** 2, p)
        lifts = [g.linear_lift(list(v)) for v in nil.basis]
        assert span == Subspace.from_vectors([m.entries for m in lifts],
                                             g.realization.n ** 2, p)
        assert image_flag(full, maps) == image_flag(
            full, [m.matvec for m in lifts])
        stops.add(ideal.dim - nil.dim)
    # the stop at dim I and spans below it, one short among them
    assert {0, 1} <= stops and max(stops) > 1


def _similitude(g):
    """On sp and so at odd p, the diagonal similitude P^T J P = 4J: 4 on
    the first half of the flag order, 1 on the second, 2 in the middle of
    so_(2m+1)."""
    n, k = g.realization.n, g.realization.n // 2
    diag = [4] * k + [2] * (n % 2) + [1] * k
    return FieldMatrix(n, n, g.p, [diag[i] if i == j else 0
                                   for i in range(n) for j in range(n)])


# pgl with p | n on pgl3@3 and pgl4@2; the frames at p = 2 read J(A(q))
@pytest.mark.parametrize("fam,n,p", [
    ("sl", 3, 2), ("sl", 4, 3), ("sl", 3, 5), ("sl", 4, 7), ("gl", 3, 2),
    ("gl", 3, 5), ("pgl", 3, 5), ("pgl", 3, 3), ("pgl", 4, 2), ("sp", 4, 2),
    ("sp", 4, 3), ("sp", 6, 5), ("so", 5, 3), ("so", 6, 5), ("so", 7, 7)])
def test_frame_images_match_dense_conjugation(fam, n, p):
    # frames: the flag frames of conjugated parabolics, seeded movers and,
    # on sp and so at odd p, a similitude with c != 1; inputs P s P^-1 for
    # standard parabolics and Levis (full torus), a nilradical plus a torus
    # unit or a seeded torus vector (a proper torus part: the solve over
    # t), seeded subspaces that are not split, and 0
    from morozov.liealg import split_sum
    from morozov.parabolic import flag_frame, frame_images, frame_span, \
        moved_split
    g = build(fam, n, p)
    rng = random.Random(f"images:{fam}{n}@{p}")
    t = len(g.frame.torus_indices)
    proper = _subsets(g)[:-1]
    frames = [flag_frame(g, conjugate_subspace(
        g, _mover(g, rng), standard_parabolic(g, chosen)["parabolic"]))
        for chosen in rng.sample(proper, min(2, len(proper)))]
    frames += [_mover(g, rng) for _ in range(2)]
    if g.frame.form is not None and p > 2:
        frames.append(_similitude(g) @ _mover(g, rng))
    assert None not in frames
    seen = {"full": 0, "partial": 0, "none": 0, "zero": 0}
    for P in frames:
        inverse = P.inverse()
        images = frame_images(g, (P, inverse))
        assert images == [g.coordinates_of_matrix(P @ m @ inverse)
                          for m in g.realization.mats]
        splits = []
        for chosen in rng.sample(proper, min(2, len(proper))):
            data = standard_parabolic(g, chosen)
            splits += [coordinate_split(g, data[role])
                       for role in ("parabolic", "levi")]
            lines = coordinate_split(g, data["nilradical"])[1]
            vec = [rng.randrange(p) if i < t else 0 for i in range(g.dim)]
            splits += [(g.subspace([g.unit(0)]), lines),
                       (g.subspace([vec]), lines)]
        inputs = [conjugate_subspace(g, P, split_sum(g, lines, torus), inverse)
                  for torus, lines in splits]
        for _ in range(2):
            r = g.subspace([[rng.randrange(p) for _ in range(g.dim)]
                            for _ in range(3)])
            assert coordinate_split(g, r) is None
            inputs.append(conjugate_subspace(g, P, r, inverse))
        inputs.append(g.subspace([]))
        for s in inputs:
            found = moved_split(g, images, s)
            assert found == coordinate_split(
                g, conjugate_subspace(g, inverse, s, P))
            if found is None:
                seen["none"] += 1
                continue
            seen["zero" if not s.dim else "full" if found[0].dim == t
                 else "partial"] += 1
            assert frame_span(g, images, found) == s == conjugate_subspace(
                g, P, split_sum(g, found[1], found[0]), inverse)
    assert all(seen.values()), seen


@pytest.mark.parametrize("fam,n,p", [("sl", 4, 5), ("sp", 4, 5), ("so", 5, 7)])
def test_detection_forms_no_matrix_product(fam, n, p, monkeypatch):
    # a conjugated parabolic is certified from its flag frame's images of
    # g's basis (`parabolic.frame_images`), with no conjugate of q: at odd
    # p, off type A with p | n, detection multiplies no matrices
    g = build(fam, n, p)
    rng = random.Random(f"products:{fam}{n}@{p}")
    qs = [conjugate_subspace(g, _mover(g, rng), standard_parabolic(
        g, chosen)["parabolic"]) for chosen in _subsets(g)[:-1]]
    products = []
    real = FieldMatrix.__matmul__
    monkeypatch.setattr(FieldMatrix, "__matmul__", lambda a, b: products.append(
        1) or real(a, b))
    verdicts = [detect_parabolic(g, q) for q in qs]
    monkeypatch.undo()
    assert all(v.status == "parabolic" for v in verdicts)
    assert sum(bool(v.details.get("frame_translate")) for v in verdicts) >= 2
    assert products == []
