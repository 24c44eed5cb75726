import importlib.util
import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from morozov.kempf import (AlphaResult, Cocharacter, OptimalityCertificate,
                           alpha, check_certificate, optimize,
                           parabolic_from_cochar, support_weights,
                           verify_obstruction, weights)
from morozov.liealg import build, standard_borel, standard_parabolic
from morozov.rootdata import min_norm_point, simple_subsets
from morozov.serialize import subspace_from_dict


def line(g, label):
    return g.subspace([g.element_by_label(label).coords])


def test_weights_sl3():
    g = build("sl", 3, 5)
    lam = Cocharacter((1, 0, -1))
    w = weights(g, lam)
    assert w[g.labels.index("e12")] == 1
    assert w[g.labels.index("e13")] == 2
    assert w[g.labels.index("e23")] == 1
    assert w[g.labels.index("f13")] == -2
    for i in g.frame.torus_indices:
        assert w[i] == 0
    assert all(v == 0 for v in weights(g, Cocharacter((0, 0, 0))))


def test_weights_additive_on_brackets():
    g = build("sp", 4, 5)
    lam = Cocharacter((2, 1))
    w = weights(g, lam)
    for i, ri in g.frame.index_root.items():
        for j, rj in g.frame.index_root.items():
            s = tuple(a + b for a, b in zip(ri, rj))
            if s in g.frame.root_index:
                k = g.frame.root_index[s]
                ui = [1 if t == i else 0 for t in range(g.dim)]
                uj = [1 if t == j else 0 for t in range(g.dim)]
                if any(g.bracket_vec(ui, uj)):
                    assert w[k] == w[i] + w[j]


def test_alpha_examples():
    g = build("sl", 3, 5)
    lam = Cocharacter((1, 0, -1))
    n = standard_borel(g)["nilradical"]
    assert alpha(g, lam, n) == AlphaResult("ok", 1)
    assert alpha(g, lam, line(g, "e13")) == AlphaResult("ok", 2)
    assert alpha(g, lam, line(g, "f12")).status == "no-limit"
    mixed = standard_parabolic(g, (1,))["parabolic"]
    assert alpha(g, lam, mixed).status == "no-limit"
    lam2 = Cocharacter((1, 1, -2))
    assert alpha(g, lam2, line(g, "e12")).status == "zero-weight"


def test_optimize_nilradical_of_borel():
    g = build("sl", 3, 5)
    n = standard_borel(g)["nilradical"]
    cert = optimize(g, n)
    assert cert.lam == Cocharacter((1, 0, -1))
    assert cert.alpha == 1
    assert cert.active == ((0, 1, -1), (1, -1, 0))
    assert cert.mu == (Fraction(1, 2), Fraction(1, 2))
    check_certificate(g, n, cert)
    parts = parabolic_from_cochar(g, cert.lam)
    assert parts["parabolic"] == standard_borel(g)["parabolic"]
    assert parts["nilradical"] == n


def _kempf_opt_cases():
    """The cases of the benchmark's kempf-opt sweep, from
    perfbench/workloads.py loaded without touching sys.path."""
    path = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  path / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate("kempf-opt", 0)


def test_parabolic_from_cochar_matches_the_weight_sign_spans():
    # Kempf's lambda on every nilradical of the kempf-opt sweep: the split
    # of {alpha : <lambda, alpha> >= 0} by `liealg.parabolic_parts` gives
    # the spans of the units of weight >= 0 (p(lambda)), > 0 (u(lambda))
    # and = 0 (the Levi part), together and each asked for alone
    for case in _kempf_opt_cases():
        g = build(*case["alg"])
        lam = optimize(g, subspace_from_dict(case["input"], g)).lam
        w = weights(g, lam)

        def span(keep):
            return g.subspace([g.unit(i) for i in range(g.dim) if keep(w[i])])
        oracle = {"parabolic": span(lambda x: x >= 0),
                  "nilradical": span(lambda x: x > 0),
                  "levi": span(lambda x: x == 0)}
        assert parabolic_from_cochar(g, lam) == oracle, case["id"]
        for key, part in oracle.items():
            assert parabolic_from_cochar(g, lam, key) == {key: part}


def test_optimize_e13():
    g = build("sl", 3, 5)
    cert = optimize(g, line(g, "e13"))
    assert cert.lam == Cocharacter((1, 0, -1))
    assert cert.alpha == 2
    rep = verify_obstruction(g, line(g, "e13"), cert)
    assert rep["u_in_u_lambda"]
    assert rep["normalizer_equals_p_lambda"]
    assert not rep["u_equals_u_lambda"]


def test_optimize_sl2():
    g = build("sl", 2, 5)
    cert = optimize(g, line(g, "e12"))
    assert cert.lam == Cocharacter((1, -1))


def test_optimize_maximal_parabolic():
    g = build("sl", 3, 5)
    data = standard_parabolic(g, (1,))
    cert = optimize(g, data["nilradical"])
    assert cert.lam == Cocharacter((2, -1, -1))
    rep = verify_obstruction(g, data["nilradical"], cert)
    assert rep["normalizer_equals_p_lambda"] and rep["u_equals_u_lambda"]
    parts = parabolic_from_cochar(g, cert.lam)
    assert parts["parabolic"] == data["parabolic"]


def test_optimize_sp4():
    g = build("sp", 4, 5)
    data = standard_parabolic(g, (0,))
    cert = optimize(g, data["nilradical"])
    rep = verify_obstruction(g, data["nilradical"], cert)
    assert rep["normalizer_equals_p_lambda"] and rep["u_equals_u_lambda"]


def test_scaling_invariance_and_indivisibility():
    g = build("sl", 3, 5)
    n = standard_borel(g)["nilradical"]
    lam = Cocharacter((1, 0, -1))
    for k in (2, 3):
        scaled = lam.scale(k)
        a1 = alpha(g, lam, n).value
        ak = alpha(g, scaled, n).value
        assert ak == k * a1
        assert ak * ak * lam.norm_sq == a1 * a1 * scaled.norm_sq
    assert Cocharacter((2, 0, -2)).indivisible() == lam


def test_certificate_sl2_and_sp4():
    # sum-zero slice for sl, the full lattice for sp; the dictionary
    # carries the active weights and their barycentric weights as strings
    g = build("sl", 2, 5)
    cert = optimize(g, line(g, "e12"))
    assert cert.active == ((1, -1),) and cert.mu == (1,)
    assert cert.as_dict() == {"lambda": [1, -1], "alpha": 2, "ratio_sq": "2",
                              "active_weights": [[1, -1]], "mu": ["1"]}
    g4 = build("sp", 4, 5)
    n4 = standard_borel(g4)["nilradical"]
    cert4 = optimize(g4, n4)
    # the simple roots (1, -1) and (0, 2) span x = (3/5, 1/5): lambda = 2 rho
    assert cert4.lam == Cocharacter((3, 1))
    assert cert4.active == ((1, -1), (0, 2))
    assert cert4.mu == (Fraction(3, 5), Fraction(2, 5))
    assert cert4.as_dict()["mu"] == ["3/5", "2/5"]
    assert cert4.ratio_sq == Fraction(2 * 2, 10)
    check_certificate(g4, n4, cert4)


def test_norm_weyl_invariance():
    # permutations (type A) and signed permutations (type C) fix the norm
    lam = (3, -1, -2)
    import itertools
    for perm in itertools.permutations(lam):
        assert sum(c * c for c in perm) == sum(c * c for c in lam)
    lam2 = (2, -3)
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        for perm in itertools.permutations((0, 1)):
            v = tuple(signs[i] * lam2[perm[i]] for i in range(2))
            assert sum(c * c for c in v) == sum(c * c for c in lam2)


def test_optimum_outside_the_coxeter_ball():
    # both optima lie outside the ball ||lambda||^2 <= 4h^2 = 100, in which
    # a search returned (4, 4, 1, -3, -6) and (5, 1, 1, -2, -5)
    g = build("sl", 5, 7)
    h = g.frame.rootdatum.coxeter_number()
    for chosen, lam, ratio_sq in [((0,), (6, 6, 1, -4, -9), Fraction(5, 34)),
                                  ((1,), (7, 2, 2, -3, -8), Fraction(5, 26))]:
        cert = optimize(g, standard_parabolic(g, chosen)["nilradical"])
        assert cert.lam == Cocharacter(lam) and cert.ratio_sq == ratio_sq
        assert cert.lam.norm_sq > 4 * h * h


def test_borel_of_sl8_gives_two_rho():
    g = build("sl", 8, 13)
    cert = optimize(g, standard_borel(g)["nilradical"])
    assert cert.lam == Cocharacter((7, 5, 3, 1, -1, -3, -5, -7))
    assert cert.alpha == 2


def test_tampered_certificate_fails():
    g = build("sl", 5, 7)
    u = standard_parabolic(g, (0,))["nilradical"]
    cert = optimize(g, u)
    check_certificate(g, u, cert)
    mu = list(cert.mu)
    swapped = tuple([mu[1], mu[0]] + mu[2:])
    shifted = tuple([mu[0] + Fraction(1, 100), mu[1] - Fraction(1, 100)] + mu[2:])
    vertex = (cert.active[0],)
    tampered = [
        replace(cert, mu=swapped),                      # still sums to 1
        replace(cert, mu=shifted),
        replace(cert, mu=tuple(mu[:-1] + [mu[-1] + 1])),    # sum 2
        replace(cert, mu=tuple(m / 2 for m in mu)),     # x / 2: same ray
        replace(cert, mu=tuple(m / 2 for m in mu) + (Fraction(1, 2),)),
        replace(cert, active=cert.active + cert.active[:1] * 2,  # +e - e
                mu=cert.mu + (Fraction(1), Fraction(-1))),
        replace(cert, mu=tuple([-mu[0]] + mu[1:])),
        replace(cert, active=vertex, mu=(Fraction(1),)),    # a vertex only
        replace(cert, active=vertex, mu=(Fraction(1),),     # ... on its ray
                lam=Cocharacter(vertex[0])),
        replace(cert, active=((1, 0, 0, 0, -1),) + cert.active[1:]),
        replace(cert, active=tuple(tuple(Fraction(c, 2) for c in w)   # x / 2
                                   for w in cert.active)),
        replace(cert, lam=Cocharacter((4, 4, 1, -3, -6)), alpha=1,
                ratio_sq=Fraction(3, 26)),              # the ball's answer
        replace(cert, lam=cert.lam.scale(2), alpha=2 * cert.alpha),
    ]
    for bad in tampered:
        with pytest.raises(RuntimeError, match="Kempf certificate"):
            check_certificate(g, u, bad)


@pytest.mark.parametrize("family,n", [("sp", 10), ("so", 11)])
def test_certificate_check_on_the_reach(family, n):
    # every proper standard nilradical at p = 13: its certificate passes,
    # lambda doubled fails, and so do uniform weights on the active set
    # wherever they move x off the point of least norm
    g = build(family, n, 13)
    moved = 0
    for chosen in simple_subsets(g.frame.rootdatum.rank)[:-1]:
        u = standard_parabolic(g, chosen)["nilradical"]
        cert = optimize(g, u)
        check_certificate(g, u, cert)
        with pytest.raises(RuntimeError, match="Kempf certificate"):
            check_certificate(g, u, replace(cert, lam=cert.lam.scale(2)))
        k = len(cert.active)
        uniform = tuple(Fraction(1, k) for _ in cert.active)
        if _point(cert.active, uniform) != _point(cert.active, cert.mu):
            moved += 1
            with pytest.raises(RuntimeError, match="Kempf certificate"):
                check_certificate(g, u, replace(cert, mu=uniform))
    assert moved > 0


def _point(active, mu):
    return [sum(m * w[i] for m, w in zip(mu, active))
            for i in range(len(active[0]))]


def test_min_norm_point_drops_a_vertex():
    # from the vertex (4, 1) the hull of all three points holds no point of
    # the plane's least norm 0, so Wolfe's walk drops (4, 1) again
    active, mu, x = min_norm_point([(4, 1), (-3, 3), (5, -2)])
    assert x == [Fraction(45, 89), Fraction(72, 89)]
    assert sorted(active) == [(-3, 3), (5, -2)] and sum(mu) == 1
    assert min_norm_point([(1, -1), (-1, 1), (2, -2)])[2] == [0, 0]


def _ball_optimum(g, u, bound):
    """Brute force over the box [-r, r]^rank, r = isqrt(bound) (sum-zero
    for sl/pgl): the best alpha^2 / ||lam||^2 over the lattice vectors with
    ||lam||^2 <= bound and positive weight on every support root, and the
    set of indivisible vectors attaining it."""
    frame = g.frame
    roots = {frame.index_root[i] for row in u.basis
             for i, c in enumerate(row) if c}
    r = isqrt(bound)
    best, optima = Fraction(0), set()
    for v in itertools.product(range(-r, r + 1), repeat=frame.cochar_rank):
        n2 = sum(c * c for c in v)
        if (frame.sum_zero and sum(v)) or not 0 < n2 <= bound:
            continue
        a = min(sum(x * y for x, y in zip(v, root)) for root in roots)
        if a <= 0:
            continue
        ratio = Fraction(a * a, n2)
        if ratio >= best:
            if ratio > best:
                best, optima = ratio, set()
            optima.add(Cocharacter(v).indivisible())
    return best, optima


def _oracle_inputs(g, rng):
    """Every nonzero standard nilradical, then subalgebra closures of one
    or two seeded elements of the positive-root span."""
    out = []
    rank = g.frame.rootdatum.rank
    for mask in range(1 << rank):
        chosen = tuple(i for i in range(rank) if mask >> i & 1)
        u = standard_parabolic(g, chosen)["nilradical"]
        if u.dim:
            out.append(u)
    positives = g.frame.rootdatum.positive_roots

    def draw():
        v = [0] * g.dim
        for root in rng.sample(positives, rng.randint(1, 2)):
            v[g.frame.root_index[root]] = rng.randrange(1, g.p)
        return g.element(v)

    for k in range(4):
        out.append(g.subalgebra_closure([draw() for _ in range(1 + k % 2)]))
    return out


@pytest.mark.parametrize("fam,n,p", [
    ("sl", 3, 5), ("sl", 4, 5), ("gl", 3, 5), ("pgl", 3, 5), ("sp", 4, 5),
    ("so", 5, 5), ("sp", 6, 7), ("so", 7, 7)])
def test_optimize_matches_ball_search(fam, n, p):
    g = build(fam, n, p)
    h = g.frame.rootdatum.coxeter_number()
    rng = random.Random(f"kempf:{fam}{n}@{p}")
    for u in _oracle_inputs(g, rng):
        cert = optimize(g, u)
        best, optima = _ball_optimum(g, u, max(4 * h * h,
                                               cert.lam.norm_sq + 1))
        assert optima == {cert.lam}
        assert best == cert.ratio_sq
        assert not g.frame.sum_zero or sum(cert.lam.coords) == 0


def test_rejections():
    g = build("sl", 3, 5)
    with pytest.raises(ValueError):
        optimize(g, g.subspace([]))
    with pytest.raises(ValueError):
        optimize(g, line(g, "h1"))      # torus support
    with pytest.raises(ValueError):
        optimize(g, standard_borel(g)["parabolic"])   # not p-nil
    # mixed-sign support: 0 lies in the hull, no cocharacter is admissible
    from morozov.fixtures import ex2_subalgebra
    pgl3 = build("pgl", 3, 3)
    with pytest.raises(ValueError):
        optimize(pgl3, ex2_subalgebra(pgl3))
    # ... and a certificate for x = 0 is refused
    u = ex2_subalgebra(pgl3)
    active, mu, x = min_norm_point(support_weights(pgl3, u))
    assert not any(x)
    zero = OptimalityCertificate(Cocharacter((0, 0, 0)), 0, Fraction(0),
                                 tuple(active), tuple(mu))
    with pytest.raises(RuntimeError, match="Kempf certificate"):
        check_certificate(pgl3, u, zero)


def test_optimize_keeps_the_given_budget():
    # the p-nil check of a pgl input needs no budget: a small one given
    # by the caller, or None, leaves the answer as at the default
    g = build("pgl", 4, 5)
    nil = standard_borel(g)["nilradical"]
    assert optimize(g, nil, 10).lam == optimize(g, nil).lam
    assert optimize(g, nil, None).lam == optimize(g, nil).lam


def test_coordinate_split_inputs_make_no_elimination_past_the_kernels(
        monkeypatch):
    # the nilradicals of the benchmark's kempf-opt sweep on sp6@7 and
    # so7@7: their subspaces are canonical unit rows, adopted as they are,
    # so every row kept in an Echelon is one of the normaliser kernels'
    # (12 kernels of 21 columns); eliminating each basis again would keep
    # 984
    from morozov import gfp
    kept = []
    keep = gfp.Echelon._keep
    monkeypatch.setattr(gfp.Echelon, "_keep",
                        lambda self, v: kept.append(1) or keep(self, v))
    total = 0
    for fam, n in (("sp", 6), ("so", 7)):
        g = build.__wrapped__(fam, n, 7)        # no memo from other tests
        for chosen in [(), (0,), (1,), (0, 1), (2,), (0, 2)]:
            u = standard_parabolic(g, chosen)["nilradical"]
            kept.clear()
            verify_obstruction(g, u, optimize(g, u))
            total += len(kept)
    assert total <= 252
