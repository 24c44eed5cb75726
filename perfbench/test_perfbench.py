"""Self-tests of the benchmark: input generators, the tracer, the tail
percentile rule and the host-speed probe."""

import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import calib  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from morozov import gfp, kempf, liealg, parabolic, radicals, tower  # noqa: E402
from morozov.liealg import build, conjugate_subspace  # noqa: E402
from morozov.serialize import subspace_from_dict  # noqa: E402


def _inputs(workload, seed):
    for case in workloads.generate(workload, seed):
        g = build(*case["alg"])
        yield case, g, subspace_from_dict(case["input"], g)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload):
    assert workloads.generate(workload, 3) == workloads.generate(workload, 3)
    ids = [c["id"] for c in workloads.generate(workload, 3)]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("workload", ["tower-seeded", "detect-general"])
def test_seeded_inputs_follow_the_seed(workload):
    one = {c["id"] for c in workloads.generate(workload, 1)}
    two = {c["id"] for c in workloads.generate(workload, 2)}
    assert one != two


@pytest.mark.parametrize("workload", ["tower-std", "tower-seeded"])
def test_tower_inputs_are_p_nil_subalgebras(workload):
    for case, g, u in _inputs(workload, 5):
        # raises unless u is a p-closed subalgebra of p-nilpotent elements;
        # the small budget keeps the big inputs to a basis check
        tower.check_tower_input(g, u, budget=10 ** 4)


def test_kempf_inputs_are_in_the_search_class():
    for case, g, u in _inputs("kempf-opt", 5):
        kempf.check_search_class(g, u, budget=10 ** 3)


def test_detect_inputs_are_subalgebras():
    for case, g, q in _inputs("detect-general", 5):
        assert g.is_subalgebra(q)
        assert case["role"] in ("parabolic", "levi")


@pytest.mark.parametrize("alg", [("sl", 3, 5), ("sp", 4, 5), ("so", 5, 5),
                                 ("sl", 4, 7)])
def test_root_group_words_normalise_g(alg):
    g = build(*alg)
    rng = random.Random(0)
    for _ in range(3):
        w = workloads.root_group_word(g, rng)
        assert conjugate_subspace(g, w, g.full_space()) == g.full_space()


def _traced(fn):
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        return fn(), tracer
    finally:
        tracer.uninstall()


def test_traced_and_untraced_answers_agree():
    for workload in ("tower-seeded", "detect-general"):
        cases = [c for c in workloads.generate(workload, 4)
                 if c["alg"] == ["sp", 4, 5]][:3]
        plain = [workloads.run_case(workload, c, 4) for c in cases]
        traced, tracer = _traced(
            lambda: [workloads.run_case(workload, c, 4) for c in cases])
        assert traced == plain
        assert tracer.counts["liealg.bracket.calls"] > 0
    assert not hasattr(radicals.is_p_nilpotent, "__wrapped__")
    assert not hasattr(liealg.LieAlgebra.bracket_vec, "__wrapped__")


def test_rebinding_reaches_from_imports():
    originals = (gfp.kernel, gfp.rref)

    def check():
        assert liealg.kernel is gfp.kernel is radicals.kernel
        assert parabolic.rref is gfp.rref is radicals.rref
        g = build.__wrapped__("sl", 3, 5)          # fresh memo
        q = liealg.standard_borel(g)["parabolic"]
        calls = {}
        for name, call in [
                ("liealg", lambda: g.normalizer(liealg.standard_borel(g)["nilradical"])),
                ("radicals", lambda: radicals.SubView(radicals.AmbientView(g),
                                                      q).killing_kernel()),
                ("parabolic", lambda: parabolic.iso_invariants(g, q))]:
            before = dict(tracer.counts)
            call()
            calls[name] = {k: tracer.counts[k] - before.get(k, 0)
                           for k in ("gfp.kernel.calls", "gfp.rref.calls")}
        return calls

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        calls = check()
    finally:
        tracer.uninstall()
    assert calls["liealg"]["gfp.kernel.calls"] >= 1
    assert calls["radicals"]["gfp.kernel.calls"] >= 1
    assert calls["parabolic"]["gfp.rref.calls"] >= 1
    assert (gfp.kernel, gfp.rref) == originals
    assert liealg.kernel is gfp.kernel and parabolic.rref is gfp.rref


def test_self_time_splits_across_layers():
    g = build.__wrapped__("sp", 4, 5)
    u = liealg.standard_borel(g)["nilradical"]
    trace, tracer = _traced(lambda: tower.run_tower(g, u))
    assert trace.status == "stabilized"
    m = tracer.metrics(len(g._memo))
    assert m["tower.steps"] == len(trace.steps) - 1
    for layer in ("gfp", "liealg", "radicals", "tower"):
        assert m[f"{layer}.self_s"] > 0
    assert m["radicals.path.structured"] >= 1
    assert set(layertrace.METRICS) - set(m) == {"trace.overhead_s"}


@pytest.mark.parametrize("n, index", [(1, 0), (10, 0), (11, 0), (12, 1),
                                      (21, 10), (248, 237)])
def test_tail_index(n, index):
    assert run.tail_index(n) == index


def test_tail_picks_the_order_statistic_with_ten_beyond():
    times = [float(x) for x in range(1, 31)]
    random.Random(0).shuffle(times)
    value, pct, beyond = run.tail(times)
    assert value == 20.0 and beyond == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert sum(t > value for t in times) == 10


def test_hd_quantile_weights_the_order_statistics_around_the_rank():
    values = [float(x) for x in range(101)]
    random.Random(1).shuffle(values)
    assert run.hd_quantile(values, 0.5) == pytest.approx(50.0)
    assert run.hd_quantile([3.0] * 7, 0.677) == pytest.approx(3.0)
    assert 70.0 < run.hd_quantile(values, 0.75) < 80.0
    assert run._incomplete_beta(2, 3, 0.4) == pytest.approx(0.5248)


def test_sampler_slices_while_work_runs_and_accounts_for_them():
    sampler = calib.Sampler(calib.Probe())
    sampler.start()
    try:
        end = time.process_time() + 4 * calib.PROBE_EVERY_S
        while time.process_time() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.slices) >= 2
    assert sampler.busy_s >= sum(sampler.slices) > 0


def test_scale_reads_reference_speed_as_one():
    assert calib.scale([calib.REFERENCE_S] * calib.SLICES) == 1.0
    assert calib.scale([2 * calib.REFERENCE_S] * calib.SLICES) == 0.5
