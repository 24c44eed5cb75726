"""Byte-identity of engine output: the SHA-1 of the canonical JSON of
every built algebra, of a few payloads and of the payloads of every
benchmark case at seeds 0, 1 and 2, pinned so that a change to the
construction or to the calculus underneath (the bracket, ad, the linear
algebra) that alters any matrix, structure constant, verdict, witness or
basis shows here."""

import hashlib
import importlib.util
import random
from pathlib import Path

import pytest

from morozov import kempf, parabolic, tower
from morozov.gfp import FieldMatrix
from morozov.liealg import build, conjugate_subspace, standard_parabolic
from morozov.serialize import algebra_to_dict, canonical_json


def _sha1(payload) -> str:
    return hashlib.sha1(canonical_json(payload).encode()).hexdigest()


# every size build accepts: at p = 5 for every family, at p = 2 for gl, sl,
# pgl and sp, and at p = 3 for so, which is not built at p = 2
ALGEBRA_PINS = {
    ("gl", 2, 5): "d818932073002517a1f78b45f2ae7808e1665f13",
    ("gl", 3, 5): "969ddff9b4a1f32968d6d49a10e4af0d3df7e9ec",
    ("gl", 4, 5): "4b48bffa8c7433e451996e48b994377d97f9d4f5",
    ("gl", 5, 5): "e88870540c95a442a56b2c3f558c2e9e9520c65e",
    ("gl", 6, 5): "c2a2a0c73a96ae91dc953e3f6bc6bad89984a958",
    ("gl", 7, 5): "5c96c73dcae50ee03a59f4eeeadcd362c165ad2f",
    ("gl", 8, 5): "b06b52c0ac571a6cbd9f3aa6369aaa22f93d5d29",
    ("sl", 2, 5): "86037e46e889904385b5c4054367f6661b748680",
    ("sl", 3, 5): "8525d6fe9a916b6f8b7301f091daf8843f672f99",
    ("sl", 4, 5): "3523702ceb55fbda9c38c4c7406209f244d1314e",
    ("sl", 5, 5): "dd4f8553b7a6dfa0ee2d1ccd7c8801fed8b0f314",
    ("sl", 6, 5): "4eeec022581cf5a35c09d6874a36a289e4fb05e1",
    ("sl", 7, 5): "bff1d6abaf0d2323ef4aa0ab4f7c4777f73d16e8",
    ("sl", 8, 5): "ab3d60c2e7f6781b5df9d1bfd870968deb04da1e",
    ("pgl", 2, 5): "cafd9b13314cb10c89e7b39fce82888f79bffda0",
    ("pgl", 3, 5): "ad488378ae5816c1582062aad78e47186182cd51",
    ("pgl", 4, 5): "53b5fcdf09ee7fe69520eef72f97385422a1ee10",
    ("pgl", 5, 5): "6bc42fb720cd9e481560dcab43368cd5696561f5",
    ("pgl", 6, 5): "50df5b6a9d2834a98c556b250e6b729aed9616eb",
    ("pgl", 7, 5): "5d1d5682a0ebf191ab1b624c1809b6dfb90ef3d2",
    ("pgl", 8, 5): "34e23483312088cef5c434f0baa725d7cedd8cb5",
    ("sp", 4, 5): "c3a94cef95b9468a00320a93e0cbd1d24b6cc35d",
    ("sp", 6, 5): "c39efe65e525f59950c03835f7df523f0415561a",
    ("sp", 8, 5): "3d59164a5abf87c965ac1d6a1217d97f9e65ca30",
    ("sp", 10, 5): "fe834cd4d601ef652606e79024da7441b17c41ae",
    ("so", 5, 5): "67368529fad62d0600e391ff7ecf88a6a8d45c4f",
    ("so", 6, 5): "057650c3f013e248b8443c61e1ad90d834c6a4e0",
    ("so", 7, 5): "8b51c0018f13ab7791f2e233ecc48e51b9e87d57",
    ("so", 8, 5): "4ce9503705486e7a1dd541f90d4e38c4aa99a83d",
    ("so", 9, 5): "b08c5fc004e4e779a3845007ea81d7046f820625",
    ("so", 10, 5): "ba9861e8cdf9f6ae7a91b98e0446afe48b5b1e0e",
    ("so", 11, 5): "82d0d586a27d8bf1002a0076c5237c33b4de035d",
    ("gl", 2, 2): "6a4e370d8f92a3bf286336ddea66c4f7d2f771dc",
    ("gl", 3, 2): "b16f74ce72e0a4ef87ad530b84a01a23525a1306",
    ("gl", 4, 2): "6c0618f8f81f9e5d165d1988906ca2afc753661a",
    ("gl", 5, 2): "ff1d3d96fc8b3a5ac0f9b33bd13750959a2e7a22",
    ("gl", 6, 2): "aa6e9dd7cb3d7803e44d3008a2f34bb546c05713",
    ("gl", 7, 2): "3b555256afdd0411061c08b434c7265fbfe485cc",
    ("gl", 8, 2): "253eb6d424b071d430ef8632845923a68ffdfa1c",
    ("sl", 2, 2): "310f4c045fea6276371ab8d2dc47b28d6d22dd0b",
    ("sl", 3, 2): "97eb1df89950e69c29df5b15365a75a2e50e569b",
    ("sl", 4, 2): "c4df613811f0764f6e31cfe44b1d70a9d2c3307a",
    ("sl", 5, 2): "767964a1bed1f43ed1a55aa1480aed101b58253b",
    ("sl", 6, 2): "19e707615f9a431920cce5a4c29ed80e55fe7562",
    ("sl", 7, 2): "0c70d8209c87fabb3840c1ac44c8f7db766c1e9a",
    ("sl", 8, 2): "2b1e62e2072b5404b03769191e6cada86a5b9fb9",
    ("pgl", 2, 2): "8c608b234498208cb33c6fdc9532c73b6eeb2db1",
    ("pgl", 3, 2): "dcf20f9c718dd5558d27ce60b02104661f4ca0ff",
    ("pgl", 4, 2): "b184a063d9512c3413e35626a14690aed7aacd23",
    ("pgl", 5, 2): "a03e46b7f5ca21c5394ed445f084b00674542017",
    ("pgl", 6, 2): "6fa60e7e22f14bb39d6b2860b5017a197e00f6ef",
    ("pgl", 7, 2): "75e3f1c63e32d71532c9b936fe4b7e1b386d3eb6",
    ("pgl", 8, 2): "0d53d8da331834f19f06b6ad6ef489b5dbfec7ae",
    ("sp", 4, 2): "3664220bdfff1092f83541f4ce79e8a5f5e89254",
    ("sp", 6, 2): "12ee8a4368bb46d8f5051aaaac9f13b840468167",
    ("sp", 8, 2): "78f153a5969a712fed0bb378c061a98be12ca921",
    ("sp", 10, 2): "c92193fae09bce16407306414ba9fd0aa7139126",
    ("so", 5, 3): "a6ffe22a370c0b14d5e1b406e9e616d75d3db7d4",
    ("so", 6, 3): "06b1eb93f3a24e184cc54c8f93d58aac4bf12222",
    ("so", 7, 3): "4f745d4bdd7ac935d644aa9c23adb6d40fabb0f5",
    ("so", 8, 3): "3fd273bb4de01601b7cf69182a3c6d1f2147af08",
    ("so", 9, 3): "679f0e3728259de128b60c1ac2142ea7826498fe",
    ("so", 10, 3): "f7b66f4239efc7571640a0f5400f66a4c8bc5682",
    ("so", 11, 3): "b35c0d0f0127de7ca6ea6add6b3e0ac92b8d6eeb",
}


@pytest.mark.parametrize("alg", list(ALGEBRA_PINS),
                         ids=lambda alg: "{}{}@{}".format(*alg))
def test_algebra_payload(alg):
    assert _sha1(algebra_to_dict(build(*alg))) == ALGEBRA_PINS[alg]


def _root_group_word(g, rng):
    """exp(t x_-a) and then exp(t x_a) over the simple roots a, each
    t != 0 from rng."""
    w = FieldMatrix.identity(g.realization.n, g.p)
    simples = g.frame.rootdatum.simple_roots
    for root in [tuple(-x for x in a) for a in simples] + list(simples):
        v = [0] * g.dim
        v[g.frame.root_index[tuple(root)]] = rng.randrange(1, g.p)
        w = w @ g.exp_trunc(g.element(v))
    return w


def _tower_payload(alg, chosen):
    g = build(*alg)
    trace = tower.run_tower(g, standard_parabolic(g, chosen)["nilradical"])
    report = tower.verify_morozov(g, trace)
    return {"trace": trace.as_dict(), "verification": report.as_dict()}


def test_tower_payload_sl4_at_5():
    assert _sha1(_tower_payload(("sl", 4, 5), (1,))) == \
        "de680513c55a8a05e3d3dd8750e5ce87124730e1"


def test_tower_payload_so5_at_7():
    assert _sha1(_tower_payload(("so", 5, 7), (0,))) == \
        "9e3a940dbaaa20ca4661c6d0fa746f7f70f8f395"


@pytest.mark.parametrize("role,digest", [
    ("parabolic", "142ba98119815bc8ee02f4e3de7d2894beac3f57"),   # Witt frame
    ("levi", "f0ad9d28ff6041c8888e7944b5b8b56b9bdcb332"),        # not-parabolic
])
def test_detect_payload_conjugated_sp4_at_7(role, digest):
    g = build("sp", 4, 7)
    q = standard_parabolic(g, (0,))[role]
    moved = conjugate_subspace(g, _root_group_word(g, random.Random(3)), q)
    verdict = parabolic.detect_parabolic(g, moved)
    assert _sha1({"verdict": verdict.as_dict()}) == digest


@pytest.mark.parametrize("chosen,role,digest", [
    ((0,), "levi", "1cd67adee0277d27c495b02686a3d6a1c440a971"),
    ((), "nilradical", "2d94f9ef78fbbefd78cd9f1bf4e80cfec7bdaa75"),
])
def test_detect_payload_conjugated_sl4_at_5(chosen, role, digest):
    # not-parabolic by the type-A frame certificate; the Borel nilradical's
    # verdict carries the frame
    g = build("sl", 4, 5)
    q = standard_parabolic(g, chosen)[role]
    moved = conjugate_subspace(g, _root_group_word(g, random.Random(3)), q)
    verdict = parabolic.detect_parabolic(g, moved)
    assert _sha1({"verdict": verdict.as_dict()}) == digest


def test_kempf_payload_sp6_at_7():
    g = build("sp", 6, 7)
    u = standard_parabolic(g, (0,))["nilradical"]
    cert = kempf.optimize(g, u)
    report = kempf.verify_obstruction(g, u, cert)
    assert _sha1({"certificate": cert.as_dict(), "obstruction": report}) == \
        "6c67c6c80395e7f5f3d9aa0d09f9150264c5e6b8"


def _workloads():
    """perfbench/workloads.py, loaded from its file without touching
    sys.path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# SHA-1 of the payload text of every case of a benchmark workload at a
# seed, each followed by a newline, in case order
WORKLOAD_PINS = {
    ("tower-std", 0): "7a88d6f350cb38d019c163527ac683ce9a0116df",
    ("tower-std", 1): "c36dd60788af4f163263b151852c2004158bce97",
    ("tower-std", 2): "26705ee1ed1fdd47439109468aac030aab1534a7",
    ("tower-seeded", 0): "09351511cd7b22e8fd668a16246f947282350aae",
    ("tower-seeded", 1): "ac88ffa9f59aae158e36d7f8bda856ce8054960e",
    ("tower-seeded", 2): "e643c1c729f26cf0729ef5395d7f9b94417a1868",
    ("detect-general", 0): "e6902a76b12c4e7504c9322aab2a705d45c3fabe",
    ("detect-general", 1): "fd03df73e1a66f108a58567911591ae36273969e",
    ("detect-general", 2): "647b580764aabecff5b86b58237ee7ba4a04b3f8",
    ("kempf-opt", 0): "4be5bd8979d1f1b81e3117300dfe8e0724cfb2bc",
    ("kempf-opt", 1): "813effa7fdd2e3eb3afc6bb49da5d26b9622282c",
    ("kempf-opt", 2): "7637cbe6c5372323d8d8a314e38001739ed1f13d",
}


@pytest.mark.parametrize("workload,seed", list(WORKLOAD_PINS),
                         ids=[f"{w}@{seed}" for w, seed in WORKLOAD_PINS])
def test_benchmark_payloads(workload, seed):
    workloads = _workloads()
    digest = hashlib.sha1()
    for case in workloads.generate(workload, seed):
        text, _ = workloads.run_case(workload, case, seed)
        digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == WORKLOAD_PINS[workload, seed]
