"""Byte-identity of engine output: the SHA-1 of the canonical JSON of a
few payloads, pinned so that a change to the calculus underneath (the
bracket, ad, the linear algebra) that alters any verdict, witness or
basis shows here."""

import hashlib
import random

import pytest

from morozov import kempf, parabolic, tower
from morozov.gfp import FieldMatrix
from morozov.liealg import build, conjugate_subspace, standard_parabolic
from morozov.serialize import canonical_json


def _sha1(payload) -> str:
    return hashlib.sha1(canonical_json(payload).encode()).hexdigest()


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
        "442969fa542b6eb85d81a2df0c9929dc35980084"


def test_tower_payload_so5_at_7():
    assert _sha1(_tower_payload(("so", 5, 7), (0,))) == \
        "e2c9e31f70c59f4cb31e4464b169814a1ca4c2fb"


@pytest.mark.parametrize("role,digest", [
    ("parabolic", "c39f4b72502c97e6ac3026e504e6717b57eddbae"),   # undetermined
    ("levi", "5975dca696b8f704b8f715ea7b5d97d0d72b532c"),        # not-parabolic
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
