"""JSON schemas and canonical serialization.

Algebra files carry the structure constants and the realization; when the
optional family stamp is present the loader rebuilds through the standard
constructor and cross-checks, which also restores the torus frame needed
by the cocharacter optimizer.  All emission goes through canonical_json so
identical inputs give byte-identical outputs."""

from __future__ import annotations

import json

from .gfp import FieldMatrix, Subspace
from .liealg import LieAlgebra, Realization, build

SCHEMA_VERSION = 1


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def algebra_to_dict(g: LieAlgebra) -> dict:
    sc = []
    for (i, j), coords in sorted(g.structure_constants().items()):
        for k, c in enumerate(coords):
            if c:
                sc.append([i, j, k, c])
    out = {
        "schema": SCHEMA_VERSION,
        "p": g.p,
        "dim": g.dim,
        "labels": list(g.labels),
        "sc": sc,
        "realization": {
            "n": g.realization.n,
            "mats": [m.to_rows() for m in g.realization.mats],
            "mod_scalars": g.realization.mod_scalars,
        },
    }
    if g.family is not None and g.frame is not None:
        out["family"] = {"name": g.frame.family, "n": g.frame.n}
    return out


def algebra_from_dict(data: dict) -> LieAlgebra:
    p = data["p"]
    fam = data.get("family")
    if fam:
        # the sp frame records the rank k while build takes the matrix size 2k
        size = 2 * fam["n"] if fam["name"] == "sp" else fam["n"]
        g = build(fam["name"], size, p)
    else:
        real = data["realization"]
        mats = tuple(FieldMatrix.from_rows(rows, p) for rows in real["mats"])
        g = LieAlgebra(p, data["labels"],
                       Realization(real["n"], mats, real["mod_scalars"]))
    check = algebra_to_dict(g)
    for key in ("p", "dim", "labels", "sc", "realization"):
        if check[key] != data[key]:
            raise ValueError(f"algebra file inconsistent at field {key!r}")
    return g


def subspace_to_dict(s: Subspace) -> dict:
    return {"schema": SCHEMA_VERSION, "ambient_dim": s.ambient_dim, "p": s.p,
            "basis": [list(r) for r in s.basis]}


def subspace_from_dict(data: dict, g: LieAlgebra = None) -> Subspace:
    p = data["p"]
    dim = data["ambient_dim"]
    if g is not None and (p != g.p or dim != g.dim):
        raise ValueError("subspace does not match the algebra")
    return Subspace.from_vectors(data.get("basis", []), dim, p)
