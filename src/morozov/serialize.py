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


def is_json_int(x) -> bool:
    """An integer of a JSON file: an int that is not a bool (true/false)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int_rows(rows, field: str) -> None:
    if not isinstance(rows, list):
        raise ValueError(f"field {field!r} is not a list of rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not all(map(is_json_int, row)):
            raise ValueError(f"field {field!r}: row {i} is not a list of integers")


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def algebra_to_dict(g: LieAlgebra) -> dict:
    sc = [[i, j, k, c] for (i, j), entries in
          sorted(g.structure_constants().items()) for k, c in entries]
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
        # the sp stamp records the rank k, the matrix size halved
        name, size = g.frame.family, g.realization.n
        out["family"] = {"name": name, "n": size // 2 if name == "sp" else size}
    return out


def algebra_from_dict(data: dict) -> LieAlgebra:
    p = data["p"]
    if not is_json_int(p):
        raise ValueError("field 'p' is not an integer")
    fam = data.get("family")
    if fam:
        # the sp stamp records the rank k while build takes the matrix size 2k
        size = 2 * fam["n"] if fam["name"] == "sp" else fam["n"]
        g = build(fam["name"], size, p)
    else:
        real = data["realization"]
        n = real["n"]
        if not is_json_int(n):
            raise ValueError("field 'realization.n' is not an integer")
        if not isinstance(real["mod_scalars"], bool):
            raise ValueError("field 'realization.mod_scalars' is not true or false")
        for i, rows in enumerate(real["mats"]):
            _check_int_rows(rows, f"realization.mats[{i}]")
            if [len(row) for row in rows] != [n] * n:
                raise ValueError(f"field 'realization.mats[{i}]' is not {n} x {n}")
        mats = tuple(FieldMatrix.from_rows(rows, p) for rows in real["mats"])
        g = LieAlgebra(p, data["labels"],
                       Realization(real["n"], mats, real["mod_scalars"]))
    check = algebra_to_dict(g)
    for key in ("p", "dim", "labels", "sc", "realization"):
        if canonical_json(check[key]) != canonical_json(data[key]):  # true is not 1
            raise ValueError(f"algebra file inconsistent at field {key!r}")
    return g


def subspace_to_dict(s: Subspace) -> dict:
    return {"schema": SCHEMA_VERSION, "ambient_dim": s.ambient_dim, "p": s.p,
            "basis": [list(r) for r in s.basis]}


def subspace_from_dict(data: dict, g: LieAlgebra = None) -> Subspace:
    p = data["p"]
    dim = data["ambient_dim"]
    rows = data.get("basis", [])
    for key, value in (("p", p), ("ambient_dim", dim)):
        if not is_json_int(value):
            raise ValueError(f"field {key!r} is not an integer")
    _check_int_rows(rows, "basis")
    if g is not None and (p != g.p or dim != g.dim):
        raise ValueError("subspace does not match the algebra")
    return Subspace.from_vectors(rows, dim, p)
