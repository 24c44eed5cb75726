"""numpy-vectorized helpers for bulk sweeps: batched bracket/ad evaluation
for the structure-law checks and the quadratic-cone enumeration used by the
abelian-ideal scan.

These mirror the exact scalar paths in liealg/radicals; the test suite
cross-checks both on shared samples.  All arithmetic is int64 with explicit
mod-p reductions (values stay far below overflow at p <= 13, dim <= 64).
"""

from __future__ import annotations

import numpy as np

from .liealg import LieAlgebra


def bracket_tensor(alg: LieAlgebra) -> np.ndarray:
    """Dense structure tensor C[a, b, k] with [e_a, e_b] = sum_k C[a,b,k] e_k.

    Reads only `bracket_vec`, so it takes a realized algebra and the
    realization-free views of `radicals` (subalgebras, quotients) alike."""
    d = alg.dim
    c = np.zeros((d, d, d), dtype=np.int64)
    for a in range(d):
        for b in range(d):
            c[a, b, :] = alg.bracket_vec(alg.unit(a), alg.unit(b))
    return c % alg.p


def bracket_batch(c: np.ndarray, p: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """[x_n, y_n] for row-paired batches, via the structure tensor."""
    d = c.shape[0]
    inter = (xs @ c.reshape(d, d * d)).reshape(-1, d, d) % p
    return np.einsum("nbk,nb->nk", inter, ys) % p


def ad_batch(c: np.ndarray, p: int, xs: np.ndarray) -> np.ndarray:
    """Batched ad matrices: out[n][k][b] = (ad x_n)_{k,b}."""
    d = c.shape[0]
    a = (xs @ c.reshape(d, d * d)).reshape(-1, d, d) % p
    return np.swapaxes(a, 1, 2)


def matpow_batch(mats: np.ndarray, e: int, p: int) -> np.ndarray:
    n = mats.shape[-1]
    result = np.broadcast_to(np.eye(n, dtype=np.int64), mats.shape).copy()
    base = mats % p
    while e > 0:
        if e & 1:
            result = np.matmul(result, base) % p
        e >>= 1
        if e:
            base = np.matmul(base, base) % p
    return result


def random_vectors(rng, count: int, dim: int, p: int) -> np.ndarray:
    return rng.integers(0, p, size=(count, dim), dtype=np.int64)


def jacobi_batch_ok(c: np.ndarray, p: int, xs, ys, zs) -> bool:
    lhs = bracket_batch(c, p, xs, bracket_batch(c, p, ys, zs))
    mid = bracket_batch(c, p, ys, bracket_batch(c, p, xs, zs))
    rhs = bracket_batch(c, p, bracket_batch(c, p, xs, ys), zs)
    return bool(np.all((lhs - mid - rhs) % p == 0))


def antisymmetry_batch_ok(c: np.ndarray, p: int, xs, ys) -> bool:
    return bool(np.all((bracket_batch(c, p, xs, ys)
                        + bracket_batch(c, p, ys, xs)) % p == 0))


def jacobson_batch_ok(g: LieAlgebra, c: np.ndarray, xs: np.ndarray,
                      ys: np.ndarray) -> bool:
    """(x+y)^[p] == x^[p] + y^[p] - W(x,y) on row pairs, with the left side
    through matrix p-th powers and W through the t-polynomial expansion."""
    p = g.p
    d = g.dim
    n = xs.shape[0]
    adx = ad_batch(c, p, xs)
    ady = ad_batch(c, p, ys)
    # coefficients of ad(t x + y)^(p-1)(x) as a polynomial in t
    poly = np.zeros((n, p, d), dtype=np.int64)
    poly[:, 0, :] = xs
    for _ in range(p - 1):
        up = np.einsum("nkb,nib->nik", adx, poly) % p
        same = np.einsum("nkb,nib->nik", ady, poly) % p
        nxt = same.copy()
        nxt[:, 1:, :] = (nxt[:, 1:, :] + up[:, :-1, :]) % p
        poly = nxt
    w = np.zeros((n, d), dtype=np.int64)
    for i in range(1, p):
        w = (w - pow(i, p - 2, p) * poly[:, i - 1, :]) % p
    # matrix-power oracle for the p-powers
    def ppow(vs):
        mats = np.zeros((n, g.realization.n, g.realization.n), dtype=np.int64)
        basis = np.array([m.to_rows() for m in g.realization.mats], dtype=np.int64)
        mats = np.einsum("nd,dij->nij", vs, basis) % p
        powed = matpow_batch(mats, p, p)
        return np.array([g.coordinates_of_matrix(_as_matrix(g, powed[t]))
                         for t in range(n)], dtype=np.int64)

    lhs = ppow((xs + ys) % p)
    rhs = (ppow(xs) + ppow(ys) - w) % p
    return bool(np.all((lhs - rhs) % p == 0))


def _as_matrix(g: LieAlgebra, arr: np.ndarray):
    from .gfp import FieldMatrix
    n = arr.shape[0]
    return FieldMatrix(n, n, g.p, [int(x) for x in arr.reshape(-1)])


def square_zero_lines(c: np.ndarray, p: int, basis: np.ndarray,
                      max_vectors: int = 4_000_000) -> list:
    """All projective lines [v] in the span of `basis` (rows, ambient
    coordinates) with (ad v)^2 = 0, where ad is taken in the algebra the
    tensor c describes.  Returns ambient coordinate vectors, one per line.

    This is the necessary condition for v to lie in an abelian ideal, so
    scanning these lines is a complete search for abelian ideals."""
    k = basis.shape[0]
    if k == 0:
        return []
    total = p ** k
    if total > max_vectors:
        raise OverflowError(f"scan of {total} vectors exceeds the budget")
    # all coefficient tuples with first nonzero coefficient equal to 1
    reps = []
    for lead in range(k):
        tail = p ** (k - lead - 1)
        grid = np.indices((p,) * (k - lead - 1)).reshape(k - lead - 1, tail).T \
            if k - lead - 1 else np.zeros((1, 0), dtype=np.int64)
        block = np.zeros((grid.shape[0], k), dtype=np.int64)
        block[:, lead] = 1
        if k - lead - 1:
            block[:, lead + 1:] = grid
        reps.append(block)
    coeffs = np.concatenate(reps, axis=0)
    vs = (coeffs @ basis) % p
    out = []
    chunk = 8192
    d = c.shape[0]
    for start in range(0, vs.shape[0], chunk):
        batch = vs[start:start + chunk]
        ads = ad_batch(c, p, batch)
        sq = np.matmul(ads, ads) % p
        mask = np.all(sq.reshape(sq.shape[0], -1) == 0, axis=1)
        for row in batch[mask]:
            out.append([int(x) for x in row])
    return out
