"""numpy-vectorized helpers for suite criterion 1 only: batched bracket, ad
and p-power evaluation for its sampled structure-law checks.  The engine
never imports this module, so numpy loads only for `morozov suite run`.

These mirror the exact scalar paths in liealg; criterion 1 cross-checks
the Jacobson law on a shared slice of its samples.  All arithmetic is
int64 with explicit mod-p reductions (values stay far below overflow at
p <= 13, dim <= 64).
"""

from __future__ import annotations

import numpy as np

from .liealg import LieAlgebra


def bracket_tensor(alg: LieAlgebra) -> np.ndarray:
    """Dense structure tensor C[a, b, k] with [e_a, e_b] = sum_k C[a,b,k] e_k,
    read off the structure table."""
    d = alg.dim
    c = np.zeros((d, d, d), dtype=np.int64)
    for (a, b), entries in alg.structure_constants().items():
        for k, x in entries:
            c[a, b, k] = x
            c[b, a, k] = -x
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
    lhs = p_power_batch(g, (xs + ys) % p)
    rhs = (p_power_batch(g, xs) + p_power_batch(g, ys) - w) % p
    return bool(np.all((lhs - rhs) % p == 0))


def p_power_batch(g: LieAlgebra, xs: np.ndarray) -> np.ndarray:
    """x^[p] for each row of xs, through matrix p-th powers of the
    realization."""
    basis = np.array([m.to_rows() for m in g.realization.mats], dtype=np.int64)
    mats = np.einsum("nd,dij->nij", xs, basis) % g.p
    out = np.zeros_like(xs)
    for t, m in enumerate(matpow_batch(mats, g.p, g.p)):
        out[t] = g.coordinates_of_matrix(_as_matrix(g, m))
    return out


def _as_matrix(g: LieAlgebra, arr: np.ndarray):
    from .gfp import FieldMatrix
    n = arr.shape[0]
    return FieldMatrix(n, n, g.p, [int(x) for x in arr.reshape(-1)])
