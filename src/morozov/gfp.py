"""Exact arithmetic over GF(p): dense matrices, subspaces in canonical
reduced row echelon form, and `solve_linear`, the one solver for "the
subspace on which a linear condition vanishes".

Everything here is immutable after construction and all operations are
pure.  Field elements are plain ints reduced into [0, p).
"""

from __future__ import annotations

from typing import Iterable, Sequence

MAX_PRIME = 13
MAX_DIM = 64          # semantic cap: ambient dimensions of subspaces/algebras
_MAX_SCRATCH = 4096   # stacked constraint systems may be much taller


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


_MODULI = frozenset(q for q in range(MAX_PRIME + 1) if is_prime(q))


def check_modulus(p: int) -> int:
    if p not in _MODULI:
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        raise ValueError(f"modulus {p} exceeds the supported bound {MAX_PRIME}")
    return p


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in GF(p)")
    return pow(a, p - 2, p)


class FieldMatrix:
    """Dense matrix over GF(p), entries stored row-major as ints."""

    __slots__ = ("rows", "cols", "p", "entries")

    def __init__(self, rows: int, cols: int, p: int, entries: Sequence[int]):
        check_modulus(p)
        if rows < 0 or cols < 0 or rows > _MAX_SCRATCH or cols > _MAX_SCRATCH:
            raise ValueError(f"dimensions {rows}x{cols} out of supported range")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        self.rows = rows
        self.cols = cols
        self.p = p
        self.entries = tuple(e % p for e in entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], p: int) -> "FieldMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(int(x) for x in row)
        return cls(r, c, p, flat)

    @classmethod
    def identity(cls, n: int, p: int) -> "FieldMatrix":
        return cls(n, n, p, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int, p: int) -> "FieldMatrix":
        return cls(rows, cols, p, [0] * (rows * cols))

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, FieldMatrix) and self.p == other.p
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.p, self.entries))

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check(other)
        return FieldMatrix(self.rows, self.cols, self.p,
                           [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check(other)
        return FieldMatrix(self.rows, self.cols, self.p,
                           [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return FieldMatrix(self.rows, self.cols, self.p, [-a for a in self.entries])

    def scale(self, c: int) -> "FieldMatrix":
        c %= self.p
        return FieldMatrix(self.rows, self.cols, self.p, [c * a for a in self.entries])

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("mixed moduli")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.p != other.p or self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        p, n, m, k = self.p, self.rows, other.cols, self.cols
        a, b = self.entries, other.entries
        out = [0] * (n * m)
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            for t in range(k):
                av = arow[t]
                if av:
                    brow = b[t * m:(t + 1) * m]
                    base = i * m
                    for j in range(m):
                        out[base + j] += av * brow[j]
        return FieldMatrix(n, m, p, out)

    def matvec(self, v: Sequence[int]) -> list:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        p = self.p
        return [sum(self.entries[i * self.cols + j] * v[j] for j in range(self.cols)) % p
                for i in range(self.rows)]

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.cols, self.rows, self.p,
                           [self.entries[i * self.cols + j]
                            for j in range(self.cols) for i in range(self.rows)])

    def pow(self, e: int) -> "FieldMatrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if e < 0:
            raise ValueError("negative matrix power")
        if e == 0:
            return FieldMatrix.identity(self.rows, self.p)
        # square and multiply, starting from the base: no product with the identity
        result, base = None, self
        while True:
            if e & 1:
                result = base if result is None else result @ base
            e >>= 1
            if not e:
                return result
            base = base @ base

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def trace(self) -> int:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum(self.entries[i * self.cols + i] for i in range(self.rows)) % self.p

    def is_nilpotent(self) -> bool:
        m = self
        for _ in range(self.rows.bit_length()):
            if m.is_zero():
                return True
            m = m @ m
        return m.is_zero()

    def inverse(self) -> "FieldMatrix":
        n = self.rows
        if n != self.cols:
            raise ValueError("inverse of a non-square matrix")
        aug = [list(self.row(i)) + [1 if j == i else 0 for j in range(n)]
               for i in range(n)]
        reduced, pivots = _rref_rows(aug, n, self.p)
        if len(pivots) != n:
            raise ValueError("singular matrix")
        return FieldMatrix.from_rows([row[n:] for row in reduced], self.p)

    def nilpotency_order(self) -> int | None:
        """Least m with self^m = 0, or None if not nilpotent."""
        m = FieldMatrix.identity(self.rows, self.p)
        for k in range(self.rows + 1):
            if m.is_zero():
                return k
            m = m @ self
        return None if not m.is_zero() else self.rows + 1

    def __repr__(self):
        return f"FieldMatrix({self.to_rows()} mod {self.p})"


def _rref_rows(rows: list, cols: int, p: int) -> tuple:
    """Reduced row echelon form with pivots in the first `cols` columns;
    returns (the pivot rows in pivot order, their pivot columns).  Each
    row is reduced once against the pivot rows kept so far and dropped
    when nothing is left in the first `cols` columns."""
    kept = {}           # pivot column -> normalised row as {column: entry}
    for row in rows:
        v = [x % p for x in row]
        for c, r in kept.items():
            f = v[c]
            if f:
                for j, y in r.items():
                    v[j] = (v[j] - f * y) % p
        for lead in range(cols):
            if v[lead]:
                break
        else:
            continue
        inv = inv_mod(v[lead], p)
        new = {j: x * inv % p for j, x in enumerate(v) if x}
        for r in kept.values():
            f = r.get(lead)
            if f:
                for j, y in new.items():
                    r[j] = (r.get(j, 0) - f * y) % p
        kept[lead] = new
    pivots = sorted(kept)
    width = len(rows[0]) if rows else 0
    return [tuple(kept[c].get(j, 0) for j in range(width))
            for c in pivots], pivots


def rref(m: FieldMatrix) -> tuple:
    """Reduced row echelon form and rank.  RREF is the canonical form:
    equal row spaces give byte-equal results."""
    reduced, pivots = _rref_rows(m.to_rows(), m.cols, m.p)
    flat = [x for row in reduced for x in row]
    flat += [0] * ((m.rows - len(reduced)) * m.cols)
    return FieldMatrix(m.rows, m.cols, m.p, flat), len(pivots)


def kernel(m: FieldMatrix) -> "Subspace":
    """Right kernel {v : m v = 0} as a canonical subspace of GF(p)^cols."""
    reduced, pivots = _rref_rows(m.to_rows(), m.cols, m.p)
    p = m.p
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for c in free:
        v = [0] * m.cols
        v[c] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-reduced[r][c]) % p
        basis.append(v)
    return Subspace.from_vectors(basis, m.cols, p)


class Subspace:
    """Subspace of GF(p)^n held in canonical RREF; the basis tuple is the
    equality certificate."""

    __slots__ = ("ambient_dim", "p", "basis")

    def __init__(self, ambient_dim: int, p: int, basis: Sequence[Sequence[int]]):
        check_modulus(p)
        if ambient_dim > MAX_DIM:
            raise ValueError("ambient dimension out of supported range")
        self.ambient_dim = ambient_dim
        self.p = p
        self.basis = tuple(tuple(x % p for x in row) for row in basis)

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[int]], ambient_dim: int, p: int) -> "Subspace":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length mismatch")
        return cls(ambient_dim, p, _rref_rows(vecs, ambient_dim, p)[0])

    @classmethod
    def zero(cls, ambient_dim: int, p: int) -> "Subspace":
        return cls(ambient_dim, p, [])

    @classmethod
    def full(cls, ambient_dim: int, p: int) -> "Subspace":
        return cls(ambient_dim, p,
                   [[1 if i == j else 0 for j in range(ambient_dim)] for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check(self, other: "Subspace"):
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.p == other.p
                and self.ambient_dim == other.ambient_dim and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.p, self.basis))

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.from_vectors(list(self.basis) + list(other.basis),
                                     self.ambient_dim, self.p)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return solve_linear(self, other.reduce_vector)

    def reduce_vector(self, v: Sequence[int]) -> list:
        """Residual of v after elimination against the canonical basis."""
        v = [x % self.p for x in v]
        for row in self.basis:
            lead = next(j for j, x in enumerate(row) if x)
            c = v[lead]
            if c:
                v = [(x - c * y) % self.p for x, y in zip(v, row)]
        return v

    def contains_vector(self, v: Sequence[int]) -> bool:
        return all(x == 0 for x in self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains_vector(row) for row in other.basis)

    def coordinates_of(self, v: Sequence[int]) -> list | None:
        """Coefficients of v in the canonical basis, or None if outside."""
        v = [x % self.p for x in v]
        coeffs = []
        for row in self.basis:
            lead = next(j for j, x in enumerate(row) if x)
            c = v[lead]
            coeffs.append(c)
            if c:
                v = [(x - c * y) % self.p for x, y in zip(v, row)]
        if any(v):
            return None
        return coeffs

    def enumerate_vectors(self):
        """Yield every vector of the subspace (p^dim of them)."""
        p, n = self.p, self.ambient_dim
        coeffs = [0] * self.dim
        while True:
            v = [0] * n
            for c, row in zip(coeffs, self.basis):
                if c:
                    for i in range(n):
                        v[i] = (v[i] + c * row[i]) % p
            yield v
            k = 0
            while k < self.dim and coeffs[k] == p - 1:
                coeffs[k] = 0
                k += 1
            if k == self.dim:
                return
            coeffs[k] += 1

    def __repr__(self):
        return f"Subspace(dim {self.dim} of GF({self.p})^{self.ambient_dim})"


def solve_linear(space: Subspace, condition) -> Subspace:
    """{x in space : condition(x) = 0} for a linear map `condition` given as
    a function of one vector (a list) returning a list of ints."""
    if space.dim == 0:
        return space
    cols = [condition(list(b)) for b in space.basis]
    height = len(cols[0])
    if height == 0:
        return space
    ker = kernel(FieldMatrix(height, space.dim, space.p,
                             [col[t] for t in range(height) for col in cols]))
    if space.dim == space.ambient_dim:
        # the canonical basis of the whole space is the identity
        return ker
    n, p = space.ambient_dim, space.p
    vecs = []
    for coeffs in ker.basis:
        v = [0] * n
        for c, row in zip(coeffs, space.basis):
            if c:
                for i in range(n):
                    v[i] = (v[i] + c * row[i]) % p
        vecs.append(v)
    return Subspace.from_vectors(vecs, n, p)


def image_flag(start: Subspace, maps) -> list | None:
    """The flag start > A start > A^2 start > ... > 0, where A W is the span
    of f(w) over the linear maps f in `maps` (functions of one vector) and
    w in W; None when a step stalls above 0, so that the maps do not act
    nilpotently on start."""
    flag = [start]
    while flag[-1].dim:
        image = Subspace.from_vectors(
            [f(list(w)) for f in maps for w in flag[-1].basis],
            start.ambient_dim, start.p)
        if image.dim == flag[-1].dim:
            return None
        flag.append(image)
    return flag


def envelope_radical(mats: Sequence[FieldMatrix]):
    """The residue map modulo J(A), for A the associative algebra generated
    by 1 and the n x n matrices `mats` (at least one), when A/J(A) is
    certified commutative; else None.  The map takes an n x n matrix to a
    vector of GF(p)^(n^2), linearly, and vanishes on A exactly at J(A),
    which then is the set of nilpotent elements of A.

    A is spun from 1 in its own n^2 coordinates.  Its trace radical
    I = {a in A : tr(ab) = 0 for all b in A}, one kernel, is an ideal
    containing J(A), whose products with A are nilpotent; so I = J(A) when
    I is nilpotent, which holds exactly when the images of GF(p)^n under I
    reach 0.  If the generators also commute modulo I, A/J(A) is
    commutative and semisimple, a product of fields, with no nonzero
    nilpotents.  None when dim A passes MAX_DIM, when I is not nilpotent
    (tr(1) = n puts 1 in I when p | n), or when two generators do not
    commute modulo I."""
    n, p = mats[0].rows, mats[0].p

    def residue(v, echelon):
        # echelon: (pivot, row) pairs, each row reduced against the earlier
        for c, row in echelon:
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        return v

    words, echelon = [], []
    queue = [FieldMatrix.identity(n, p)]
    while queue:
        w = queue.pop()
        v = residue(list(w.entries), echelon)
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            continue
        if len(words) == MAX_DIM:
            return None
        inv = inv_mod(v[lead], p)
        echelon.append((lead, [x * inv % p for x in v]))
        words.append(w.entries)
        queue.extend(m @ w for m in mats)
    transposed = [FieldMatrix(n, n, p, w).transpose().entries for w in words]
    trace_null = kernel(FieldMatrix(len(words), len(words), p, [
        sum(x * y for x, y in zip(a, b)) for a in words for b in transposed]))
    rows, pivots = _rref_rows(
        [[sum(c * w[t] for c, w in zip(coeffs, words)) for t in range(n * n)]
         for coeffs in trace_null.basis], n * n, p)
    ideal = list(zip(pivots, rows))
    if image_flag(Subspace.full(n, p), [FieldMatrix(n, n, p, row).matvec
                                        for row in rows]) is None:
        return None
    if any(any(residue(list((a @ b - b @ a).entries), ideal))
           for i, a in enumerate(mats) for b in mats[:i]):
        return None
    return lambda m: residue(list(m.entries), ideal)
