"""Exact arithmetic over GF(p): dense matrices, subspaces in canonical
reduced row echelon form, and `solve_linear`, the one solver for "the
subspace on which a linear condition vanishes".

Each piece lives here once.  `Echelon`, a span grown row by row in RREF,
is the one home of span growth: `rref`, `kernel`, `Subspace`, the
envelope's word basis, the flag frame's adapted basis and the worklists of
`LieAlgebra.spin_submodule` and `subalgebra_closure`.  `trace_gram` is the
one home of the trace form tr(XY): the Killing form, the envelope's trace
radical and q n q^perp of the flag frame.  `_eliminate` (reduce a vector
against echelon rows) and `_combine` (sum c * row) serve the rest.

All but a growing `Echelon` is immutable after construction, and every
operation is pure.  Field elements are plain ints reduced into [0, p).
"""

from __future__ import annotations

from itertools import product
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
        # sum v_j * column j, skipping the zero v_j as __matmul__ skips the
        # zero entries of self
        k = self.cols
        out = [0] * self.rows
        for j, x in enumerate(v):
            if x:
                out = [y + x * c for y, c in zip(out, self.entries[j::k])]
        return [y % self.p for y in out]

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
        # self^(2^k) for 2^k >= rows, stopping at a power of nonzero trace
        m = self
        for _ in range(self.rows.bit_length()):
            if m.is_zero():
                return True
            if m.trace():
                return False
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

    def __repr__(self):
        return f"FieldMatrix({self.to_rows()} mod {self.p})"


class Echelon:
    """A span grown row by row in reduced echelon form, with pivots in the
    first `cols` columns; `kept` maps each pivot column to its normalised
    row as {column: entry}."""

    def __init__(self, cols: int, p: int):
        self.cols, self.p, self.kept = cols, p, {}

    def extend(self, rows: Iterable[Sequence[int]]) -> int:
        """Keep each row reduced against the kept rows, normalised and
        cleared from them at its pivot, unless it is 0 in the first `cols`
        columns; returns how many rows were kept."""
        p, cols, kept = self.p, self.cols, self.kept
        before = len(kept)
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
        return len(kept) - before

    def add(self, row: Sequence[int]) -> bool:
        """Whether the row enlarged the span, which now contains it."""
        return self.extend((row,)) == 1

    def rows(self, width: int) -> list:
        """The kept rows in pivot order, as tuples of length `width`."""
        kept = self.kept
        return [tuple(kept[c].get(j, 0) for j in range(width))
                for c in sorted(kept)]


def _rref_rows(rows: list, cols: int, p: int) -> tuple:
    """Reduced row echelon form with pivots in the first `cols` columns;
    returns (the pivot rows in pivot order, their pivot columns)."""
    span = Echelon(cols, p)
    span.extend(rows)
    return span.rows(len(rows[0]) if rows else 0), sorted(span.kept)


def _eliminate(v: Sequence[int], rows: Sequence, pivots: Sequence[int],
               p: int) -> tuple:
    """(coefficients, residual) with v = sum c * row + residual, reducing v
    against the rows in order; row i is 1 at pivots[i].  The residual is 0
    at every pivot whenever each row is 0 at the pivots of the rows before
    it: an RREF, or an echelon grown one reduced row at a time."""
    v = [x % p for x in v]
    coeffs = []
    for c, row in zip(pivots, rows):
        f = v[c]
        coeffs.append(f)
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return coeffs, v


def _combine(coeffs: Sequence[int], rows: Iterable, width: int, p: int) -> list:
    """sum c * row over the paired coefficients and rows of length width."""
    out = [0] * width
    for c, row in zip(coeffs, rows):
        if c:
            out = [x + c * y for x, y in zip(out, row)]
    return [x % p for x in out]


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
    equality certificate, and `pivots` holds the leading column of each
    basis row."""

    __slots__ = ("ambient_dim", "p", "basis", "pivots")

    def __init__(self, ambient_dim: int, p: int, basis: Sequence[Sequence[int]]):
        check_modulus(p)
        if ambient_dim > MAX_DIM:
            raise ValueError("ambient dimension out of supported range")
        self.ambient_dim = ambient_dim
        self.p = p
        self.basis = tuple(tuple(x % p for x in row) for row in basis)
        # the first nonzero entry of a row occurs first at its pivot
        self.pivots = tuple([row.index(next(filter(None, row)))
                             for row in self.basis])

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
        return _eliminate(v, self.basis, self.pivots, self.p)[1]

    def contains_vector(self, v: Sequence[int]) -> bool:
        return not any(self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains_vector(row) for row in other.basis)

    def coordinates_of(self, v: Sequence[int]) -> list | None:
        """Coefficients of v in the canonical basis, or None if outside."""
        coeffs, residual = _eliminate(v, self.basis, self.pivots, self.p)
        return None if any(residual) else coeffs

    def combine(self, coeffs: Sequence[int]) -> list:
        """The vector with these coefficients in the canonical basis."""
        return _combine(coeffs, self.basis, self.ambient_dim, self.p)

    def enumerate_vectors(self):
        """Yield every vector of the subspace (p^dim of them)."""
        # the first coefficient runs fastest
        for coeffs in product(range(self.p), repeat=self.dim):
            yield self.combine(coeffs[::-1])

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
    return Subspace.from_vectors([space.combine(c) for c in ker.basis],
                                 space.ambient_dim, space.p)


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


def trace_gram(mats: Sequence[FieldMatrix], p: int) -> FieldMatrix:
    """The Gram matrix tr(M_i M_j) of square matrices of one size over
    GF(p).  As tr(xy) = sum x_ab y_ba, each nonzero entry of x is paired
    with the entry of y at the transposed index."""
    swapped = [[((k % m.rows) * m.rows + k // m.rows, x)
                for k, x in enumerate(m.entries) if x] for m in mats]
    return FieldMatrix(len(mats), len(mats), p, [
        sum(x * m.entries[k] for k, x in s) for s in swapped for m in mats])


def envelope_radical(mats: Sequence[FieldMatrix]):
    """The residue map modulo J(A), for A the associative algebra generated
    by 1 and the n x n matrices `mats` (at least one), when A/J(A) is
    certified commutative; else None.  The map takes an n x n matrix to a
    vector of GF(p)^(n^2), linearly, and vanishes on A exactly at J(A),
    which then is the set of nilpotent elements of A.

    A is spun from 1: a word that enlarges the `Echelon` of the words so far
    joins the basis, and its products with the generators are queued.  Its
    trace radical I = {a in A : tr(ab) = 0 for all b in A}, the kernel of
    the basis' `trace_gram`, is an ideal containing J(A), whose products
    with A are nilpotent; so I = J(A) when I is nilpotent, which holds
    exactly when the images of GF(p)^n under I reach 0.  If the generators
    also commute modulo I, A/J(A) is commutative and semisimple, a product
    of fields, with no nonzero nilpotents.  None when dim A passes MAX_DIM,
    when I is not nilpotent (tr(1) = n puts 1 in I when p | n), or when two
    generators do not commute modulo I."""
    n, p = mats[0].rows, mats[0].p
    words, span = [], Echelon(n * n, p)
    queue = [FieldMatrix.identity(n, p)]
    while queue:
        w = queue.pop()
        if span.add(w.entries):
            if len(words) == MAX_DIM:
                return None
            words.append(w)
            queue.extend(m @ w for m in mats)
    entries = [w.entries for w in words]
    rows, pivots = _rref_rows([_combine(c, entries, n * n, p) for c in
                               kernel(trace_gram(words, p)).basis], n * n, p)
    if image_flag(Subspace.full(n, p), [FieldMatrix(n, n, p, row).matvec
                                        for row in rows]) is None:
        return None

    def residue(m):
        return _eliminate(m.entries, rows, pivots, p)[1]

    if any(any(residue(a @ b - b @ a))
           for i, a in enumerate(mats) for b in mats[:i]):
        return None
    return residue
