"""Exact arithmetic over GF(p): dense matrices, subspaces in canonical
reduced row echelon form, and `solve_linear`, the one solver for "the
subspace on which a linear condition vanishes".

Each piece lives here once.  `Echelon`, a span grown row by row in RREF, is
the one home of span growth and of reduction against a span: `rref`,
`kernel`, `Subspace`, `LieAlgebra`'s coordinates, the envelope, the flag
frame's adapted basis and the worklist of `LieAlgebra.subalgebra_closure`.
A `Subspace` eliminates only rows that are not canonical RREF already:
canonical rows, checked against the definition in one pass, become its
basis as they are, and its `Echelon` is filled from them on first use, with
no arithmetic.  `trace_gram` is the one home of the trace form tr(XY): the
Killing form, the first step of `jacobson_radical` and q n q^perp of the
flag frame.  `jacobson_radical` is the one J(A), for every radical ideal of
`radicals` and the flag frame at p = 2 and on pgl with p | n; its word
basis holds MAX_DIM words, or more while it stays within MAX_ENVELOPE
entries.  `_combine` (sum c * row) serves the rest.

All but a growing `Echelon` is immutable after construction, and every
operation is pure.  Field elements are plain ints reduced into [0, p).
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from typing import Iterable, Sequence

MAX_PRIME = 13
MAX_DIM = 64          # semantic cap: ambient dimensions of subspaces/algebras
_MAX_SCRATCH = 4096   # stacked constraint systems may be much taller
MAX_ENVELOPE = 2 ** 16  # words x n^2 past MAX_DIM words: all of M_16 fits


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class InputError(ValueError):
    """An input outside an operation's hypotheses, raised by the check that
    finds it: a refused modulus, family, type or size, or a subspace that
    is not a subalgebra, not p-closed or not p-nil.  The CLI exits 3."""


_MODULI = frozenset(q for q in range(MAX_PRIME + 1) if is_prime(q))


def check_modulus(p: int) -> int:
    if p not in _MODULI:
        if not is_prime(p):
            raise InputError(f"modulus {p} is not prime")
        raise InputError(f"modulus {p} exceeds the supported bound {MAX_PRIME}")
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
        return sum(self._keep(self.reduce(row)) for row in rows)

    def reduce(self, row: Sequence[int]) -> list:
        """The row minus its combination of the kept rows, 0 at every
        pivot: each kept row is 0 at the other pivots."""
        p = self.p
        v = [x % p for x in row]
        for c, r in self.kept.items():
            f = v[c]
            if f:
                for j, y in r.items():
                    v[j] = (v[j] - f * y) % p
        return v

    def _keep(self, v: list) -> bool:
        """Keep v, already reduced, unless it is 0 in the first `cols`
        columns; returns whether it was kept."""
        p, kept = self.p, self.kept
        for lead in range(self.cols):
            if v[lead]:
                break
        else:
            return False
        inv = inv_mod(v[lead], p)
        new = {j: x * inv % p for j, x in enumerate(v) if x}
        for r in kept.values():
            f = r.get(lead)
            if f:
                for j, y in new.items():
                    r[j] = (r.get(j, 0) - f * y) % p
        kept[lead] = new
        return True

    def add(self, row: Sequence[int]) -> bool:
        """Whether the row enlarged the span, which now contains it."""
        return self._keep(self.reduce(row))

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


def _kernel_rows(m: FieldMatrix) -> list:
    """A basis of the right kernel {v : m v = 0}, of any length.  Column j
    of m, then e_j, is reduced against the `Echelon` of the columns kept
    so far; one that reduces to 0 in its first m.rows entries leaves its
    tail, a kernel vector with 1 at j and 0 past it."""
    p, rows, cols = m.p, m.rows, m.cols
    span, basis, zeros = Echelon(rows, p), [], (0,) * cols
    for j in range(cols):
        v = span.reduce(m.entries[j::cols] + zeros[:j] + (1,) + zeros[j + 1:])
        if not span._keep(v):
            basis.append(v[rows:])
    return basis


def kernel(m: FieldMatrix) -> "Subspace":
    """Right kernel {v : m v = 0} as a canonical subspace of GF(p)^cols."""
    return Subspace.from_vectors(_kernel_rows(m), m.cols, m.p)


def _canonical_pivots(rows: list, p: int) -> tuple | None:
    """The pivot columns of rows that already are canonical RREF over
    GF(p), as the definition reads: int entries in [0, p), a leading 1 at a
    strictly increasing pivot, and 0 at every other row's pivot; None for
    any other rows.  As the entries are not negative, a pivot column whose
    sum is 1 is 0 in every other row."""
    pivots, residues = [], set(range(p))
    for row in rows:
        if 1 not in row or not {*row} <= residues or {*map(type, row)} != {int}:
            return None
        lead = row.index(1)
        if (pivots and lead <= pivots[-1]) or any(row[:lead]):
            return None
        pivots.append(lead)
    columns = tuple(zip(*rows))
    return tuple(pivots) if all(sum(columns[c]) == 1 for c in pivots) else None


class Subspace:
    """Subspace of GF(p)^n held in canonical RREF; the basis tuple is the
    equality certificate, and `pivots` holds the leading column of each
    basis row.  Rows that already are canonical (`_canonical_pivots`)
    become the basis as they are; any others go through an `Echelon`.
    The `Echelon` behind `reduce_vector`, `contains_vector` and
    `coordinates_of` is never extended: for adopted rows it is filled
    from them on first use, with no arithmetic."""

    __slots__ = ("ambient_dim", "p", "basis", "pivots", "_span")

    def __init__(self, ambient_dim: int, p: int, basis: Iterable[Sequence[int]]):
        check_modulus(p)
        if ambient_dim > MAX_DIM:
            raise ValueError("ambient dimension out of supported range")
        rows = [tuple(v) for v in basis]
        if any(len(v) != ambient_dim for v in rows):
            raise ValueError("vector length mismatch")
        self.ambient_dim = ambient_dim
        self.p = p
        self._span = None
        pivots = _canonical_pivots(rows, p)
        if pivots is None:
            self._span = Echelon(ambient_dim, p)
            self._span.extend(rows)
            rows, pivots = self._span.rows(ambient_dim), sorted(self._span.kept)
        self.basis = tuple(rows)
        self.pivots = tuple(pivots)

    def _echelon(self) -> Echelon:
        if self._span is None:
            self._span = Echelon(self.ambient_dim, self.p)
            self._span.kept = {c: {j: x for j, x in enumerate(row) if x}
                               for c, row in zip(self.pivots, self.basis)}
        return self._span

    def prefix(self, k: int) -> "Subspace":
        """The span of the first k canonical rows, adopted with no check: a
        prefix of a canonical basis is one."""
        out = object.__new__(Subspace)
        out.ambient_dim, out.p, out._span = self.ambient_dim, self.p, None
        out.basis, out.pivots = self.basis[:k], self.pivots[:k]
        return out

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[int]], ambient_dim: int, p: int) -> "Subspace":
        return cls(ambient_dim, p, vectors)

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
        return self._echelon().reduce(v)

    def contains_vector(self, v: Sequence[int]) -> bool:
        return not any(self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains_vector(row) for row in other.basis)

    def coordinates_of(self, v: Sequence[int]) -> list | None:
        """Coefficients of v in the canonical basis, its entries at the
        pivots, or None if outside."""
        inside = not any(self._echelon().reduce(v))
        return [v[c] % self.p for c in self.pivots] if inside else None

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
    if not cols[0]:
        return space
    # a condition row that is 0 in every column constrains nothing
    rows = [row for row in zip(*cols) if any(row)]
    ker = kernel(FieldMatrix(len(rows), space.dim, space.p,
                             [x for row in rows for x in row]))
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
    d = len(mats)
    gram = [0] * (d * d)
    # tr(xy) = tr(yx): the entries with i <= j, mirrored
    for i, j in combinations_with_replacement(range(d), 2):
        y = mats[j].entries
        gram[i * d + j] = gram[j * d + i] = sum(
            x * y[k] for k, x in swapped[i])
    return FieldMatrix(d, d, p, gram)


def _trace_digit(m: FieldMatrix, i: int) -> int:
    """g_i(m) = (tr(M^(p^i)) mod p^(i+1)) / p^i, M = m lifted to [0, p),
    for i >= 1.  With Y = M^(p^(i-1)), the last factor of Y^p enters only
    through the trace, tr(X Y) = sum x_ab y_ba for X = Y^(p-1), as in
    `trace_gram`: one matrix product fewer per digit."""
    p, mod = m.p, m.p ** (i + 1)
    power = [list(m.row(r)) for r in range(m.rows)]
    for k in range(i):      # M^(p^(k+1)) = (M^(p^k))^p, mod p^(i+1)
        cols = list(zip(*power))
        for _ in range(p - 1 if k < i - 1 else p - 2):
            power = [[sum(x * y for x, y in zip(row, col)) % mod
                      for col in cols] for row in power]
    # row a of X against column a of Y
    return sum(x * y for row, col in zip(power, cols)
               for x, y in zip(row, col)) % mod // p ** i


def jacobson_radical(mats: Sequence[FieldMatrix]) -> Echelon | None:
    """J(A) for the associative algebra A generated by 1 and the n x n
    matrices `mats` (at least one), as an `Echelon` of entry vectors; None
    when the word basis passes both MAX_DIM words and MAX_ENVELOPE
    entries, words x n^2.  A is spun from 1: a word that enlarges the
    `Echelon` of the words so far joins the basis, and its products with
    the generators are queued.  As in Cohen-Ivanyos-Wales (J. Pure Appl.
    Algebra 117/118, 1997), I_0 is the kernel of the words' `trace_gram`,
    and I_i = {a in I_(i-1) : g_i(ab) = 0 for every word b}, g_i of
    `_trace_digit` being linear on I_(i-1): ideals containing J(A), with
    I_l = J(A) for p^l <= n.  A nilpotent ideal lies in J(A), so the first
    I_i whose images of GF(p)^n reach 0 is J(A)."""
    n, p = mats[0].rows, mats[0].p
    words, span = [], Echelon(n * n, p)
    queue = [FieldMatrix.identity(n, p)]
    while queue:
        w = queue.pop()
        if span.add(w.entries):
            if len(words) == max(MAX_DIM, MAX_ENVELOPE // (n * n)):
                return None
            words.append(w)
            queue.extend(m @ w for m in mats)
    gram, ideal, i = trace_gram(words, p), words, 0
    while True:
        entries = [a.entries for a in ideal]
        ideal = [FieldMatrix(n, n, p, _combine(c, entries, n * n, p))
                 for c in _kernel_rows(gram)]
        if image_flag(Subspace.full(n, p),
                      [a.matvec for a in ideal]) is not None:
            radical = Echelon(n * n, p)
            radical.extend(a.entries for a in ideal)
            return radical
        i += 1
        gram = FieldMatrix(len(words), len(ideal), p, [
            _trace_digit(a @ b, i) for b in words for a in ideal])
