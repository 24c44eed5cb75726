"""Restricted Lie algebras of the classical families with matrix
realizations: structure constants, brackets, the p-power map and the
Jacobson correction term, truncated exponentials, Killing form,
normalisers/centralisers and the subalgebra calculus.

The p-power map always goes through the realization (matrix p-th powers,
taken modulo scalars for the central quotient family), so its correctness
is anchored to matrix arithmetic rather than hand-entered tables.

On root indices: the algebraic torus T acts on g by automorphisms, fixing
the torus part and scaling each root line by its root, and the roots are
pairwise distinct and nonzero characters of T at every p.  So T fixes a
coordinate-split subspace (torus part plus root lines), and every subspace
the bracket defines from split ones (the normaliser, the largest h-ideal
inside v, rad(h)) is T-stable, hence split as well.  A split subspace has
one form: its torus part and the set of its root indices.  The torus
coordinates come first, so its canonical basis is the torus part's
canonical rows followed by one unit row per root index, in index order:
`coordinate_split` reads the form off the pivots, its torus part a
prefix of the canonical rows (`Subspace.prefix`), and `split_sum`, its
inverse, writes those rows, adopted by `Subspace` with no elimination.
The bracket of split subspaces is read off a table of root-index pairs,
filled once per algebra from the structure table on first use
(`_root_table`): [e_a, e_b] lies in g_(a+b), a root line (its root
index), the torus (the canonical row of its line) or 0 (`split_bracket`),
and [z, e_b] = b(z) e_b is read off the structure table's torus rows
(`character`).  Every torus vector z of this calculus is a row in
ambient coordinates, as in `Subspace`; the lines it does not kill are
kept in `_memo` (`moved_lines`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Optional, Sequence

from .gfp import (MAX_DIM, Echelon, FieldMatrix, InputError, Subspace,
                  _combine, check_modulus, inv_mod, kernel, rref,
                  solve_linear, trace_gram)
from .rootdata import RootDatum, build_rootdatum, parabolic_roots

# ---------------------------------------------------------------------------
# Realization and torus frame
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Realization:
    n: int
    mats: tuple            # one FieldMatrix per basis element (representatives)
    mod_scalars: bool      # quotient by scalar matrices (pgl)


class TorusFrame:
    """Standard-torus bookkeeping for a built family: the first
    `torus_count` basis indices span the diagonal Cartan (`torus_indices`),
    and every other index carries a root; the frame holds the
    weight of every row of the realization (`build`), which embeds
    cocharacter vectors as diagonal exponent patterns, and on sp and so the
    form J the realization preserves, as (perm, sign) with
    J e_c = sign_c e_perm(c)."""

    def __init__(self, family: str, rootdatum: RootDatum,
                 torus_count: int, index_root: dict,
                 position_weights: Sequence[tuple], sum_zero: bool,
                 form: Optional[tuple] = None):
        self.family = family
        self.form = form
        self.rootdatum = rootdatum
        self.torus_indices = range(torus_count)
        self.index_root = dict(index_root)
        self.root_index = {r: i for i, r in index_root.items()}
        self.position_weights = tuple(position_weights)
        self.cochar_rank = len(self.position_weights[0])
        self.sum_zero = sum_zero

    def diag_exponents(self, lam: Sequence[int]) -> list:
        """Diagonal exponent pattern of the cocharacter on the realization."""
        lam = list(lam)
        if len(lam) != self.cochar_rank:
            raise ValueError("cocharacter length mismatch")
        if self.sum_zero and sum(lam) != 0:
            raise ValueError("sum-zero cocharacter required for this family")
        return [sum(a * b for a, b in zip(lam, w))
                for w in self.position_weights]

    def weight(self, lam: Sequence[int], basis_index: int) -> int:
        root = self.index_root.get(basis_index)
        if root is None:
            return 0
        return sum(a * b for a, b in zip(lam, root))


class LieAlgebra:
    """A restricted Lie algebra given by structure constants over GF(p)
    plus a faithful (or central-quotient) matrix realization.

    The subalgebra calculus (series, centres, centralisers, normalisers,
    Killing forms, largest ideals) needs only `p`, `dim` and the structure
    table, so it also serves the one realization-free view of `radicals`,
    `SubView`: a sub-quotient that fills the same table from its parent's
    bracket, overrides only `p_power_vec`, and carries the one peel loop
    of the solvable radical.

    The table is stored by rows (`_set_structure`): a bracket skips every
    row i with x_i = y_i = 0, so its cost follows the support of its
    arguments, and ad(x) is filled in one pass over the rows.  Every built
    algebra is checked exhaustively off the rows (`_verify_structure`): the
    Jacobi identity on all basis triples, ad(x^[p]) = ad(x)^p on the basis."""

    def __init__(self, p: int, labels: Sequence[str], realization: Realization,
                 frame: Optional[TorusFrame] = None, family: Optional[str] = None):
        check_modulus(p)
        if len(labels) != len(realization.mats):
            raise ValueError(f"{len(labels)} labels for "
                             f"{len(realization.mats)} realization matrices")
        if len(labels) > MAX_DIM:
            raise ValueError(f"dimension {len(labels)} exceeds the supported "
                             f"bound {MAX_DIM}")
        self.p = p
        self.labels = tuple(labels)
        self.dim = len(labels)
        self.realization = realization
        self.frame = frame
        self.family = family
        self._memo: dict = {}
        # each realization matrix as its nonzero (index, entry) pairs
        self._sparse = tuple(tuple((k, x) for k, x in enumerate(m.entries) if x)
                             for m in realization.mats)
        self._build_coordinatizer()
        self._set_structure(self._commutator)
        self._verify_structure()

    # -- coordinates ---------------------------------------------------

    def _vectorize(self, m: FieldMatrix) -> list:
        # on pgl, the representative with last diagonal entry 0
        if self.realization.mod_scalars:
            n, c = self.realization.n, m.entries[-1]
            return [e - c if i % (n + 1) == 0 else e
                    for i, e in enumerate(m.entries)]
        return list(m.entries)

    def _build_coordinatizer(self):
        # one echelon of the rows [vec(M_i) | e_i]: each kept row carries
        # the combination of the basis matrices it stands for
        n2 = self.realization.n ** 2
        self._coordinatizer = Echelon(n2, self.p)
        if self._coordinatizer.extend(
                self._vectorize(m) + self.unit(i)
                for i, m in enumerate(self.realization.mats)) != self.dim:
            raise ValueError("realization matrices are linearly dependent")

    def coordinates_of_matrix(self, m: FieldMatrix) -> list:
        """Coordinates of a realizing matrix in the basis; raises if the
        (canonicalized) matrix is outside the span.  [vec(M) | 0] reduces
        to [0 | -x] exactly when M = sum x_i M_i."""
        n2 = self.realization.n ** 2
        v = self._coordinatizer.reduce(self._vectorize(m) + [0] * self.dim)
        if any(v[:n2]):
            raise ValueError("matrix not in the span of the basis")
        return [-x % self.p for x in v[n2:]]

    def _commutator(self, i: int, j: int) -> list:
        # coordinates of M_i M_j - M_j M_i over the nonzero entries of both:
        # entry (r, m) times entry (m, c) adds to (r, c)
        n, out = self.realization.n, [0] * self.realization.n ** 2
        for a, b, sign in ((i, j, 1), (j, i, -1)):
            for k, x in self._sparse[a]:
                for t, y in self._sparse[b]:
                    if t // n == k % n:
                        out[k - k % n + t % n] += sign * x * y
        return self.coordinates_of_matrix(FieldMatrix(n, n, self.p, out)) \
            if any(out) else [0] * self.dim

    def matrix_of(self, coords: Sequence[int]) -> FieldMatrix:
        n = self.realization.n
        out = [0] * (n * n)
        for c, pairs in zip(coords, self._sparse):
            if c:
                for k, x in pairs:
                    out[k] += c * x
        return FieldMatrix(n, n, self.p, out)

    # -- structure constants -------------------------------------------

    def _set_structure(self, bracket_of):
        """Fill the structure table from bracket_of(i, j), the coordinates
        of [b_i, b_j] for i < j.  The table is grouped by first index: row
        i holds (j, ((k, c), ...)) for each j > i with [b_i, b_j] != 0,
        listing the nonzero coordinates c of b_k; _ad[i][m] holds the
        entries of [b_i, b_m] in both orders, for `_root_table`,
        `character` and `_verify_structure` (`basis_bracket` reads it as a
        test reference)."""
        rows, ad = [], [{} for _ in range(self.dim)]
        for i in range(self.dim):
            row = []
            for j in range(i + 1, self.dim):
                entries = tuple((k, c) for k, c in enumerate(bracket_of(i, j))
                                if c)
                if entries:
                    row.append((j, entries))
                    ad[i][j] = entries
                    ad[j][i] = tuple((k, -c % self.p) for k, c in entries)
            rows.append(tuple(row))
        self._rows, self._ad = tuple(rows), ad

    def structure_constants(self) -> dict:
        """Map (i, j) -> ((k, c), ...), the nonzero coordinates c of b_k in
        [b_i, b_j], for i < j with [b_i, b_j] != 0."""
        return {(i, j): entries for i, row in enumerate(self._rows)
                for j, entries in row}

    def basis_bracket(self, i: int, j: int) -> tuple:
        """The nonzero coordinates ((k, c), ...) of [b_i, b_j]."""
        return self._ad[i].get(j, ())

    @cached_property
    def _root_table(self) -> tuple:
        """(sums, coroots), read off `_ad` once, on first use: sums[i][j]
        is the root index of the line holding [e_i, e_j] and coroots[i][j]
        the canonical row of the torus line holding [e_i, e_j], over root
        indices i, j."""
        roots, sums, coroots = self.frame.index_root, {}, {}
        for i in roots:
            sums[i], coroots[i] = {}, {}
            for j, entries in self._ad[i].items():
                if j in roots:
                    if entries[0][0] in roots:
                        sums[i][j] = entries[0][0]
                    else:
                        # [e_i, e_j] and [e_j, e_i] have one canonical row
                        inv, entry = inv_mod(entries[0][1], self.p), dict(entries)
                        coroots[i][j] = tuple(entry.get(k, 0) * inv % self.p
                                              for k in range(self.dim))
        return sums, coroots

    def character(self, z, idx: int) -> int:
        """b(z) in [z, e_b] = b(z) e_b, e_b = b_idx a root line, z a torus
        vector in ambient coordinates, read off `_ad`: [h_t, e_b] =
        b(h_t) e_b for each torus index t."""
        return sum(z[t] * c for t in self.frame.torus_indices
                   for _, c in self._ad[t].get(idx, ())) % self.p

    def moved_lines(self, z) -> frozenset:
        """The root indices b with b(z) != 0, for a torus row z (a tuple in
        ambient coordinates), memoised in `_memo` from its first use."""
        key = ("moved", z)
        if key not in self._memo:
            self._memo[key] = frozenset(i for i in self.frame.index_root
                                        if self.character(z, i))
        return self._memo[key]

    def split_bracket(self, a, b, coroots) -> tuple:
        """[e_i, e_j] over the root indices i in the set a, j in the set b,
        and [z, e_i] over the torus rows z in `coroots`, as (root indices,
        canonical rows of the torus lines of the coroots [e_c, e_-c]), read
        off the table of root-index pairs (`_root_table`) and the kill sets
        (`moved_lines`).  [e_i, e_j] and [e_j, e_i] span one line, so both
        are read off the rows of the smaller of a and b."""
        sums, tori = self._root_table
        lines, found = set(), set()
        small, large = (a, b) if len(a) <= len(b) else (b, a)
        for k in small:
            row, torus_row = sums[k], tori[k]
            lines.update(row[j] for j in row.keys() & large)
            found.update(torus_row[j] for j in torus_row.keys() & large)
        for z in coroots:
            lines.update(self.moved_lines(z).intersection(a))
        return lines, found

    def line_graph(self, lines) -> dict:
        """Each root index j in the set `lines` mapped to its successors in
        it: the lines [e_i, e_j], i in `lines`, and the lines that a coroot
        [e_i, e_j] does not kill (`split_bracket`, `moved_lines`)."""
        succ = {}
        for j in lines:
            found, coroots = self.split_bracket({j}, lines, ())
            succ[j] = found.union(*(self.moved_lines(z) & lines
                                    for z in coroots))
        return succ

    def _split_holds(self, found, lines, torus: Subspace) -> bool:
        """Whether `split_bracket`'s (root indices, torus rows) lie in the
        split subspace of the root lines `lines` plus the torus `torus`."""
        return found[0] <= lines and all(map(torus.contains_vector, found[1]))

    def bracket_vec(self, x: Sequence[int], y: Sequence[int]) -> list:
        # row i pairs b_i with later b_j only, so it adds nothing when
        # x_i = y_i = 0
        p = self.p
        out = [0] * self.dim
        for xi, yi, row in zip(x, y, self._rows):
            if xi or yi:
                for j, entries in row:
                    f = (xi * y[j] - x[j] * yi) % p
                    if f:
                        for k, c in entries:
                            out[k] = (out[k] + f * c) % p
        return out

    def ad_matrix_vec(self, x: Sequence[int]) -> FieldMatrix:
        # [x, b_j] = sum_i x_i [b_i, b_j]: entry c b_k of [b_i, b_j] adds
        # x_i c to column j and -x_j c to column i of row k
        d = self.dim
        flat = [0] * (d * d)
        for i, row in enumerate(self._rows):
            xi = x[i]
            for j, entries in row:
                xj = x[j]
                if xi or xj:
                    for k, c in entries:
                        flat[k * d + j] += xi * c
                        flat[k * d + i] -= xj * c
        return FieldMatrix(d, d, self.p, flat)

    def p_power_vec(self, x: Sequence[int]) -> list:
        m = self.matrix_of(x)
        return self.coordinates_of_matrix(m.pow(self.p))

    def is_p_closed(self, u: Subspace) -> bool:
        """Whether u holds the p-power of each of its basis vectors, which
        for a subalgebra u is p-closure (Jacobson's formula).  A unit row
        reads its p-power off the build (`unit_powers`), with no matrix
        power."""
        return all(u.contains_vector(
            self.unit_powers[b.index(1)] if b.count(0) == self.dim - 1
            else self.p_power_vec(list(b))) for b in u.basis)

    def _verify_structure(self):
        """Check the Jacobi identity on every basis triple and ad(b_i^[p])
        = ad(b_i)^p on every b_i, off the rows and `_ad`, keeping each
        b_i^[p] (`unit_powers`).  The Jacobiator is alternating, as the
        bracket is; on {a, b, e} it is the sum of the terms
        [b_e, [b_a, b_b]], so the sum of c [b_e, b_m] over the nonzero
        [b_a, b_b] = sum c b_m and [b_e, b_m] gives it exactly."""
        p, d, ad = self.p, self.dim, self._ad

        def combine(terms):
            # nonzero coordinates of sum x (c b_k, ...) over (x, ((k, c), ...))
            out = defaultdict(int)
            for x, entries in terms:
                for k, c in entries:
                    out[k] += x * c
            return {k: x % p for k, x in out.items() if x % p}

        terms = defaultdict(list)
        for a, row in enumerate(self._rows):
            for b, entries in row:
                for m, c in entries:
                    for e, img in ad[m].items():
                        if e != a and e != b:
                            # [b_e, c b_m] = -c [b_m, b_e], signed by (e, a, b)
                            # as a permutation of the sorted triple
                            terms[tuple(sorted((a, b, e)))].append(
                                (c if a < e < b else -c, img))
        if any(map(combine, terms.values())):
            raise AssertionError("Jacobi identity fails on basis triple")
        self.unit_powers = tuple(tuple(self.p_power_vec(self.unit(i)))
                                 for i in range(d))
        for i, xp in enumerate(self.unit_powers):
            xp = [(m, x) for m, x in enumerate(xp) if x]
            for j in range(d):
                v = {j: 1}      # ad(b_i)^p b_j, by p sparse applications
                for _ in range(p):
                    if not v:
                        break
                    v = combine((x, ad[i].get(m, ())) for m, x in v.items())
                if v != combine((x, ad[m].get(j, ())) for m, x in xp):
                    raise AssertionError("ad(x^[p]) != ad(x)^p on a basis element")

    # -- elements --------------------------------------------------------

    def unit(self, i: int) -> list:
        u = [0] * self.dim
        u[i] = 1
        return u

    def element(self, coords: Sequence[int]) -> "Element":
        return Element(self, tuple(c % self.p for c in coords))

    def basis_element(self, i: int) -> "Element":
        coords = [0] * self.dim
        coords[i] = 1
        return self.element(coords)

    def element_by_label(self, label: str) -> "Element":
        return self.basis_element(self.labels.index(label))

    def zero(self) -> "Element":
        return self.element([0] * self.dim)

    def subspace(self, vectors) -> Subspace:
        return Subspace.from_vectors(vectors, self.dim, self.p)

    def full_space(self) -> Subspace:
        return self._full_space

    @cached_property
    def _full_space(self) -> Subspace:
        return Subspace.full(self.dim, self.p)

    # -- killing form ------------------------------------------------------

    def killing_gram(self) -> FieldMatrix:
        if "gram" not in self._memo:
            ads = [self.ad_matrix_vec(self.unit(i)) for i in range(self.dim)]
            self._memo["gram"] = trace_gram(ads, self.p)
        return self._memo["gram"]

    def killing_form(self, x: "Element", y: "Element") -> int:
        return sum(a * b for a, b in zip(
            x.coords, self.killing_gram().matvec(y.coords))) % self.p

    def killing_nondegenerate(self) -> bool:
        return rref(self.killing_gram())[1] == self.dim

    def killing_kernel(self) -> Subspace:
        return kernel(self.killing_gram())

    def orthogonal(self, s: Subspace) -> Subspace:
        """Orthogonal complement w.r.t. the Killing form."""
        forms = FieldMatrix(s.dim, self.dim, self.p, [
            x for v in s.basis for x in v]) @ self.killing_gram()
        return solve_linear(self.full_space(), forms.matvec)

    # -- the subalgebra calculus -------------------------------------------

    def normalizer(self, u: Subspace) -> Subspace:
        """N_g(u), memoised, by one `solve_linear` over g.  For a
        coordinate-split u it is the torus plus the root lines e_a with
        [e_a, u] in u (module notes): the condition is x_a = 0 for every
        other root index a, read off `split_bracket`."""
        key = ("norm", u.basis)
        if key not in self._memo:
            split = coordinate_split(self, u)
            if split is not None:
                torus, lines = split
                out = [a for a in self.frame.index_root if not self._split_holds(
                    self.split_bracket({a}, lines, torus.basis), lines, torus)]
            self._memo[key] = solve_linear(self.full_space(), (lambda x: [
                c for b in u.basis
                for c in u.reduce_vector(self.bracket_vec(x, list(b)))])
                if split is None else lambda x: [x[a] for a in out])
        return self._memo[key]

    def centralizer(self, u: Subspace) -> Subspace:
        return solve_linear(self.full_space(), lambda x: [
            c for b in u.basis for c in self.bracket_vec(x, list(b))])

    def center(self) -> Subspace:
        return self.centralizer(self.full_space())

    def bracket_spaces(self, a: Subspace, b: Subspace) -> Subspace:
        vecs = [self.bracket_vec(list(x), list(y)) for x in a.basis for y in b.basis]
        return Subspace.from_vectors(vecs, self.dim, self.p)

    def subalgebra_closure(self, gens: Sequence["Element"]) -> Subspace:
        """The subalgebra generated by gens; a vector that enlarges the span
        is bracketed once with each one found before it."""
        span, basis = Echelon(self.dim, self.p), []
        todo = [list(g.coords) for g in gens]
        while todo:
            w = todo.pop()
            if span.add(w):
                todo.extend(self.bracket_vec(b, w) for b in basis)
                basis.append(w)
        return Subspace(self.dim, self.p, span.rows(self.dim))

    def is_subalgebra(self, u: Subspace) -> bool:
        """Whether [a, b] lies in u for basis vectors a < b, to the first
        miss.  For a coordinate-split u only pairs of root lines count, as
        the torus part brackets each line into itself (module notes)."""
        split = coordinate_split(self, u)
        if split is not None:
            return self.split_closed(split)
        basis = [list(b) for b in u.basis]
        return all(u.contains_vector(self.bracket_vec(a, b))
                   for i, a in enumerate(basis) for b in basis[i + 1:])

    def check_subalgebra(self, u: Subspace, what: str = "input") -> None:
        """The one subalgebra gate: InputError, naming `what`, unless
        `is_subalgebra(u)`."""
        if not self.is_subalgebra(u):
            raise InputError(f"{what} is not a subalgebra")

    def split_closed(self, split) -> bool:
        """`is_subalgebra` of a split subspace read as `coordinate_split`'s
        (torus part, root indices): the pairs of its root lines."""
        torus, lines = split
        return self._split_holds(self.split_bracket(lines, lines, ()),
                                 lines, torus)

    def derived_series(self, u: Subspace) -> list:
        return self._series(u, lambda t: self.bracket_spaces(t, t))

    def lower_central_series(self, u: Subspace) -> list:
        return self._series(u, lambda t: self.bracket_spaces(u, t))

    @staticmethod
    def _series(u: Subspace, step) -> list:
        """u, step(u), ... to 0 or to the first term that does not shrink."""
        series = [u]
        while series[-1].dim:
            series.append(step(series[-1]))
            if series[-1].dim == series[-2].dim:
                break
        return series

    def is_solvable(self, u: Subspace) -> bool:
        return self.derived_series(u)[-1].dim == 0

    def is_nilpotent(self, u: Subspace) -> bool:
        return self.lower_central_series(u)[-1].dim == 0

    def largest_ideal_inside(self, h: Subspace, v: Subspace) -> Subspace:
        """Largest h-ideal contained in v (v must sit inside h): the fixed
        point of W <- {x in W : [h, x] subset of W}.  For a coordinate-split
        h and a v of root lines, W is root lines too (module notes): a line
        leaves when some root line of h brackets it out of W."""
        if not h.contains(v):
            raise ValueError("v must be contained in h")
        hsplit, vsplit = coordinate_split(self, h), coordinate_split(self, v)
        if hsplit is not None and vsplit is not None and not vsplit[0].dim:
            reach = {b: self.split_bracket(hsplit[1], {b}, ()) for b in vsplit[1]}
            w, kept = None, set(reach)
            while kept != w:
                w, kept = kept, {b for b in kept
                                 if not reach[b][1] and reach[b][0] <= kept}
            return split_sum(self, w, vsplit[0])
        w = v
        while w.dim:
            new = solve_linear(w, lambda x: [
                c for hv in h.basis
                for c in w.reduce_vector(self.bracket_vec(list(hv), x))])
            if new.dim == w.dim:
                return w
            w = new
        return w

    # -- nilpotent lifts and exponentials --------------------------------

    def linear_lift(self, coords: Sequence[int]) -> FieldMatrix:
        """The matrix of x, linear in x, that is nilpotent exactly when x is
        p-nilpotent: the matrix M of x; on pgl with p not dividing n,
        M - (tr M / n), as the nilpotent M - c of `nilpotent_lift` has
        trace 0; on pgl with p | n, where c is not linear in x, ad x, as
        the centre of pgl_n is 0 and ad(x^[p]) = ad(x)^p."""
        real = self.realization
        if not real.mod_scalars:
            return self.matrix_of(coords)
        if real.n % self.p == 0:
            return self.ad_matrix_vec(coords)
        m = self.matrix_of(coords)
        return m - FieldMatrix.identity(real.n, self.p).scale(
            m.trace() * inv_mod(real.n, self.p))

    def nilpotent_lift(self, coords: Sequence[int]) -> Optional[FieldMatrix]:
        """The matrix M of x when it is nilpotent, else None; on pgl, the
        one representative M - c, c in F_p, that is nilpotent.  It exists
        exactly when M has a single eigenvalue lambda, which lies in F_p:
        for n = p^a n' with p not dividing n', the characteristic
        polynomial (t^(p^a) - lambda^(p^a))^n' has the coefficient
        -n' lambda^(p^a) in F_p, and Frobenius is injective.  Then lambda is
        the first entry of M^(p^m) = lambda + (M - lambda)^(p^m), for
        p^m >= n."""
        m, n = self.matrix_of(coords), self.realization.n
        if self.realization.mod_scalars:
            q = self.p
            while q < n:
                q *= self.p
            m = m - FieldMatrix.identity(n, self.p).scale(m.pow(q).entries[0])
        return m if m.is_nilpotent() else None

    def exp_trunc(self, x: "Element") -> FieldMatrix:
        """Truncated exponential E(X) = sum_{i<p} X^i / i! of the nilpotent
        lift X of x, which must have X^p = 0.  Then E(X) E(-X) = 1, as the
        terms of degree 0 < k < p cancel and X^k = 0 for k >= p; and on sp
        and so, where X^T J = -J X, E(X)^T J E(X) = J E(-X) E(X) = J."""
        m = self.nilpotent_lift(x.coords)
        if m is None:
            raise ValueError("element has no nilpotent representative")
        if not m.pow(self.p).is_zero():
            raise ValueError("matrix nilpotency order must be at most p")
        return exp_trunc_matrix(m, self.p)

    def ad_exp_compat(self, x: "Element") -> bool:
        """Whether conjugation by exp(x) equals the truncated exponential
        of ad(x) as operators on the algebra."""
        e = self.exp_trunc(x)
        eneg = self.exp_trunc(self.element([(-c) % self.p for c in x.coords]))
        # column i holds the coordinates of e b_i e^-1
        conj_op = FieldMatrix.from_rows([self.coordinates_of_matrix(e @ m @ eneg)
                                         for m in self.realization.mats],
                                        self.p).transpose()
        ad_op = exp_trunc_matrix(self.ad_matrix_vec(x.coords), self.p)
        return conj_op == ad_op

    # -- misc ---------------------------------------------------------------

    def __repr__(self):
        tag = self.family or "custom"
        return f"LieAlgebra({tag}, dim {self.dim}, p={self.p})"


def exp_trunc_matrix(m: FieldMatrix, p: int) -> FieldMatrix:
    """sum_{i=0}^{p-1} m^i / i!  (no nilpotency requirement; callers decide
    whether the truncation is the full series)."""
    acc = FieldMatrix.identity(m.rows, p)
    term = FieldMatrix.identity(m.rows, p)
    fact_inv = 1
    for i in range(1, p):
        term = term @ m
        fact_inv = (fact_inv * inv_mod(i, p)) % p
        acc = acc + term.scale(fact_inv)
    return acc


class Element:
    """A vector of the algebra in basis coordinates."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: LieAlgebra, coords: tuple):
        if len(coords) != algebra.dim:
            raise ValueError("coordinate length mismatch")
        self.algebra = algebra
        self.coords = coords

    def _check(self, other: "Element"):
        if self.algebra is not other.algebra:
            raise ValueError("elements of different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return self.algebra.element([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return self.algebra.element([a - b for a, b in zip(self.coords, other.coords)])

    def scale(self, c: int) -> "Element":
        return self.algebra.element([c * a for a in self.coords])

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        return (isinstance(other, Element) and self.algebra is other.algebra
                and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.algebra), self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def bracket(self, other: "Element") -> "Element":
        self._check(other)
        return self.algebra.element(self.algebra.bracket_vec(self.coords, other.coords))

    def ad(self) -> FieldMatrix:
        return self.algebra.ad_matrix_vec(self.coords)

    def matrix(self) -> FieldMatrix:
        return self.algebra.matrix_of(self.coords)

    def p_power(self) -> "Element":
        return self.algebra.element(self.algebra.p_power_vec(self.coords))

    def __repr__(self):
        terms = [f"{c}*{self.algebra.labels[i]}" for i, c in enumerate(self.coords) if c]
        return "Element(" + (" + ".join(terms) if terms else "0") + ")"


# ---------------------------------------------------------------------------
# Jacobson correction term
# ---------------------------------------------------------------------------

def jacobson_defect(x: Element, y: Element) -> Element:
    """The correction W(x, y) in (x+y)^[p] = x^[p] + y^[p] - W(x, y).

    ad(t x + y)^(p-1)(x) is expanded as a polynomial in t, kept as its
    list of coefficient vectors by degree: each of the p - 1 steps sends
    the coefficient c of t^d to [y, c] at t^d and [x, c] at t^(d+1), on
    the algebra's own `bracket_vec`.  W is the sum of the coefficients of
    t^(i-1) weighted by -1/i, for i = 1, ..., p - 1."""
    alg = x.algebra
    x._check(y)
    p = alg.p
    poly = [x.coords]
    for _ in range(p - 1):
        nxt = [alg.bracket_vec(y.coords, c) for c in poly] + [[0] * alg.dim]
        for d, c in enumerate(poly):
            if any(c):
                up = alg.bracket_vec(x.coords, c)
                nxt[d + 1] = [(a + b) % p for a, b in zip(nxt[d + 1], up)]
        poly = nxt
    return alg.element(_combine([-inv_mod(i, p) for i in range(1, p)], poly,
                                alg.dim, p))


def jacobson_defect_reference(x: Element, y: Element) -> Element:
    """Literal selector-map sum (exponential in p; cross-check only):
    sum over maps u : [1, p-1] -> {0, 1} grouped by the number r of zeros,
    each term ad x_{u(1)} ... ad x_{u(p-1)} (x) weighted by 1/r, where
    value 1 selects x and value 0 selects y."""
    alg = x.algebra
    p = alg.p
    adx = alg.ad_matrix_vec(x.coords)
    ady = alg.ad_matrix_vec(y.coords)
    total = [0] * alg.dim
    for mask in range(1 << (p - 1)):
        r = (p - 1) - bin(mask).count("1")
        if r == 0:
            continue
        vec = list(x.coords)
        for pos in reversed(range(p - 1)):
            vec = (adx if mask >> pos & 1 else ady).matvec(vec)
        w = inv_mod(r, p)
        for k, v in enumerate(vec):
            total[k] = (total[k] + w * v) % p
    return alg.element(total)


# ---------------------------------------------------------------------------
# Family constructions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def build(family: str, n: int, p: int) -> LieAlgebra:
    """Build gl_n, sl_n or pgl_n (n >= 2), sp_n (n = 2k >= 4) or so_n
    (n >= 5, p odd) whose dimension fits the cap gfp.MAX_DIM = 64: n^2 on
    gl, n^2 - 1 on sl and pgl, k(2k + 1) on sp, n(n - 1)/2 on so.  So n
    runs up to 8 on type A, 10 on sp and 11 on so.

    One rule builds every family.  sp_2k preserves J = [[0, I], [-I, 0]]
    and so_n the antidiagonal symmetric form J (split, p odd).  Both are
    monomial, J e_c = sign_c e_perm(c), so J^-1 E_ba J is
    sign_perm(a) sign_perm(b) E_perm(b),perm(a) with no matrix product.
    Under the standard torus, row a of an n x n matrix has the weight e_a,
    or on sp and so e_a for a < k, -e_c for perm(a) = c < k, and 0 else;
    position (a, b) has weight(a) - weight(b).  The root vector of a root
    alpha is X_ab = E_ab - J^-1 E_ba J at the first row-major position
    (a, b) of weight alpha, halved when it equals 2 E_ab, and plain E_ab on
    type A.  The sp/so torus is X_aa for a < k; the type-A torus is the
    diagonal units (pgl drops the last) or, on sl, their differences.  The
    root vectors follow rd.positive_roots (by height), then their
    negatives."""
    check_modulus(p)
    dims = {"gl": n * n, "sl": n * n - 1, "pgl": n * n - 1,
            "sp": n * (n + 1) // 2, "so": n * (n - 1) // 2}
    if family not in dims:
        raise InputError(f"unknown family {family!r}")
    if dims[family] > MAX_DIM:
        raise InputError(f"{family}_{n} has dimension {dims[family]}, "
                         f"above the cap {MAX_DIM}")
    if family in ("gl", "sl", "pgl"):
        if n < 2:
            raise InputError("gl/sl/pgl take n >= 2")
        rank, rd, perm, sign = n, build_rootdatum("A", n - 1), None, None
    elif family == "sp":
        if n % 2 or n < 4:
            raise InputError("sp takes the matrix size 2k >= 4")
        rank = n // 2
        rd = build_rootdatum("C", rank)
        perm = [(c + rank) % n for c in range(n)]
        sign = [-1] * rank + [1] * rank
    else:
        if n < 5:
            raise InputError("so takes n >= 5")
        if p == 2:
            raise InputError("so is not supported at p = 2")
        rank = n // 2
        rd = build_rootdatum("B" if n % 2 else "D", rank)
        perm, sign = list(reversed(range(n))), [1] * n

    def root_vector(a, b):
        entries = [0] * (n * n)
        entries[a * n + b] = 1
        if perm:
            entries[perm[b] * n + perm[a]] -= sign[perm[a]] * sign[perm[b]]
            if entries[a * n + b] == 2:
                entries[a * n + b] = 1
        return FieldMatrix(n, n, p, entries)

    weights = []
    for a in range(n):
        w = [0] * rank
        if a < rank:
            w[a] = 1
        elif perm[a] < rank:        # type A has rank n, so only sp and so
            w[perm[a]] = -1
        weights.append(tuple(w))
    first = {}      # weight -> its first row-major position
    for a, wa in enumerate(weights):
        for b, wb in enumerate(weights):
            first.setdefault(tuple(x - y for x, y in zip(wa, wb)), (a, b))

    if perm:
        torus = [(f"t{i + 1}", root_vector(i, i)) for i in range(rank)]
    elif family == "sl":
        torus = [(f"h{i + 1}", root_vector(i, i) - root_vector(i + 1, i + 1))
                 for i in range(n - 1)]
    else:
        # classes of the first n-1 diagonal units stay independent mod
        # scalars for every p, unlike the sl-style differences when p | n
        torus = [(f"t{i + 1}", root_vector(i, i))
                 for i in range(n if family == "gl" else n - 1)]
    labels = [label for label, _ in torus]
    mats = [m for _, m in torus]
    index_root = {}
    negatives = tuple(tuple(-x for x in r) for r in rd.positive_roots)
    for root in rd.positive_roots + negatives:
        a, b = first[root]
        index_root[len(mats)] = root
        mats.append(root_vector(a, b))
        labels.append("x" + str(root).replace(" ", "") if perm
                      else f"e{a + 1}{b + 1}" if a < b else f"f{b + 1}{a + 1}")
    frame = TorusFrame(family, rd, len(torus), index_root, weights,
                       sum_zero=family in ("sl", "pgl"),
                       form=(tuple(perm), tuple(sign)) if perm else None)
    return LieAlgebra(p, labels, Realization(n, tuple(mats), family == "pgl"),
                      frame=frame, family=f"{family}{n}")


# ---------------------------------------------------------------------------
# Standard subalgebras in the torus frame
# ---------------------------------------------------------------------------

def torus_subspace(g: LieAlgebra) -> Subspace:
    return g.subspace([g.unit(i) for i in g.frame.torus_indices])


def coordinate_split(g: LieAlgebra, s: Subspace) -> Optional[tuple]:
    """(s n t, the frozenset of root indices of the lines in s) when s is
    its torus part plus root lines of the standard frame, else None: read
    off the pivots (module notes).  The rows pivoting below t = dim t must
    be 0 past t; each later row, its entries in [0, p), is a root line
    exactly when it sums to 1."""
    if g.frame is None:
        return None
    t = len(g.frame.torus_indices)
    k = bisect_left(s.pivots, t)
    if any(any(row[t:]) for row in s.basis[:k]) or \
            any(sum(row) != 1 for row in s.basis[k:]):
        return None
    return s.prefix(k), frozenset(s.pivots[k:])


def split_sum(g: LieAlgebra, indices, torus: Subspace) -> Subspace:
    """The split subspace of the root lines with these indices plus a
    subspace of the torus coordinates, the inverse of `coordinate_split`:
    the torus part's canonical rows, then the units in index order, its
    canonical basis (module notes), adopted with no elimination."""
    return Subspace(g.dim, g.p, list(torus.basis)
                    + [g.unit(i) for i in sorted(indices)])


def parabolic_parts(g: LieAlgebra, roots, *keys) -> dict:
    """The split subspaces of a parabolic root subset under the keys asked
    for, all three when none is: "parabolic", t plus every line;
    "nilradical", the lines whose negative root is absent; "levi", t plus
    those whose negative is present.  The one place that split is made
    (`standard_parabolic`, `tower`'s witness, `kempf`'s p(lambda))."""
    keys = keys or ("parabolic", "nilradical", "levi")
    index = {r: g.frame.root_index[r] for r in roots}
    levi = {i for r, i in index.items() if tuple(-x for x in r) in index}
    lines = set(index.values())
    torus = torus_subspace(g) if {"parabolic", "levi"} & set(keys) else None
    parts = {"parabolic": (lines, torus), "levi": (levi, torus),
             "nilradical": (lines - levi, Subspace.zero(g.dim, g.p))}
    return {key: split_sum(g, *parts[key]) for key in keys}


def standard_parabolic(g: LieAlgebra, chosen_simples) -> dict:
    """The standard parabolic for a subset of simple roots: returns the
    root subset, its `parabolic_parts` and the chosen simples."""
    chosen = frozenset(chosen_simples)
    roots = parabolic_roots(g.frame.rootdatum, chosen)
    return {"roots": roots, **parabolic_parts(g, roots), "simples": chosen}


def standard_borel(g: LieAlgebra) -> dict:
    return standard_parabolic(g, ())


def weyl_matrices(g: LieAlgebra) -> list:
    """Representatives of the Weyl group as realization matrices
    (permutations for type A; signed block permutations for sp)."""
    p = g.p
    fam = g.frame.family
    out = []
    if fam in ("gl", "sl", "pgl"):
        n = g.realization.n
        for perm in permutations(range(n)):
            entries = [0] * (n * n)
            for i, pi in enumerate(perm):
                entries[pi * n + i] = 1
            out.append(FieldMatrix(n, n, p, entries))
        return out
    if fam == "sp":
        # signed permutations; flip i swaps e_i <-> f_i with a sign
        n = g.frame.rootdatum.rank
        for perm in permutations(range(n)):
            for flips in range(1 << n):
                N = 2 * n
                entries = [0] * N * N
                for i, pi in enumerate(perm):
                    if flips >> i & 1:
                        entries[(n + pi) * N + i] = 1
                        entries[pi * N + (n + i)] = p - 1
                    else:
                        entries[pi * N + i] = 1
                        entries[(n + pi) * N + (n + i)] = 1
                out.append(FieldMatrix(N, N, p, entries))
        return out
    raise ValueError(f"no Weyl frame for family {fam}")


def conjugate_subspace(g: LieAlgebra, w: FieldMatrix, s: Subspace,
                       winv: Optional[FieldMatrix] = None) -> Subspace:
    """Image of a subspace under conjugation by an invertible realization
    matrix normalising g, by one dense w M winv per basis vector (winv, when
    given, is w's inverse): for `parabolic.contains_borel`, the tower's
    witness, the benchmark's inputs and the tests' oracle."""
    winv = w.inverse() if winv is None else winv
    return g.subspace([g.coordinates_of_matrix(w @ g.matrix_of(list(v)) @ winv)
                       for v in s.basis])
