import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morozov.gfp import (MAX_DIM, MAX_ENVELOPE, Echelon, FieldMatrix,
                         Subspace, _combine, _rref_rows, is_prime,
                         jacobson_radical, kernel, rref, solve_linear,
                         trace_gram)


def naive_row_reduce(rows, cols, p):
    """Independent elimination oracle: forward elimination + back substitution,
    written without touching the library code paths."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(cols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rows, rank


def test_rref_identity():
    m = FieldMatrix.identity(3, 5)
    r, rank = rref(m)
    assert r == m and rank == 3


def test_rref_rank_one():
    m = FieldMatrix.from_rows([[1, 2], [2, 4]], 5)
    r, rank = rref(m)
    oracle_rows, oracle_rank = naive_row_reduce([[1, 2], [2, 4]], 2, 5)
    assert r.to_rows() == oracle_rows == [[1, 2], [0, 0]]
    assert rank == oracle_rank == 1


def test_rref_zero():
    m = FieldMatrix.zero(2, 2, 7)
    r, rank = rref(m)
    assert r == m and rank == 0


def test_rref_idempotent():
    rng = random.Random(1)
    for p in (2, 3, 5):
        for _ in range(25):
            rows = [[rng.randrange(p) for _ in range(4)] for _ in range(3)]
            m = FieldMatrix.from_rows(rows, p)
            r1, _ = rref(m)
            r2, _ = rref(r1)
            assert r1 == r2


def test_kernel_examples():
    k = kernel(FieldMatrix.from_rows([[1, 1], [0, 0]], 3))
    assert k.basis == ((1, 2),)
    inv = FieldMatrix.from_rows([[1, 1], [0, 1]], 5)
    assert kernel(inv).dim == 0
    assert kernel(FieldMatrix.zero(3, 3, 5)).dim == 3


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 5), st.integers(1, 5),
       st.randoms(use_true_random=False))
def test_rank_nullity(p, rows, cols, rnd):
    entries = [rnd.randrange(p) for _ in range(rows * cols)]
    m = FieldMatrix(rows, cols, p, entries)
    _, rank = rref(m)
    assert rank + kernel(m).dim == cols


def test_subspace_sum_intersection_examples():
    p = 5
    e1 = [1, 0, 0]
    e2 = [0, 1, 0]
    e3 = [0, 0, 1]
    a = Subspace.from_vectors([e1], 3, p)
    b = Subspace.from_vectors([e2], 3, p)
    assert a.sum(b) == Subspace.from_vectors([e1, e2], 3, p)
    big = Subspace.from_vectors([e1, e2], 3, p)
    other = Subspace.from_vectors([e2, e3], 3, p)
    assert big.intersect(other) == Subspace.from_vectors([e2], 3, p)


def test_subspace_equality_reordering():
    p = 7
    a = Subspace.from_vectors([[1, 2, 3], [0, 1, 4]], 3, p)
    b = Subspace.from_vectors([[0, 1, 4], [1, 2, 3], [1, 3, 0]], 3, p)
    assert a == b


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5]), st.randoms(use_true_random=False))
def test_dim_formula(p, rnd):
    n = 5
    a = Subspace.from_vectors(
        [[rnd.randrange(p) for _ in range(n)] for _ in range(rnd.randrange(4))], n, p)
    b = Subspace.from_vectors(
        [[rnd.randrange(p) for _ in range(n)] for _ in range(rnd.randrange(4))], n, p)
    assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim


def test_subspace_membership():
    p = 3
    s = Subspace.from_vectors([[1, 1, 0], [0, 0, 1]], 3, p)
    assert s.contains_vector([1, 1, 1])
    assert not s.contains_vector([1, 0, 0])
    assert s.coordinates_of([2, 2, 1]) == [2, 1]


def _brute_solve(space, condition):
    """Oracle: every vector of the space on which the condition vanishes."""
    return {tuple(v) for v in space.enumerate_vectors() if not any(condition(v))}


def _random_linear_map(rng, p, n, height):
    m = [[rng.randrange(p) for _ in range(n)] for _ in range(height)]
    return lambda x: [sum(a * b for a, b in zip(row, x)) % p for row in m]


def test_solve_linear_matches_brute_force():
    rng = random.Random(7)
    n = 5
    for p in (2, 3, 5):
        for _ in range(20):
            k = rng.randrange(5)                      # p^k <= 5^4 vectors
            space = Subspace.from_vectors(
                [[rng.randrange(p) for _ in range(n)] for _ in range(k)], n, p)
            condition = _random_linear_map(rng, p, n, rng.randrange(1, 4))
            out = solve_linear(space, condition)
            assert space.contains(out)
            assert {tuple(v) for v in out.enumerate_vectors()} \
                == _brute_solve(space, condition)


def test_solve_linear_edge_cases():
    p, n = 5, 4
    full = Subspace.full(n, p)
    zero = Subspace.zero(n, p)
    condition = _random_linear_map(random.Random(3), p, n, 2)
    assert solve_linear(zero, condition) == zero
    assert solve_linear(full, lambda x: [0, 0]) == full
    assert solve_linear(full, lambda x: []) == full
    plane = Subspace.from_vectors([[1, 2, 0, 0], [0, 0, 1, 3]], n, p)
    assert solve_linear(plane, lambda x: [0] * 3) == plane
    # the full space returns the kernel itself
    assert solve_linear(full, lambda x: x[:2]) == \
        Subspace.from_vectors([[0, 0, 1, 0], [0, 0, 0, 1]], n, p)


def test_inverse():
    rng = random.Random(5)
    for p in (3, 7):
        found = 0
        while found < 10:
            m = FieldMatrix.from_rows(
                [[rng.randrange(p) for _ in range(4)] for _ in range(4)], p)
            if rref(m)[1] < 4:
                with pytest.raises(ValueError):
                    m.inverse()
                continue
            found += 1
            assert m @ m.inverse() == FieldMatrix.identity(4, p)
    with pytest.raises(ValueError):
        FieldMatrix.from_rows([[1, 2], [2, 4]], 5).inverse()


def test_matrix_power_and_nilpotency():
    m = FieldMatrix.from_rows([[0, 1], [0, 0]], 5)
    assert m.pow(2).is_zero()
    assert m.is_nilpotent()
    t = FieldMatrix.from_rows([[1, 0], [0, 4]], 5)
    assert not t.is_nilpotent()
    # every power of the identity has trace 2 = 0 mod 2
    assert not FieldMatrix.identity(2, 2).is_nilpotent()


@pytest.mark.parametrize("p", [5, 7])
def test_matrix_power_is_the_repeated_product(p):
    rng = random.Random(f"pow {p}")
    m = FieldMatrix(4, 4, p, [rng.randrange(p) for _ in range(16)])
    product = FieldMatrix.identity(4, p)
    for e in range(9):
        assert m.pow(e) == product
        product = product @ m
    with pytest.raises(ValueError):
        m.pow(-1)


@pytest.mark.parametrize("p", [2, 5, 13])
def test_matvec_is_the_row_sum(p):
    # matrices with zero rows, zero columns and scattered zero entries,
    # square and not, against sum_j a_ij v_j; vectors with zero entries
    # and entries outside [0, p)
    rng = random.Random(f"matvec {p}")
    for rows, cols in [(4, 4), (3, 5), (5, 2), (1, 6), (6, 1)]:
        for _ in range(10):
            zero_row, zero_col = rng.randrange(rows), rng.randrange(cols)
            entries = [0 if i == zero_row or j == zero_col or rng.random() < 0.4
                       else rng.randrange(p)
                       for i in range(rows) for j in range(cols)]
            m = FieldMatrix(rows, cols, p, entries)
            v = [0 if rng.random() < 0.4 else rng.randrange(-2 * p, 2 * p)
                 for _ in range(cols)]
            out = m.matvec(v)
            assert out == [sum(m.entries[i * cols + j] * v[j]
                               for j in range(cols)) % p
                           for i in range(rows)]
            assert out[zero_row] == 0
            assert m.matvec([0] * cols) == [0] * rows
    assert FieldMatrix.zero(0, 3, p).matvec([1, 2, 3]) == []
    assert FieldMatrix.zero(2, 0, p).matvec([]) == [0, 0]
    with pytest.raises(ValueError):
        FieldMatrix.identity(3, p).matvec([1, 2])


def test_prime_guard():
    assert is_prime(13) and not is_prime(1) and not is_prime(9)
    with pytest.raises(ValueError):
        FieldMatrix.zero(2, 2, 15)


def _messy_rows(rng, p, count, cols):
    """Seeded rows over the integers: zero rows (some of them only zero
    mod p), rows dependent on a few base rows, negative entries and
    entries >= p."""
    base = [[rng.randrange(-2 * p, 3 * p) for _ in range(cols)]
            for _ in range(rng.randrange(1, 4))]
    rows = []
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            rows.append([p * rng.randrange(-2, 3) for _ in range(cols)])
        elif kind == 1:
            coeffs = [rng.randrange(-p, 2 * p) for _ in base]
            rows.append([sum(c * b[j] for c, b in zip(coeffs, base))
                         for j in range(cols)])
        else:
            rows.append([rng.randrange(-2 * p, 3 * p) for _ in range(cols)])
    return rows


def _reference_rref(rows, cols, p):
    """(pivot rows, pivot columns) of naive_row_reduce, reduced into [0, p)."""
    reduced, rank = naive_row_reduce(rows, cols, p)
    pivot_rows = [tuple(x % p for x in row) for row in reduced[:rank]]
    return pivot_rows, [next(c for c in range(cols) if row[c])
                        for row in pivot_rows]


def _reference_kernel(rows, cols, p):
    """The canonical kernel basis read off the reference echelon form: one
    vector per free column c, 1 at c and -row[c] at each pivot."""
    expected, pivots = _reference_rref(rows, cols, p)
    free = [c for c in range(cols) if c not in pivots]
    null = [[1 if j == c else 0 for j in range(cols)] for c in free]
    for v, c in zip(null, free):
        for row, pc in zip(expected, pivots):
            v[pc] = -row[c]
    return tuple(_reference_rref(null, cols, p)[0])


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_row_reduction_matches_the_reference(p):
    rng = random.Random(p)
    for _ in range(40):
        cols = rng.randrange(1, 10)
        rows = _messy_rows(rng, p, rng.choice([0, 1, 4, 9, MAX_DIM + 6]), cols)
        expected, pivots = _reference_rref(rows, cols, p)
        assert _rref_rows(rows, cols, p) == (expected, pivots)
        assert Subspace.from_vectors(rows, cols, p).basis == tuple(expected)
        if not rows:
            continue
        m = FieldMatrix(len(rows), cols, p, [x for row in rows for x in row])
        r, rank = rref(m)
        assert r.rows == m.rows and rank == len(pivots)
        assert r.entries == tuple(x for row in expected for x in row) \
            + (0,) * ((m.rows - rank) * cols)
        assert kernel(m).basis == _reference_kernel(rows, cols, p)


@pytest.mark.parametrize("p", [3, 5, 13])
def test_augmented_row_reduction_matches_the_reference(p):
    rng = random.Random(10 * p)
    for _ in range(40):
        n, extra = rng.randrange(1, 7), rng.randrange(1, 4)
        left = _messy_rows(rng, p, rng.choice([n, n + 3]), n)
        rows = [a + [rng.randrange(-p, 2 * p) for _ in range(extra)]
                for a in left]
        got, pivots = _rref_rows(rows, n, p)
        expected, ref_pivots = _reference_rref(rows, n, p)
        assert pivots == ref_pivots
        assert [row[:n] for row in got] == [row[:n] for row in expected]
        if len(pivots) == len(rows):
            assert got == expected
        # every returned row lies in the row space of the input
        rank = len(_reference_rref(rows, n + extra, p)[0])
        assert len(_reference_rref(rows + [list(r) for r in got], n + extra,
                                   p)[0]) == rank
        if len(rows) == n:
            m = FieldMatrix.from_rows(left, p)
            aug = [row + [int(i == j) for j in range(n)]
                   for i, row in enumerate(left)]
            inv_rows, inv_pivots = _reference_rref(aug, n, p)
            if len(inv_pivots) < n:
                with pytest.raises(ValueError):
                    m.inverse()
            else:
                assert m.inverse().to_rows() == [list(r[n:]) for r in inv_rows]


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_reduce_against_an_rref(p):
    rng = random.Random(f"reduce:{p}")
    for _ in range(40):
        cols = rng.randrange(1, 9)
        rows, pivots = _reference_rref(
            _messy_rows(rng, p, rng.randrange(6), cols), cols, p)
        span = Echelon(cols, p)
        span.extend(rows)
        space = Subspace.from_vectors(rows, cols, p)
        for _ in range(5):
            w = [rng.randrange(-2 * p, 3 * p) for _ in range(cols)]
            residual = span.reduce(w)
            assert residual == space.reduce_vector(w)
            assert all(x in range(p) for x in residual)
            assert all(residual[c] == 0 for c in pivots)
            # w - residual lies in the span: on an RREF it is the
            # combination of the rows by w's entries at the pivots
            part = [(x - y) % p for x, y in zip(w, residual)]
            assert _rank(rows + [part], cols, p) == len(rows)
            assert part == _combine([w[c] for c in pivots], rows, cols, p)
            assert (not any(residual)) == space.contains_vector(w) \
                == (_rank(rows + [w], cols, p) == len(rows))


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_coordinates_are_the_entries_at_the_pivots(p):
    rng = random.Random(f"coordinates:{p}")
    for _ in range(40):
        cols = rng.randrange(1, 9)
        space = Subspace.from_vectors(
            _messy_rows(rng, p, rng.randrange(6), cols), cols, p)
        rows = [list(row) for row in space.basis]
        for _ in range(5):
            inside = [rng.randrange(-p, 2 * p) for _ in rows]
            v = [x + p * rng.randrange(-2, 3)
                 for x in _combine(inside, rows, cols, p)]
            assert space.coordinates_of(v) == [x % p for x in inside] \
                == [v[c] % p for c in space.pivots]
            w = [rng.randrange(-2 * p, 3 * p) for _ in range(cols)]
            outside = _rank(rows + [w], cols, p) > space.dim
            assert (space.coordinates_of(w) is None) == outside


def _tall_sparse_matrix(rng, p, rows, cols):
    """A rows x cols matrix, mostly 0, whose nonzero rows repeat a few
    random rows up to a factor, as a stacked constraint system does."""
    base = [[rng.randrange(p) if rng.random() < 0.4 else 0
             for _ in range(cols)] for _ in range(3)]
    entries = []
    for _ in range(rows):
        if rng.random() < 0.8:
            entries.extend([0] * cols)
        else:
            f = rng.randrange(1, p)
            entries.extend(f * x for x in rng.choice(base))
    return FieldMatrix(rows, cols, p, entries)


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_kernel_of_tall_sparse_matrices_matches_the_reference(p):
    rng = random.Random(f"kernel:{p}")
    shapes = [(0, 0), (0, 4), (5, 0), (0, 1), (1, 1)]
    shapes += [(rng.randrange(20, 200), rng.randrange(1, 10))
               for _ in range(20)]
    for rows, cols in shapes:
        m = _tall_sparse_matrix(rng, p, rows, cols)
        ker = kernel(m)
        assert (ker.ambient_dim, ker.p) == (cols, p)
        assert ker.basis == _reference_kernel(m.to_rows(), cols, p)
        assert ker.dim == cols - _rank(m.to_rows(), cols, p)
        assert all(not any(m.matvec(list(v))) for v in ker.basis)


def test_combine():
    p = 5
    rows = [(1, 0, 3), (0, 2, 4), (4, 4, 4)]
    assert _combine([2, 0, 1], rows, 3, p) == [1, 4, 0]
    assert _combine([-1, 5, 7], rows, 3, p) == [2, 3, 0]
    assert _combine([], [], 4, p) == [0, 0, 0, 0]
    assert _combine([3], [(1, 2)], 2, p) == [3, 1]
    rng = random.Random(7)
    for _ in range(50):
        rows = [[rng.randrange(p) for _ in range(6)] for _ in range(4)]
        coeffs = [rng.randrange(-2 * p, 2 * p) for _ in rows]
        assert _combine(coeffs, rows, 6, p) == [
            sum(c * row[j] for c, row in zip(coeffs, rows)) % p
            for j in range(6)]
    space = Subspace.from_vectors([[1, 2, 0], [0, 1, 1]], 3, 3)
    assert space.basis == ((1, 0, 1), (0, 1, 1))
    assert space.combine([1, 2]) == [1, 2, 0]
    assert space.coordinates_of(space.combine([2, 1])) == [2, 1]


def test_subspace_pivots():
    s = Subspace(5, 3, [[0, 1, 2, 0, 0], [0, 0, 0, 1, 4]])
    assert s.pivots == (1, 3)
    assert s.basis == ((0, 1, 2, 0, 0), (0, 0, 0, 1, 1))
    assert s.coordinates_of([0, 2, 1, 1, 1]) == [2, 1]
    assert s.reduce_vector([1, 1, 2, 0, 0]) == [1, 0, 0, 0, 0]
    assert Subspace.zero(4, 5).pivots == ()
    assert Subspace.full(3, 5).pivots == (0, 1, 2)
    rng = random.Random(11)
    for _ in range(20):
        rows = _messy_rows(rng, 5, 6, 7)
        assert Subspace.from_vectors(rows, 7, 5).pivots == \
            tuple(_rref_rows(rows, 7, 5)[1])


def test_subspace_rejects_rows_of_the_wrong_length():
    for rows in ([[1, 0, 0, 4]], [[0, 0]], [[1, 0, 0], [0, 1]]):
        with pytest.raises(ValueError, match="vector length mismatch"):
            Subspace(3, 5, rows)
        with pytest.raises(ValueError, match="vector length mismatch"):
            Subspace.from_vectors(rows, 3, 5)


def _eliminated(rows, cols, p):
    """(basis, pivots) by elimination in one `Echelon`, whatever the rows:
    the oracle for the rows a `Subspace` adopts."""
    span = Echelon(cols, p)
    span.extend(rows)
    return tuple(span.rows(cols)), tuple(sorted(span.kept))


def _seeded_rref(rng, p, cols):
    """Random canonical RREF rows: a leading 1 at each chosen pivot, 0 at
    the other pivots and before the lead, any residue elsewhere."""
    pivots = sorted(rng.sample(range(cols), rng.randrange(cols + 1)))
    rows = []
    for c in pivots:
        row = [0] * cols
        row[c] = 1
        for j in range(c + 1, cols):
            if j not in pivots and rng.randrange(3):
                row[j] = rng.randrange(p)
        rows.append(row)
    return rows


def _perturbed(rng, p, rows):
    """Copies of nonempty canonical rows that are not canonical, as (name,
    rows): each breaks one clause of the RREF definition."""
    r = rng.randrange(len(rows))
    lead = rows[r].index(1)
    out = [("zero row", rows[:r] + [[0] * len(rows[0])] + rows[r:]),
           ("repeated row", rows[:r + 1] + rows[r:]),
           ("True entry", [[True if (i, j) == (r, lead) else x
                            for j, x in enumerate(row)]
                           for i, row in enumerate(rows)])]
    # the same residue out of [0, p): p for a 0, -1 for a p - 1
    for name, shift, value in (("entry p", p, 0), ("entry -1", -p, p - 1)):
        j = rng.choice([j for j, x in enumerate(rows[r]) if x == value]
                       or range(len(rows[r])))
        out.append((name, [[x + shift if (i, k) == (r, j) else x
                            for k, x in enumerate(row)]
                           for i, row in enumerate(rows)]))
    if p > 2:
        c = rng.randrange(2, p)
        out.append(("scaled row", [[c * x % p for x in row] if i == r
                                   else row for i, row in enumerate(rows)]))
    if len(rows) > 1:
        i, j = sorted(rng.sample(range(len(rows)), 2))
        out.append(("rows swapped", rows[:i] + [rows[j]] + rows[i + 1:j]
                    + [rows[i]] + rows[j + 1:]))
        # row i carries a nonzero entry at row j's pivot
        pivot = rows[j].index(1)
        out.append(("pivot column", [
            [rng.randrange(1, p) if (k, m) == (i, pivot) else x
             for m, x in enumerate(row)] for k, row in enumerate(rows)]))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_subspace_adopts_canonical_rows_and_eliminates_the_rest(p, monkeypatch):
    kept = []
    keep = Echelon._keep
    monkeypatch.setattr(Echelon, "_keep",
                        lambda self, v: kept.append(1) or keep(self, v))
    rng = random.Random(f"adopt:{p}")
    for _ in range(60):
        cols = rng.randrange(1, 12)
        rows = _seeded_rref(rng, p, cols)
        oracle = _eliminated(rows, cols, p)
        kept.clear()
        space = Subspace(cols, p, rows)
        for _ in range(4):
            w = [rng.randrange(p) for _ in range(cols)]
            space.reduce_vector(w), space.contains_vector(w)
            space.coordinates_of(w)
        assert not kept
        assert (space.basis, space.pivots) == oracle \
            == (tuple(map(tuple, rows)), tuple(r.index(1) for r in rows))
        if not rows:
            continue
        for name, bad in _perturbed(rng, p, rows):
            kept.clear()
            space = Subspace(cols, p, bad)
            assert kept, name
            assert (space.basis, space.pivots) == _eliminated(bad, cols, p), \
                name
            assert all(type(x) is int for row in space.basis for x in row), \
                name


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_an_adopted_basis_reduces_as_the_eager_echelon(p):
    rng = random.Random(f"lazy:{p}")
    for _ in range(40):
        cols = rng.randrange(1, 12)
        rows = _seeded_rref(rng, p, cols)
        space = Subspace(cols, p, rows)
        eager = Echelon(cols, p)
        eager.extend(rows)
        for _ in range(6):
            w = [rng.randrange(-2 * p, 3 * p) for _ in range(cols)]
            if rng.randrange(2):
                w = [x + p * rng.randrange(-1, 2) for x in _combine(
                    [rng.randrange(p) for _ in rows], rows, cols, p)]
            residual = eager.reduce(w)
            assert space.reduce_vector(w) == residual
            assert space.contains_vector(w) == (not any(residual))
            assert space.coordinates_of(w) == (
                None if any(residual) else [w[c] % p for c in space.pivots])


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", range(1, 7))
def test_trace_gram_is_the_trace_of_the_products(n, p):
    # sparse matrices with zero rows and columns, and a zero matrix
    rng = random.Random(100 * n + p)
    mats = [FieldMatrix.zero(n, n, p)]
    for _ in range(6):
        dead_rows = set(rng.sample(range(n), rng.randrange(n)))
        dead_cols = set(rng.sample(range(n), rng.randrange(n)))
        mats.append(FieldMatrix(n, n, p, [
            0 if i in dead_rows or j in dead_cols or rng.random() < 0.3
            else rng.randrange(-p, 2 * p) for i in range(n) for j in range(n)]))
    gram = trace_gram(mats, p)
    assert (gram.rows, gram.cols) == (len(mats), len(mats))
    assert list(gram.entries) == [(a @ b).trace() for a in mats for b in mats]
    assert trace_gram([], p) == FieldMatrix.zero(0, 0, p)


def _rank(rows, cols, p):
    return naive_row_reduce(rows, cols, p)[1] if rows else 0


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_echelon_add_is_false_exactly_on_dependent_rows(p):
    rng = random.Random(20 * p)
    for _ in range(30):
        cols = rng.randrange(1, 9)
        rows = _messy_rows(rng, p, rng.randrange(1, 12), cols)
        span = Echelon(cols, p)
        for k, row in enumerate(rows):
            grows = _rank(rows[:k + 1], cols, p) > _rank(rows[:k], cols, p)
            assert span.add(row) is grows
            assert tuple(span.rows(cols)) == \
                Subspace.from_vectors(rows[:k + 1], cols, p).basis
        # extend counts the rows it keeps, and a row of the span adds nothing
        again = Echelon(cols, p)
        assert again.extend(rows) == _rank(rows, cols, p)
        assert again.rows(cols) == span.rows(cols)
        assert not span.add(_combine([rng.randrange(p) for _ in rows], rows,
                                     cols, p))


def _envelope(mats):
    """The associative algebra generated by 1 and the matrices, as a
    subspace of entry vectors: products of the generators with the basis
    so far, until the span stops growing."""
    n, p = mats[0].rows, mats[0].p
    span = Subspace.from_vectors([FieldMatrix.identity(n, p).entries], n * n, p)
    while True:
        grown = span.sum(Subspace.from_vectors(
            [(m @ FieldMatrix(n, n, p, b)).entries
             for m in mats for b in span.basis], n * n, p))
        if grown == span:
            return span
        span = grown


def _brute_jacobson(mats):
    """J(A) = {a in A : ab is nilpotent for every b in A}, over all of A,
    and the trace radical {a in A : tr(ab) = 0 for every b in A}."""
    n, p = mats[0].rows, mats[0].p
    elements = [FieldMatrix(n, n, p, v)
                for v in _envelope(mats).enumerate_vectors()]
    radical = [a.entries for a in elements
               if all((a @ b).is_nilpotent() for b in elements)]
    traced = [a.entries for a in elements
              if not any((a @ b).trace() for b in elements)]
    return (Subspace.from_vectors(radical, n * n, p),
            Subspace.from_vectors(traced, n * n, p))


def _jacobson_subspace(mats):
    n, p = mats[0].rows, mats[0].p
    return Subspace.from_vectors(jacobson_radical(mats).rows(n * n), n * n, p)


@pytest.mark.parametrize("p,bound", [(2, 6), (3, 4), (5, 3)])
def test_jacobson_radical_matches_brute_force(p, bound):
    # seeded envelopes of one or two sparse n x n matrices with dim A at
    # most `bound`; n runs to 5 so that at p = 5 too some A holds an
    # idempotent of trace 0 (such as 1 when p | n), where the trace radical
    # is larger than J and the steps past I_0 decide
    rng = random.Random(f"jacobson:{p}")
    cases = steps = 0
    while cases < 30:
        n = rng.choice([2, 3, 4, 5])
        mats = []
        for _ in range(rng.choice([1, 2])):
            entries = [0] * (n * n)
            for _ in range(rng.randrange(1, 4)):
                entries[rng.randrange(n * n)] = rng.randrange(1, p)
            mats.append(FieldMatrix(n, n, p, entries))
        if _envelope(mats).dim > bound:
            continue
        cases += 1
        radical, traced = _brute_jacobson(mats)
        assert _jacobson_subspace(mats) == radical, [m.to_rows() for m in mats]
        steps += traced != radical
    assert steps


def _unit(n, p, i, j):
    return FieldMatrix(n, n, p, [int(k == n * i + j) for k in range(n * n)])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_jacobson_radical_of_named_envelopes(p):
    # M_2, generated by E_12 and E_21, is simple: J = 0
    assert _jacobson_subspace([_unit(2, p, 0, 1), _unit(2, p, 1, 0)]).dim == 0
    # the upper triangular 3 x 3 matrices, generated by E_11, E_22, E_12
    # and E_23: J is the strictly upper part, and E_11 + E_22 + E_33 - 1
    # reduces to 0 against it
    radical = jacobson_radical([_unit(3, p, 0, 0), _unit(3, p, 1, 1),
                                _unit(3, p, 0, 1), _unit(3, p, 1, 2)])
    assert Subspace.from_vectors(radical.rows(9), 9, p) == Subspace.from_vectors(
        [_unit(3, p, i, j).entries for i, j in ((0, 1), (0, 2), (1, 2))],
        9, p)
    total = _unit(3, p, 0, 0) + _unit(3, p, 1, 1) + _unit(3, p, 2, 2)
    assert not any(radical.reduce((total - FieldMatrix.identity(3, p)).entries))


def test_jacobson_radical_past_the_trace_radical():
    # span(1, e) of sl2@2: tr(1) = 2 = 0 and tr(e) = 0 put 1 in the trace
    # radical; g_1(1) = tr(1)/2 = 1 drops it, and J = span(e)
    e = _unit(2, 2, 0, 1)
    assert _brute_jacobson([e])[1].dim == 2
    assert _jacobson_subspace([e]) == Subspace.from_vectors([e.entries], 4, 2)
    # sl3@3: the scalars plus a conjugated Borel nilradical u, whose
    # envelope F + u has tr(1) = 3 = 0; J = u
    w = FieldMatrix.from_rows([[1, 0, 0], [1, 1, 0], [0, 1, 1]], 3)
    winv = w.inverse()
    u = [w @ _unit(3, 3, i, j) @ winv for i, j in ((0, 1), (0, 2), (1, 2))]
    one = FieldMatrix.identity(3, 3)
    assert _brute_jacobson([one, *u])[1].dim == 4
    assert _jacobson_subspace([one, *u]) == Subspace.from_vectors(
        [m.entries for m in u], 9, 3)


def test_jacobson_radical_declines_past_max_dim():
    # past MAX_DIM words the cap is on words x n^2: the 9 x 9 cycle
    # E_12, E_23, ..., E_91 generates all of M_9, 81 words, which is simple
    cycle = [_unit(9, 5, i, (i + 1) % 9) for i in range(9)]
    assert jacobson_radical(cycle).kept == {}
    # 63 x 63 envelopes (the ad envelopes of pgl8) keep MAX_DIM words, as
    # 2^16 // 63^2 = 16 is fewer: the cycle on the first k coordinates
    # generates F(1 - e) + M_k, e the identity of the corner M_k, with
    # k^2 + 1 words and J = 0; 50 words fit for k = 7, 65 pass for k = 8
    assert MAX_ENVELOPE // 63 ** 2 < MAX_DIM
    for k, fits in ((7, True), (8, False)):
        corner = [FieldMatrix(63, 63, 2, [int(r == i and c == (i + 1) % k)
                                          for r in range(63)
                                          for c in range(63)])
                  for i in range(k)]
        radical = jacobson_radical(corner)
        assert (radical is not None) == fits
        if fits:
            assert radical.kept == {}
