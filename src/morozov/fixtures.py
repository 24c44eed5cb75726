"""Bad-prime fixtures at p = 3: the two classical counterexamples showing
that Borel containment does not imply parabolicity in small characteristic,
materialized bit-exactly as JSON-able data.

Fixture 1 ("pattern subalgebra"): matrices (a b c / d e f / 0 t*d g) with
one multiplicative tie in position (3,2).  As printed this set is only
bracket-closed on trace-zero matrices, i.e. inside sl_3 (where 3 = 0 makes
the closure identity work); the trace-free version is the fixture's
subalgebra and the quotient-algebra reading is recorded with a witness of
its failure to close.

Fixture 2: u generated by X = E12 + E23 and Y = E21 + 2 E32 inside the
scalar quotient of gl_3.  [X, Y] is the identity matrix, so u is a
2-dimensional abelian p-nil subalgebra of the quotient.  The displayed
normalizer pattern (a b c / d e b / g -d i) again needs the trace-zero
diagonal relation a + i = 2e; with it, the pattern equals the computed
normalizer exactly."""

from __future__ import annotations

from .gfp import FieldMatrix, Subspace
from .liealg import LieAlgebra, build
from .serialize import SCHEMA_VERSION

P = 3


def _subspace_of(g: LieAlgebra, mats) -> Subspace:
    """The span in g of 3 x 3 matrices given as lists of rows."""
    return g.subspace([g.coordinates_of_matrix(FieldMatrix.from_rows(m, P))
                       for m in mats])


def ex2_generators(g: LieAlgebra) -> tuple:
    x = FieldMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]], P)
    y = FieldMatrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 2, 0]], P)
    return (g.element(g.coordinates_of_matrix(x)),
            g.element(g.coordinates_of_matrix(y)))


def ex2_subalgebra(g: LieAlgebra) -> Subspace:
    x, y = ex2_generators(g)
    return g.subalgebra_closure([x, y])


def _pattern(a, b, c, d, e, gg, i) -> list:
    """The displayed normalizer shape (a b c / d e f=b / g h=-d i)."""
    return [[a, b, c], [d, e, b], [gg, -d, i]]


def _pattern_units(positions) -> list:
    """The pattern with one of its seven parameters 1, the others 0."""
    return [_pattern(*[int(j == k) for j in range(7)]) for k in positions]


def ex2_printed_pattern(g: LieAlgebra) -> Subspace:
    """The displayed normalizer shape with free diagonal (no trace tie)."""
    return _subspace_of(g, _pattern_units(range(7)))


def ex2_corrected_pattern(g: LieAlgebra) -> Subspace:
    """The displayed shape intersected with the trace-zero diagonal
    relation a + i = 2e (class-invariant at p = 3): diag(1, 2, 0), which
    with the scalars spans that relation, and the b, c, d and g units."""
    return _subspace_of(g, [_pattern(1, 0, 0, 0, 2, 0, 0)]
                        + _pattern_units((1, 2, 3, 5)))


def _ex1_off_diagonal(t: int) -> list:
    """The b, c and f units and the tied d unit of (a b c / d e f / 0 t*d g)."""
    return [[[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 0], [1, 0, 0], [0, t, 0]]]


def ex1_sl3_subalgebra(g: LieAlgebra, t: int) -> Subspace:
    """Trace-zero matrices (a b c / d e f / 0 t*d g): a Lie subalgebra of
    sl_3 at p = 3 containing the standard Borel."""
    if t % P == 0:
        raise ValueError("t must be a unit")
    return _subspace_of(g, [[[1, 0, 0], [0, 0, 0], [0, 0, 2]],
                            [[0, 0, 0], [0, 1, 0], [0, 0, 2]]]
                        + _ex1_off_diagonal(t))


def ex1_pgl_pattern(g: LieAlgebra, t: int) -> Subspace:
    """The literal quotient-algebra reading (free diagonal classes); not
    bracket-closed - kept as data to document the defect."""
    return _subspace_of(g, [[[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                            [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
                            [[0, 0, 0], [0, 0, 0], [0, 0, 1]]]
                        + _ex1_off_diagonal(t))


def fixture_payload() -> dict:
    """All fixture inputs in the documented JSON shapes (deterministic)."""
    pgl3 = build("pgl", 3, P)
    sl3 = build("sl", 3, P)
    x, y = ex2_generators(pgl3)
    u = ex2_subalgebra(pgl3)
    payload = {
        "schema": SCHEMA_VERSION,
        "p": P,
        "ex2": {
            "algebra": {"family": "pgl", "n": 3, "p": P},
            "X": x.matrix().to_rows(),
            "Y": y.matrix().to_rows(),
            "generated_subalgebra": [list(r) for r in u.basis],
            "printed_normalizer_pattern":
                [list(r) for r in ex2_printed_pattern(pgl3).basis],
            "corrected_normalizer_pattern":
                [list(r) for r in ex2_corrected_pattern(pgl3).basis],
            "note": "the printed pattern omits the diagonal relation "
                    "a + i = 2e (trace-zero representatives); the corrected "
                    "pattern equals the normalizer",
        },
        "ex1": {
            "algebra": {"family": "sl", "n": 3, "p": P},
            "readings": {},
            "note": "the displayed set closes under brackets only on "
                    "trace-zero matrices; the subalgebra lives in the "
                    "trace-zero algebra and the free-diagonal quotient "
                    "reading is recorded with a non-closure witness",
        },
    }
    for t in (1, 2):
        q = ex1_sl3_subalgebra(sl3, t)
        payload["ex1"]["readings"][str(t)] = {
            "subalgebra": [list(r) for r in q.basis],
            "pgl_pattern": [list(r) for r in ex1_pgl_pattern(pgl3, t).basis],
        }
    return payload
