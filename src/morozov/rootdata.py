"""Root-system combinatorics for the classical types and the prime
classification data (torsion / bad / good / very good / separably good),
with the printed characteristic table carried alongside the definitional
computation.

Types A-D are built constructively (roots as integer vectors in the
standard epsilon coordinates); E6-G2 are table-only stubs that still know
their highest-root and highest-coroot coefficients, which is all the
prime classification needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .gfp import is_prime

CLASSICAL = ("A", "B", "C", "D")
EXCEPTIONAL = ("E6", "E7", "E8", "F4", "G2")


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _solve_rational(basis: Sequence[Sequence], target: Sequence) -> list:
    """Write target as a rational combination of the basis vectors (free
    coefficients set to 0), as Fractions."""
    cols = len(basis)
    rows = len(target)
    aug = [[Fraction(basis[j][i]) for j in range(cols)] + [Fraction(target[i])]
           for i in range(rows)]
    r = 0
    piv_cols = []
    for c in range(cols):
        piv = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    coeffs = [Fraction(0)] * cols
    for i, c in enumerate(piv_cols):
        coeffs[c] = aug[i][cols]
    for i in range(r, rows):
        if aug[i][cols] != 0:
            raise ValueError("target not in the span")
    return coeffs


def _solve_integer(basis: Sequence[Sequence[int]], target: Sequence[int]) -> list:
    """Write target as an integer combination of the basis vectors (whose
    entries may be rational, as for coroots)."""
    coeffs = _solve_rational(basis, target)
    if any(x.denominator != 1 for x in coeffs):
        raise ValueError("non-integer coefficient in root expansion")
    return [int(x) for x in coeffs]


# Table of characteristic assumptions for a simple group, as printed:
# (torsion integer, good threshold, very-good threshold, rank, coxeter number).
# A thresholds of 1 mean "any p"; the A very-good column is the arithmetic
# condition p not dividing n+1, encoded separately.
PRINTED_TABLE = {
    "A": {"torsion": 1, "good_gt": 1, "very_good_gt": None, "rank": "n", "h": "n"},
    "B": {"torsion": 2, "good_gt": 2, "very_good_gt": 2, "rank": "n", "h": "2n"},
    "C": {"torsion": 1, "good_gt": 2, "very_good_gt": 2, "rank": "n", "h": "2n"},
    "D": {"torsion": 2, "good_gt": 3, "very_good_gt": 3, "rank": "n", "h": "2(n-1)"},
    "E6": {"torsion": 3, "good_gt": 3, "very_good_gt": 3, "rank": 6, "h": 12},
    "E7": {"torsion": 4, "good_gt": 3, "very_good_gt": 3, "rank": 7, "h": 18},
    "E8": {"torsion": 6, "good_gt": 5, "very_good_gt": 5, "rank": 8, "h": 30},
    "F4": {"torsion": 3, "good_gt": 3, "very_good_gt": 3, "rank": 4, "h": 12},
    "G2": {"torsion": 2, "good_gt": 3, "very_good_gt": 3, "rank": 2, "h": 6},
}

# Highest-root (a) and highest-coroot (b) coefficients for the table-only
# types, in the Bourbaki simple-root numbering.
EXCEPTIONAL_DATA = {
    "E6": {"h": 12, "rank": 6, "a": (1, 2, 2, 3, 2, 1), "b": (1, 2, 2, 3, 2, 1)},
    "E7": {"h": 18, "rank": 7, "a": (2, 2, 3, 4, 3, 2, 1), "b": (2, 2, 3, 4, 3, 2, 1)},
    "E8": {"h": 30, "rank": 8, "a": (2, 3, 4, 6, 5, 4, 3, 2), "b": (2, 3, 4, 6, 5, 4, 3, 2)},
    "F4": {"h": 12, "rank": 4, "a": (2, 3, 4, 2), "b": (2, 3, 2, 1)},
    "G2": {"h": 6, "rank": 2, "a": (3, 2), "b": (1, 2)},
}


@dataclass(frozen=True)
class RootDatum:
    type_label: str               # "A".."D" or "E6".."G2"
    rank: int
    simple_roots: tuple           # empty for table-only types
    roots: tuple
    positive_roots: tuple
    highest_root_coeffs: tuple    # a_i
    highest_coroot_coeffs: tuple  # b_i
    cartan_matrix: tuple

    @property
    def constructive(self) -> bool:
        return bool(self.roots)

    @property
    def label(self) -> str:
        if self.type_label in EXCEPTIONAL:
            return self.type_label
        return f"{self.type_label}{self.rank}"

    def coxeter_number(self) -> int:
        return sum(self.highest_root_coeffs) + 1

    def simple_coefficients(self, root) -> list:
        return _solve_integer(self.simple_roots, root)

    def is_positive(self, root) -> bool:
        return root in set(self.positive_roots)


def _simple_roots(type_label: str, n: int) -> list:
    def e(i, dim):
        v = [0] * dim
        v[i] = 1
        return v

    if type_label == "A":
        dim = n + 1
        return [[a - b for a, b in zip(e(i, dim), e(i + 1, dim))] for i in range(n)]
    if type_label == "B":
        out = [[a - b for a, b in zip(e(i, n), e(i + 1, n))] for i in range(n - 1)]
        out.append(e(n - 1, n))
        return out
    if type_label == "C":
        out = [[a - b for a, b in zip(e(i, n), e(i + 1, n))] for i in range(n - 1)]
        out.append([2 * x for x in e(n - 1, n)])
        return out
    if type_label == "D":
        out = [[a - b for a, b in zip(e(i, n), e(i + 1, n))] for i in range(n - 1)]
        out.append([a + b for a, b in zip(e(n - 2, n), e(n - 1, n))])
        return out
    raise ValueError(f"no constructive simple roots for type {type_label}")


def _all_roots(type_label: str, n: int) -> list:
    roots = []
    if type_label == "A":
        dim = n + 1
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    v = [0] * dim
                    v[i], v[j] = 1, -1
                    roots.append(v)
        return roots
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * n
                    v[i], v[j] = si, sj
                    roots.append(v)
    if type_label == "B":
        for i in range(n):
            for s in (1, -1):
                v = [0] * n
                v[i] = s
                roots.append(v)
    elif type_label == "C":
        for i in range(n):
            for s in (2, -2):
                v = [0] * n
                v[i] = s
                roots.append(v)
    elif type_label == "D":
        pass
    else:
        raise ValueError(f"no constructive roots for type {type_label}")
    return roots


def build_rootdatum(type_label: str, n: int = 0) -> RootDatum:
    """Full root enumeration for A-D; table-only stub for E6-G2."""
    if type_label in EXCEPTIONAL:
        data = EXCEPTIONAL_DATA[type_label]
        return RootDatum(type_label, data["rank"], (), (), (),
                         data["a"], data["b"], ())
    if type_label not in CLASSICAL:
        raise ValueError(f"unknown type {type_label!r}")
    minimum = {"A": 1, "B": 2, "C": 2, "D": 3}[type_label]
    if n < minimum:
        raise ValueError(f"type {type_label} needs rank >= {minimum}")
    if n > 8:
        raise ValueError("rank capped at 8")
    simples = _simple_roots(type_label, n)
    roots = _all_roots(type_label, n)
    positives = []
    for r in roots:
        coeffs = _solve_integer(simples, r)
        if all(c >= 0 for c in coeffs):
            positives.append((sum(coeffs), tuple(r), tuple(coeffs)))
    positives.sort()
    highest = positives[-1]
    a = highest[2]
    # coroot of the highest root in the simple-coroot basis
    def coroot(v):
        norm = _dot(v, v)
        return [Fraction(2 * x, norm) for x in v]

    simple_coroots = [coroot(s) for s in simples]
    theta_vee = coroot(list(highest[1]))
    b = _solve_integer(simple_coroots, theta_vee)
    cartan = tuple(
        tuple(int(2 * Fraction(_dot(si, sj), _dot(sj, sj))) for sj in simples)
        for si in simples
    )
    return RootDatum(
        type_label, n, tuple(tuple(s) for s in simples),
        tuple(tuple(r) for r in roots),
        tuple(t[1] for t in positives),
        a, tuple(b), cartan,
    )


def coxeter_number(rd: RootDatum) -> int:
    """Height of the highest root plus one: sum(a_i) + 1."""
    return rd.coxeter_number()


@dataclass(frozen=True)
class PrimeClass:
    """Classification of a prime against one root-system type.

    Flags follow the definitional criteria (divisibility of highest-root /
    highest-coroot coefficients); the printed table row is carried
    alongside for comparison and reporting.
    """

    p: int
    type_label: str
    rank: int
    is_torsion: bool
    is_bad: bool
    is_good: bool
    is_very_good: bool
    is_separably_good: bool
    coxeter_number: int
    table_row: dict = field(compare=False)

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "type": self.type_label,
            "rank": self.rank,
            "torsion": self.is_torsion,
            "bad": self.is_bad,
            "good": self.is_good,
            "very_good": self.is_very_good,
            "separably_good": self.is_separably_good,
            "coxeter_number": self.coxeter_number,
            "table_row": self.table_row,
        }


def classify_prime(rd: RootDatum, p: int) -> PrimeClass:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    a = rd.highest_root_coeffs
    b = rd.highest_coroot_coeffs
    torsion = any(c % p == 0 for c in b)
    bad = any(c % p == 0 for c in a)
    good = not bad
    if rd.type_label == "A":
        very_good = good and (rd.rank + 1) % p != 0
    else:
        very_good = good
    # arithmetic criterion: separability of the simply-connected cover only
    # fails in type A when p divides n+1
    separably_good = very_good if rd.type_label == "A" else good
    label = rd.type_label
    printed = PRINTED_TABLE[label]
    table_row = {
        "torsion_integer": printed["torsion"],
        "good_gt": printed["good_gt"],
        "very_good_gt": printed["very_good_gt"],
        "very_good_condition": "p does not divide n+1" if label == "A" else None,
        "coxeter_entry": printed["h"],
    }
    return PrimeClass(
        p=p, type_label=rd.type_label, rank=rd.rank,
        is_torsion=torsion, is_bad=bad, is_good=good,
        is_very_good=very_good, is_separably_good=separably_good,
        coxeter_number=rd.coxeter_number(), table_row=table_row,
    )


def is_closed(rd: RootDatum, subset) -> bool:
    """True iff alpha, beta in the subset and alpha+beta a root imply
    alpha+beta is in the subset."""
    if not rd.constructive:
        raise ValueError("closedness needs an enumerated root system")
    sub = set(tuple(r) for r in subset)
    allroots = set(rd.roots)
    for x in sub:
        for y in sub:
            s = tuple(a + b for a, b in zip(x, y))
            if s in allroots and s not in sub:
                return False
    return True


def parabolic_roots(rd: RootDatum, chosen) -> tuple:
    """Roots of the standard parabolic for a set of simple-root indices:
    the positive roots plus the negative roots whose simple coefficients
    vanish off `chosen`, sorted."""
    if not rd.constructive:
        raise ValueError("parabolic roots need an enumerated root system")
    chosen = frozenset(chosen)
    subset = set(rd.positive_roots)
    for r in rd.roots:
        coeffs = rd.simple_coefficients(list(r))
        if all(c <= 0 for c in coeffs) and all(
                coeffs[i] == 0 for i in range(rd.rank) if i not in chosen):
            subset.add(tuple(r))
    return tuple(sorted(subset))


def table_rows():
    """All printed table rows with their generic definitional data, for
    the data suite.  Classical rows use representative ranks."""
    rows = []
    for label in ("A", "B", "C", "D"):
        lo = {"A": 1, "B": 2, "C": 2, "D": 3}[label]
        rows.append({"type": label, "ranks": list(range(lo, 9))})
    for label in EXCEPTIONAL:
        rows.append({"type": label, "ranks": [EXCEPTIONAL_DATA[label]["rank"]]})
    return rows
