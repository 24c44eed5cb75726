"""Root-system combinatorics for the classical types and the prime
classification data (torsion / bad / good / very good / separably good),
with the printed characteristic table carried alongside the definitional
computation, and the one convex-geometry primitive: the point of least
norm in the convex hull of a finite set of weights.

Types A-D are built constructively, as integer vectors in the standard
epsilon coordinates, by one rule: every root of a reduced root system is
a Weyl translate of a simple root (Bourbaki, Lie VI 1.5), so the roots
are the closure of the simple roots under the simple reflections
s_i(r) = r - <r, a_i^vee> a_i, and each root's simple coefficients are
carried along as c - <r, a_i^vee> e_i.  The highest coroot
theta^vee = 2 theta / (theta, theta) then has the coefficients
b_i = a_i (a_i, a_i) / (theta, theta).  E6-G2 are table-only stubs that
still know their highest-root and highest-coroot coefficients, which is
all the prime classification needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Sequence

from .gfp import is_prime

# the classical types, built and tabulated from MIN_RANK up to MAX_RANK
MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
MAX_RANK = 8
CLASSICAL = tuple(MIN_RANK)
EXCEPTIONAL = ("E6", "E7", "E8", "F4", "G2")


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _combine(points: Sequence, mu: Sequence) -> list:
    return [sum(m * s[k] for m, s in zip(mu, points))
            for k in range(len(points[0]))]


def _affine_minimizer(active: Sequence) -> tuple:
    """(A, d), d > 0, a = A / d solving G a + m 1 = 0, 1.a = 1: the point
    of least norm in the affine hull of affinely independent points, by
    fraction-free Gauss-Jordan (Bareiss), exact division by the last pivot."""
    k, last = len(active), 1
    rows = [[_dot(s, t) for t in active] + [1, 0] for s in active]
    rows.append([1] * k + [0, 1])
    for c in range(k + 1):
        piv = next(i for i in range(c, k + 1) if rows[i][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        top = rows[c]
        rows = [row if i == c else [(top[c] * x - row[c] * y) // last
                                    for x, y in zip(row, top)]
                for i, row in enumerate(rows)]
        last = top[c]
    sign = 1 if last > 0 else -1
    return [sign * row[-1] for row in rows[:k]], sign * last


def min_norm_point(points: Sequence) -> tuple:
    """Wolfe's algorithm (Math. Prog. 11, 1976) in exact integer
    arithmetic: the point x of least norm in the convex hull of the
    points, as (active points, barycentric weights mu > 0, x) with
    x = sum mu_i s_i, in Fractions made on return.  The walk holds a as
    integers over d (`_affine_minimizer`), x as d x and mu over e.

    Kempf's optimal cocharacter lies on the ray of x.  By Gordan's theorem
    a finite set of roots lies in a positive system (some functional is
    positive on all of it) exactly when x != 0."""
    pts = sorted(set(points))
    active = [min(pts, key=lambda w: (_dot(w, w), w))]
    while True:
        a, d = _affine_minimizer(active)
        if all(c > 0 for c in a):
            dx = _combine(active, a)
            nearest = min(pts, key=lambda w: (_dot(dx, w), w))
            if _dot(dx, nearest) * d >= _dot(dx, dx):
                return (active, [Fraction(c, d) for c in a],
                        [Fraction(c, d) for c in dx])
            active, mu, e = active + [nearest], a + [0], d
        else:
            # walk from mu towards a until a weight reaches 0; drop those:
            # theta = t / u, the least of 1 and m / (m - c) over c < 0
            t, u = 1, 1
            for m, c in zip(mu, a):
                if c < 0 and m * d * u < t * (m * d - c * e):
                    t, u = m * d, m * d - c * e
            mu = [(u - t) * d * m + t * e * c for m, c in zip(mu, a)]
            e *= u * d
            active = [s for s, m in zip(active, mu) if m]
            mu = [m for m in mu if m]


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
    "E6": {"rank": 6, "a": (1, 2, 2, 3, 2, 1), "b": (1, 2, 2, 3, 2, 1)},
    "E7": {"rank": 7, "a": (2, 2, 3, 4, 3, 2, 1), "b": (2, 2, 3, 4, 3, 2, 1)},
    "E8": {"rank": 8, "a": (2, 3, 4, 6, 5, 4, 3, 2), "b": (2, 3, 4, 6, 5, 4, 3, 2)},
    "F4": {"rank": 4, "a": (2, 3, 4, 2), "b": (2, 3, 2, 1)},
    "G2": {"rank": 2, "a": (3, 2), "b": (1, 2)},
}


@dataclass(frozen=True)
class RootDatum:
    type_label: str               # "A".."D" or "E6".."G2"
    rank: int
    simple_roots: tuple           # empty for table-only types
    roots: tuple                  # sorted
    positive_roots: tuple         # by (height, root)
    highest_root_coeffs: tuple    # a_i
    highest_coroot_coeffs: tuple  # b_i
    # root -> its coefficients in the simple roots, carried by the orbit
    coefficients: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def constructive(self) -> bool:
        return bool(self.roots)

    @property
    def label(self) -> str:
        if self.type_label in EXCEPTIONAL:
            return self.type_label
        return f"{self.type_label}{self.rank}"

    def coxeter_number(self) -> int:
        """Height of the highest root plus one: sum(a_i) + 1."""
        return sum(self.highest_root_coeffs) + 1

    def simple_coefficients(self, root) -> list:
        return list(self.coefficients[tuple(root)])

    def is_positive(self, root) -> bool:
        return sum(self.coefficients.get(tuple(root), ())) > 0


def _simple_roots(type_label: str, n: int) -> list:
    """e_i - e_{i+1} (the n of them in n + 1 coordinates for type A), then
    e_n (B), 2 e_n (C) or e_{n-1} + e_n (D)."""
    dim = n + 1 if type_label == "A" else n
    out = []
    for i in range(dim - 1):
        v = [0] * dim
        v[i], v[i + 1] = 1, -1
        out.append(v)
    tail = {"B": {n - 1: 1}, "C": {n - 1: 2}, "D": {n - 2: 1, n - 1: 1}}
    if type_label in tail:
        out.append([tail[type_label].get(k, 0) for k in range(n)])
    return out


def _orbit(simples: list) -> dict:
    """root -> its simple coefficients, for every root: the closure of the
    simple roots under the simple reflections."""
    norms = [_dot(s, s) for s in simples]
    rank = len(simples)
    todo = [(tuple(s), tuple(int(i == j) for j in range(rank)))
            for i, s in enumerate(simples)]
    coefficients = {}
    while todo:
        r, c = todo.pop()
        if r in coefficients:
            continue
        coefficients[r] = c
        for i, (s, norm) in enumerate(zip(simples, norms)):
            k = 2 * _dot(r, s) // norm      # the Cartan integer <r, a_i^vee>
            if k:
                todo.append((tuple(x - k * y for x, y in zip(r, s)),
                             c[:i] + (c[i] - k,) + c[i + 1:]))
    return coefficients


def build_rootdatum(type_label: str, n: int = 0) -> RootDatum:
    """The root orbit for A-D, all roots sorted and the positive roots by
    (height, root); table-only stub for E6-G2."""
    if type_label in EXCEPTIONAL:
        data = EXCEPTIONAL_DATA[type_label]
        return RootDatum(type_label, data["rank"], (), (), (),
                         data["a"], data["b"])
    if type_label not in CLASSICAL:
        raise ValueError(f"unknown type {type_label!r}")
    minimum = MIN_RANK[type_label]
    if n < minimum:
        raise ValueError(f"type {type_label} needs rank >= {minimum}")
    if n > MAX_RANK:
        raise ValueError(f"rank capped at {MAX_RANK}")
    simples = _simple_roots(type_label, n)
    coefficients = _orbit(simples)
    positives = sorted((r for r, c in coefficients.items() if sum(c) > 0),
                       key=lambda r: (sum(coefficients[r]), r))
    theta = positives[-1]
    a = coefficients[theta]
    b = tuple(x * _dot(s, s) // _dot(theta, theta) for x, s in zip(a, simples))
    return RootDatum(type_label, n, tuple(tuple(s) for s in simples),
                     tuple(sorted(coefficients)), tuple(positives), a, b,
                     coefficients)


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
    alpha+beta is in the subset; memoised per support."""
    if not rd.constructive:
        raise ValueError("closedness needs an enumerated root system")
    return _is_closed(rd, frozenset(tuple(r) for r in subset))


@lru_cache(maxsize=1 << 14)
def _is_closed(rd: RootDatum, sub: frozenset) -> bool:
    missing = set(rd.roots) - sub
    # alpha + beta = beta + alpha: each unordered pair once
    return not any(tuple(a + b for a, b in zip(x, y)) in missing
                   for x, y in combinations_with_replacement(sub, 2))


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


def simple_subsets(rank: int) -> list:
    """Every set of simple-root indices as a sorted tuple, in bit-mask order."""
    return [tuple(i for i in range(rank) if mask >> i & 1)
            for mask in range(1 << rank)]


def table_rows():
    """All printed table rows with their generic definitional data, for
    the data suite.  Classical rows use representative ranks."""
    rows = [{"type": label, "ranks": list(range(lo, MAX_RANK + 1))}
            for label, lo in MIN_RANK.items()]
    for label in EXCEPTIONAL:
        rows.append({"type": label, "ranks": [EXCEPTIONAL_DATA[label]["rank"]]})
    return rows
