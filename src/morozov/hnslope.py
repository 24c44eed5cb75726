"""Exact slope arithmetic for Harder-Narasimhan filtration data.

A filtration is stored as the (rank, degree) pairs of its successive
semistable quotients, bottom term first (so slopes strictly decrease along
the list), together with zero_index: the position k such that the
cumulative term through factor k plays the role of E_0.  Everything is
Fraction arithmetic; no floats."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .serialize import is_json_int


def slope(rank: int, degree: int) -> Fraction:
    if rank <= 0:
        raise ValueError("rank must be positive")
    return Fraction(degree, rank)


@dataclass(frozen=True)
class HNFiltration:
    factors: tuple              # ((rank, degree), ...) successive quotients
    zero_index: int             # position of the E_0 quotient

    def __post_init__(self):
        if not self.factors:
            raise ValueError("empty filtration")
        for r, _ in self.factors:
            if r <= 0:
                raise ValueError("ranks must be positive")
        if not 0 <= self.zero_index < len(self.factors):
            raise ValueError("zero_index out of range")

    @classmethod
    def make(cls, factors: Sequence, zero_index: int) -> "HNFiltration":
        for i, f in enumerate(factors):
            if not (isinstance(f, (list, tuple)) and len(f) == 2
                    and all(map(is_json_int, f))):
                raise ValueError(f"field 'factors': factor {i} is not a "
                                 f"(rank, degree) pair of integers")
        if not is_json_int(zero_index):
            raise ValueError("field 'zero_index' is not an integer")
        return cls(tuple(tuple(f) for f in factors), zero_index)

    def slopes(self) -> list:
        return [slope(r, d) for r, d in self.factors]

    def total_rank(self) -> int:
        return sum(r for r, _ in self.factors)

    def total_degree(self) -> int:
        return sum(d for _, d in self.factors)

    def cumulative(self) -> list:
        """(rank, degree) of the terms E_{-r} .. E_l themselves."""
        out = []
        r = d = 0
        for rk, dg in self.factors:
            r += rk
            d += dg
            out.append((r, d))
        return out

    def as_dict(self) -> dict:
        return {"factors": [list(f) for f in self.factors],
                "zero_index": self.zero_index}


def verify_hn(f: HNFiltration) -> bool:
    """Slopes strictly decrease along the quotients."""
    s = f.slopes()
    return all(a > b for a, b in zip(s, s[1:]))


def zero_index_readings(f: HNFiltration) -> dict:
    """The two acceptable conventions for E_0: its quotient has slope
    exactly 0, or it is the first non-positive quotient."""
    s = f.slopes()
    k = f.zero_index
    slope_zero = s[k] == 0
    first_nonpos = s[k] <= 0 and all(x > 0 for x in s[:k])
    return {"slope_zero_quotient": slope_zero,
            "first_nonpositive_quotient": first_nonpos,
            "consistent": slope_zero or first_nonpos}


def dual_pattern(f: HNFiltration) -> dict:
    """Mirror symmetry forced by a nondegenerate invariant form:
    E_{-i} is the orthogonal complement of E_{i-1}, so paired cumulative
    terms satisfy rank(E_{-i}) = rank(g) - rank(E_{i-1}) and
    deg(E_{-i}) = deg(E_{i-1}); at the factor level the list mirrors with
    negated degrees.  Total degree 0 is a precondition."""
    if f.total_degree() != 0:
        raise ValueError("total degree must be 0 for the self-dual pattern")
    m = len(f.factors)
    k = f.zero_index
    below = k
    above = m - 1 - k
    mismatches = []
    if below != above:
        mismatches.append({"kind": "index-symmetry", "below": below,
                           "above": above})
    for j in range(m):
        jm = m - 1 - j
        rj, dj = f.factors[j]
        rm, dm = f.factors[jm]
        if rj != rm or dj != -dm:
            mismatches.append({"kind": "factor-mirror", "index": j,
                               "mirror": jm})
    cum = f.cumulative()
    total_rank = f.total_rank()
    for i in range(1, k + 1):
        neg = cum[k - i]
        pos = cum[k + i - 1] if k + i - 1 < m else None
        if pos is None:
            mismatches.append({"kind": "pairing-range", "i": i})
            continue
        if neg[0] != total_rank - pos[0]:
            mismatches.append({"kind": "rank-pairing", "i": i,
                               "rank_neg": neg[0], "rank_pos": pos[0]})
        if neg[1] != pos[1]:
            mismatches.append({"kind": "degree-pairing", "i": i,
                               "deg_neg": neg[1], "deg_pos": pos[1]})
    return {"passes": not mismatches, "mismatches": mismatches,
            "readings": zero_index_readings(f)}


def e0_preconditions(f: HNFiltration, p: int, dim_g: int) -> dict:
    """Slope hypotheses under which the E_0 term must be the canonical
    parabolic: strictly positive quotient slopes below E_0, strictly
    negative above, the tensor-slope identity licensed by p > 2 dim - 2,
    and the chain mu_min(E_0 x E_0) = 0, > mu_max(g/E_0) if g/E_0 exists."""
    s = f.slopes()
    k = f.zero_index
    below = s[:k]
    above = s[k + 1:]
    below_positive = all(x > 0 for x in below)
    above_negative = all(x < 0 for x in above)
    tensor_licensed = p > 2 * dim_g - 2
    mu_min_e0 = min(s[:k + 1])
    mu_max_quot = max(above) if above else None
    chain = {
        "mu_min_E0_tensor_E0": str(2 * mu_min_e0),
        "mu_min_E0_is_zero": mu_min_e0 == 0,
        "mu_max_g_mod_E0": None if mu_max_quot is None else str(mu_max_quot),
        "inequality_holds": mu_min_e0 == 0 and (mu_max_quot is None
                                                or 0 > mu_max_quot),
    }
    return {
        "below_strictly_positive": below_positive,
        "above_strictly_negative": above_negative,
        "tensor_identity_licensed": tensor_licensed,
        "tensor_bound": 2 * dim_g - 2,
        "chain": chain,
        "all_pass": (below_positive and above_negative and tensor_licensed
                     and chain["inequality_holds"]),
    }


def reflect_prefix(prefix: Sequence, middle_rank: int) -> HNFiltration:
    """Build a self-dual filtration from a strictly-decreasing positive
    prefix: prefix + slope-0 middle + mirrored negated suffix."""
    factors = [tuple(x) for x in prefix]
    factors.append((middle_rank, 0))
    factors.extend((r, -d) for r, d in reversed(prefix))
    return HNFiltration.make(factors, len(prefix))
