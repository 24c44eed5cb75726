"""HN filtration data: the slopes, the two readings of E_0, the self-dual
pattern with every kind of mismatch it records, the preconditions of E_0
and every input the filtration refuses."""

from fractions import Fraction

import pytest

from morozov.hnslope import (HNFiltration, dual_pattern, e0_preconditions,
                             reflect_prefix, slope, verify_hn,
                             zero_index_readings)


def _kinds(report):
    return [m["kind"] for m in report["mismatches"]]


def test_slopes_and_cumulative_terms():
    f = HNFiltration.make([[1, 2], [1, 0], [2, -2]], 1)
    assert f.slopes() == [Fraction(2), Fraction(0), Fraction(-1)]
    assert f.cumulative() == [(1, 2), (2, 2), (4, 0)]
    assert (f.total_rank(), f.total_degree()) == (4, 0)
    assert verify_hn(f)
    assert not verify_hn(HNFiltration.make([[1, 0], [1, 2], [1, -2]], 0))
    assert f.as_dict() == {"factors": [[1, 2], [1, 0], [2, -2]],
                           "zero_index": 1}


def test_a_self_dual_filtration_passes():
    report = dual_pattern(HNFiltration.make([[1, 2], [1, 0], [1, -2]], 1))
    assert report["passes"] and report["mismatches"] == []
    # a positive prefix, a slope-0 middle and the mirrored negated suffix
    f = reflect_prefix([[1, 3], [2, 2]], 1)
    assert f.factors == ((1, 3), (2, 2), (1, 0), (2, -2), (1, -3))
    assert f.zero_index == 2 and dual_pattern(f)["passes"]


def test_mirrored_factors_of_different_ranks():
    # ranks 1 and 2 at mirrored places: both places mismatch, and
    # rank(E_-1) = 1 is not rank(g) - rank(E_0) = 2
    report = dual_pattern(HNFiltration.make([[1, 2], [1, 0], [2, -2]], 1))
    assert not report["passes"]
    assert report["mismatches"] == [
        {"kind": "factor-mirror", "index": 0, "mirror": 2},
        {"kind": "factor-mirror", "index": 2, "mirror": 0},
        {"kind": "rank-pairing", "i": 1, "rank_neg": 1, "rank_pos": 2},
    ]


def test_an_off_centre_zero_index_records_every_other_kind():
    # E_0 at the last place: two quotients below it and none above, every
    # factor off its mirror, and E_-2 has no partner E_1
    report = dual_pattern(HNFiltration.make([[1, 1], [1, 1], [2, -2]], 2))
    assert _kinds(report) == ["index-symmetry", "factor-mirror",
                              "factor-mirror", "factor-mirror",
                              "rank-pairing", "degree-pairing",
                              "pairing-range"]
    assert report["mismatches"][0] == {"kind": "index-symmetry", "below": 2,
                                       "above": 0}
    assert report["mismatches"][4:] == [
        {"kind": "rank-pairing", "i": 1, "rank_neg": 2, "rank_pos": 4},
        {"kind": "degree-pairing", "i": 1, "deg_neg": 2, "deg_pos": 0},
        {"kind": "pairing-range", "i": 2},
    ]
    assert report["readings"] == {"slope_zero_quotient": False,
                                  "first_nonpositive_quotient": True,
                                  "consistent": True}


def test_the_dual_pattern_needs_total_degree_zero():
    with pytest.raises(ValueError, match="total degree must be 0"):
        dual_pattern(HNFiltration.make([[1, 2], [1, -1]], 1))


@pytest.mark.parametrize("factors,k,readings", [
    ([[1, 2], [1, 0], [1, -2]], 1, (True, True, True)),
    ([[1, 2], [1, -1]], 1, (False, True, True)),
    ([[1, -1], [1, 0]], 1, (True, False, True)),
    ([[1, 1], [1, -1]], 0, (False, False, False)),
], ids=["both", "first-non-positive", "slope-zero", "neither"])
def test_zero_index_readings(factors, k, readings):
    got = zero_index_readings(HNFiltration.make(factors, k))
    assert (got["slope_zero_quotient"], got["first_nonpositive_quotient"],
            got["consistent"]) == readings


def test_e0_preconditions_pass_above_the_tensor_bound():
    f = HNFiltration.make([[1, 2], [1, 0], [1, -2]], 1)
    pre = e0_preconditions(f, 5, 3)
    assert pre == {
        "below_strictly_positive": True, "above_strictly_negative": True,
        "tensor_identity_licensed": True, "tensor_bound": 4,
        "chain": {"mu_min_E0_tensor_E0": "0", "mu_min_E0_is_zero": True,
                  "mu_max_g_mod_E0": "-2", "inequality_holds": True},
        "all_pass": True}
    # p = 3 is not above 2 dim g - 2 = 4
    pre = e0_preconditions(f, 3, 3)
    assert not pre["tensor_identity_licensed"] and not pre["all_pass"]


@pytest.mark.parametrize("factors,k,failing", [
    ([[1, -1], [1, 0]], 1, "below_strictly_positive"),
    ([[1, 0], [1, 1]], 0, "above_strictly_negative"),
], ids=["below", "above"])
def test_e0_preconditions_read_the_slopes_on_each_side(factors, k, failing):
    pre = e0_preconditions(HNFiltration.make(factors, k), 101, 3)
    assert not pre[failing] and not pre["all_pass"]


def test_e0_preconditions_read_the_inequality_chain():
    # mu_min(E_0) = 1 is not 0, so the chain fails though -1 < 0
    chain = e0_preconditions(HNFiltration.make([[1, 1], [1, -1]], 0),
                             101, 3)["chain"]
    assert chain == {"mu_min_E0_tensor_E0": "2", "mu_min_E0_is_zero": False,
                     "mu_max_g_mod_E0": "-1", "inequality_holds": False}
    # E_0 the whole filtration: no quotient g/E_0 to bound, but still
    # mu_min(E_0) = -1 is not 0
    pre = e0_preconditions(HNFiltration.make([[1, 2], [1, -1]], 1), 101, 3)
    assert pre["chain"] == {"mu_min_E0_tensor_E0": "-2",
                            "mu_min_E0_is_zero": False,
                            "mu_max_g_mod_E0": None,
                            "inequality_holds": False}
    assert not pre["all_pass"]
    # E_0 the whole filtration with mu_min(E_0) = 0: the chain holds
    pre = e0_preconditions(HNFiltration.make([[1, 2], [1, 0]], 1), 101, 3)
    assert pre["chain"] == {"mu_min_E0_tensor_E0": "0",
                            "mu_min_E0_is_zero": True,
                            "mu_max_g_mod_E0": None,
                            "inequality_holds": True}
    assert pre["all_pass"]


@pytest.mark.parametrize("factors,k,message", [
    ([[1, 2], 5], 0, "field 'factors': factor 1 is not a (rank, degree) pair"),
    ([[1, 2, 3]], 0, "field 'factors': factor 0 is not a (rank, degree) pair"),
    ([[1, "2"]], 0, "field 'factors': factor 0 is not a (rank, degree) pair"),
    ([[True, 1]], 0, "field 'factors': factor 0 is not a (rank, degree) pair"),
    ([[1, 0]], False, "field 'zero_index' is not an integer"),
    ([[1, 0]], "0", "field 'zero_index' is not an integer"),
    ([], 0, "empty filtration"),
    ([[1, 1], [0, -1]], 0, "ranks must be positive"),
    ([[1, 0]], 1, "zero_index out of range"),
    ([[1, 0]], -1, "zero_index out of range"),
], ids=["bare-factor", "triple", "string-degree", "boolean-rank",
        "boolean-zero-index", "string-zero-index", "empty", "rank-zero",
        "zero-index-past-the-end", "negative-zero-index"])
def test_make_refuses(factors, k, message):
    with pytest.raises(ValueError) as refusal:
        HNFiltration.make(factors, k)
    assert str(refusal.value).startswith(message)


def test_the_constructor_refuses_without_make():
    # __post_init__ holds the checks on the values, for every constructor
    with pytest.raises(ValueError, match="^empty filtration$"):
        HNFiltration((), 0)
    with pytest.raises(ValueError, match="^ranks must be positive$"):
        HNFiltration(((-1, 0),), 0)
    with pytest.raises(ValueError, match="^zero_index out of range$"):
        HNFiltration(((1, 0),), 2)
    with pytest.raises(ValueError, match="^rank must be positive$"):
        slope(0, 1)
