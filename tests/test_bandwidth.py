"""Repair-bandwidth accounting: first-principles recount first, formula second.

The oracle walks blocks and charges reads directly; the closed forms must
reproduce it. Both routes stay independent so a regression in one cannot hide
in the other.
"""

import itertools
import random
from fractions import Fraction

import pytest

from regencodes import ValidationError, bundled_design
from regencodes.bandwidth import (
    beta_closed_form_d_eq_k,
    beta_formula,
    beta_layered_naive_e1,
    beta_oracle,
    beta_steiner_e2,
)
from regencodes.designs import complete_design


S348 = bundled_design("s_3_4_8")


# -- oracle on the worked example: values counted by hand ---------------------------


def test_oracle_two_failures_six_helpers():
    rep = beta_oracle(S348, m=2, failed=[1, 2], helpers=[3, 4, 5, 6, 7, 8])
    assert rep.msmr_total == 18
    assert all(v == 3 for v in rep.msmr.values())
    assert rep.naive_total == 22
    assert rep.layered_naive_total == 28


def test_oracle_single_failure():
    rep = beta_oracle(S348, m=2, failed=[1], helpers=[2, 3, 4, 5, 6, 7])
    assert all(v == 2 for v in rep.msmr.values())
    rep7 = beta_oracle(S348, m=2, failed=[1], helpers=[2, 3, 4, 5, 6, 7, 8])
    assert all(v == Fraction(3, 2) for v in rep7.msmr.values())


def test_oracle_symmetry_over_failed_choice():
    totals = set()
    for failed in itertools.combinations(range(1, 9), 2):
        helpers = [x for x in range(1, 9) if x not in failed]
        totals.add(beta_oracle(S348, 2, failed, helpers).msmr_total)
    assert totals == {Fraction(18)}


def test_oracle_flags_infeasible_plain_decode():
    # r=3, m=2: plain decodes need one helper inside every affected block,
    # but block {1,2,3} keeps none when 1,2 fail and only 4 helps
    design = complete_design(4, 3)
    rep = beta_oracle(design, m=2, failed=[1, 2], helpers=[4])
    assert rep.naive is None and rep.layered_naive is None
    assert rep.msmr_total > 0


def test_oracle_validation():
    with pytest.raises(ValidationError):
        beta_oracle(S348, 2, [1, 2, 3], [4, 5, 6, 7, 8])  # over budget
    with pytest.raises(ValidationError):
        beta_oracle(S348, 2, [1], [1, 2, 3])  # overlap
    with pytest.raises(ValidationError):
        beta_oracle(S348, 2, [0], [2, 3])  # out of range
    with pytest.raises(ValidationError):
        beta_oracle(S348, 2, [1], [])  # no helpers
    with pytest.raises(ValidationError):
        beta_oracle(S348, 4, [1], [2, 3])  # m >= r
    with pytest.raises(ValidationError):
        # msmr shares break down once a block keeps too few helpers
        beta_oracle(complete_design(5, 4), 1, [1], [2])


# -- closed form against the oracle -------------------------------------------------


def test_formula_spot_values():
    assert beta_formula(8, 2, 2, 4, 6) == 15
    assert beta_formula(10, 1, 3, 5, 7) == Fraction(83, 3)


def test_formula_matches_oracle_on_complete_designs(rng):
    for n in range(3, 8):
        for m in range(1, min(3, n - 1) + 1):
            for r in range(m + 1, n + 1):
                design = complete_design(n, r)
                for e in range(1, m + 1):
                    for d in range(n - m, n - e + 1):
                        failed = tuple(rng.sample(range(1, n + 1), e))
                        rest = [x for x in range(1, n + 1) if x not in failed]
                        helpers = tuple(rng.sample(rest, d))
                        want = beta_formula(n, e, m, r, d)
                        rep = beta_oracle(design, m, failed, helpers)
                        assert set(rep.msmr.values()) == {want}


def test_formula_in_extended_domain():
    # d below n-m is fine as long as d >= n-m-e+1; the recount must agree
    n, e, m, r, d = 9, 3, 3, 5, 4
    assert d < n - m
    want = beta_formula(n, e, m, r, d)
    design = complete_design(n, r)
    rng = random.Random(7)
    for _ in range(5):
        failed = tuple(rng.sample(range(1, n + 1), e))
        rest = [x for x in range(1, n + 1) if x not in failed]
        helpers = tuple(rng.sample(rest, d))
        rep = beta_oracle(design, m, failed, helpers)
        assert set(rep.msmr.values()) == {want}


def test_formula_domain_errors():
    with pytest.raises(ValidationError):
        beta_formula(8, 2, 2, 4, 3)  # d below n-m-e+1
    with pytest.raises(ValidationError):
        beta_formula(8, 2, 2, 4, 7)  # d > n-e
    with pytest.raises(ValidationError):
        beta_formula(8, 0, 2, 4, 6)
    with pytest.raises(ValidationError):
        beta_formula(8, 3, 2, 4, 6)  # e > m
    with pytest.raises(ValidationError):
        beta_formula(8, 2, 4, 4, 4)  # r <= m


def test_closed_form_at_d_equals_k():
    from math import comb

    for k in range(2, 13):
        for e in range(1, min(4, k - 1) + 1):
            for r in range(e + 1, k + e + 1):
                got = beta_closed_form_d_eq_k(k, e, r)
                assert got == comb(k + e - 2, r - 2)
                assert got == beta_formula(k + e, e, e, r, k)


def test_layered_naive_e1_matches_oracle():
    # one failure, d >= n-m helpers: the mean per helper times d is the total
    for n in range(3, 8):
        for m in range(1, n):
            for r in range(m + 1, n + 1):
                design = complete_design(n, r)
                for d in range(n - m, n):
                    rep = beta_oracle(design, m, [1], range(2, d + 2))
                    assert beta_layered_naive_e1(n, m, r, d) * d == rep.layered_naive_total
    with pytest.raises(ValidationError):
        beta_layered_naive_e1(6, 2, 4, 3)  # d < n-m: some block cannot decode
    with pytest.raises(ValidationError):
        beta_layered_naive_e1(6, 4, 4, 5)  # r <= m


def test_steiner_two_failure_values():
    assert beta_steiner_e2(8, 4, 3) == (28, 7, 3)
    assert beta_steiner_e2(8, 4, 4) == (140, 35, 15)


def test_steiner_normalization_is_t_free():
    f3, a3, b3 = beta_steiner_e2(8, 4, 3)
    f4, a4, b4 = beta_steiner_e2(8, 4, 4)
    assert Fraction(a3, f3) == Fraction(a4, f4)
    assert Fraction(b3, f3) == Fraction(b4, f4)


def test_steiner_matches_oracle():
    _, _, beta = beta_steiner_e2(8, 4, 3)
    rep = beta_oracle(S348, 2, [1, 2], [3, 4, 5, 6, 7, 8])
    assert rep.msmr_total == beta * 6


def test_steiner_validation():
    with pytest.raises(ValidationError):
        beta_steiner_e2(8, 2, 2)  # r < 3 leaves no margin for two failures
    with pytest.raises(ValidationError):
        beta_steiner_e2(9, 4, 3)  # no such block count


def test_report_json_shape():
    rep = beta_oracle(S348, 2, [1, 2], [3, 4, 5, 6, 7, 8])
    d = rep.to_json_dict()
    assert d["failed"] == [1, 2]
    assert d["totals"]["msmr"] == [18, 1]
    assert d["per_helper"]["msmr"]["3"] == [3, 1]
    rep_inf = beta_oracle(complete_design(4, 3), 2, [1, 2], [4])
    d2 = rep_inf.to_json_dict()
    assert d2["per_helper"]["naive"] is None
    assert d2["totals"]["naive"] is None
