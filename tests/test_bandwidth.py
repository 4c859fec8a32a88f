"""Repair-bandwidth accounting: first-principles recount first, formula second.

The oracle walks blocks and charges reads directly; the closed forms must
reproduce it. Both routes stay independent so a regression in one cannot hide
in the other.
"""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from regencodes import ValidationError, bundled_design
from regencodes.bandwidth import (
    beta_closed_form_d_eq_k,
    beta_formula,
    beta_layered_naive_e1,
    beta_oracle,
    beta_steiner_e2,
    rho,
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


def per_term_fraction_sum(n, e, m, r, d):
    """The formula summed one normalized Fraction per term, as first written."""
    total = Fraction(0)
    for s in range(1, e + 1):
        for p in range(max(s, r - d), min(n - d - e + s, r - 1) + 1):
            total += (
                comb(d - 1, r - p - 1)
                * comb(n - d - e, p - s)
                * comb(e, s)
                * Fraction(s, m - p + s)
            )
    return total


def test_formula_equals_the_per_term_fraction_sum_on_its_domain():
    cases = 0
    for n in range(2, 17):
        for m in range(1, n):
            for e in range(1, m + 1):
                for r in range(m + 1, n + 1):
                    for d in range(max(1, n - m - e + 1), n - e + 1):
                        got = beta_formula(n, e, m, r, d)
                        assert type(got) is Fraction
                        assert got == per_term_fraction_sum(n, e, m, r, d), (n, e, m, r, d)
                        cases += 1
    assert cases == 17340


def test_formula_below_one_helper_is_the_empty_sum():
    # d <= 0 stays in the domain d >= n-m-e+1 when e is large; p would start above r-1
    cases = 0
    for n in range(2, 12):
        for m in range(1, n):
            for e in range(1, m + 1):
                for r in range(m + 1, n + 1):
                    for d in range(n - m - e + 1, 1):
                        assert beta_formula(n, e, m, r, d) == per_term_fraction_sum(n, e, m, r, d) == 0
                        cases += 1
    assert cases > 0


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


@pytest.mark.parametrize("call, first", [
    # each input fails two checks; the refusal pins which comes first
    (lambda: rho(5, 6, 1, 9), "need 1 <= k <= n, got n=5 k=6"),  # also r > n
    (lambda: rho(5, 3, 3, 2), "need 1 <= m <= n-k, got m=3 n-k=2"),  # also r <= m
    (lambda: beta_formula(8, 0, 4, 4, 6), "need 1 <= e <= m, got e=0 m=4"),  # also r <= m
    (lambda: beta_formula(8, 2, 4, 4, 2), "need m < r <= n, got m=4 r=4 n=8"),  # also d low
])
def test_the_first_failed_check_names_the_refusal(call, first):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == first


def test_closed_form_at_d_equals_k():
    from math import comb

    for k in range(2, 13):
        for e in range(1, min(4, k - 1) + 1):
            for r in range(e + 1, k + e + 1):
                got = beta_closed_form_d_eq_k(k, e, r)
                assert got == comb(k + e - 2, r - 2)
                assert got == beta_formula(k + e, e, e, r, k)
    with pytest.raises(ValidationError) as err:
        beta_closed_form_d_eq_k(5, 2, 2)
    assert str(err.value) == "need 1 <= e < r <= k+e, got k=5 e=2 r=2"
    with pytest.raises(ValidationError) as err:
        beta_closed_form_d_eq_k(2, 2, 3)
    assert str(err.value) == "need k > e, got k=2 e=2"


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
    with pytest.raises(ValidationError) as err:
        beta_steiner_e2(7, 3, 1)
    assert str(err.value) == "need 2 <= t <= r <= n, got n=7 r=3 t=1"
    with pytest.raises(ValidationError) as err:
        beta_steiner_e2(6, 4, 2)  # C(6,2) = 15 is not a multiple of C(4,2) = 6
    assert str(err.value) == "no S(2,4,6) block count: C(n,t)/C(r,t) not integral"


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
