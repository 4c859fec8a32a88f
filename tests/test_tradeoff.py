"""Storage-bandwidth region: extreme points, bounds, corners, hull agreement."""

import csv
import io
import random
from fractions import Fraction
from math import comb

import pytest

from regencodes import IntegrityError, ValidationError
from regencodes.bandwidth import beta_layered_naive_e1, rho
from regencodes.tradeoff import (
    CSV_HEADER,
    BoundParams,
    Region,
    TradeoffPoint,
    _n2,
    achievable_point_c1,
    achievable_points_c1,
    achievable_points_general,
    compare_points,
    corner_points,
    csv_rows,
    functional_bound_check,
    hull_oracle,
    k_threshold,
    mbcr_point,
    msmr_point,
    msmr_row,
    p_max,
    p_star,
    region_rows,
    slope_c1,
)


def test_extreme_points():
    assert msmr_point(14, 14, 3).coords() == (Fraction(1, 14), Fraction(1, 14))
    assert mbcr_point(14, 14, 3).coords() == (Fraction(15, 119), Fraction(3, 119))
    ms = msmr_point(10, 12, 2)
    assert ms.coords() == (Fraction(1, 10), Fraction(2, 40))
    mb = mbcr_point(10, 12, 2)
    assert mb.coords() == (Fraction(5, 32), Fraction(1, 40))


def test_extreme_point_validation():
    with pytest.raises(ValidationError):
        msmr_point(3, 2, 1)  # d < k
    with pytest.raises(ValidationError):
        mbcr_point(3, 3, 4)  # e > k


def test_extremes_satisfy_the_functional_bound():
    for k, d, e in [(5, 5, 2), (10, 12, 3), (7, 9, 7), (6, 6, 1)]:
        bound = BoundParams(k=k, d=d, e=e)
        ok, _ = functional_bound_check(msmr_point(k, d, e), bound)
        assert ok
        ok, _ = functional_bound_check(mbcr_point(k, d, e), bound)
        assert ok


def test_shrunk_points_violate_the_bound():
    bound = BoundParams(k=10, d=10, e=3)
    pt = msmr_point(10, 10, 3)
    shrunk = TradeoffPoint(pt.alpha_bar * Fraction(99, 100), pt.beta_bar, "x")
    ok, slacks = functional_bound_check(shrunk, bound)
    assert not ok
    assert min(slacks) < 0


def test_construction_point_values():
    assert achievable_point_c1(4, 1, 3).coords() == (Fraction(3, 10), Fraction(3, 20))
    pts = achievable_points_c1(4, 1)
    assert [pt.r for pt in pts] == [2, 3, 4, 5]
    with pytest.raises(ValidationError):
        achievable_point_c1(4, 1, 6)
    with pytest.raises(ValidationError):
        achievable_point_c1(4, 4, 5)


def test_last_construction_point_meets_the_bound_with_equality():
    # at r=k+e-1 the final inequality is tight: (k-e) alpha + e beta = 1
    for k, e in [(5, 2), (10, 3), (20, 7), (6, 1)]:
        pt = achievable_point_c1(k, e, k + e - 1)
        assert (k - e) * pt.alpha_bar + e * pt.beta_bar == 1
        ok, slacks = functional_bound_check(pt, BoundParams(k=k, d=k, e=e))
        assert ok
        assert slacks[-1] == 0


def test_last_point_beats_space_sharing_of_the_extremes():
    # interpolating msmr and mbcr to the same storage leaves this exact gap
    for k, e in [(5, 2), (10, 3), (14, 3), (20, 7), (9, 1)]:
        pt = achievable_point_c1(k, e, k + e - 1)
        ms, mb = msmr_point(k, k, e), mbcr_point(k, k, e)
        lam = (pt.alpha_bar - ms.alpha_bar) / (mb.alpha_bar - ms.alpha_bar)
        assert 0 < lam < 1
        chord = ms.beta_bar + lam * (mb.beta_bar - ms.beta_bar)
        assert chord - pt.beta_bar == Fraction(
            (k - e) * (k - e - 1), k * (k + e) * (k - 1) ** 2
        )


def test_slope_matches_finite_differences():
    for k, e in [(5, 1), (8, 2), (14, 3), (9, 4)]:
        pts = {pt.r: pt for pt in achievable_points_c1(k, e)}
        for r in range(e + 1, k + e):
            a, b = pts[r], pts[r + 1]
            fd = (b.beta_bar - a.beta_bar) / (b.alpha_bar - a.alpha_bar)
            assert slope_c1(k, e, r) == fd
    with pytest.raises(ValidationError) as err:
        slope_c1(5, 1, 6)
    assert str(err.value) == "slope needs e+1 <= r <= k+e-1, got r=6"


def test_p_max_values():
    assert p_max(2) == 1
    assert p_max(3) == 2
    assert p_max(10) == 12
    # defining inequality: largest p with C(p+1,2) < 2 C(e,2)
    for e in range(2, 40):
        p = p_max(e)
        assert comb(p + 1, 2) < 2 * comb(e, 2)
        assert comb(p + 2, 2) >= 2 * comb(e, 2)
    with pytest.raises(ValidationError):
        p_max(1)


def test_k_threshold_values():
    assert k_threshold(3, 2) == 14
    for e in range(2, 11):
        assert k_threshold(e, e - 1) == 5 * e - 1
    with pytest.raises(ValidationError):
        k_threshold(3, 3)  # p above p_max
    with pytest.raises(ValidationError) as err:
        k_threshold(1, 0)
    assert str(err.value) == "k_threshold needs e >= 2, got e=1"


def test_p_star_spot_values():
    assert p_star(14, 3) == 3
    assert p_star(4, 3) == 1
    assert all(p_star(k, 1) == 1 for k in range(2, 10))


def test_p_star_matches_the_max_form():
    # independent route: largest p >= 0 with the chord quadratic nonpositive
    for e in range(2, 20):
        for k in range(e + 1, 60):
            p = 0
            while _n2(k, e, p + 1) <= 0:
                p += 1
            assert p_star(k, e) == p + 1


def test_p_star_threshold_consistency():
    # crossing k_threshold(e, p) is exactly when p_star exceeds p
    for e in range(2, 8):
        for p in range(1, p_max(e) + 1):
            kt = k_threshold(e, p)
            if kt > e + 1:
                assert p_star(kt - 1, e) <= p
            assert p_star(max(kt, e + 1), e) >= p + 1


def test_corner_points_example():
    region = corner_points(14, 3)
    assert region.p_star == 3
    assert region.n_corners == 10
    assert region.corners[0].label == "mbcr"
    assert [pt.r for pt in region.corners[1:]] == list(range(9, 18))


def test_corner_points_e1_relabels_the_shared_corner():
    region = corner_points(5, 1)
    first = region.corners[0]
    assert first.label == "mbcr=construction1(r=2)"
    assert first.coords() == achievable_point_c1(5, 1, 2).coords()
    assert first.coords() == mbcr_point(5, 5, 1).coords()
    assert [pt.r for pt in region.corners] == [2, 3, 4, 5, 6]


def test_hull_oracle_reproduces_corner_points():
    for e in range(1, 9):
        for k in range(e + 1, 16):
            pts = achievable_points_c1(k, e) + [mbcr_point(k, k, e)]
            hull = hull_oracle(pts)
            region = corner_points(k, e)
            assert [p.coords() for p in hull] == [p.coords() for p in region.corners]


def test_hull_oracle_drops_dominated_and_duplicate_points():
    a = TradeoffPoint(Fraction(1), Fraction(1), "a")
    b = TradeoffPoint(Fraction(2), Fraction(1, 2), "b")
    mid = TradeoffPoint(Fraction(3, 2), Fraction(3, 4), "chord midpoint")
    dom = TradeoffPoint(Fraction(2), Fraction(2), "dominated")
    dup = TradeoffPoint(Fraction(1), Fraction(1), "dup")
    hull = hull_oracle([dom, mid, b, dup, a])
    assert [p.coords() for p in hull] == [b.coords(), a.coords()]
    assert hull_oracle([]) == []


def test_region_rejects_broken_chains():
    a = TradeoffPoint(Fraction(2), Fraction(1), "a")
    b = TradeoffPoint(Fraction(1), Fraction(2), "b")
    c = TradeoffPoint(Fraction(1, 2), Fraction(5, 2), "c")  # collinear-ish
    with pytest.raises(IntegrityError):
        Region(k=5, e=2, corners=(a,), p_star=1)
    with pytest.raises(IntegrityError):
        Region(k=5, e=2, corners=(b, a), p_star=1)  # alpha increasing
    # slopes -1 then -1: not strictly convex
    with pytest.raises(IntegrityError):
        Region(k=5, e=2, corners=(a, b, c), p_star=1)
    # equal slopes -1/2 from segments written over different denominators
    p = TradeoffPoint(Fraction(3), Fraction(1), "p")
    q = TradeoffPoint(Fraction(2), Fraction(3, 2), "q")
    s = TradeoffPoint(Fraction(4, 3), Fraction(11, 6), "s")
    with pytest.raises(IntegrityError, match="not strictly convex"):
        Region(k=5, e=2, corners=(p, q, s), p_star=1)
    Region(k=5, e=2, corners=(p, q, TradeoffPoint(Fraction(4, 3), Fraction(12, 6), "t")), p_star=1)
    # beta falling along the chain
    with pytest.raises(IntegrityError, match="strictly trade"):
        Region(k=5, e=2, corners=(p, TradeoffPoint(Fraction(2), Fraction(1, 2), "low"), s),
               p_star=1)
    # a reflex turn deep in a long chain: one corner lifted just above its neighbours' chord,
    # then one laid exactly on it
    chain = list(corner_points(60, 5).corners)
    i = len(chain) // 2
    lo, hi = chain[i - 1], chain[i + 1]
    alpha, beta = (lo.alpha_bar + hi.alpha_bar) / 2, (lo.beta_bar + hi.beta_bar) / 2
    for lift in (Fraction(1, 10**12), Fraction(0)):
        bent = chain[:i] + [TradeoffPoint(alpha, beta + lift, "bent")] + chain[i + 1:]
        with pytest.raises(IntegrityError, match="not strictly convex"):
            Region(k=60, e=5, corners=tuple(bent), p_star=1)
    dented = chain[:i] + [TradeoffPoint(alpha, beta - Fraction(1, 10**12), "dent")] + chain[i + 1:]
    Region(k=60, e=5, corners=tuple(dented), p_star=1)


def fraction_slope_verdict(corners):
    """The chain checks in Fraction arithmetic, slope by slope: the error message, or None."""
    for a, b in zip(corners, corners[1:]):
        if not (a.alpha_bar > b.alpha_bar and a.beta_bar < b.beta_bar):
            return "corners must strictly trade storage for bandwidth"
    slopes = [(b.beta_bar - a.beta_bar) / (b.alpha_bar - a.alpha_bar)
              for a, b in zip(corners, corners[1:])]
    if any(not s1 > s2 for s1, s2 in zip(slopes, slopes[1:])):
        return "corner chain is not strictly convex"
    return None


def test_region_refuses_exactly_what_the_fraction_slopes_refuse():
    rng = random.Random(2101)
    verdicts = set()
    for _ in range(3000):
        corners = tuple(
            TradeoffPoint(Fraction(rng.randrange(1, 13), rng.randrange(1, 7)),
                          Fraction(rng.randrange(1, 13), rng.randrange(1, 7)), "x")
            for _ in range(rng.randrange(2, 6))
        )
        want = fraction_slope_verdict(corners)
        verdicts.add(want)
        if want is None:
            Region(k=5, e=2, corners=corners, p_star=1)
        else:
            with pytest.raises(IntegrityError) as info:
                Region(k=5, e=2, corners=corners, p_star=1)
            assert str(info.value) == want
    assert len(verdicts) == 3


def test_corner_points_build_across_k_and_e():
    for k in range(2, 60):
        for e in range(1, min(k - 1, 8) + 1):
            region = corner_points(k, e)
            assert region.n_corners == k - e - region.p_star + 2
            points = achievable_points_c1(k, e) + [mbcr_point(k, k, e)]
            assert [p.coords() for p in region.corners] == [p.coords() for p in hull_oracle(points)]


def test_general_points_default_m_range():
    pts = achievable_points_general(19, 13, 14, 3)
    assert len(pts) == 58
    assert {pt.m for pt in pts} == {3, 4, 5, 6}
    for pt in pts:
        assert pt.label == f"precoded(m={pt.m},r={pt.r})"


def test_general_points_m_equals_n_minus_k_collapses_to_plain_layered():
    n, k, d, e = 19, 13, 14, 3
    for pt in achievable_points_general(n, k, d, e, m_values=[6]):
        assert pt.alpha_bar == Fraction(pt.r, n * (pt.r - 6))


def test_general_points_validation():
    with pytest.raises(ValidationError):
        achievable_points_general(10, 7, 6, 1)  # d < k
    with pytest.raises(ValidationError):
        achievable_points_general(10, 7, 7, 1, m_values=[4])  # m > n-k
    with pytest.raises(ValidationError):
        achievable_points_general(19, 13, 14, 3, m_values=[2])  # m < e
    with pytest.raises(ValidationError):
        # in range but outside the formula domain for this d
        achievable_points_general(19, 13, 13, 3, m_values=[3])


def test_general_points_refuse_a_repeated_m():
    with pytest.raises(ValidationError, match="m=2 is listed more than once"):
        achievable_points_general(9, 6, 7, 2, m_values=[2, 3, 2])
    assert len(achievable_points_general(9, 6, 7, 2, m_values=[3, 2])) == 13


@pytest.mark.parametrize("n,k,d", [
    (8, 5, 6), (10, 7, 7), (16, 11, 12), (20, 14, 15),
    (5, 1, 3), (8, 1, 7),  # k = 1: m = n-1, and d = n-1 in the second
    (12, 5, 11), (9, 4, 8),  # d = n-1
    (3, 2, 2), (9, 8, 8),  # m = 1
])
def test_compare_points_pair_the_msmr_curve_with_layered_naive(n, k, d):
    m = n - k
    pts = compare_points(n, k, d)
    msmr, naive = pts[0::2], pts[1::2]
    curve = achievable_points_general(n, k, d, 1, [m])
    assert [p.coords() for p in msmr] == [p.coords() for p in curve]
    for a, b, r in zip(msmr, naive, range(m + 1, n + 1)):
        assert (a.label, a.r, a.m) == (f"msmr(r={r})", r, m)
        assert (b.label, b.r, b.m) == (f"layered-naive(r={r})", r, m)
        assert b.alpha_bar == a.alpha_bar
        assert b.beta_bar == beta_layered_naive_e1(n, m, r, d) / rho(n, k, m, r)


def test_csv_rows_shape():
    row = region_rows(4, 1)[0][1]
    assert row == ("construction1(r=3)", 3, 1, 3, 10, 3, 20)
    assert achievable_point_c1(4, 1, 3).ints() == row[3:]
    assert csv_rows([row], corners=[row]) == ["construction1(r=3),3,1,3,10,3,20,0.3,0.15,1"]
    curve = ("precoded(m=2,r=3)", 3, 2, 1, 4, 1, 8)
    lines = csv_rows([curve, row, msmr_row(4, 5, 1)])
    assert lines == ['"precoded(m=2,r=3)",3,2,1,4,1,8,0.25,0.125,0',
                     "construction1(r=3),3,1,3,10,3,20,0.3,0.15,0",
                     "msmr,,,1,4,1,8,0.25,0.125,0"]
    parsed = list(csv.reader(io.StringIO("\n".join([",".join(CSV_HEADER), *lines]))))
    assert parsed[0] == CSV_HEADER
    assert [fields[:3] for fields in parsed[1:]] == [
        ["precoded(m=2,r=3)", "3", "2"], ["construction1(r=3)", "3", "1"], ["msmr", "", ""]]


def test_bound_params_validation():
    with pytest.raises(ValidationError):
        BoundParams(k=3, d=2, e=1)
    with pytest.raises(ValidationError):
        BoundParams(k=3, d=3, e=0)
