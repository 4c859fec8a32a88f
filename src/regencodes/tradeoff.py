"""Storage-bandwidth tradeoff region for centralized repair, in exact rationals.

Points live in the normalized plane (alpha_bar, beta_bar) = (alpha, beta)/F.
The module computes:

- the two extreme points (minimum storage, minimum bandwidth) for (k, d, e);
- the functional-repair outer bound as a family of linear inequalities;
- the achievable points of the complete-design construction at n=k+e, d=k,
  one per group size r, and their corner subset (which r are hull vertices);
- a from-scratch convex hull oracle used to cross-check the corner formulas;
- achievable (alpha_bar, beta_bar) curves for general (n, k, d) systems with
  a precode, one curve per erasure budget m, and the msmr/layered_naive
  comparison of one failure at m = n-k.

Every value is an exact rational. Each closed form is written once, in an
integer core that yields rows (label, r, m, an, ad, bn, bd): alpha_bar = an/ad
and beta_bar = bn/bd, each reduced with math.gcd, denominators positive
(region_rows, msmr_row and mbcr_row, curve_rows, compare_rows). A curve builds
its sums once per group size r, as integer tables that do not depend on m
(bandwidth.beta_table for beta_formula, bandwidth.rho_row for rho), and
evaluates them at each m in integers. The corner-chain checks run on the
corners' integers. Fractions appear only at the library boundary: the
functions that return TradeoffPoints build them from those same rows. The
region, points and compare commands write their CSV straight from the rows;
floats appear only in its float columns, each one numerator / denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt
from typing import NamedTuple, Optional, Sequence

from .bandwidth import beta_at, beta_table, rho_row
from .errors import IntegrityError, ValidationError
from .record import Record

# the analysis curves (region, points, compare) are refused before any point is built when
# they would hold more than MAX_CSV_ROWS points, or, for points and compare, when n exceeds
# MAX_BINOMIAL_BITS: their binomials are C(N, K) with N <= n, below 2^n. A point costs up to
# O(n) operations on n-bit integers, so at both caps the slowest admitted curves take one to
# two seconds (measured in CHANGES.md)
MAX_CSV_ROWS = 20_000
MAX_BINOMIAL_BITS = 512


class TradeoffPoint(NamedTuple):
    alpha_bar: Fraction
    beta_bar: Fraction
    label: str
    r: Optional[int] = None
    m: Optional[int] = None

    def coords(self) -> tuple[Fraction, Fraction]:
        return (self.alpha_bar, self.beta_bar)

    def ints(self) -> tuple[int, int, int, int]:
        """alpha_bar's numerator and denominator, then beta_bar's; denominators are positive."""
        return (*self.alpha_bar.as_integer_ratio(), *self.beta_bar.as_integer_ratio())


# one point as (label, r, m, an, ad, bn, bd): alpha_bar = an/ad and beta_bar = bn/bd, reduced,
# with positive denominators; r and m are None for the extremes
Row = tuple[str, Optional[int], Optional[int], int, int, int, int]


def _point(row: Row) -> TradeoffPoint:
    label, r, m, an, ad, bn, bd = row
    return TradeoffPoint(Fraction(an, ad), Fraction(bn, bd), label, r, m)


class BoundParams(Record):
    k: int
    d: int
    e: int

    def __init__(self, k: int, d: int, e: int) -> None:
        if not 1 <= e <= k <= d:
            raise ValidationError(f"need 1 <= e <= k <= d, got e={e} k={k} d={d}")
        vars(self).update(k=k, d=d, e=e)


def _require_ek(k: int, e: int) -> None:
    if not 1 <= e < k:
        raise ValidationError(f"need 1 <= e < k, got e={e} k={k}")


def _check_size(rows: int, n: Optional[int] = None) -> None:
    """Refuse, before any point is built, a curve set of more than MAX_CSV_ROWS points or
    one whose binomials, all C(N, K) with N <= n, may exceed MAX_BINOMIAL_BITS bits."""
    if rows > MAX_CSV_ROWS:
        raise ValidationError(f"{rows} points exceed the limit of {MAX_CSV_ROWS} rows")
    if n is not None and n > MAX_BINOMIAL_BITS:
        raise ValidationError(
            f"n={n} exceeds the limit of {MAX_BINOMIAL_BITS} on the bits of a binomial C(n, .)"
        )


# -- extreme points ---------------------------------------------------------------


def msmr_row(k: int, d: int, e: int) -> Row:
    """Minimum-storage extreme: alpha_bar = 1/k, beta_bar = e/(k(d-k+e))."""
    BoundParams(k=k, d=d, e=e)
    den = k * (d - k + e)
    g = gcd(e, den)
    return ("msmr", None, None, 1, k, e // g, den // g)


def mbcr_row(k: int, d: int, e: int) -> Row:
    """Minimum-bandwidth extreme on the functional-repair bound:
    alpha_bar = (2d+e-1)/(k(2d-k+e)), beta_bar = 2e/(k(2d-k+e))."""
    BoundParams(k=k, d=d, e=e)
    den, an, bn = k * (2 * d - k + e), 2 * d + e - 1, 2 * e
    ga, gb = gcd(an, den), gcd(bn, den)
    return ("mbcr", None, None, an // ga, den // ga, bn // gb, den // gb)


def msmr_point(k: int, d: int, e: int) -> TradeoffPoint:
    """msmr_row as a TradeoffPoint."""
    return _point(msmr_row(k, d, e))


def mbcr_point(k: int, d: int, e: int) -> TradeoffPoint:
    """mbcr_row as a TradeoffPoint."""
    return _point(mbcr_row(k, d, e))


# -- functional-repair outer bound ---------------------------------------------


def functional_bound_check(
    point: TradeoffPoint, bound: BoundParams
) -> tuple[bool, list[Fraction]]:
    """Evaluate the outer-bound inequalities at a point.

    With q = ceil(k/e) - 1 and t_rem = k - q e, inequality p (p = 0..q-1)
    reads (t_rem + p e) alpha_bar + sum_{i=p}^{q-1} (d - t_rem - i e) beta_bar >= 1.
    Returns (all hold, slack list); a negative slack marks the violated one.
    """
    k, d, e = bound.k, bound.d, bound.e
    q = -(-k // e) - 1
    t_rem = k - q * e
    slacks: list[Fraction] = []
    for p in range(q):
        lhs = (t_rem + p * e) * point.alpha_bar
        for i in range(p, q):
            lhs += (d - t_rem - i * e) * point.beta_bar
        slacks.append(lhs - 1)
    if q == 0:  # k <= e: storing one fraction 1/k of the data per node suffices
        slacks.append(k * point.alpha_bar - 1)
    return all(s >= 0 for s in slacks), slacks


# -- achievable points at n = k+e, d = k ------------------------------------------


def _c1_row(k: int, e: int, r: int) -> Row:
    """Normalized (alpha, beta)/F of the complete-design code with group size r:
    alpha_bar = r/((k+e)(r-e)), beta_bar = r(r-1)/((k+e)(k+e-1)(r-e)). Checks nothing."""
    ad = (k + e) * (r - e)
    bn, bd = r * (r - 1), ad * (k + e - 1)
    ga, gb = gcd(r, ad), gcd(bn, bd)
    return (f"construction1(r={r})", r, e, r // ga, ad // ga, bn // gb, bd // gb)


def achievable_point_c1(k: int, e: int, r: int) -> TradeoffPoint:
    """Normalized (alpha, beta)/F of the complete-design code with group size r."""
    _require_ek(k, e)
    if not e + 1 <= r <= k + e:
        raise ValidationError(f"need e+1 <= r <= k+e, got r={r}")
    return _point(_c1_row(k, e, r))


def achievable_points_c1(k: int, e: int) -> list[TradeoffPoint]:
    _require_ek(k, e)
    return [_point(_c1_row(k, e, r)) for r in range(e + 1, k + e + 1)]


def slope_c1(k: int, e: int, r: int) -> Fraction:
    """Slope of the achievable curve between group sizes r and r+1."""
    _require_ek(k, e)
    if not e + 1 <= r <= k + e - 1:
        raise ValidationError(f"slope needs e+1 <= r <= k+e-1, got r={r}")
    return Fraction(-r * (r - 2 * e + 1), e * (k + e - 1))


# -- corner-point machinery ---------------------------------------------------


def p_max(e: int) -> int:
    """Largest p with C(p+1,2) < 2 C(e,2); defined for e >= 2."""
    if e < 2:
        raise ValidationError(f"p_max needs e >= 2, got e={e}")
    return (isqrt(8 * e * (e - 1) - 1) - 1) // 2


def k_threshold(e: int, p: int) -> int:
    """Smallest k past which at least p interior group sizes drop off the hull."""
    if e < 2:
        raise ValidationError(f"k_threshold needs e >= 2, got e={e}")
    if not 0 <= p <= p_max(e):
        raise ValidationError(f"need 0 <= p <= p_max({e}) = {p_max(e)}, got p={p}")
    num = (1 - e) * (comb(p + 1, 2) + 2 * comb(e + 1, 2) + e * p)
    den = comb(p + 1, 2) - 2 * comb(e, 2)
    return -(-num // den)


def p_star(k: int, e: int) -> int:
    """Number of group sizes below 2e + p_star that fall off the hull, plus one.

    Corner points are exactly MBCR and the r in [2e + p_star, k+e]. For e = 1
    every r >= 2 is a corner and p_star = 1. For e >= 2, p_star - 1 is the floor of
    the larger root in p of _n2(k, e, p) = 0, taken exactly in integers: for integers
    a and b > 0, floor((a + sqrt(N)) / b) = floor((a + isqrt(N)) / b).
    """
    _require_ek(k, e)
    if e == 1:
        return 1
    rad = (2 * e * e - e + k - 1) ** 2 + 8 * (k + e - 1) * e * (e - 1) * (k - e - 1)
    # e >= 2 and k > e make rad >= 0 and the divisor positive
    return (e - k - 2 * e * e + 1 + isqrt(rad)) // (2 * (e + k - 1)) + 1


def _n2(k: int, e: int, p: int) -> int:
    """Sign of the gap between the chord over r=2e+p-1..2e+p+1 and its midpoint."""
    return (
        (k + e - 1) * p * p
        + p * (2 * e * e + k - e - 1)
        + 2 * e * (e - 1) * (e + 1 - k)
    )


def _check_corner_chain(ints: Sequence[tuple[int, int, int, int]]) -> None:
    """Refuse corners, each as (an, ad, bn, bd) with positive denominators, that do not
    strictly trade storage for bandwidth along a strictly convex chain."""
    if len(ints) < 2:
        raise IntegrityError("a region needs at least its two extreme corners")
    steps = []  # per segment: d_alpha and d_beta, each as (numerator, positive denominator)
    for (an, ad, bn, bd), (an2, ad2, bn2, bd2) in zip(ints, ints[1:]):
        da, db = an2 * ad - an * ad2, bn2 * bd - bn * bd2
        if not da < 0 < db:
            raise IntegrityError("corners must strictly trade storage for bandwidth")
        steps.append((da, ad * ad2, db, bd * bd2))
    # corners run right to left (alpha_bar decreasing), so segment slopes
    # must strictly steepen along the list for lower convexity; with both
    # d_alpha < 0, slope 1 > slope 2 exactly when d_beta1 d_alpha2 > d_beta2 d_alpha1,
    # compared here with the four positive denominators multiplied out
    for (da1, pa1, db1, pb1), (da2, pa2, db2, pb2) in zip(steps, steps[1:]):
        if not db1 * da2 * pb2 * pa1 > db2 * da1 * pb1 * pa2:
            raise IntegrityError("corner chain is not strictly convex")


class Region(Record):
    k: int
    e: int
    corners: tuple[TradeoffPoint, ...]
    p_star: int

    def __init__(self, k: int, e: int, corners: tuple[TradeoffPoint, ...], p_star: int) -> None:
        _check_corner_chain([pt.ints() for pt in corners])
        vars(self).update(k=k, e=e, corners=corners, p_star=p_star)

    @property
    def n_corners(self) -> int:
        return len(self.corners)


def corner_points(k: int, e: int) -> Region:
    """The corner points of the achievable region at n=k+e, d=k.

    MBCR first, then the construction points with r from 2e + p_star(k,e)
    up to k+e (descending alpha_bar). For e = 1 the MBCR point coincides
    with the r=2 construction point and opens the chain.
    """
    return region_points(k, e)[1]


def region_points(k: int, e: int) -> tuple[list[TradeoffPoint], Region]:
    """Every achievable point at n=k+e, d=k (the construction points by r, then MBCR)
    and the Region whose corners are taken from that same list."""
    rows, corners, ps = region_rows(k, e)
    return [_point(row) for row in rows], Region(k, e, tuple(map(_point, corners)), ps)


def region_rows(k: int, e: int) -> tuple[list[Row], list[Row], int]:
    """region_points as rows: every achievable point at n=k+e, d=k, the corner rows (the
    chain checked as Region checks it), and p_star."""
    _require_ek(k, e)
    _check_size(k + 1)
    ps = p_star(k, e)
    lo = 2 * e + ps
    if lo > k + e:
        raise IntegrityError(f"p_star={ps} leaves no construction corners for k={k} e={e}")
    construction = [_c1_row(k, e, r) for r in range(e + 1, k + e + 1)]
    mbcr = mbcr_row(k, k, e)
    corners = [mbcr, *construction[lo - e - 1:]]
    if e == 1:
        # mbcr and the (excluded) r=2 point coincide exactly for e=1; carry
        # both names on the single opening corner, and only there
        if mbcr[3:] != construction[0][3:]:
            raise IntegrityError("e=1 expects mbcr to equal the r=2 construction point")
        corners[0] = ("mbcr=construction1(r=2)", 2, 1, *mbcr[3:])
    _check_corner_chain([row[3:] for row in corners])
    return construction + [mbcr], corners, ps


# -- independent hull oracle -------------------------------------------------------


def hull_oracle(points: Sequence[TradeoffPoint]) -> list[TradeoffPoint]:
    """Lower-left convex hull vertices, computed only from coordinates.

    Deduplicates exact coordinates, drops dominated points, then runs a
    monotone chain keeping strict turns only (collinear interior points are
    not vertices). Returned in decreasing alpha_bar, like corner_points.
    """
    seen: dict[tuple[Fraction, Fraction], TradeoffPoint] = {}
    for pt in sorted(points, key=lambda p: (p.alpha_bar, p.beta_bar, p.label)):
        seen.setdefault(pt.coords(), pt)
    pts = [seen[c] for c in sorted(seen)]
    if not pts:
        return []
    # Pareto filter: keep points strictly better in beta_bar as alpha_bar grows
    frontier: list[TradeoffPoint] = []
    best: Optional[Fraction] = None
    for pt in pts:
        if best is None or pt.beta_bar < best:
            frontier.append(pt)
            best = pt.beta_bar
    hull: list[TradeoffPoint] = []
    for pt in frontier:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a.alpha_bar - o.alpha_bar) * (pt.beta_bar - o.beta_bar) - (
                a.beta_bar - o.beta_bar
            ) * (pt.alpha_bar - o.alpha_bar)
            if cross <= 0:  # right turn or straight: middle point is no vertex
                hull.pop()
            else:
                break
        hull.append(pt)
    hull.reverse()
    return hull


# -- general (n, k, d) achievable curves -----------------------------------------


def curve_m_values(
    n: int, k: int, d: int, e: int, m_values: Optional[Sequence[int]] = None
) -> Sequence[int]:
    """The m values of achievable_points_general's curves, checked before any point is built.

    m defaults to every value in e..n-k whose whole curve stays in the formula
    domain (d >= n-m-e+1); an explicit out-of-domain or repeated m raises
    instead, and so do curves above the size caps (_check_size).
    """
    if not 1 <= e <= n - k or not k <= d <= n - e:
        raise ValidationError(
            f"need 1 <= e <= n-k and k <= d <= n-e, got n={n} k={k} d={d} e={e}"
        )
    if k < 1:  # as rho refuses it
        raise ValidationError(f"need 1 <= k <= n, got n={n} k={k}")
    if m_values is None:
        lo, hi = max(e, n - d - e + 1), n - k
        m_values = range(lo, hi + 1)
        rows = (hi - lo + 1) * (2 * n - lo - hi) // 2  # sum of n - m over lo..hi
    elif not m_values:
        raise ValidationError("no (m, r) pairs to evaluate")
    else:
        seen: set[int] = set()
        for m in m_values:
            if m in seen:
                raise ValidationError(f"m={m} is listed more than once")
            seen.add(m)
            if not e <= m <= n - k:
                raise ValidationError(f"need e <= m <= n-k, got m={m}")
            if d < n - m - e + 1:
                raise ValidationError(f"m={m} puts d={d} outside the formula domain")
        rows = sum(n - m for m in m_values)
    _check_size(rows, n)
    return m_values


def achievable_points_general(
    n: int, k: int, d: int, e: int, m_values: Optional[Sequence[int]] = None
) -> list[TradeoffPoint]:
    """Precoded-construction curves: one point per (m, r), normalized by rho.

    alpha_bar = alpha / rho and beta_bar = beta_formula / rho with
    rho = rho(n, k, m, r) the retained data size, for m in
    curve_m_values(n, k, d, e, m_values). The sums are built once per r and
    evaluated at every m; the points come out curve by curve, in m order.
    """
    return curve_points(n, k, d, e, curve_m_values(n, k, d, e, m_values))


def curve_points(n: int, k: int, d: int, e: int, m_values: Sequence[int]) -> list[TradeoffPoint]:
    """achievable_points_general's points for m values that curve_m_values returned for the
    same (n, k, d, e); checks nothing."""
    return [_point(row) for row in curve_rows(n, k, d, e, m_values)]


def curve_rows(n: int, k: int, d: int, e: int, m_values: Sequence[int]) -> list[Row]:
    """curve_points as rows; checks nothing, so a caller can check more in between
    (cli points)."""
    curves: dict[int, list[Row]] = {m: [] for m in m_values}
    for r in range(min(m_values) + 1, n + 1):
        alpha = comb(n - 1, r - 1)
        betas, rhos = beta_table(n, e, r, d), rho_row(n, k, r)
        for m, curve in curves.items():
            if m < r:
                denom = rhos[r - m]
                num, den = beta_at(betas, m)
                den *= denom
                ga, gb = gcd(alpha, denom), gcd(num, den)
                curve.append((f"precoded(m={m},r={r})", r, m,
                              alpha // ga, denom // ga, num // gb, den // gb))
    return [row for curve in curves.values() for row in curve]


def compare_points(n: int, k: int, d: int) -> list[TradeoffPoint]:
    """compare_rows as TradeoffPoints."""
    return [_point(row) for row in compare_rows(n, k, d)]


def compare_rows(n: int, k: int, d: int) -> list[Row]:
    """Per r, for one failure with m = n-k: the point of achievable_points_general's
    e = 1 curve at m, relabelled msmr(r=R), then the same code's layered_naive point.
    That one's beta_bar is beta_layered_naive_e1 = C(n-1, r-1)(r-m)/d over the same
    rho, which is alpha_bar (r-m)/d."""
    m = n - k
    if k < 1:
        raise ValidationError(f"compare needs k >= 1, got k={k}")
    if m < 1:
        raise ValidationError(f"compare needs k < n, got n={n} k={k}")
    if not k <= d <= n - 1:
        raise ValidationError(f"need k <= d <= n-1, got d={d}")
    _check_size(2 * k, n)
    out: list[Row] = []
    for _, r, _, an, ad, bn, bd in curve_rows(n, k, d, 1, curve_m_values(n, k, d, 1, [m])):
        num, den = an * (r - m), ad * d
        g = gcd(num, den)
        out.append((f"msmr(r={r})", r, m, an, ad, bn, bd))
        out.append((f"layered-naive(r={r})", r, m, an, ad, num // g, den // g))
    return out


# -- CSV emission ------------------------------------------------------------------

CSV_HEADER = [
    "label",
    "r",
    "m",
    "alpha_bar_num",
    "alpha_bar_den",
    "beta_bar_num",
    "beta_bar_den",
    "alpha_bar_float",
    "beta_bar_float",
    "is_corner",
]


def csv_rows(rows: Sequence[Row], corners: Sequence[Row] = ()) -> list[str]:
    """One CSV line per row, without its line end, as csv.writer writes it: the label is
    quoted exactly when it holds a comma (no label holds a quote or a line break), and no
    other field needs quoting. A row is a corner when its four integers match a corner's.
    Each float column is numerator / denominator, which is float(Fraction)."""
    corner_keys = {row[3:] for row in corners}
    lines = []
    for row in rows:
        label, r, m, an, ad, bn, bd = row
        if "," in label:
            label = f'"{label}"'
        lines.append(f"{label},{'' if r is None else r},{'' if m is None else m},"
                     f"{an},{ad},{bn},{bd},{an / ad!r},{bn / bd!r},"
                     f"{'1' if row[3:] in corner_keys else '0'}")
    return lines
