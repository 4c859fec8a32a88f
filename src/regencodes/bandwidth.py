"""Repair bandwidth: closed forms and a direct per-block accounting oracle.

Bandwidth counts symbols sent by helpers to the repair center, exactly, as
Fractions. Three accountings of the same repair:

- msmr: each affected group is repaired the way an MSMR code would be; a
  helper holding a symbol of a group with s lost symbols and h helper
  members contributes s / (h - (r-m) + s) of a symbol for that group.
- naive: each affected group is decoded outright from r-m whole symbols,
  taken from the group's lowest-numbered helper members (the same symbols
  the executable repair path reads).
- layered_naive: every lost symbol is regenerated independently at cost
  r-m whole symbols; simultaneous failures in one group share nothing.

beta_formula is the closed form of the msmr total per helper for complete
designs (t = r); beta_oracle recounts all three from an explicit design and
explicit failed/helper sets, sharing no code with the formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Optional

from .designs import BlockDesign
from .errors import ValidationError


@dataclass(frozen=True)
class BandwidthReport:
    failed: tuple[int, ...]
    helpers: tuple[int, ...]
    msmr: Mapping[int, Fraction]
    naive: Optional[Mapping[int, Fraction]]
    layered_naive: Optional[Mapping[int, Fraction]]

    @property
    def msmr_total(self) -> Fraction:
        return sum(self.msmr.values(), Fraction(0))

    @property
    def naive_total(self) -> Optional[Fraction]:
        if self.naive is None:
            return None
        return sum(self.naive.values(), Fraction(0))

    @property
    def layered_naive_total(self) -> Optional[Fraction]:
        if self.layered_naive is None:
            return None
        return sum(self.layered_naive.values(), Fraction(0))

    def to_json_dict(self) -> dict:
        def conv(table):
            if table is None:
                return None
            return {str(h): [v.numerator, v.denominator] for h, v in sorted(table.items())}

        def tot(v):
            return None if v is None else [v.numerator, v.denominator]

        return {
            "failed": list(self.failed),
            "helpers": list(self.helpers),
            "per_helper": {
                "msmr": conv(self.msmr),
                "naive": conv(self.naive),
                "layered_naive": conv(self.layered_naive),
            },
            "totals": {
                "msmr": tot(self.msmr_total),
                "naive": tot(self.naive_total),
                "layered_naive": tot(self.layered_naive_total),
            },
        }


def beta_formula(n: int, e: int, m: int, r: int, d: int) -> Fraction:
    """Per-helper msmr bandwidth for e failures of a t=r layered code.

    Sums, over the number s of lost symbols in a group and the count p of
    group members outside helpers-and-failed, the per-group shares:

        sum_s C(e,s) sum_p C(d-1, r-p-1) C(n-d-e, p-s) * s/(m-p+s)

    with p from max(s, r-d) to min(n-d-e+s, r-1). Valid whenever every
    denominator is positive, i.e. d >= n-m-e+1; execution additionally
    needs d >= n-m, but the analytic curve extends below that.
    """
    _check_formula_args(n, e, m, r, d)
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


def _check_formula_args(n: int, e: int, m: int, r: int, d: int) -> None:
    if not 1 <= e <= m:
        raise ValidationError(f"need 1 <= e <= m, got e={e} m={m}")
    if not m < r <= n:
        raise ValidationError(f"need m < r <= n, got m={m} r={r} n={n}")
    if d < n - m - e + 1:
        raise ValidationError(
            f"d={d} below the formula domain d >= n-m-e+1 = {n - m - e + 1}"
        )
    if d > n - e:
        raise ValidationError(f"d={d} exceeds the surviving nodes n-e = {n - e}")


def beta_closed_form_d_eq_k(k: int, e: int, r: int) -> int:
    """Per-helper msmr bandwidth at n=k+e, d=k: collapses to C(k+e-2, r-2)."""
    if not 1 <= e < r <= k + e:
        raise ValidationError(f"need 1 <= e < r <= k+e, got k={k} e={e} r={r}")
    if k <= e:
        raise ValidationError(f"need k > e, got k={k} e={e}")
    return comb(k + e - 2, r - 2)


def beta_layered_naive_e1(n: int, m: int, r: int, d: int) -> Fraction:
    """Mean per-helper layered_naive bandwidth for one failure, t=r design.

    The failed node's C(n-1, r-1) blocks are each decoded from r-m whole
    symbols, spread over d >= n-m helpers (so every block can decode).
    """
    if not (1 <= m < r <= n and n - m <= d < n):
        raise ValidationError(
            f"need 1 <= m < r <= n and n-m <= d < n, got n={n} m={m} r={r} d={d}"
        )
    return Fraction(comb(n - 1, r - 1) * (r - m), d)


def beta_steiner_e2(n: int, r: int, t: int) -> tuple[int, int, int]:
    """(F, alpha, beta) for a Steiner S(t,r,n) layered code with m=2 at d=n-2.

    beta is the per-helper bandwidth for any two failures: lambda2 whole
    symbols. Normalized alpha/F and beta/F do not depend on t.
    """
    if not 2 <= t <= r <= n:
        raise ValidationError(f"need 2 <= t <= r <= n, got n={n} r={r} t={t}")
    if r < 3:
        raise ValidationError(f"need r >= 3 so groups survive two erasures, got r={r}")
    if comb(n, t) % comb(r, t):
        raise ValidationError(f"no S({t},{r},{n}) block count: C(n,t)/C(r,t) not integral")
    N = comb(n, t) // comb(r, t)
    if (N * r) % n or comb(n - 2, t - 2) % comb(r - 2, t - 2):
        raise ValidationError(f"S({t},{r},{n}) fails the divisibility conditions")
    alpha = N * r // n
    beta = comb(n - 2, t - 2) // comb(r - 2, t - 2)
    return (r - 2) * N, alpha, beta


def beta_oracle(
    design: BlockDesign,
    m: int,
    failed,
    helpers,
) -> BandwidthReport:
    """Recount repair bandwidth from first principles, block by block.

    Walks every block touching a failed node and charges each accounting
    directly; no closed form involved. naive and layered_naive are None when
    some affected block has fewer than r-m helper members (those decodes
    cannot run), while the msmr accounting only needs its shares' denominators
    positive.
    """
    failed = tuple(sorted(set(failed)))
    helpers = tuple(sorted(set(helpers)))
    nodes = set(range(1, design.n + 1))
    if not set(failed) <= nodes or not set(helpers) <= nodes:
        raise ValidationError("failed and helper nodes must lie in 1..n")
    if set(failed) & set(helpers):
        raise ValidationError(f"nodes {sorted(set(failed) & set(helpers))} are both failed and helping")
    if not 0 <= m < design.r:
        raise ValidationError(f"need 0 <= m < r, got m={m} r={design.r}")
    if len(failed) > m:
        raise ValidationError(f"{len(failed)} failures exceed the erasure budget m={m}")
    if not helpers:
        raise ValidationError("need at least one helper")

    km = design.r - m
    msmr = {h: Fraction(0) for h in helpers}
    naive = {h: Fraction(0) for h in helpers}
    lnaive = {h: Fraction(0) for h in helpers}
    feasible = True
    fset, hset = set(failed), set(helpers)
    for block in design.blocks:
        bset = set(block)
        lost = bset & fset
        s = len(lost)
        if s == 0:
            continue
        avail = sorted(bset & hset)
        h_cnt = len(avail)
        if h_cnt - km + s <= 0:
            raise ValidationError(
                f"block {block} keeps only {h_cnt} helper members; "
                f"msmr shares need more than {km - s}"
            )
        share = Fraction(s, h_cnt - km + s)
        for x in avail:
            msmr[x] += share
        if h_cnt < km:
            feasible = False
            continue
        for x in avail[:km]:
            naive[x] += 1  # one whole symbol from each of km readers
            lnaive[x] += s  # re-read once per lost symbol, no sharing

    return BandwidthReport(
        failed=failed,
        helpers=helpers,
        msmr=msmr,
        naive=naive if feasible else None,
        layered_naive=lnaive if feasible else None,
    )
