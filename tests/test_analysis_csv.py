"""The region, points and compare CSV, written from the integer rows, against the renderer
the rows replaced: TradeoffPoints from the closed forms in Fraction arithmetic, their four
integers split back out with as_integer_ratio, and csv.writer. That renderer is kept here as
the oracle, as tests/test_mds.py keeps the barycentric formula."""

import contextlib
import csv
import io
import re
from fractions import Fraction
from math import comb, gcd

import pytest

from regencodes import cli, tradeoff
from regencodes.bandwidth import beta_formula, rho
from regencodes.cli import main
from regencodes.tradeoff import (
    CSV_HEADER,
    TradeoffPoint,
    compare_points,
    compare_rows,
    corner_points,
    csv_rows,
    curve_m_values,
    curve_rows,
    hull_oracle,
    mbcr_point,
    mbcr_row,
    msmr_point,
    msmr_row,
    region_points,
    region_rows,
)

# the analysis ladder that every cycle of bench/run.py runs
LADDER = [
    "region --k 14 --e 3", "region --k 30 --e 3", "region --k 60 --e 5", "region --k 100 --e 5",
    "points --n 19 --k 13 --d 14 --e 3", "points --n 30 --k 20 --d 22 --e 4",
    "compare --n 10 --k 7 --d 7", "compare --n 16 --k 11 --d 12", "compare --n 20 --k 14 --d 15",
]


# -- the oracle: the closed forms as Fractions, rendered through csv.writer -------------------


def old_c1(k, e, r):
    return TradeoffPoint(Fraction(r, (k + e) * (r - e)),
                         Fraction(r * (r - 1), (k + e) * (k + e - 1) * (r - e)),
                         f"construction1(r={r})", r, e)


def old_msmr(k, d, e):
    return TradeoffPoint(Fraction(1, k), Fraction(e, k * (d - k + e)), "msmr")


def old_mbcr(k, d, e):
    den = k * (2 * d - k + e)
    return TradeoffPoint(Fraction(2 * d + e - 1, den), Fraction(2 * e, den), "mbcr")


def old_curves(n, k, d, e, m_values):
    return [TradeoffPoint(Fraction(comb(n - 1, r - 1), rho(n, k, m, r)),
                          beta_formula(n, e, m, r, d) / rho(n, k, m, r),
                          f"precoded(m={m},r={r})", r, m)
            for m in m_values for r in range(m + 1, n + 1)]


def old_compare(n, k, d):
    m, out = n - k, []
    for pt in old_curves(n, k, d, 1, [m]):
        r = pt.r
        out.append(TradeoffPoint(pt.alpha_bar, pt.beta_bar, f"msmr(r={r})", r, m))
        out.append(TradeoffPoint(pt.alpha_bar, pt.alpha_bar * Fraction(r - m, d),
                                 f"layered-naive(r={r})", r, m))
    return out


def old_fields(pt, corner_keys=frozenset()):
    """The renderer's fields of one point: its four integers split back out of its Fractions."""
    key = an, ad, bn, bd = (*pt.alpha_bar.as_integer_ratio(), *pt.beta_bar.as_integer_ratio())
    return [pt.label, "" if pt.r is None else str(pt.r), "" if pt.m is None else str(pt.m),
            str(an), str(ad), str(bn), str(bd), repr(an / ad), repr(bn / bd),
            "1" if key in corner_keys else "0"]


def old_csv_text(points, corners=()):
    keys = {pt.ints() for pt in corners}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(old_fields(pt, keys) for pt in points)
    return buf.getvalue()


def old_region_csv(k, e):
    points = [old_c1(k, e, r) for r in range(e + 1, k + e + 1)] + [old_mbcr(k, k, e)]
    return old_csv_text(points, hull_oracle(points))


def old_points_csv(n, k, d, e, m_values=None):
    m_values = curve_m_values(n, k, d, e, m_values)
    return old_csv_text(old_curves(n, k, d, e, m_values) + [old_msmr(k, d, e), old_mbcr(k, d, e)])


# -- the commands -------------------------------------------------------------------------------

_PARSERS = {}


def command_csv(argv):
    """stdout of one analysis command, parsed as main parses it, run by its command function."""
    parser = _PARSERS.get(argv[0]) or _PARSERS.setdefault(argv[0], cli._build_parser(argv[0]))
    args = parser.parse_args([str(a) for a in argv])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert args.func(args) == 0
    return out.getvalue()


def valid_points(n):
    for k in range(1, n):
        for e in range(1, n - k + 1):
            for d in range(k, n - e + 1):
                lo = max(e, n - d - e + 1)
                if lo <= n - k and e <= k:  # some curve, and an msmr and an mbcr point
                    yield k, d, e


def test_every_region_up_to_k_40_matches_the_renderer():
    for k in range(2, 41):
        for e in range(1, k):
            assert command_csv(["region", "--k", k, "--e", e]) == old_region_csv(k, e), (k, e)


@pytest.mark.parametrize("n", range(2, 16))
def test_every_points_up_to_n_15_matches_the_renderer(n):
    for k, d, e in valid_points(n):
        assert command_csv(["points", "--n", n, "--k", k, "--d", d, "--e", e]) == \
            old_points_csv(n, k, d, e), (n, k, d, e)


@pytest.mark.parametrize("n,k,d,e,m_values", [
    (19, 13, 14, 3, [6, 4]), (15, 9, 10, 2, [6, 4, 5]), (12, 6, 8, 3, [3]),
    (14, 4, 10, 1, [10, 4, 5, 7]), (9, 6, 7, 2, [3, 2]), (30, 20, 22, 4, [10]),
])
def test_points_with_m_values_match_the_renderer(n, k, d, e, m_values):
    argv = ["points", "--n", n, "--k", k, "--d", d, "--e", e,
            "--m-values", ",".join(map(str, m_values))]
    assert command_csv(argv) == old_points_csv(n, k, d, e, m_values)


def test_every_compare_up_to_n_20_matches_the_renderer():
    for n in range(2, 21):
        for k in range(1, n):
            for d in range(k, n):
                assert command_csv(["compare", "--n", n, "--k", k, "--d", d]) == \
                    old_csv_text(old_compare(n, k, d)), (n, k, d)


@pytest.mark.parametrize("command", LADDER)
def test_the_benchmark_ladder_matches_the_renderer(capsys, command):
    argv = command.split()
    assert main(argv) == 0
    args = {argv[i][2:]: int(argv[i + 1]) for i in range(1, len(argv), 2)}
    if argv[0] == "region":
        expected = old_region_csv(**args)
    elif argv[0] == "points":
        expected = old_points_csv(**args)
    else:
        expected = old_csv_text(old_compare(**args))
    assert capsys.readouterr() == (expected, "")


# -- the rows and the library points built from them ------------------------------------------


def assert_reduced(rows):
    for _, _, _, an, ad, bn, bd in rows:
        assert ad > 0 and bd > 0 and gcd(an, ad) == 1 and gcd(bn, bd) == 1


def assert_points_of(points, rows):
    assert points == [TradeoffPoint(Fraction(an, ad), Fraction(bn, bd), label, r, m)
                      for label, r, m, an, ad, bn, bd in rows]


def test_rows_are_reduced_and_the_library_points_are_their_fractions():
    for k in range(2, 41):
        for e in range(1, k):
            rows, corners, p_star = region_rows(k, e)
            assert_reduced(rows + corners)
            points, region = region_points(k, e)
            assert_points_of(points, rows)
            assert_points_of(list(region.corners), corners)
            assert region.p_star == p_star and corner_points(k, e) == region
    for n in range(2, 13):
        for k, d, e in valid_points(n):
            rows = curve_rows(n, k, d, e, curve_m_values(n, k, d, e))
            extremes = [msmr_row(k, d, e), mbcr_row(k, d, e)]
            assert_reduced(rows + extremes)
            assert_points_of(tradeoff.achievable_points_general(n, k, d, e), rows)
            assert_points_of([msmr_point(k, d, e), mbcr_point(k, d, e)], extremes)
    for n in range(2, 17):
        for k in range(1, n):
            for d in range(k, n):
                rows = compare_rows(n, k, d)
                assert_reduced(rows)
                assert_points_of(compare_points(n, k, d), rows)


# -- the line format ---------------------------------------------------------------------------


def test_each_label_form_is_quoted_as_csv_writer_quotes_it():
    region, corners, _ = region_rows(5, 1)  # e = 1: the opening corner carries both names
    rows = [*region, *corners, *compare_rows(10, 7, 7), msmr_row(13, 14, 3),
            *curve_rows(19, 13, 14, 3, [6, 4])]
    forms = {re.sub(r"=\d+", "=N", row[0]) for row in rows}
    assert forms == {"construction1(r=N)", "mbcr", "mbcr=construction1(r=N)", "msmr",
                     "precoded(m=N,r=N)", "msmr(r=N)", "layered-naive(r=N)"}
    keys = {row[3:] for row in corners}
    for row, line in zip(rows, csv_rows(rows, corners)):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(
            old_fields(TradeoffPoint(Fraction(*row[3:5]), Fraction(*row[5:]), *row[:3]), keys))
        assert line + "\n" == buf.getvalue()
        assert (line[0] == '"') == ("," in row[0])


def test_the_ladder_builds_no_fraction_and_no_tradeoff_point(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an analysis command built a Fraction or a TradeoffPoint")

    monkeypatch.setattr(tradeoff, "Fraction", refuse)
    monkeypatch.setattr(tradeoff, "TradeoffPoint", refuse)
    for command in LADDER:
        assert main(command.split()) == 0, command
        assert capsys.readouterr().err == ""
