"""Randomized self-checks behind `regencodes verify`.

Each suite re-derives a property from scratch and compares it against the
library's answer; they are small enough to run in a few seconds yet cover
every layer: field tables, codecs, repair accounting, region corners,
precode ranks, extension.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .bandwidth import beta_formula, beta_oracle
from .designs import bundled_design, complete_design
from .errors import IntegrityError
from .extfield import extension_field
from .gf import binary_field
from .layered import SystemParams, build_code
from .mds import mds_codec
from .precoded import build_precoded, rank_oracle, rho
from .tradeoff import achievable_points_c1, corner_points, hull_oracle, mbcr_point, p_star


def _clmul_reference(a: int, b: int, poly: int, w: int) -> int:
    # carryless multiply then reduce; independent of the exp/log tables
    prod = 0
    for i in range(w):
        if b >> i & 1:
            prod ^= a << i
    for i in range(2 * w - 2, w - 1, -1):
        if prod >> i & 1:
            prod ^= poly << (i - w)
    return prod


def _suite_gf(rng: random.Random) -> None:
    f4 = binary_field(4)
    for a in range(16):
        for b in range(16):
            assert f4.mul(a, b) == f4.mul(b, a)
            assert f4.mul(a, b) == _clmul_reference(a, b, f4.poly, 4)
            for c in range(0, 16, 5):
                assert f4.mul(a, f4.add(b, c)) == f4.add(f4.mul(a, b), f4.mul(a, c))
    f8 = binary_field(8)
    for _ in range(500):
        a, b = rng.randrange(256), rng.randrange(256)
        assert f8.mul(a, b) == _clmul_reference(a, b, f8.poly, 8)
    for a in range(1, 256):
        assert f8.mul(a, f8.inv(a)) == 1
    # the column kernel by one weight c is the column through its table
    # T_c, so this reads every table entry
    for f in (f4, f8):
        every = f.column(range(f.order))
        for c in range(f.order):
            assert f.lincomb([c], [every]) == f.column(f.mul(c, v) for v in every), c
    # the extension field's windowed multiply and Frobenius tables against
    # bit-serial products; frobenius is w reference squarings
    ext = extension_field(2, 40)
    top = 1 << ext.degree
    for _ in range(200):
        a, b = rng.randrange(top), rng.randrange(top)
        assert ext.mul(a, b) == _clmul_reference(a, b, ext.modulus, ext.degree), (a, b)
    # every byte of these operands runs through all 256 values, so each
    # Frobenius table entry is read
    offsets = [rng.randrange(256) for _ in range(0, ext.degree, 8)]
    for v in range(256):
        a = sum((v ^ off) << (8 * j) for j, off in enumerate(offsets)) & (top - 1)
        want = a
        for _ in range(ext.subfield.w):
            want = _clmul_reference(want, want, ext.modulus, ext.degree)
        assert ext.frobenius(a) == want, a


def _suite_mds(rng: random.Random) -> None:
    f = binary_field(8)
    codec = mds_codec(f, 6, 3)
    msg = [rng.randrange(256) for _ in range(3)]
    cw = codec.encode(msg)
    assert cw[:3] == msg
    for positions in itertools.combinations(range(6), 3):
        assert codec.decode({p: cw[p] for p in positions}) == cw
        # the generator rows through the subset carry it to the codeword
        rebuilt = []
        for row in codec.generator(positions):
            acc = f.zero
            for p, w in zip(positions, row):
                acc = f.add(acc, f.mul(cw[p], w))
            rebuilt.append(acc)
        assert rebuilt == cw, positions
    # decode_many on a seeded batch equals the one-block decode of each codeword
    for field in (f, binary_field(4)):
        codec = mds_codec(field, 6, 3)
        batch = [codec.encode([rng.randrange(field.order) for _ in range(3)]) for _ in range(24)]
        for chosen in itertools.combinations(range(6), 3):
            cols = codec.decode_many(chosen, [field.column(cw[p] for cw in batch) for p in chosen])
            for i, cw in enumerate(batch):
                assert [col[i] for col in cols] == codec.decode({p: cw[p] for p in chosen}), chosen


def _suite_layered(rng: random.Random) -> None:
    code = build_code(
        SystemParams(n=8, k=6, d=6, e=2, m=2, r=4, t=3), bundled_design("s_3_4_8")
    )
    data = [rng.randrange(256) for _ in range(code.data_len)]
    state = code.encode(data)
    repaired, report = code.repair(state, [1, 2], [3, 4, 5, 6, 7, 8])
    assert report.msmr_total == 18 and set(report.msmr.values()) == {Fraction(3)}
    assert report.naive_total == 22 and report.layered_naive_total == 28
    assert [nc.symbols for nc in repaired] == [state[0].symbols, state[1].symbols]
    oracle = beta_oracle(code.design, 2, [1, 2], [3, 4, 5, 6, 7, 8])
    assert oracle.msmr == report.msmr and oracle.naive == report.naive
    for _ in range(5):
        sub = rng.sample(range(1, 9), 6)
        assert code.reconstruct([state[x - 1] for x in sub]) == data


def _suite_formula(rng: random.Random) -> None:
    for _ in range(40):
        n = rng.randrange(3, 9)
        e = rng.randrange(1, min(3, n - 1) + 1)
        m = rng.randrange(e, min(3, n - 1) + 1)
        if m >= n:
            continue
        r = rng.randrange(m + 1, n + 1)
        d = rng.randrange(n - m, n - e + 1)
        if d < 1:
            continue
        design = complete_design(n, r)
        failed = rng.sample(range(1, n + 1), e)
        helpers = rng.sample(sorted(set(range(1, n + 1)) - set(failed)), d)
        report = beta_oracle(design, m, failed, helpers)
        want = beta_formula(n, e, m, r, d)
        assert set(report.msmr.values()) == {want}, (n, e, m, r, d)


def _suite_region(rng: random.Random) -> None:
    for k in range(2, 13):
        for e in range(1, k):
            region = corner_points(k, e)
            hull = hull_oracle(achievable_points_c1(k, e) + [mbcr_point(k, k, e)])
            assert [p.coords() for p in hull] == [p.coords() for p in region.corners], (k, e)
    assert p_star(14, 3) == 3
    assert corner_points(14, 3).n_corners == 10


def _suite_precoded(rng: random.Random) -> None:
    for (n, k, m, r) in [(5, 3, 1, 2), (5, 2, 2, 3), (6, 4, 1, 3)]:
        want = rho(n, k, m, r)
        for sub in itertools.combinations(range(1, n + 1), k):
            assert rank_oracle(n, k, m, r, sub) == want, (n, k, m, r, sub)
    code = build_precoded(5, 3, 4, 1, 1, 2)
    data = [rng.randrange(1 << code.field.degree) for _ in range(code.data_len)]
    state = code.encode(data)
    for sub in [(1, 2, 3), (2, 4, 5), (1, 3, 5)]:
        assert code.reconstruct([state[x - 1] for x in sub]) == data
    # the F=36 code over GF((2^2)^40), reconstructed from one random 4-subset
    code = build_precoded(6, 4, 5, 1, 1, 3)
    data = [rng.randrange(1 << code.field.degree) for _ in range(code.data_len)]
    state = code.encode(data)
    sub = sorted(rng.sample(range(1, 7), 4))
    assert code.reconstruct([state[x - 1] for x in sub]) == data, sub


def _suite_extend(rng: random.Random) -> None:
    code = build_code(SystemParams(n=4, k=3, d=3, e=1, m=1, r=3, t=3))
    data = [rng.randrange(256) for _ in range(code.data_len)]
    state = code.encode(data)
    new_code, new_state = code.extend(state, [rng.randrange(256), rng.randrange(256)])
    assert new_code.params == SystemParams(n=5, k=3, d=3, e=2, m=2, r=4, t=4)
    assert new_code.data_len == code.data_len + 2
    for old, new in zip(state, new_state):
        assert new.symbols[: len(old.symbols)] == old.symbols
    sub = rng.sample(range(1, 6), 3)
    got = new_code.reconstruct([new_state[x - 1] for x in sub])
    assert got[: code.data_len] == data


_SUITES = [
    ("gf-tables", _suite_gf),
    ("mds-roundtrip", _suite_mds),
    ("layered-example", _suite_layered),
    ("formula-vs-oracle", _suite_formula),
    ("region-corners", _suite_region),
    ("precode-ranks", _suite_precoded),
    ("extension", _suite_extend),
]


def run_suites(seed: int, out) -> int:
    failures = 0
    for name, suite in _SUITES:
        rng = random.Random(seed)
        try:
            suite(rng)
        except AssertionError as ex:
            failures += 1
            print(f"FAIL {name}: {ex}", file=out)
        except IntegrityError as ex:
            failures += 1
            print(f"FAIL {name}: integrity: {ex}", file=out)
        else:
            print(f"ok {name}", file=out)
    return failures
