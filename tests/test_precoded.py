"""Rank-limited precoding: counting formula, rank oracle, linearized codec."""

import itertools
from fractions import Fraction
from math import comb

import pytest

from regencodes import IntegrityError, NodeContents, ValidationError
from regencodes.bandwidth import beta_formula
from regencodes import precoded
from regencodes.extfield import extension_field
from regencodes.layered import node_contents_from_text
from regencodes.precoded import (
    build_precoded,
    linearized_eval,
    linearized_interpolate,
    linearized_precode,
    rank_oracle,
    rho,
)


def test_rho_spot_values():
    assert rho(6, 4, 1, 3) == 36
    assert rho(5, 3, 1, 2) == 9
    assert rho(5, 3, 2, 3) == 10


def test_rho_layered_collapse():
    # m = n-k keeps every stored symbol informative
    for n in range(2, 9):
        for k in range(1, n):
            m = n - k
            for r in range(m + 1, n + 1):
                assert rho(n, k, m, r) == (r - m) * comb(n, r)


def test_rho_validation():
    with pytest.raises(ValidationError):
        rho(5, 5, 1, 3)  # m > n-k
    with pytest.raises(ValidationError):
        rho(5, 3, 2, 2)  # r <= m


def test_rank_oracle_matches_rho_small():
    for n in range(2, 6):
        for k in range(1, n):
            for m in range(1, n - k + 1):
                for r in range(m + 1, n + 1):
                    want = rho(n, k, m, r)
                    for nodes in itertools.combinations(range(1, n + 1), k):
                        assert rank_oracle(n, k, m, r, nodes) == want


def test_rank_oracle_is_field_width_free():
    for w in (3, 4, 8):
        assert rank_oracle(6, 4, 1, 3, (1, 3, 5, 6), w=w) == 36
        assert rank_oracle(6, 2, 2, 4, (2, 5), w=w) == rho(6, 2, 2, 4)


def test_rank_oracle_counts_fewer_nodes():
    # fewer than k nodes span strictly less than rho
    assert rank_oracle(5, 3, 1, 2, (1, 2)) < rho(5, 3, 1, 2)
    assert rank_oracle(5, 3, 1, 2, ()) == 0


# -- linearized polynomial layer ----------------------------------------------------


def test_linearized_eval_is_subfield_linear(rng):
    f = extension_field(2, 5)
    coeffs = [rng.randrange(1 << f.degree) for _ in range(3)]
    for _ in range(30):
        x = rng.randrange(1 << f.degree)
        y = rng.randrange(1 << f.degree)
        fx = linearized_eval(f, coeffs, x)
        fy = linearized_eval(f, coeffs, y)
        assert linearized_eval(f, coeffs, f.add(x, y)) == f.add(fx, fy)
        for c in range(4):
            ce = f.embed(c)
            assert linearized_eval(f, coeffs, f.mul(ce, x)) == f.mul(ce, fx)


def test_linearized_precode_rejects_bad_data():
    f = extension_field(2, 4)
    with pytest.raises(ValidationError):
        linearized_precode(f, [1] * 5)  # more coefficients than points
    with pytest.raises(ValidationError):
        linearized_precode(f, [1 << f.degree])  # not a field element


def test_precode_on_the_basis_is_invertible(rng):
    f = extension_field(2, 4)
    data = [rng.randrange(1 << f.degree) for _ in range(4)]
    evals = linearized_precode(f, data)
    # distinct data cannot collide: the map is a bijection on coefficient lists
    other = list(data)
    other[0] ^= 1
    assert linearized_precode(f, other) != evals


def _independent_points(f, rng, count, subfield_rank):
    # random subfield combinations of theta, kept while independent
    points = []
    while len(points) < count:
        z = 0
        for t in f.theta:
            z = f.add(z, f.mul(f.embed(rng.randrange(f.subfield.order)), t))
        if subfield_rank(f, points + [z]) == len(points) + 1:
            points.append(z)
    return points


def _with_dependent_points(f, rng, points):
    # 0 first, then after each point but the last (where interpolation
    # stops) a subfield multiple of it other than itself and a sum of two
    # earlier points
    out = [f.zero]
    for i, p in enumerate(points):
        out.append(p)
        if i + 1 == len(points):
            break
        out.append(f.mul(f.embed(rng.randrange(2, f.subfield.order)), p))
        if i:
            out.append(f.add(p, points[rng.randrange(i)]))
    return out


@pytest.mark.parametrize("w,kappa", [(2, 5), (3, 4)])
def test_linearized_interpolate_inverts_eval(w, kappa, rng, subfield_rank):
    f = extension_field(w, kappa)
    for size in range(1, kappa + 1):
        for _ in range(3):
            coeffs = [rng.randrange(1 << f.degree) for _ in range(size)]
            independent = _independent_points(f, rng, size, subfield_rank)
            pairs = []
            for z in _with_dependent_points(f, rng, independent):
                y = linearized_eval(f, coeffs, z)
                # a dependent point carries a wrong value: it must be skipped
                pairs.append((z, y if z in independent else y ^ 1))
            assert len(pairs) > size or size == 1
            assert linearized_interpolate(f, pairs, size) == coeffs


@pytest.mark.parametrize("w,kappa", [(2, 5), (3, 4)])
def test_linearized_interpolate_needs_enough_independent_points(w, kappa, rng, subfield_rank):
    f = extension_field(w, kappa)
    for size in range(1, kappa + 1):
        coeffs = [rng.randrange(1 << f.degree) for _ in range(size)]
        independent = _independent_points(f, rng, size - 1, subfield_rank)
        points = _with_dependent_points(f, rng, independent)
        pairs = [(z, linearized_eval(f, coeffs, z)) for z in points]
        with pytest.raises(IntegrityError) as err:
            linearized_interpolate(f, pairs, size)
        assert str(err.value) == (
            f"only {size - 1} independent columns among {len(pairs)}; need {size}"
        )
    assert linearized_interpolate(f, [], 0) == []


# -- full codec ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_code():
    return build_precoded(n=5, k=3, d=4, e=1, m=1, r=2)


@pytest.fixture(scope="module")
def small_state(small_code):
    import random

    rng = random.Random(0xBEEF)
    data = [rng.randrange(1 << small_code.field.degree) for _ in range(small_code.data_len)]
    return data, small_code.encode(data)


def test_small_code_shape(small_code):
    assert small_code.data_len == 9
    assert small_code.inner.data_len == 10
    assert small_code.field.kappa == 10
    assert small_code.alpha == 4


def test_every_k_subset_reconstructs(small_code, small_state):
    data, state = small_state
    for subset in itertools.combinations(state, 3):
        assert small_code.reconstruct(subset) == data
    assert small_code.reconstruct(state) == data


def test_reconstruct_needs_k_nodes(small_code, small_state):
    _, state = small_state
    with pytest.raises(ValidationError):
        small_code.reconstruct(state[:2])


def test_tampered_symbol_is_rejected(small_code, small_state):
    data, state = small_state
    nc = state[0]
    bad = NodeContents(node=nc.node, symbols=(nc.symbols[0] ^ 1,) + nc.symbols[1:])
    with pytest.raises(IntegrityError):
        small_code.reconstruct([bad] + list(state[1:]))


def test_out_of_order_lines_are_rejected(small_code, small_state):
    # an old-format precoded node file with two lines swapped: the reader
    # checks its labels against the inner code's slots
    _, state = small_state
    nc = state[0]
    blocks = [b + 1 for b, block in enumerate(small_code.inner.design.blocks) if 1 in block]
    width = small_code.field.hex_width
    lines = [f"{b} {s:0{width}x}" for b, s in zip(blocks, nc.symbols)]
    head = f"1 {nc.alpha} precoded=1 kappa={small_code.field.kappa}"
    assert node_contents_from_text("\n".join([head, *lines]), small_code.inner)[0] == nc
    lines[0], lines[1] = lines[1], lines[0]
    with pytest.raises(ValidationError, match="lists block"):
        node_contents_from_text("\n".join([head, *lines]), small_code.inner)


def test_encode_validates(small_code):
    with pytest.raises(ValidationError):
        small_code.encode([0] * (small_code.data_len - 1))
    with pytest.raises(ValidationError):
        small_code.encode([1 << small_code.field.degree] + [0] * (small_code.data_len - 1))


def test_repair_single_failure(small_code, small_state):
    _, state = small_state
    rebuilt, report = small_code.repair(state, failed=[2], helpers=[1, 3, 4, 5])
    assert rebuilt == [state[1]]
    want = beta_formula(5, 1, 1, 2, 4)
    assert set(report.msmr.values()) == {want}
    assert want == 1


def test_deeper_group_code_round_trips():
    code = build_precoded(n=6, k=4, d=5, e=1, m=1, r=3)
    assert code.data_len == 36
    assert code.inner.data_len == 40
    data = [(i * 2654435761) % (1 << code.field.degree) for i in range(36)]
    state = code.encode(data)
    assert code.reconstruct([state[0], state[2], state[3], state[5]]) == data


def test_wide_precoded_code_round_trips():
    # F=66 over GF((2^2)^70), degree 140
    code = build_precoded(n=7, k=4, d=5, e=1, m=2, r=4)
    assert (code.data_len, code.field.degree) == (66, 140)
    data = [(i * 2654435761 + 97) % (1 << code.field.degree) for i in range(66)]
    state = code.encode(data)
    subset = [state[1], state[2], state[4], state[6]]
    assert code.reconstruct(subset) == data
    # a block meeting the subset in more than r - m = 2 nodes holds
    # redundant symbols, so a flip in one of them must show
    held = {nc.node for nc in subset}
    nc = subset[0]
    blocks = [block for block in code.inner.design.blocks if nc.node in block]  # its slots
    i = next(i for i, block in enumerate(blocks) if len(held & set(block)) > 2)
    bad = NodeContents(node=nc.node, symbols=nc.symbols[:i] + (nc.symbols[i] ^ 1,) + nc.symbols[i + 1:])
    with pytest.raises(IntegrityError, match="inconsistent with the recovered data"):
        code.reconstruct([bad] + subset[1:])


def test_m_equals_n_minus_k_round_trips():
    # the degenerate no-loss case: every stored symbol is informative
    code = build_precoded(n=5, k=3, d=3, e=2, m=2, r=3)
    assert code.data_len == rho(5, 3, 2, 3) == 10
    assert code.data_len == code.inner.data_len
    data = [(7 * i + 3) % (1 << code.field.degree) for i in range(10)]
    state = code.encode(data)
    for subset in itertools.combinations(state, 3):
        assert code.reconstruct(subset) == data


def test_build_validation(monkeypatch):
    with pytest.raises(ValidationError):
        build_precoded(n=5, k=3, d=4, e=2, m=1, r=2)  # e > m
    with pytest.raises(ValidationError):
        build_precoded(n=5, k=3, d=5, e=1, m=1, r=2)  # d > n-e
    with pytest.raises(ValidationError):
        build_precoded(n=5, k=3, d=2, e=1, m=1, r=2)  # d < k
    with pytest.raises(ValidationError):
        build_precoded(n=5, k=4, d=4, e=1, m=4, r=5)  # m > n-k
    with pytest.raises(ValidationError):
        build_precoded(n=3, k=1, d=1, e=1, m=2, r=3)  # inner code of one node

    # C(40, 20) blocks: refused before a field of that degree is attempted
    def no_field(w, kappa):
        raise AssertionError(f"extension field of degree {w * kappa} attempted")

    monkeypatch.setattr(precoded, "extension_field", no_field)
    with pytest.raises(ValidationError, match="more than 100000 blocks"):
        build_precoded(n=40, k=30, d=31, e=1, m=10, r=20)
