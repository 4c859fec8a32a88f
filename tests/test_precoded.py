"""Rank-limited precoding: counting formula, rank oracle, linearized codec.

PrecodedCode.reconstruct is also checked against a two-pass reference kept
here: fraction-free interpolation, then f evaluated at every given symbol.
Tier-1 runs a seeded sample of its cases; `python tests/test_precoded.py`
(with the package importable) runs every one.
"""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from regencodes import IntegrityError, NodeContents, ValidationError
from regencodes.bandwidth import beta_formula, rho, rho_row
from regencodes import precoded
from regencodes.extfield import extension_field
from regencodes.precoded import (
    build_precoded,
    linearized_eval,
    linearized_interpolate,
    linearized_precode,
    rank_oracle,
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
    with pytest.raises(ValidationError) as err:
        rho(5, 0, 1, 2)
    assert str(err.value) == "need 1 <= k <= n, got n=5 k=0"
    with pytest.raises(ValidationError) as err:
        rank_oracle(5, 3, 1, 2, [0, 1, 2])
    assert str(err.value) == "nodes must lie in 1..n"


def test_rho_row_is_rho_at_every_t():
    for n in range(2, 13):
        for k in range(1, n + 1):
            for r in range(1, n + 1):
                row = rho_row(n, k, r)
                assert len(row) == r
                for t in range(r):
                    assert row[t] == sum(comb(k, p) * comb(n - k, r - p) * min(p, t)
                                         for p in range(1, min(k, r) + 1))


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
    # 0 first, then after each point but the last (where taking stops) a
    # subfield multiple of it other than itself and a sum of two earlier
    # points
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
            # dependent points carry their true values: they are checked, not taken
            points = _with_dependent_points(f, rng, independent)
            pairs = [(z, linearized_eval(f, coeffs, z)) for z in points]
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


INCONSISTENT = "stored symbols are inconsistent with the recovered data"


@pytest.mark.parametrize("w,kappa", [(2, 5), (3, 4)])
def test_linearized_interpolate_checks_every_pair_it_does_not_take(w, kappa, rng, subfield_rank):
    f = extension_field(w, kappa)
    for size in range(1, kappa + 1):
        coeffs = [rng.randrange(1 << f.degree) for _ in range(size)]
        independent = _independent_points(f, rng, size, subfield_rank)
        dependent = _with_dependent_points(f, rng, independent)
        # the last independent point is the size-th taken; any pair after it is checked
        points = dependent + [rng.randrange(1 << f.degree) for _ in range(3)]
        pairs = [(z, linearized_eval(f, coeffs, z)) for z in points]
        assert linearized_interpolate(f, pairs, size) == coeffs
        for i, (z, y) in enumerate(pairs):
            if z in independent:
                continue
            flipped = pairs[:i] + [(z, y ^ 1)] + pairs[i + 1:]
            with pytest.raises(IntegrityError) as err:
                linearized_interpolate(f, flipped, size)
            assert str(err.value) == INCONSISTENT
        # too few independent points: the rank verdict comes before a wrong dependent value
        wrong = [(z, y if z in independent else y ^ 1) for z, y in pairs[: len(dependent)]]
        with pytest.raises(IntegrityError) as err:
            linearized_interpolate(f, wrong, size + 1)
        assert str(err.value) == (
            f"only {size} independent columns among {len(wrong)}; need {size + 1}"
        )


def test_lane_loops_match_linearized_eval_on_dense_operands():
    # GF((2^2)^140), D = 280: each lane product takes its second operand in two pieces
    f = extension_field(2, 140)
    ones = f.order - 1
    size = 24
    coeffs = [ones] * size
    assert linearized_precode(f, coeffs) == [linearized_eval(f, coeffs, pt) for pt in f.theta]
    # ones and ones ^ 1 span theta[0], so theta[0] and the last point are checked, not taken
    points = [ones, ones ^ 1, *f.theta[:size]]
    pairs = [(z, linearized_eval(f, coeffs, z)) for z in points]
    assert linearized_interpolate(f, pairs, size) == coeffs
    for i in (2, len(pairs) - 1):
        z, y = pairs[i]
        flipped = pairs[:i] + [(z, y ^ ones)] + pairs[i + 1:]
        with pytest.raises(IntegrityError) as err:
            linearized_interpolate(f, flipped, size)
        assert str(err.value) == INCONSISTENT
        # one more coefficient than the points' rank: the rank verdict comes first
        with pytest.raises(IntegrityError) as err:
            linearized_interpolate(f, flipped, size + 2)
        assert str(err.value) == (
            f"only {size + 1} independent columns among {len(pairs)}; need {size + 2}"
        )
    for bad in ((f.order, 0), (-1, 0), (f.theta[1], f.order), (f.theta[1], -1)):
        with pytest.raises(ValidationError, match="is not a field element"):
            linearized_interpolate(f, pairs[:3] + [bad], size)


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


def test_repair_names_the_n_minus_m_bound(small_code, small_state):
    # k = 3 here; a repair decodes each group from n-m = 4 helpers
    _, state = small_state
    for helpers in ([1, 3, 4], [1, 3, 4, 4]):
        with pytest.raises(ValidationError) as err:
            small_code.repair(state, failed=[2], helpers=helpers)
        assert str(err.value) == "repair needs at least n-m = 4 helpers, got 3"
    # the node checks still come first
    with pytest.raises(ValidationError, match="helpers cannot include failed nodes"):
        small_code.repair(state, failed=[2], helpers=[2, 3])
    with pytest.raises(ValidationError, match="budget is m=1"):
        small_code.repair(state, failed=[1, 2], helpers=[3])


@pytest.mark.parametrize("failed,helpers,message", [
    ([], [1, 3, 4, 5], "no failed nodes to repair"),
    ([2], [0, 3, 4, 5], "failed and helper nodes must lie in 1..n"),
    ([6], [1, 3, 4, 5], "failed and helper nodes must lie in 1..n"),
    ([2], [2, 3, 4, 5], "helpers cannot include failed nodes"),
    ([1, 2], [3, 4, 5], "cannot repair 2 nodes; budget is m=1"),
    ([2], [1, 3, 4, 4], "repair needs at least n-m = 4 helpers, got 3"),
])
def test_precoded_repair_refuses_as_its_inner_code(small_code, small_state, failed, helpers,
                                                   message):
    _, state = small_state
    seen = []
    for code in (small_code, small_code.inner):
        with pytest.raises(ValidationError) as err:
            code.repair(state, failed=failed, helpers=helpers)
        seen.append((type(err.value), str(err.value)))
    assert seen == [(ValidationError, message)] * 2


def test_reconstruct_reads_the_codes_subfield_codec(monkeypatch):
    code = build_precoded(n=6, k=4, d=5, e=1, m=1, r=3)
    codec = code.subfield_codec
    assert codec.field is code.field.subfield
    assert (codec.length, codec.dimension) == (3, 2)
    data = [(i * 2654435761) % (1 << code.field.degree) for i in range(code.data_len)]
    state = code.encode(data)
    nodes = [state[x - 1] for x in (1, 3, 4, 6)]
    free = code.field.kappa - rank_oracle(6, 4, 1, 3, (1, 3, 4, 6))
    method = precoded.interpolation_method(code.field.kappa, code.data_len, free, 4 * code.alpha)
    assert method == "vandermonde"  # the route that decodes through the subfield codec
    monkeypatch.setattr(precoded, "mds_codec", None)  # a reconstruct builds no codec of its own
    for _ in range(2):
        assert code.reconstruct(nodes) == data


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


def test_build_refuses_d_below_n_minus_m():
    # every group is decoded from the inner code's n-m nodes, so d >= k alone is not enough
    with pytest.raises(ValidationError, match=r"^repair needs d >= n-m = 5 helpers, got d=4$"):
        build_precoded(n=6, k=4, d=4, e=1, m=1, r=3)
    with pytest.raises(ValidationError, match=r"^repair needs d >= n-m = 4 helpers, got d=3$"):
        build_precoded(n=6, k=3, d=3, e=1, m=2, r=3)
    code = build_precoded(n=6, k=4, d=5, e=1, m=1, r=3)  # d = n-m repairs from d helpers
    state = code.encode([3 * i + 1 for i in range(code.data_len)])
    repaired, _ = code.repair(state[1:], failed=[1], helpers=range(2, 2 + code.d))
    assert repaired == state[:1]


# -- reconstruct against the two-pass reference ---------------------------------------


def fraction_free_interpolate(field, pairs, size):
    """Newton interpolation with one inverse: g / s interpolates the points taken, and a
    point in the subfield span of those before it is skipped, its value unread."""
    mul, frob = field.mul, field.frobenius
    ann, g, s, taken = [field.one], [], field.one, 0
    for nu, y in pairs:
        pows = [nu]
        for _ in range(len(ann) - 1):
            pows.append(frob(pows[-1]))
        delta = field.zero
        for c, p in zip(ann, pows):
            delta ^= mul(c, p)
        if delta == field.zero:
            continue
        e = mul(s, y)
        for c, p in zip(g, pows):
            e ^= mul(c, p)
        g = [mul(delta, c) ^ mul(e, a) for c, a in zip(g, ann)] + [mul(e, ann[-1])]
        s = mul(delta, s)
        taken += 1
        if taken == size:
            scale = field.inv(s)
            return [mul(scale, c) for c in g]
        dq = frob(delta)
        grown = [mul(dq, c) for c in ann] + [field.zero]
        for i, c in enumerate(ann):
            grown[i + 1] ^= mul(delta, frob(c))
        ann = grown
    raise IntegrityError(f"only {taken} independent columns among {len(pairs)}; need {size}")


def reference_reconstruct(code, contents):
    """Interpolate through the first F independent points, then evaluate f at every pair."""
    f = code.field
    stored_theta = code.inner.encode(f.theta)
    by_node = {nc.node: nc.symbols for nc in contents}
    pairs = [pair for x in sorted(by_node) for pair in zip(stored_theta[x - 1].symbols, by_node[x])]
    data = fraction_free_interpolate(f, pairs, code.data_len)
    for nu, sym in pairs:
        if linearized_eval(f, data, nu) != sym:
            raise IntegrityError(INCONSISTENT)
    return data


def outcome(reconstruct, contents):
    try:
        return reconstruct(contents)
    except IntegrityError as ex:
        return str(ex)


# (n, k, d, e, m, r) and how many node lists tier-1 samples; None takes every one
DIFFERENTIAL_CODES = [
    ((5, 3, 4, 1, 1, 2), None),  # F=9
    ((5, 2, 3, 1, 2, 3), None),  # F=9
    ((6, 4, 5, 1, 1, 3), None),  # F=36, the benchmark's code: zero-filled groups merge
    ((7, 4, 5, 1, 2, 4), 1),  # F=66
    ((6, 2, 5, 1, 1, 3), 4),  # F=20: 2 or 3 nodes leave 20 or 11 evaluations free, Newton's side
    ((5, 3, 3, 2, 2, 3), None),  # F=kappa=10: nothing left free, the Vandermonde side
]


def differential_cases(params, sample=None):
    """(code, data, contents) over node lists, each (k+1)-subset and its first k nodes: each
    list clean and with three seeded single-symbol flips."""
    code = build_precoded(*params)
    rng = random.Random(str(params))
    data = [rng.randrange(code.field.order) for _ in range(code.data_len)]
    state = code.encode(data)
    node_lists = [list(nodes) for subset in itertools.combinations(state, code.k + 1)
                  for nodes in (subset, subset[: code.k])]
    if sample is not None:
        node_lists = rng.sample(node_lists, sample)
    for nodes in node_lists:
        yield code, data, nodes
        for _ in range(3):
            i, j = rng.randrange(len(nodes)), rng.randrange(code.alpha)
            nc = nodes[i]
            bad = NodeContents(nc.node, nc.symbols[:j] + (nc.symbols[j] ^ 1,) + nc.symbols[j + 1:])
            yield code, data, nodes[:i] + [bad] + nodes[i + 1:]


def differential_verdicts(params, sample=None):
    """Counts of the reference's verdicts; asserts reconstruct gives the same in every case."""
    verdicts = {"data": 0, "wrong data": 0, "raised": 0}
    for code, data, contents in differential_cases(params, sample):
        want = outcome(lambda c: reference_reconstruct(code, c), contents)
        assert outcome(code.reconstruct, contents) == want, (params, [nc.node for nc in contents])
        verdicts["raised" if isinstance(want, str) else "data" if want == data else "wrong data"] += 1
    return verdicts


@pytest.mark.parametrize("params,sample", DIFFERENTIAL_CODES, ids=[str(c[0]) for c in DIFFERENTIAL_CODES])
def test_reconstruct_matches_the_two_pass_reference(params, sample):
    verdicts = differential_verdicts(params, sample)
    assert verdicts["data"] and verdicts["raised"], verdicts


# (n, k, d, e, m, r) -> the method a reconstruct from k nodes takes
METHOD_AT_K = {
    (6, 2, 5, 1, 1, 3): "newton",  # kappa=40, F=20, 20 free
    (5, 3, 3, 2, 2, 3): "vandermonde",  # kappa=F=10, none free
    (6, 4, 5, 1, 1, 3): "vandermonde",  # kappa=40, F=36, 4 free
}


@pytest.mark.parametrize("params", METHOD_AT_K, ids=str)
def test_interpolation_method_at_k_nodes(params):
    n, k, d, e, m, r = params
    kappa = (r - m) * comb(n, r)
    alpha = comb(n - 1, r - 1)
    for nodes in itertools.combinations(range(1, n + 1), k):
        free = kappa - rank_oracle(n, k, m, r, nodes)
        got = precoded.interpolation_method(kappa, rho(n, k, m, r), free, k * alpha)
        assert got == METHOD_AT_K[params], nodes


# (n, k, d, e, m, r) and how many node lists to sample; (7,4,5,1,3,5) has blocks with more
# than r-m given positions and some missing, and blocks with fewer
BOTH_METHODS = [((6, 2, 5, 1, 1, 3), 3), ((5, 3, 4, 1, 1, 2), 3), ((7, 4, 5, 1, 3, 5), 1)]


@pytest.mark.parametrize("params,sample", BOTH_METHODS, ids=[str(c[0]) for c in BOTH_METHODS])
def test_both_methods_give_the_same_outcome(params, sample, monkeypatch):
    """Whatever interpolation_method would choose, each method decides every case alike."""
    cases = list(differential_cases(params, sample))
    outcomes = {}
    for method in ("newton", "vandermonde"):
        monkeypatch.setattr(precoded, "interpolation_method", lambda *args: method)
        outcomes[method] = [outcome(code.reconstruct, contents) for code, _, contents in cases]
    assert outcomes["newton"] == outcomes["vandermonde"]
    assert {type(o) for o in outcomes["newton"]} == {list, str}


if __name__ == "__main__":
    for params, _ in DIFFERENTIAL_CODES:
        print(params, differential_verdicts(params))
