"""Layered code behavior: geometry, round trips, repair, extension, node files."""

import itertools
import zlib

import pytest

from regencodes import (
    IntegrityError,
    NodeContents,
    SystemParams,
    ValidationError,
    binary_field,
    build_code,
    build_precoded,
    bundled_design,
)
from regencodes.bandwidth import beta_oracle
from regencodes.designs import BlockDesign, complete_design
from regencodes.layered import GIVEN, LOST, node_contents_from_text, node_contents_to_text


def flip_symbol(nc, which=0):
    symbols = list(nc.symbols)
    symbols[which] ^= 1
    return NodeContents(node=nc.node, symbols=type(nc.symbols)(symbols))


def slot_blocks(code, x):
    """The 0-based blocks of node x's slots: those holding x, ascending."""
    return [b for b, block in enumerate(code.design.blocks) if x in block]


def test_example_geometry(example_code):
    assert example_code.data_len == 28
    assert example_code.block_count == 14
    nodes = example_code.encode([0] * 28)
    assert [nc.node for nc in nodes] == list(range(1, 9))
    assert all(nc.alpha == 7 for nc in nodes)


def test_systematic_block_layout():
    # first r-m members of a block hold that block's data slice verbatim
    params = SystemParams(n=5, k=4, d=4, e=1, m=1, r=4, t=4)
    code = build_code(params)
    data = list(range(10, 10 + code.data_len))
    state = code.encode(data)
    by_node = {nc.node: dict(zip(slot_blocks(code, nc.node), nc.symbols)) for nc in state}
    for j, block in enumerate(code.design.blocks):
        for pos, x in enumerate(block):
            if pos < 3:
                assert by_node[x][j] == data[j * 3 + pos]


def test_remark_system_layout():
    # n=5 complete 4-sets: node i sits in every block except number 6-i
    params = SystemParams(n=5, k=4, d=4, e=1, m=1, r=4, t=4)
    code = build_code(params)
    assert code.data_len == 15
    state = code.encode([7] * 15)
    for nc in state:
        assert nc.alpha == 4
        missing = set(range(1, 6)) - {b + 1 for b in slot_blocks(code, nc.node)}
        assert missing == {6 - nc.node}


def test_reconstruct_round_trips(example_code, example_state):
    data, state = example_state
    for subset in itertools.combinations(state, 6):
        assert example_code.reconstruct(subset) == data
    # more than k nodes is fine too
    assert example_code.reconstruct(state) == data


def test_reconstruct_needs_k_nodes(example_code, example_state):
    _, state = example_state
    with pytest.raises(ValidationError):
        example_code.reconstruct(state[:5])


def test_reconstruct_rejects_duplicates(example_code, example_state):
    _, state = example_state
    with pytest.raises(ValidationError):
        example_code.reconstruct(list(state) + [state[0]])


def test_reconstruct_rejects_an_out_of_range_node():
    code = build_code(SystemParams(n=4, k=3, d=3, e=1, m=1, r=3, t=3))
    state = code.encode(list(range(code.data_len)))
    with pytest.raises(ValidationError) as err:
        code.reconstruct([NodeContents(node=9, symbols=state[0].symbols), *state[1:]])
    assert str(err.value) == "node id 9 out of range 1..4"


def test_reconstruct_rejects_wrong_alpha(example_code, example_state):
    _, state = example_state
    short = NodeContents(node=1, symbols=state[0].symbols[:5])
    with pytest.raises(ValidationError):
        example_code.reconstruct([short] + list(state[1:]))


def test_tampered_symbol_is_detected(example_code, example_state):
    _, state = example_state
    bad = [flip_symbol(state[0])] + list(state[1:])
    with pytest.raises(IntegrityError):
        example_code.reconstruct(bad)
    # node 1 is flipped in block 1 = (1, 2, 4, 8); positions 0 and 1 pin the
    # codeword, so the mismatch first shows at position 2, node 4's symbol
    with pytest.raises(IntegrityError, match=r"^block 1: mismatch seen at position 2 \(node 4\)$"):
        example_code.reconstruct(bad)


def test_encode_validates_input(example_code):
    with pytest.raises(ValidationError):
        example_code.encode([0] * 27)
    with pytest.raises(ValidationError):
        example_code.encode([0] * 27 + [256])


def test_repair_pair_bandwidth(example_code, example_state):
    _, state = example_state
    rebuilt, report = example_code.repair(state, failed=[1, 2], helpers=[3, 4, 5, 6, 7, 8])
    assert report.msmr_total == 18
    assert all(v == 3 for v in report.msmr.values())
    assert report.naive_total == 22
    assert report.layered_naive_total == 28
    originals = {nc.node: nc for nc in state}
    assert rebuilt == [originals[1], originals[2]]


def test_repair_report_equals_direct_oracle(example_code, example_state):
    # the repair path and the standalone recount must never be merged; this
    # pins them to each other
    _, state = example_state
    for failed in ([3], [2, 7]):
        helpers = [x for x in range(1, 9) if x not in failed]
        _, rep = example_code.repair(state, failed=failed, helpers=helpers)
        direct = beta_oracle(example_code.design, example_code.params.m, failed, helpers)
        assert rep == direct


def test_repair_all_pairs_bit_exact(example_code, example_state):
    _, state = example_state
    originals = {nc.node: nc for nc in state}
    for failed in itertools.combinations(range(1, 9), 2):
        helpers = [x for x in range(1, 9) if x not in failed]
        rebuilt, _ = example_code.repair(state, failed=failed, helpers=helpers)
        assert rebuilt == [originals[x] for x in sorted(failed)]


def test_repair_with_d_of_seven(example_code, example_state):
    _, state = example_state
    _, report = example_code.repair(state, failed=[1], helpers=[2, 3, 4, 5, 6, 7, 8])
    assert all(v.denominator == 2 and v.numerator == 3 for v in report.msmr.values())


def test_repair_validation(example_code, example_state):
    _, state = example_state
    with pytest.raises(ValidationError):
        example_code.repair(state, failed=[], helpers=[3, 4, 5, 6, 7, 8])
    with pytest.raises(ValidationError):
        example_code.repair(state, failed=[1, 2, 3], helpers=[4, 5, 6, 7, 8])
    with pytest.raises(ValidationError):
        example_code.repair(state, failed=[1], helpers=[1, 3, 4, 5, 6, 7])
    with pytest.raises(ValidationError):
        example_code.repair(state, failed=[1], helpers=[2, 3, 4, 5, 6])
    with pytest.raises(ValidationError):
        example_code.repair(state, failed=[9], helpers=[2, 3, 4, 5, 6, 7])
    with pytest.raises(ValidationError):
        example_code.repair(state[:4], failed=[1], helpers=[2, 3, 4, 5, 6, 7])


def test_system_params_validation():
    with pytest.raises(ValidationError):
        SystemParams(n=8, k=6, d=6, e=3, m=2, r=4, t=3)  # e > m
    with pytest.raises(ValidationError):
        SystemParams(n=8, k=6, d=6, e=2, m=4, r=4, t=3)  # m
    with pytest.raises(ValidationError):
        SystemParams(n=8, k=5, d=6, e=2, m=2, r=4, t=3)  # k != n-m
    with pytest.raises(ValidationError):
        SystemParams(n=8, k=6, d=5, e=2, m=2, r=4, t=3)  # d < k
    with pytest.raises(ValidationError):
        SystemParams(n=8, k=6, d=7, e=2, m=2, r=4, t=3)  # d > n-e
    with pytest.raises(ValidationError):
        SystemParams(n=8, k=6, d=6, e=2, m=2, r=4, t=5)  # t > r
    with pytest.raises(ValidationError) as err:
        SystemParams(n=8, k=6, d=6, e=2, m=2, r=4, t=0)
    assert str(err.value) == "all system parameters must be >= 1"


def test_build_code_checks_design_compatibility():
    params = SystemParams(n=8, k=6, d=6, e=2, m=2, r=4, t=3)
    with pytest.raises(ValidationError):
        build_code(params)  # t < r designs cannot be generated
    with pytest.raises(ValidationError):
        build_code(params, design=complete_design(8, 4))  # t mismatch
    broken = BlockDesign(n=8, r=4, t=3, blocks=bundled_design("s_3_4_8").blocks[:13])
    with pytest.raises(ValidationError):
        build_code(params, design=broken)


def test_field_must_cover_group_size():
    params = SystemParams(n=5, k=4, d=4, e=1, m=1, r=4, t=4)
    with pytest.raises(ValidationError):
        build_code(params, field=binary_field(1))  # only 2 evaluation points


# -- extension --------------------------------------------------------------------


def optimal_point_code(k, e, field=None):
    params = SystemParams(n=k + e, k=k, d=k, e=e, m=e, r=k + e - 1, t=k + e - 1)
    return build_code(params, field=field)


def test_extend_shapes_and_prefixes():
    code = optimal_point_code(3, 1)
    assert code.data_len == 8
    data = list(range(1, 9))
    state = code.encode(data)
    new_code, new_state = code.extend(state, new_data=[100, 101])
    assert new_code.params == SystemParams(n=5, k=3, d=3, e=2, m=2, r=4, t=4)
    assert new_code.data_len == 10
    by_node = {nc.node: nc for nc in new_state}
    assert set(by_node) == set(range(1, 6))
    for old in state:
        nxt = by_node[old.node]
        assert nxt.symbols[: len(old.symbols)] == old.symbols
        assert nxt.alpha == old.alpha + 1
    for subset in itertools.combinations(new_state, 3):
        assert new_code.reconstruct(subset) == data + [100, 101]


def test_extend_twice_reaches_e_equals_k():
    code = optimal_point_code(3, 1)
    data = list(range(8))
    state = code.encode(data)
    code2, state2 = code.extend(state, new_data=[20, 21])
    code3, state3 = code2.extend(state2, new_data=[30, 31])
    assert code3.params == SystemParams(n=6, k=3, d=3, e=3, m=3, r=5, t=5)
    assert code3.reconstruct(state3[:3]) == data + [20, 21, 30, 31]
    rebuilt, _ = code3.repair(state3, failed=[1, 2, 6], helpers=[3, 4, 5])
    assert rebuilt == [state3[0], state3[1], state3[5]]


def test_extend_guards():
    code = optimal_point_code(3, 1)
    state = code.encode(list(range(8)))
    with pytest.raises(ValidationError):
        code.extend(state, new_data=[1])  # wrong length
    with pytest.raises(ValidationError):
        code.extend(state[:3], new_data=[1, 2])  # incomplete state
    other = build_code(SystemParams(n=5, k=3, d=3, e=2, m=2, r=3, t=3))
    with pytest.raises(ValidationError):
        other.extend(other.encode([0] * 10), new_data=[0])  # r != k+e-1


def test_extend_checks_every_stored_symbol():
    # (5,4,4,1): each block is a (4,3) codeword decoded through positions
    # 0..2, so any one flipped symbol shows at position 3 of its block
    code = optimal_point_code(4, 1)
    state = code.encode(list(range(1, code.data_len + 1)))
    for x in range(1, 6):
        for which in range(code.alpha):
            bad = list(state)
            bad[x - 1] = flip_symbol(state[x - 1], which)
            b = slot_blocks(code, x)[which]
            want = f"block {b + 1}: mismatch seen at position 3 (node {code.design.blocks[b][3]})"
            with pytest.raises(IntegrityError) as caught:
                code.extend(bad, new_data=[7, 8, 9])
            assert str(caught.value) == want
            with pytest.raises(IntegrityError) as caught:
                code.reconstruct(bad)
            assert str(caught.value) == want


def test_extend_rejects_non_field_new_data():
    code = optimal_point_code(4, 1)
    state = code.encode([0] * code.data_len)
    with pytest.raises(ValidationError) as caught:
        code.extend(state, new_data=[1, 256, 2])
    assert str(caught.value) == "symbol 256 is not a field element"


# -- node text format -------------------------------------------------------------


def assert_kappa_refused(text, code, token, expected):
    """A node file of the code with its header's kappa token replaced by token ("" drops
    it) is refused for that token, after its checksum has passed."""
    head, payload = text.splitlines()
    tokens = head.split()[:4] + ([token] if token else [])
    got = token.partition("=")[2] or None
    with pytest.raises(ValidationError, match=rf"^node {tokens[1]}: kappa header {got} "
                                              rf"disagrees with the code \({expected}\)$"):
        node_contents_from_text(f"{' '.join(tokens)}\n{payload}\n", code)


def test_node_text_round_trip(example_code, example_state):
    _, state = example_state
    for nc in state:
        text = node_contents_to_text(nc, example_code)
        head, payload = text.splitlines()
        assert head == f"v2 {nc.node} 7 crc={zlib.crc32(payload.encode()):08x}"
        assert payload == "".join(f"{sym:02x}" for sym in nc.symbols)
        assert node_contents_from_text(text, example_code) == nc
        assert_kappa_refused(text, example_code, "kappa=1", None)


def test_node_text_odd_hex_widths():
    # one hex digit per GF(2^4) symbol, three per GF(2^12) symbol
    for w, width in ((4, 1), (12, 3)):
        code = build_code(SystemParams(n=4, k=3, d=3, e=1, m=1, r=3, t=3),
                          field=binary_field(w))
        state = code.encode([(7 * i + 5) % (1 << w) for i in range(code.data_len)])
        for nc in state:
            text = node_contents_to_text(nc, code)
            assert len(text.splitlines()) == 2 and len(text.split()) == 5  # no kappa token
            assert len(text.splitlines()[1]) == 3 * width
            assert node_contents_from_text(text, code) == nc
            assert_kappa_refused(text, code, "kappa=4", None)


def test_node_text_precoded_header():
    code = build_precoded(n=5, k=3, d=4, e=1, m=1, r=2)
    nc = code.encode(list(range(1, code.data_len + 1)))[2]
    text = node_contents_to_text(nc, code)
    head, payload = text.splitlines()
    assert head == f"v2 3 4 crc={zlib.crc32(payload.encode()):08x} kappa=10"
    assert len(payload) == 4 * code.field.hex_width
    for owner in (code, code.inner):  # the inner code's files are the precoded code's
        assert node_contents_to_text(nc, owner) == text
        assert node_contents_from_text(text, owner) == nc
        for token in ("kappa=11", "kappa=0", ""):
            assert_kappa_refused(text, owner, token, 10)


@pytest.mark.parametrize("make", [
    lambda: build_code(SystemParams(n=5, k=4, d=4, e=1, m=1, r=3, t=3), field=binary_field(4)),
    lambda: build_code(SystemParams(n=5, k=4, d=4, e=1, m=1, r=3, t=3)),
    lambda: build_code(SystemParams(n=5, k=4, d=4, e=1, m=1, r=3, t=3), field=binary_field(12)),
    lambda: build_precoded(n=5, k=3, d=4, e=1, m=1, r=2),
    lambda: build_precoded(n=5, k=3, d=4, e=1, m=1, r=2).inner,
], ids=["GF(2^4)", "GF(2^8)", "GF(2^12)", "precoded F=9", "precoded F=9 inner"])
def test_node_text_round_trips_for_every_code(make):
    code = make()
    state = code.encode([(7 * i + 5) % code.field.order for i in range(code.data_len)])
    assert len(state) == code.n
    for nc in state:
        text = node_contents_to_text(nc, code)
        assert node_contents_from_text(text, code, path="f") == nc
        assert node_contents_to_text(node_contents_from_text(text, code), code) == text


def test_node_text_parse_errors(example_code, example_state):
    # anything but a v2 header, the pre-v2 layout's included, meets one refusal
    _, state = example_state
    v2 = node_contents_to_text(state[0], example_code)
    pre_v2 = "".join([f"1 {state[0].alpha}\n"] + [f"1 {s:02x}\n" for s in state[0].symbols])
    for text in ("", "\n", "1\n", "1 2\n1 aa\n", "1 1 precoded=1 kappa=4\n1 aa\n", pre_v2,
                 v2.replace("v2", "v1", 1), v2.replace("v2", "V2", 1), " " + v2[2:]):
        with pytest.raises(ValidationError,
                           match="^node file is not v2; the pre-v2 layout is no longer read$"):
            node_contents_from_text(text, example_code)


def test_v2_node_text_refuses_structural_faults(example_code, example_state):
    # each fault is refused before the checksum is compared, and so exits 2
    _, state = example_state
    head, payload = node_contents_to_text(state[0], example_code).splitlines()
    crc = head.split()[3]

    def v2(payload, alpha=7, crc_token=None):
        token = crc_token or f"crc={zlib.crc32(payload.encode()):08x}"
        return f"v2 1 {alpha} {token}\n{payload}\n"

    cases = [  # (text, the refusal it meets)
        (v2(payload[:-2]), "payload holds 12 hex digits"),  # short payload
        (v2(payload[:-1]), "payload holds 13 hex digits"),  # odd width
        (v2("zz" + payload[2:]), "other than 0-9a-f"),
        (v2(payload.upper()), "other than 0-9a-f"),
        (v2(payload[:5] + " " + payload[6:]), "other than 0-9a-f"),
        (v2(payload[:5] + "\u00e9" + payload[6:]), "other than 0-9a-f"),  # 14 characters
        (v2(payload, crc_token="crc=12345"), "bad checksum token"),
        (v2(payload, crc_token="crc=1234567g"), "bad checksum token"),
        (v2("not even hex", alpha=6), "header says alpha=6"),  # before the payload
        (f"v2 1 7\n{payload}\n", "bad node header"),
        (f"{head} kappa=x\n{payload}\n", "bad node header"),
        (f"v2 9 7 {crc}\n{payload}\n", "node id 9 out of range"),
        (f"{head}\n", "not 1"),
        (f"{head}\n{payload}\n{payload}\n", "not 3"),
    ]
    for text, message in cases:
        with pytest.raises(ValidationError, match=message):
            node_contents_from_text(text, example_code)


def test_v2_node_text_checksum_names_the_node(example_code, example_state):
    _, state = example_state
    head, payload = node_contents_to_text(state[4], example_code).splitlines()
    flipped = payload[:5] + ("0" if payload[5] != "0" else "1") + payload[6:]
    with pytest.raises(IntegrityError, match=r"^node 5: payload fails its checksum crc="):
        node_contents_from_text(f"{head}\n{flipped}\n", example_code)
    # the checksum is compared before the kappa token
    with pytest.raises(IntegrityError, match=r"^node 5: payload fails its checksum crc="):
        node_contents_from_text(f"{head} kappa=4\n{flipped}\n", example_code)


def _first_mismatch_pair(code, given_nodes, blocks):
    """Two blocks b1 < b2 whose decodes use different position sets, the set
    of b2 first seen before b1's, each with a given position past the r-m
    lowest; returns ((b1, pos1), (b2, pos2)) with those positions."""
    km = code.codec.dimension
    first_seen = {}
    picks = []
    for b in blocks:
        present = [pos for pos, x in enumerate(code.design.blocks[b]) if x in given_nodes]
        key = tuple(present[:km])
        first_seen.setdefault(key, b)
        if len(present) > km:
            picks.append((b, key, present[km]))
    for b1, key1, pos1 in picks:
        for b2, key2, pos2 in picks:
            if b1 < b2 and key1 != key2 and first_seen[key2] < first_seen[key1]:
                return (b1, pos1), (b2, pos2)
    return None


def _flip_at(code, state, b, pos):
    x = code.design.blocks[b][pos]
    which = slot_blocks(code, x).index(b)
    return [flip_symbol(nc, which) if nc.node == x else nc for nc in state]


def test_first_mismatch_in_block_order_across_groups(example_code, example_state):
    # a batch decode meets the later block's group first; the error must
    # still name the earlier block, as a block-by-block decode does
    code = example_code
    _, state = example_state
    for given in itertools.combinations(range(1, 9), 7):
        pair = _first_mismatch_pair(code, set(given), range(code.block_count))
        if pair:
            break
    (b1, pos1), (b2, pos2) = pair
    bad = _flip_at(code, _flip_at(code, state, b2, pos2), b1, pos1)
    x1 = code.design.blocks[b1][pos1]
    want = rf"^block {b1 + 1}: mismatch seen at position {pos1} \(node {x1}\)$"
    with pytest.raises(IntegrityError, match=want):
        code.reconstruct([nc for nc in bad if nc.node in given])

    for failed in range(1, 9):
        helpers = [x for x in range(1, 9) if x != failed]
        affected = [b for b, blk in enumerate(code.design.blocks) if failed in blk]
        pair = _first_mismatch_pair(code, set(helpers), affected)
        if pair:
            break
    (b1, pos1), (b2, pos2) = pair
    bad = _flip_at(code, _flip_at(code, state, b2, pos2), b1, pos1)
    x1 = code.design.blocks[b1][pos1]
    want = rf"^block {b1 + 1}: mismatch seen at position {pos1} \(node {x1}\)$"
    with pytest.raises(IntegrityError, match=want):
        code.repair(bad, failed=[failed], helpers=helpers)


def reference_groups(code, role):
    """Blocks by the roles of their members, one block at a time."""
    groups = {}
    for b, block in enumerate(code.design.blocks):
        groups.setdefault(bytes(role.get(x, 0) for x in block), []).append(b)
    return groups


def test_groups_match_a_per_block_reference(rng):
    base = build_code(SystemParams(n=4, k=3, d=3, e=1, m=1, r=3, t=3))
    data = list(range(1, base.data_len + 1))
    step, _ = base.extend(base.encode(data), [7, 9])
    codes = [
        build_code(SystemParams(n=7, k=4, d=4, e=3, m=3, r=5, t=5)),  # complete
        build_code(SystemParams(n=7, k=6, d=6, e=1, m=1, r=3, t=2), bundled_design("s_2_3_7")),
        build_code(SystemParams(n=8, k=6, d=6, e=2, m=2, r=4, t=3), bundled_design("s_3_4_8")),
        step,
    ]
    for code in codes:
        n = code.params.n
        for _ in range(40):
            nodes = rng.sample(range(1, n + 1), rng.randint(0, n))
            role = {x: rng.choice((GIVEN, LOST)) for x in nodes}
            # the order counts too: groups are met in the order of their lowest blocks
            assert list(code._groups(role).items()) == list(reference_groups(code, role).items())


def test_node_ids_past_255_encode_repair_and_reconstruct():
    # the complete (260, 259, 259, 1, 1, 2) code: C(260, 2) = 33,670 blocks of two, alpha 259;
    # its node ids pass a byte and ASCII, and so do the member characters that stand for them
    code = build_code(SystemParams(n=260, k=259, d=259, e=1, m=1, r=2, t=2))
    assert (code.block_count, code.alpha) == (33_670, 259)
    data = [(7 * i + 3) % 251 for i in range(code.data_len)]
    state = code.encode(data)
    assert [nc.node for nc in state] == list(range(1, 261))
    for x in (7, 200, 258):
        helpers = [y for y in range(1, 261) if y != x]
        rebuilt, report = code.repair([nc for nc in state if nc.node != x], [x], helpers)
        assert rebuilt == [state[x - 1]]
        assert report == beta_oracle(code.design, code.params.m, [x], helpers)
    assert code.reconstruct([nc for nc in state if nc.node != 258]) == data


def test_node_ids_in_the_surrogate_range_repair_and_reconstruct():
    # a t = 1 design, pairs (1, 2), (3, 4), ..., is Steiner for any n up to MAX_BLOCKS, so node
    # ids reach 0xD800-0xDFFF, code points a UTF-32 codec refuses unless told to pass them
    n = 0xDFFF + 1
    design = BlockDesign(n, 2, 1, tuple((x, x + 1) for x in range(1, n, 2)))
    code = build_code(SystemParams(n=n, k=n - 1, d=n - 1, e=1, m=1, r=2, t=1), design)
    assert code._member_chars == "".join(map(chr, range(1, n + 1)))
    data = [(7 * i + 3) % 251 for i in range(code.data_len)]
    state = code.encode(data)
    helpers = [y for y in range(1, n + 1) if y != 0xD800]
    rebuilt, report = code.repair([nc for nc in state if nc.node != 0xD800], [0xD800], helpers)
    assert rebuilt == [state[0xD800 - 1]]
    assert report == beta_oracle(code.design, code.params.m, [0xD800], helpers)
    assert code.reconstruct([nc for nc in state if nc.node != 0xDFFF]) == data
