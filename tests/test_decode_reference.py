"""Layered encode, reconstruct, repair and extend against a block-by-block reference.

The reference encodes and decodes one block at a time with MdsCodec, in
block order, and reads every node's symbols through the design alone: a
node's slots are the blocks that hold it, ascending. Each operation must
return what the reference returns, report what beta_oracle counts, and
raise the reference's first IntegrityError, for clean states and for states
with one or two flipped symbols. The walk between node columns and the
block-major list is checked against the same reading of the design.
"""

import itertools
import random
import re

import pytest

from regencodes import (
    IntegrityError,
    NodeContents,
    SystemParams,
    binary_field,
    build_code,
    build_precoded,
    bundled_design,
)
from regencodes.bandwidth import beta_oracle
from regencodes.designs import BlockDesign
from regencodes.errors import SymbolMismatch
from regencodes.layered import GIVEN, LOST, LayeredCode
from regencodes.mds import MdsCodec


def slot_blocks(code, x):
    return [b for b, block in enumerate(code.design.blocks) if x in block]


def symbol_map(code, state):
    """(block, node) -> symbol, from the design and each node's column."""
    return {(b, nc.node): s for nc in state for b, s in zip(slot_blocks(code, nc.node), nc.symbols)}


def decode_block(code, b, given):
    """Block b's codeword from the given nodes' symbols, or its first mismatch."""
    block = code.design.blocks[b]
    available = {pos: given[b, x] for pos, x in enumerate(block) if (b, x) in given}
    try:
        return code.codec.decode(available)
    except SymbolMismatch as ex:
        raise IntegrityError(
            f"block {b + 1}: mismatch seen at position {ex.position} (node {block[ex.position]})"
        ) from None


def node_columns(code, codewords, nodes):
    """The nodes' contents, read from per-block codewords."""
    return [
        NodeContents(x, code.field.column(
            codewords[b][code.design.blocks[b].index(x)] for b in slot_blocks(code, x)))
        for x in nodes
    ]


def ref_reconstruct(code, state):
    given = symbol_map(code, state)
    km = code.codec.dimension
    return [s for b in range(code.block_count) for s in decode_block(code, b, given)[:km]]


def ref_repair(code, state, failed, helpers):
    given = {key: s for key, s in symbol_map(code, state).items() if key[1] in helpers}
    km = code.codec.dimension
    affected = [b for b, block in enumerate(code.design.blocks) if set(block) & set(failed)]
    for b in affected:
        held = [x for x in code.design.blocks[b] if x in helpers]
        if len(held) < km:
            raise IntegrityError(
                f"block {code.design.blocks[b]} holds {len(held)} helper symbols, fewer than r-m={km}"
            )
    codewords = {b: decode_block(code, b, given) for b in affected}
    report = beta_oracle(code.design, code.params.m, failed, helpers)
    return node_columns(code, codewords, sorted(failed)), report


def ref_extend(code, state, new_data):
    given = symbol_map(code, state)
    p = code.params
    # the new design lists the old blocks, each grown by the new node, then
    # the block of all old nodes; old codewords keep their points
    blocks = [block + (p.n + 1,) for block in code.design.blocks] + [tuple(range(1, p.n + 1))]
    new_code = LayeredCode(
        SystemParams(n=p.n + 1, k=p.k, d=p.d, e=p.e + 1, m=p.m + 1, r=p.r + 1, t=p.t + 1),
        BlockDesign(n=p.n + 1, r=p.r + 1, t=p.t + 1, blocks=tuple(blocks)),
        code.field,
    )
    km = code.codec.dimension
    codewords = {b: new_code.codec.encode(decode_block(code, b, given)[:km])
                 for b in range(code.block_count)}
    codewords[code.block_count] = new_code.codec.encode(list(new_data))
    return node_columns(new_code, codewords, range(1, new_code.params.n + 1))


def outcome(fn, *args):
    """fn's result, or the text of the IntegrityError it raised."""
    try:
        return fn(*args)
    except IntegrityError as ex:
        return f"IntegrityError: {ex}"


def flipped(code, state, rng, count):
    """state with `count` distinct stored symbols changed to other field elements."""
    picks = rng.sample([(i, j) for i, nc in enumerate(state) for j in range(nc.alpha)], count)
    out = list(state)
    for i, j in picks:
        symbols = list(out[i].symbols)
        symbols[j] ^= rng.randrange(1, min(code.field.order, 1 << 12))
        out[i] = NodeContents(out[i].node, code.field.column(symbols))
    return out


def field_symbols(code, rng):
    return [rng.randrange(min(code.field.order, 1 << 30)) for _ in range(code.data_len)]


# (name, code, repair patterns as (failed, helpers), extendable)
CASES = [
    ("complete GF(2^8)",
     lambda: build_code(SystemParams(n=6, k=4, d=4, e=2, m=2, r=5, t=5)),
     [((1,), (2, 3, 4, 5)), ((2, 5), (1, 3, 4, 6)), ((6,), (1, 2, 3, 4, 5))], True),
    ("Steiner S(2,3,7)",
     lambda: build_code(SystemParams(n=7, k=6, d=6, e=1, m=1, r=3, t=2),
                        design=bundled_design("s_2_3_7")),
     [((1,), (2, 3, 4, 5, 6, 7)), ((4,), (1, 2, 3, 5, 6, 7))], False),
    ("Steiner S(3,4,8), t < r",
     lambda: build_code(SystemParams(n=8, k=6, d=6, e=2, m=2, r=4, t=3),
                        design=bundled_design("s_3_4_8")),
     [((1, 2), (3, 4, 5, 6, 7, 8)), ((5,), (1, 2, 3, 4, 6, 7, 8)), ((8,), (1, 2, 3, 4, 5, 6))],
     False),
    ("GF(2^4)",
     lambda: build_code(SystemParams(n=5, k=3, d=3, e=2, m=2, r=4, t=4), field=binary_field(4)),
     [((1, 2), (3, 4, 5)), ((3,), (1, 2, 4, 5))], True),
    ("GF(2^12)",
     lambda: build_code(SystemParams(n=4, k=3, d=3, e=1, m=1, r=3, t=3), field=binary_field(12)),
     [((2,), (1, 3, 4))], True),
    ("precoded F=9, extension-field tuples",
     lambda: build_precoded(n=5, k=3, d=4, e=1, m=1, r=2).inner,
     [((1,), (2, 3, 4, 5)), ((5,), (1, 2, 3, 4))], False),
    # r >= m + 3: several role groups share their lowest r-m given positions
    ("complete r = m + 4, groups sharing chosen positions",
     lambda: build_code(SystemParams(n=9, k=6, d=6, e=3, m=3, r=7, t=7)),
     [((1, 2, 3), (4, 5, 6, 7, 8, 9)), ((5,), (1, 2, 3, 4, 6, 7, 8, 9)),
      ((2, 9), (1, 3, 4, 5, 6, 7, 8))], False),
]


@pytest.mark.parametrize("name,make,repairs,extendable", CASES, ids=[c[0] for c in CASES])
def test_layered_operations_match_the_block_by_block_reference(name, make, repairs, extendable):
    code = make()
    rng = random.Random(name)
    clean = code.encode(field_symbols(code, rng))
    n, k = code.params.n, code.params.k
    subsets = [tuple(range(1, n + 1))] + list(itertools.combinations(range(1, n + 1), k))[:6]
    errors = 0
    for flips in (0, 1, 1, 2, 2, 2):
        state = flipped(code, clean, rng, flips) if flips else clean
        for nodes in subsets:
            part = [nc for nc in state if nc.node in nodes]
            want = outcome(ref_reconstruct, code, part)
            assert outcome(code.reconstruct, part) == want, (flips, nodes)
            errors += isinstance(want, str)
        for failed, helpers in repairs:
            want = outcome(ref_repair, code, state, failed, helpers)
            assert outcome(code.repair, state, failed, helpers) == want, (flips, failed)
            errors += isinstance(want, str)
        if extendable:
            new_data = field_symbols(code, rng)[: code.codec.dimension]
            want = outcome(ref_extend, code, state, new_data)
            got = outcome(code.extend, state, new_data)
            assert (got if isinstance(got, str) else got[1]) == want, flips
            errors += isinstance(want, str)
    assert errors > 0  # the flips reach checked positions


@pytest.mark.parametrize("name,make", [c[:2] for c in CASES], ids=[c[0] for c in CASES])
def test_encode_matches_the_block_by_block_reference(name, make):
    code = make()
    data = field_symbols(code, random.Random(name))
    km = code.codec.dimension
    codewords = {b: code.codec.encode(data[b * km : (b + 1) * km]) for b in range(code.block_count)}
    assert code.encode(data) == node_columns(code, codewords, range(1, code.params.n + 1))


@pytest.mark.parametrize("name,make", [c[:2] for c in CASES], ids=[c[0] for c in CASES])
def test_the_members_walk_moves_node_columns_both_ways(name, make):
    code = make()
    rng = random.Random(f"walk {name}")
    n, alpha, column = code.params.n, code.alpha, code.field.column
    zeros = column([0] * alpha)
    for present in (range(1, n + 1), rng.sample(range(1, n + 1), code.params.k), [n]):
        by_node = {x: column(rng.randrange(min(code.field.order, 1 << 30)) for _ in range(alpha))
                   for x in present}
        full = code._block_major(by_node)
        # entry b*r + pos is position pos of block b; absent nodes read as zeros
        given = symbol_map(code, [NodeContents(x, col) for x, col in by_node.items()])
        assert full == [given.get((b, x), 0) for b, block in enumerate(code.design.blocks)
                        for x in block]
        for nodes in (rng.sample(range(1, n + 1), n), [n, 1], sorted(present)):
            want = [NodeContents(x, by_node.get(x, zeros)) for x in nodes]
            assert code._contents(full, nodes) == want, nodes
            assert [code._column(full, x) for x in nodes] == want, nodes


# Shapes on which one chosen set spans groups with different check positions, so a batched
# decode shares rows and columns between them
SWEEP_SHAPES = [
    SystemParams(n=6, k=4, d=4, e=2, m=2, r=3, t=3),
    SystemParams(n=6, k=4, d=4, e=2, m=2, r=5, t=5),
]


def given_positions(code, roles, b):
    """Block b's GIVEN positions, ascending, read from the design."""
    return [pos for pos, x in enumerate(code.design.blocks[b]) if roles.get(x) == GIVEN]


def chosen_by_block(code, roles, blocks):
    """Each block's chosen set: its first r-m GIVEN positions in one rank of the positions,
    most held GIVEN over the decoded blocks first, ties to the lower position."""
    given = {b: given_positions(code, roles, b) for b in blocks}
    held = [0] * code.params.r
    for positions in given.values():
        for pos in positions:
            held[pos] += 1
    km = code.codec.dimension
    return {b: tuple(sorted(sorted(positions, key=lambda pos: (-held[pos], pos))[:km]))
            for b, positions in given.items()}


def chosen_sets(code, roles, blocks):
    """The distinct chosen sets of the blocks."""
    return set(chosen_by_block(code, roles, blocks).values())


def lowest_sets(code, roles, blocks):
    """The distinct lowest r-m GIVEN positions of the blocks."""
    km = code.codec.dimension
    return {tuple(given_positions(code, roles, b)[:km]) for b in blocks}


def repair_blocks(code, failed):
    """The blocks a repair of the failed nodes decodes."""
    return [b for b, block in enumerate(code.design.blocks) if set(block) & set(failed)]


def repair_roles(failed, helpers):
    return {**dict.fromkeys(helpers, GIVEN), **dict.fromkeys(failed, LOST)}


def named_block(error):
    """The block index an "IntegrityError: block B: mismatch ..." outcome names."""
    return int(re.match(r"IntegrityError: block (\d+):", error).group(1)) - 1


def sweep_operations(code):
    """(name, operation, state -> args, roles, blocks it decodes) for reconstructs from all
    nodes and from every k of them, and repairs of one or two nodes from all the others and
    from every k of them."""
    n, k = code.params.n, code.params.k
    everyone = range(1, n + 1)
    ops = []
    for nodes in [tuple(everyone)] + list(itertools.combinations(everyone, k)):
        ops.append((("reconstruct", nodes), ref_reconstruct, code.reconstruct,
                    lambda state, nodes=nodes: ([nc for nc in state if nc.node in nodes],),
                    dict.fromkeys(nodes, GIVEN), range(code.block_count)))
    for failed in itertools.chain.from_iterable(
            itertools.combinations(everyone, e) for e in range(1, code.params.m + 1)):
        others = [x for x in everyone if x not in failed]
        for helpers in {tuple(others), *itertools.combinations(others, k)}:
            ops.append((("repair", failed, helpers), ref_repair, code.repair,
                        lambda state, failed=failed, helpers=helpers: (state, failed, helpers),
                        repair_roles(failed, helpers), repair_blocks(code, failed)))
    return ops


def count_decodes(monkeypatch):
    """A list that records (chosen positions, codewords) for every MdsCodec.decode_many call."""
    calls = []
    decode_many = MdsCodec.decode_many

    def counted(codec, chosen, columns, wanted=None):
        calls.append((tuple(chosen), len(columns[0])))
        return decode_many(codec, chosen, columns, wanted)

    monkeypatch.setattr(MdsCodec, "decode_many", counted)
    return calls


@pytest.mark.parametrize("params", SWEEP_SHAPES, ids=lambda p: f"r={p.r}")
def test_batched_decode_raises_the_reference_error_for_every_single_flip(params, monkeypatch):
    code = build_code(params)
    rng = random.Random(f"sweep r={params.r}")
    clean = code.encode(field_symbols(code, rng))
    ops = sweep_operations(code)
    # the shape is one the sweep needs: some chosen set spans groups of different roles
    assert any(sum(bool(set(g) & set(blocks)) for g in code._groups(roles).values())
               > len(chosen_sets(code, roles, blocks)) for *_, roles, blocks in ops)
    sets = {name: chosen_sets(code, roles, blocks) for name, *_, roles, blocks in ops}
    calls = count_decodes(monkeypatch)
    flips = [(i, j) for i in range(params.n) for j in range(code.alpha)]
    raised = 0
    for i, j in [(None, None)] + flips:
        state = list(clean)
        if i is not None:
            symbols = list(state[i].symbols)
            symbols[j] ^= 1 + (i * 31 + j) % 255
            state[i] = NodeContents(state[i].node, code.field.column(symbols))
        for name, ref, op, args, roles, blocks in ops:
            want = outcome(ref, code, *args(state))
            del calls[:]
            got = outcome(op, *args(state))
            assert got == want, (name, i, j)
            failing = isinstance(want, str)
            raised += failing
            # one decode_many per distinct chosen set, each set once; a failing operation
            # adds one: the named block alone, through its lowest r-m GIVEN positions
            batched = [chosen for chosen, _ in calls[: len(sets[name])]]
            assert len(calls) == len(sets[name]) + failing, (name, calls)
            assert len(set(batched)) == len(batched) and set(batched) == sets[name], name
            if failing:
                b = named_block(want)
                assert calls[-1] == (tuple(given_positions(code, roles, b)[: code.codec.dimension]),
                                     1), (name, calls)
    assert raised > len(flips)  # most flips reach a checked position in several operations


def test_the_benchmark_repair_ring_shares_chosen_sets(monkeypatch):
    """layered-n14's seven repair patterns, failed {i, i+1, i+5} mod 14 with node i+8 idle,
    decode through 164 chosen sets in all, and none through more than the lowest r-m GIVEN
    positions would take."""
    code = build_code(SystemParams(n=14, k=10, d=10, e=3, m=4, r=9, t=9))
    clean = code.encode(field_symbols(code, random.Random("ring")))
    calls = count_decodes(monkeypatch)
    shared, lowest = [], []
    for i in range(0, 14, 2):
        failed = tuple(sorted(1 + (i + j) % 14 for j in (0, 1, 5)))
        idle = 1 + (i + 8) % 14
        helpers = tuple(x for x in range(1, 15) if x not in failed and x != idle)
        roles, blocks = repair_roles(failed, helpers), repair_blocks(code, failed)
        del calls[:]
        code.repair(clean, failed, helpers)
        assert {chosen for chosen, _ in calls} == chosen_sets(code, roles, blocks), failed
        shared.append(len(calls))
        lowest.append(len(lowest_sets(code, roles, blocks)))
    assert lowest == [40, 65, 35, 30, 22, 33, 17]
    assert sum(shared) == 164
    assert all(s <= low for s, low in zip(shared, lowest)), (shared, lowest)


def test_the_failure_path_names_the_reference_position_where_the_rank_differs():
    """On (9,6,6,3,3,7) the rank takes chosen sets other than the lowest GIVEN positions;
    a seeded sample of single flips still raises the block-by-block reference's text."""
    name, make, repairs, _ = next(c for c in CASES if c[0].startswith("complete r = m + 4"))
    code = make()
    rng = random.Random("rank differs")
    clean = code.encode(field_symbols(code, rng))
    n, k = code.params.n, code.params.k
    ops = [(ref_reconstruct, code.reconstruct,
            lambda state, nodes=nodes: ([nc for nc in state if nc.node in nodes],),
            dict.fromkeys(nodes, GIVEN), range(code.block_count))
           for nodes in itertools.combinations(range(1, n + 1), k)]
    ops += [(ref_repair, code.repair,
             lambda state, failed=failed, helpers=helpers: (state, failed, helpers),
             repair_roles(failed, helpers), repair_blocks(code, failed))
            for failed, helpers in repairs]
    km = code.codec.dimension
    # per operation, the blocks whose chosen set is not their lowest r-m GIVEN positions
    ranked = [{b for b, chosen in chosen_by_block(code, roles, blocks).items()
               if chosen != tuple(given_positions(code, roles, b)[:km])}
              for *_, roles, blocks in ops]
    assert all(ranked[-len(repairs):])
    # four reconstructs on which the rank moves some chosen set, and every repair
    picks = rng.sample([i for i, moved in enumerate(ranked[: -len(repairs)]) if moved], 4)
    picks += range(len(ops) - len(repairs), len(ops))
    ops, ranked = [ops[i] for i in picks], [ranked[i] for i in picks]
    flips = rng.sample([(i, j) for i in range(n) for j in range(code.alpha)], 120)
    differ = 0  # failing operations whose named block decodes through a ranked chosen set
    for i, j in flips:
        state = list(clean)
        symbols = list(state[i].symbols)
        symbols[j] ^= rng.randrange(1, 256)
        state[i] = NodeContents(state[i].node, code.field.column(symbols))
        for (ref, op, args, *_), moved in zip(ops, ranked):
            want = outcome(ref, code, *args(state))
            assert outcome(op, *args(state)) == want, (i, j)
            differ += isinstance(want, str) and named_block(want) in moved
    assert differ > 0
