"""Layered reconstruct, repair and extend against a block-by-block reference.

The reference decodes one block at a time with MdsCodec.decode, in block
order, and reads every node's symbols through the design alone: a node's
slots are the blocks that hold it, ascending. Each operation must return
what the reference returns, report what beta_oracle counts, and raise the
reference's first IntegrityError, for clean states and for states with one
or two flipped symbols.
"""

import itertools
import random

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
from regencodes.layered import LayeredCode


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
    ("GF(2^4)",
     lambda: build_code(SystemParams(n=5, k=3, d=3, e=2, m=2, r=4, t=4), field=binary_field(4)),
     [((1, 2), (3, 4, 5)), ((3,), (1, 2, 4, 5))], True),
    ("GF(2^12)",
     lambda: build_code(SystemParams(n=4, k=3, d=3, e=1, m=1, r=3, t=3), field=binary_field(12)),
     [((2,), (1, 3, 4))], True),
    ("precoded F=9, extension-field tuples",
     lambda: build_precoded(n=5, k=3, d=4, e=1, m=1, r=2).inner,
     [((1,), (2, 3, 4, 5)), ((5,), (1, 2, 3, 4))], False),
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
