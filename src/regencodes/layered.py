"""Layered codes: block-local MDS codewords scattered over n storage nodes.

The data splits into one message of r-m symbols per design block, in block
order; block i carries data[i*(r-m):(i+1)*(r-m)]. Each block's (r, r-m)
codeword is spread over the block's members in ascending node order, one
symbol per member. Any k = n-m nodes reconstruct everything (each block
keeps >= r-m symbols), and up to m simultaneous failures are repaired
exactly from any d >= k helpers, group by group.

Every operation completes some blocks' codewords in one block-major list
(entry b*r + pos holds position pos of block b, None where unknown) and
reads its output from it. _decode fills in the listed blocks. Blocks with
the same lowest r-m given positions share generator rows, so each such set
is one MdsCodec.decode_many call, with a column of symbols per position.
Every other given symbol is checked against its block's codeword; if any
disagrees, the lowest such block raises "block B: mismatch seen at position
P (node X)" for its first mismatching position, the same error a
block-by-block decode meets first. Reconstruct, repair and extend decode
through it; encode has nothing to check and is one decode_many call.

A node file is two lines: the header `v2 NODE ALPHA crc=XXXXXXXX
[kappa=K]`, then the payload, the node's alpha symbols in slot order
(ascending block order) as fixed-width lowercase hex with no separators or
block labels. crc is zlib.crc32 of the payload line as written; it covers
the symbols, and every header field is checked against the code instead.
The reader refuses a malformed header, an alpha the code does not have, a
payload of the wrong length or with a non-hex digit (ValidationError), and
only then compares the checksum: a mismatch raises IntegrityError naming
the node before any decode. It takes the block labels of NodeContents from
the code's slots. The old format, a `node alpha [precoded=1 kappa=K]`
header and one `block_index hex_symbol` line per symbol, is still read,
never written; its labels come from the file, and every entry point checks
them against the design and rejects lines out of slot order.
"""

from __future__ import annotations

import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .bandwidth import BandwidthReport
from .designs import BlockDesign, complete_design, design_stats, verify_steiner
from .errors import IntegrityError, ValidationError
from .gf import binary_field
from .mds import MdsCodec, mds_codec


@dataclass(frozen=True)
class SystemParams:
    n: int  # storage nodes
    k: int  # any k nodes reconstruct the data
    d: int  # helpers contacted per repair
    e: int  # design point: simultaneous failures the bandwidth targets
    m: int  # per-group erasure budget; groups are (r, r-m) MDS
    r: int  # group size
    t: int  # covering order of the block design

    def __post_init__(self) -> None:
        if min(self.n, self.k, self.d, self.e, self.m, self.r, self.t) < 1:
            raise ValidationError("all system parameters must be >= 1")
        if not self.e <= self.m < self.r <= self.n:
            raise ValidationError(
                f"need e <= m < r <= n, got e={self.e} m={self.m} r={self.r} n={self.n}"
            )
        if self.t > self.r:
            raise ValidationError(f"need t <= r, got t={self.t} r={self.r}")
        if self.k != self.n - self.m:
            raise ValidationError(f"need k = n - m, got k={self.k} n-m={self.n - self.m}")
        if not self.k <= self.d <= self.n - self.e:
            raise ValidationError(
                f"need k <= d <= n - e, got k={self.k} d={self.d} n-e={self.n - self.e}"
            )


@dataclass(frozen=True)
class NodeContents:
    node: int
    symbols: tuple[tuple[int, int], ...]  # (1-based block index, symbol), ascending

    @property
    def alpha(self) -> int:
        return len(self.symbols)


class LayeredCode:
    def __init__(self, params: SystemParams, design: BlockDesign, field) -> None:
        if (design.n, design.r, design.t) != (params.n, params.r, params.t):
            raise ValidationError(
                f"design is ({design.n},{design.r},{design.t}), "
                f"params want ({params.n},{params.r},{params.t})"
            )
        if not verify_steiner(design):
            raise ValidationError("design does not cover every t-subset exactly once")
        stats = design_stats(design)  # also validates N and alpha integrality
        self.params = params
        self.design = design
        self.field = field
        self.codec: MdsCodec = mds_codec(field, params.r, params.r - params.m)
        self.block_count = design.block_count
        self.data_len = design.block_count * (params.r - params.m)
        self.alpha = stats.alpha
        slots: dict[int, list[tuple[int, int]]] = {x: [] for x in range(1, params.n + 1)}
        for b, block in enumerate(design.blocks):
            for pos, x in enumerate(block):
                slots[x].append((b, pos))
        for x, sl in slots.items():
            if len(sl) != self.alpha:
                raise ValidationError(
                    f"node {x} sits in {len(sl)} blocks, expected alpha={self.alpha}"
                )
        self._slots = {x: tuple(sl) for x, sl in slots.items()}

    # -- encoding / reconstruction -------------------------------------------

    def encode(self, data: Sequence[int]) -> list[NodeContents]:
        """Data -> contents of all n nodes, ordered by node id."""
        if len(data) != self.data_len:
            raise ValidationError(f"data must have {self.data_len} symbols, got {len(data)}")
        for s in data:
            if not self.field.contains(s):
                raise ValidationError(f"symbol {s!r} is not a field element")
        r, km = self.params.r, self.codec.dimension
        # every block's message sits at positions 0..r-m-1: one batch, with
        # no given symbol beyond the messages to check
        cols = self.codec.decode_many(
            range(km), [self.field.column(data[i::km]) for i in range(km)]
        )
        full: list = [None] * (self.block_count * r)
        for pos, col in enumerate(cols):
            full[pos::r] = col
        return self._contents(full, range(1, self.params.n + 1))

    def reconstruct(self, contents: Iterable[NodeContents]) -> list[int]:
        """Recover the data from any >= k distinct nodes' contents."""
        by_node = self._index_contents(contents)
        if len(by_node) < self.params.k:
            raise ValidationError(
                f"need at least k={self.params.k} distinct nodes, got {len(by_node)}"
            )
        r, km = self.params.r, self.codec.dimension
        full = self._decode(self._block_major(by_node), range(self.block_count))
        data = [0] * self.data_len
        for i in range(km):
            data[i::km] = full[i::r]
        return data

    # -- repair ----------------------------------------------------------------

    def repair(
        self,
        state: Iterable[NodeContents],
        failed: Iterable[int],
        helpers: Iterable[int],
    ) -> tuple[list[NodeContents], BandwidthReport]:
        """Rebuild the failed nodes' exact contents from the helpers.

        Every affected group is decoded from its members among the helpers;
        the report prices those reads under all three accountings. Needs
        1 <= |failed| <= m, helpers disjoint from failed, |helpers| >= k.
        """
        p = self.params
        failed_t = tuple(sorted(set(failed)))
        helpers_t = tuple(sorted(set(helpers)))
        nodes = set(range(1, p.n + 1))
        if not failed_t:
            raise ValidationError("no failed nodes to repair")
        if not set(failed_t) <= nodes or not set(helpers_t) <= nodes:
            raise ValidationError("failed and helper nodes must lie in 1..n")
        if set(failed_t) & set(helpers_t):
            raise ValidationError("helpers cannot include failed nodes")
        if len(failed_t) > p.m:
            raise ValidationError(f"cannot repair {len(failed_t)} nodes; budget is m={p.m}")
        if len(helpers_t) < p.k:
            raise ValidationError(f"need at least d >= k = {p.k} helpers, got {len(helpers_t)}")
        by_node = self._index_contents(state)
        missing = [h for h in helpers_t if h not in by_node]
        if missing:
            raise ValidationError(f"helper contents missing for nodes {missing}")

        km = self.codec.dimension
        failed_set, helper_set = set(failed_t), set(helpers_t)
        # integer tallies, priced as Fractions once at the end: held_by[s, h]
        # lists the helper of each symbol in the affected blocks that lost s
        # symbols and keep h, read_by[s] each helper the naive decode reads
        held_by: defaultdict[tuple[int, int], list[int]] = defaultdict(list)
        read_by: defaultdict[int, list[int]] = defaultdict(list)
        affected = []
        for b, block in enumerate(self.design.blocks):
            s = len(failed_set.intersection(block))
            if s == 0:
                continue
            held = [x for x in block if x in helper_set]
            if len(held) < km:
                raise IntegrityError(
                    f"block {block} holds {len(held)} helper symbols, fewer than r-m={km}"
                )
            held_by[s, len(held)] += held
            read_by[s] += held[:km]
            affected.append(b)

        full = self._decode(self._block_major({h: by_node[h] for h in helpers_t}), affected)

        msmr = dict.fromkeys(helpers_t, Fraction(0))
        for (s, h_cnt), held in held_by.items():
            for x, count in Counter(held).items():
                msmr[x] += Fraction(count * s, h_cnt - km + s)
        naive = dict.fromkeys(helpers_t, Fraction(0))
        lnaive = dict.fromkeys(helpers_t, Fraction(0))
        for s, read in read_by.items():
            for x, count in Counter(read).items():
                naive[x] += count
                lnaive[x] += count * s
        report = BandwidthReport(
            failed=failed_t,
            helpers=helpers_t,
            msmr=msmr,
            naive=naive,
            layered_naive=lnaive,
        )
        return self._contents(full, failed_t), report

    # -- extension ---------------------------------------------------------------

    def extend(
        self, state: Iterable[NodeContents], new_data: Sequence[int]
    ) -> tuple["LayeredCode", list[NodeContents]]:
        """Grow (k+e, k, k, e) into (k+e+1, k, k, e+1) without touching old symbols.

        Appends node n+1 to every block and one new block over the old nodes;
        each old codeword gains one evaluation point (stored on the new node)
        and the new block encodes new_data. Old node contents stay literal
        prefixes of their new contents. Every stored symbol is checked first,
        as in reconstruct: a corrupted one raises IntegrityError and nothing
        is returned. Requires the complete t = r = k+e-1 layout, i.e.
        n = k+e, d = k.
        """
        p = self.params
        if not (p.n == p.k + p.e and p.d == p.k and p.t == p.r and p.r == p.k + p.e - 1):
            raise ValidationError(
                "extension needs the complete-design layout n=k+e, d=k, t=r=k+e-1"
            )
        km = self.codec.dimension
        if len(new_data) != km:
            raise ValidationError(f"new_data must have r-m = {km} symbols, got {len(new_data)}")
        by_node = self._index_contents(state)
        if set(by_node) != set(range(1, p.n + 1)):
            raise ValidationError("extension needs the contents of all current nodes")

        new_node = p.n + 1
        new_blocks = [block + (new_node,) for block in self.design.blocks]
        new_blocks.append(tuple(range(1, p.n + 1)))
        new_design = BlockDesign(n=p.n + 1, r=p.r + 1, t=p.t + 1, blocks=tuple(new_blocks))
        new_params = SystemParams(
            n=p.n + 1, k=p.k, d=p.d, e=p.e + 1, m=p.m + 1, r=p.r + 1, t=p.t + 1
        )
        new_code = LayeredCode(new_params, new_design, self.field)
        for s in new_data:
            if not self.field.contains(s):
                raise ValidationError(f"symbol {s!r} is not a field element")

        # old nodes keep their positions in the new design, and the new
        # codec's points are the old ones plus field.element(r), so each old
        # codeword is a prefix of its new one; the new block's message sits
        # on its first r-m positions. One decode checks every stored symbol
        # and codes the new block with the rest.
        full = new_code._block_major(by_node)
        start = self.block_count * new_params.r
        full[start : start + km] = new_data
        new_code._decode(full, range(new_code.block_count))
        return new_code, new_code._contents(full, range(1, new_node + 1))

    # -- helpers -----------------------------------------------------------------

    def _index_contents(self, contents: Iterable[NodeContents]) -> dict[int, tuple[int, ...]]:
        """Check each node against the design; node -> its symbols in slot order."""
        by_node: dict[int, tuple[int, ...]] = {}
        for nc in contents:
            x = nc.node
            if not 1 <= x <= self.params.n:
                raise ValidationError(f"node id {x} out of range 1..{self.params.n}")
            if x in by_node:
                raise ValidationError(f"node {x} appears twice")
            if nc.alpha != self.alpha:
                raise ValidationError(
                    f"node {x} carries {nc.alpha} symbols, expected alpha={self.alpha}"
                )
            for (b, _), (blk_idx, sym) in zip(self._slots[x], nc.symbols):
                if blk_idx != b + 1:
                    raise ValidationError(
                        f"node {x} lists block {blk_idx} where block {b + 1} belongs"
                    )
                if not self.field.contains(sym):
                    raise ValidationError(f"node {x} holds a non-field symbol {sym!r}")
            by_node[x] = tuple(sym for _, sym in nc.symbols)
        return by_node

    def _block_major(self, by_node: Mapping[int, Sequence[int]]) -> list:
        """Entry b*r + pos holds the symbol at position pos of block b, or None."""
        r = self.params.r
        given: list = [None] * (self.block_count * r)
        for x, syms in by_node.items():
            for (b, pos), sym in zip(self._slots[x], syms):
                given[b * r + pos] = sym
        return given

    def _decode(self, full: list, blocks: Iterable[int]) -> list:
        """Fill in every position of the listed blocks of _block_major's list.

        Works in place and returns the list. Blocks whose lowest r-m given
        positions agree share one generator, so each such group is one
        decode_many call. Every other given symbol is checked against its
        block's codeword. A mismatch raises for the lowest block that has
        one, at its first mismatching position: the error a block-by-block
        decode meets first.
        """
        r, km = self.params.r, self.codec.dimension
        groups: dict[tuple[int, ...], list[int]] = {}  # chosen positions -> block starts
        for b in blocks:
            present = [pos for pos, v in enumerate(full[b * r : (b + 1) * r]) if v is not None]
            groups.setdefault(tuple(present[:km]), []).append(b * r)
        mismatches = []
        for chosen, starts in groups.items():
            cols = self.codec.decode_many(
                chosen, [self.field.column([full[s + pos] for s in starts]) for pos in chosen]
            )
            for pos, col in enumerate(cols):
                if pos in chosen:
                    continue
                for s, sym in zip(starts, col):
                    given = full[s + pos]
                    if given is None:
                        full[s + pos] = sym
                    elif given != sym:
                        mismatches.append((s // r, pos))
        if mismatches:
            b, pos = min(mismatches)
            x = self.design.blocks[b][pos]
            raise IntegrityError(f"block {b + 1}: mismatch seen at position {pos} (node {x})")
        return full

    def _contents(self, full: Sequence[int], nodes: Iterable[int]) -> list[NodeContents]:
        """The nodes' contents, read from a completed block-major list."""
        r = self.params.r
        return [
            NodeContents(
                node=x, symbols=tuple((b + 1, full[b * r + pos]) for b, pos in self._slots[x])
            )
            for x in nodes
        ]


def build_code(
    params: SystemParams,
    design: Optional[BlockDesign] = None,
    field=None,
) -> LayeredCode:
    """Assemble a layered code; defaults: complete design, GF(2^8)."""
    if design is None:
        if params.t != params.r:
            raise ValidationError("only t = r designs can be generated; load t < r from a file")
        design = complete_design(params.n, params.r)
    if field is None:
        field = binary_field(8)
    return LayeredCode(params, design, field)


# -- node files -------------------------------------------------------------------

_HEX_DIGITS = frozenset("0123456789abcdef")


def node_contents_to_text(nc: NodeContents, hex_width: int, kappa: Optional[int] = None) -> str:
    """A node file: the v2 header, then the symbols as one fixed-width hex line."""
    symbols = [sym for _, sym in nc.symbols]
    if hex_width == 2:
        payload = bytes(symbols).hex()
    else:
        payload = "".join(f"{sym:0{hex_width}x}" for sym in symbols)
    head = f"v2 {nc.node} {nc.alpha} crc={zlib.crc32(payload.encode()):08x}"
    if kappa is not None:
        head += f" kappa={kappa}"
    return f"{head}\n{payload}\n"


def node_contents_from_text(text: str, code: LayeredCode) -> tuple[NodeContents, Optional[int]]:
    """Parse one node file of `code`; returns (contents, kappa or None).

    The header's first token picks the format: `v2`, or the old format's
    node id. Structural faults raise ValidationError; a v2 payload that
    fails its checksum raises IntegrityError.
    """
    if text.split(None, 1)[:1] != ["v2"]:
        return _node_contents_from_v1_text(text)
    lines = text.splitlines()
    if len(lines) != 2:
        raise ValidationError(f"node file must be a header and a payload line, not {len(lines)}")
    head, payload = lines
    tokens = head.split()
    if not (
        len(tokens) in (4, 5)
        and tokens[3].startswith("crc=")
        and (len(tokens) == 4 or tokens[4].startswith("kappa="))
    ):
        raise ValidationError(f"bad node header {head!r}")
    try:
        node, alpha = int(tokens[1]), int(tokens[2])
        kappa = int(tokens[4][len("kappa=") :]) if len(tokens) == 5 else None
    except ValueError:
        raise ValidationError(f"bad node header {head!r}") from None
    crc = tokens[3][len("crc=") :]
    if len(crc) != 8 or not set(crc) <= _HEX_DIGITS:
        raise ValidationError(f"node {node}: bad checksum token {tokens[3]!r}")
    if not 1 <= node <= code.params.n:
        raise ValidationError(f"node id {node} out of range 1..{code.params.n}")
    if alpha != code.alpha:
        raise ValidationError(f"node {node}: header says alpha={alpha}, the code has {code.alpha}")
    width = code.field.hex_width
    if len(payload) != alpha * width:
        raise ValidationError(
            f"node {node}: payload holds {len(payload)} hex digits, "
            f"expected alpha x {width} = {alpha * width}"
        )
    if not set(payload) <= _HEX_DIGITS:
        raise ValidationError(f"node {node}: payload holds a character other than 0-9a-f")
    if zlib.crc32(payload.encode()) != int(crc, 16):
        raise IntegrityError(f"node {node}: payload fails its checksum crc={crc}")
    if width == 2:
        symbols = bytes.fromhex(payload)
    else:
        symbols = [int(payload[i : i + width], 16) for i in range(0, len(payload), width)]
    labels = [b + 1 for b, _ in code._slots[node]]
    return NodeContents(node=node, symbols=tuple(zip(labels, symbols))), kappa


def _node_contents_from_v1_text(text: str) -> tuple[NodeContents, Optional[int]]:
    """Parse an old-format node file, block labels and all."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValidationError("empty node file")
    head = lines[0].split()
    if len(head) not in (2, 4):
        raise ValidationError(f"bad node header {lines[0]!r}")
    try:
        node, alpha = int(head[0]), int(head[1])
    except ValueError:
        raise ValidationError(f"bad node header {lines[0]!r}") from None
    kappa: Optional[int] = None
    if len(head) == 4:
        if head[2] != "precoded=1" or not head[3].startswith("kappa="):
            raise ValidationError(f"bad node header {lines[0]!r}")
        try:
            kappa = int(head[3][len("kappa=") :])
        except ValueError:
            raise ValidationError(f"bad kappa in header {lines[0]!r}") from None
    if len(lines) - 1 != alpha:
        raise ValidationError(f"node {node}: header says {alpha} symbols, file has {len(lines) - 1}")
    symbols = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise ValidationError(f"line {lineno}: expected 'block hex', got {ln!r}")
        try:
            b = int(parts[0])
            sym = int(parts[1], 16)
        except ValueError:
            raise ValidationError(f"line {lineno}: expected 'block hex', got {ln!r}") from None
        if b < 1:
            raise ValidationError(f"line {lineno}: block index {b} must be >= 1")
        symbols.append((b, sym))
    return NodeContents(node=node, symbols=tuple(symbols)), kappa
