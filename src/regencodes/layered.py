"""Layered codes: block-local MDS codewords scattered over n storage nodes.

The data splits into one message of r-m symbols per design block, in block
order; block i carries data[i*(r-m):(i+1)*(r-m)]. Each block's (r, r-m)
codeword is spread over the block's members in ascending node order, one
symbol per member. Any k = n-m nodes reconstruct everything (each block
keeps >= r-m symbols), and up to m simultaneous failures are repaired
exactly from any d >= k helpers, group by group.

A node holds its column (gf.py: bytes for w <= 8, else a tuple), one
symbol per slot, blocks ascending. One slot map permutes node-major order
(node 1's column, then node 2's, ...) into block-major order (entry b*r +
pos is position pos of block b), by itemgetter gathers. Blocks are grouped
by the roles of their positions (given, lost, neither): a group is one
MdsCodec.decode_many call through its lowest r-m given positions, and each
further given position is one column compared with the decoded one. On a
mismatch the lowest such block raises "block B: mismatch seen at position
P (node X)" for its first mismatching position, as a block-by-block decode
would.

A node file is the header `v2 NODE ALPHA crc=XXXXXXXX [kappa=K]` and the
column as one line of fixed-width lowercase hex; crc is zlib.crc32 of that
line. A bad header, alpha, payload length or digit raises ValidationError;
then a checksum mismatch raises IntegrityError naming the node, before any
decode. The old format, a `node alpha [precoded=1 kappa=K]` header and one
`block_index hex_symbol` line per symbol, is still read, never written;
its labels must match the code's slots.
"""

from __future__ import annotations

import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .bandwidth import BandwidthReport
from .designs import BlockDesign, complete_design, design_stats, verify_steiner
from .errors import IntegrityError, ValidationError
from .gf import binary_field, check_symbols
from .mds import MdsCodec, mds_codec

GIVEN, LOST = 1, 2  # a position's role in _groups; 0 is neither


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
    symbols: Sequence[int]  # the node's column: one symbol per slot, blocks ascending

    @property
    def alpha(self) -> int:
        return len(self.symbols)


def _gather(indices: Sequence[int]):
    """seq -> the tuple of seq's items at the indices."""
    get = itemgetter(*indices)
    return get if len(indices) != 1 else lambda seq: (get(seq),)


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
        # the slot map: node-major entry i (slot i % alpha of its node) is block-major _slots[i]
        by_node: list[list[int]] = [[] for _ in range(params.n + 1)]
        for i, x in enumerate(chain.from_iterable(design.blocks)):
            by_node[x].append(i)
        for x in range(1, params.n + 1):
            if len(by_node[x]) != self.alpha:
                raise ValidationError(
                    f"node {x} sits in {len(by_node[x])} blocks, expected alpha={self.alpha}"
                )
        self._slots = list(chain.from_iterable(by_node))

    @cached_property
    def _to_blocks(self):
        """Node-major sequence -> block-major tuple, the slot map's inverse (encode needs none)."""
        return _gather(sorted(range(len(self._slots)), key=self._slots.__getitem__))

    # -- encoding / reconstruction -------------------------------------------

    def encode(self, data: Sequence[int]) -> list[NodeContents]:
        """Data -> contents of all n nodes, ordered by node id."""
        if len(data) != self.data_len:
            raise ValidationError(f"data must have {self.data_len} symbols, got {len(data)}")
        check_symbols(self.field, data, "symbol {!r} is not a field element")
        r, km, column = self.params.r, self.codec.dimension, self.field.column
        # every message sits at positions 0..r-m-1: one batch, nothing to check
        cols = self.codec.decode_many(range(km), [column(data[i::km]) for i in range(km)])
        full = [0] * (self.block_count * r)
        for pos, col in enumerate(cols):
            full[pos::r] = col
        return self._contents(full, range(1, self.params.n + 1))

    def reconstruct(self, contents: Iterable[NodeContents]) -> list[int]:
        """Recover the data from any >= k distinct nodes' contents."""
        by_node = self._index_contents(contents)
        r, k, km = self.params.r, self.params.k, self.codec.dimension
        if len(by_node) < k:
            raise ValidationError(f"need at least k={k} distinct nodes, got {len(by_node)}")
        groups = self._groups(dict.fromkeys(by_node, bytes([GIVEN]) * self.alpha))
        full = self._decode(self._node_major(by_node), groups, list(groups))
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
        roles = {**dict.fromkeys(helpers_t, GIVEN), **dict.fromkeys(failed_t, LOST)}
        groups = self._groups({x: bytes([role]) * self.alpha for x, role in roles.items()})
        affected = [key for key in groups if LOST in key]
        # integer tallies per role pattern, priced once: held_by[s, h] counts helper symbols in
        # affected blocks that lost s and keep h, read_by[s] the r-m lowest, which naive reads
        held_by: defaultdict[tuple[int, int], Counter] = defaultdict(Counter)
        read_by: defaultdict[int, Counter] = defaultdict(Counter)
        for key in affected:  # in order of their lowest blocks
            held = [pos for pos, role in enumerate(key) if role == GIVEN]
            if len(held) < km:
                raise IntegrityError(f"block {self.design.blocks[groups[key][0]]} holds "
                                     f"{len(held)} helper symbols, fewer than r-m={km}")
            members = list(zip(*map(self.design.blocks.__getitem__, groups[key])))  # by position
            s = key.count(LOST)
            read = Counter(chain.from_iterable(members[pos] for pos in held[:km]))
            read_by[s].update(read)
            held_by[s, len(held)].update(read)
            held_by[s, len(held)].update(chain.from_iterable(members[pos] for pos in held[km:]))

        full = self._decode(self._node_major({h: by_node[h] for h in helpers_t}), groups, affected)

        msmr = dict.fromkeys(helpers_t, Fraction(0))
        for (s, h_cnt), held in held_by.items():
            for x, count in held.items():
                msmr[x] += Fraction(count * s, h_cnt - km + s)
        naive = dict.fromkeys(helpers_t, Fraction(0))
        lnaive = dict.fromkeys(helpers_t, Fraction(0))
        for s, read in read_by.items():
            for x, count in read.items():
                naive[x] += count
                lnaive[x] += count * s
        report = BandwidthReport(failed_t, helpers_t, msmr=msmr, naive=naive, layered_naive=lnaive)
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
        as in reconstruct. Requires the complete layout n = k+e, d = k,
        t = r = k+e-1.
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
        check_symbols(self.field, new_data, "symbol {!r} is not a field element")

        # old codewords are prefixes of their new ones (same positions, points extended); the
        # new block, every old node's last slot, carries new_data on nodes 1..r-m. One decode
        # checks every stored symbol and codes the rest.
        given = {x: (*by_node[x], new_data[x - 1] if x <= km else 0) for x in by_node}
        roles = {x: bytes([GIVEN] * self.alpha + [GIVEN if x <= km else 0]) for x in by_node}
        groups = new_code._groups(roles)
        full = new_code._decode(new_code._node_major(given), groups, list(groups))
        return new_code, new_code._contents(full, range(1, new_node + 1))

    # -- helpers -----------------------------------------------------------------

    def _index_contents(self, contents: Iterable[NodeContents]) -> dict[int, Sequence[int]]:
        """Check each node against the code; node -> its column."""
        by_node: dict[int, Sequence[int]] = {}
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
            check_symbols(self.field, nc.symbols, f"node {x} holds a non-field symbol {{!r}}")
            by_node[x] = self.field.column(nc.symbols)
        return by_node

    def _node_major(self, by_node) -> list:
        """The nodes' columns back to back in node order, zeros for absent nodes."""
        zeros = (0,) * self.alpha
        return list(chain.from_iterable(by_node.get(x, zeros) for x in range(1, self.params.n + 1)))

    def _groups(self, roles: dict[int, bytes]) -> dict[bytes, list[int]]:
        """Blocks by the roles of their positions, from each node's slot roles (absent: 0)."""
        by_entry, r = bytes(self._to_blocks(self._node_major(roles))), self.params.r
        groups: dict[bytes, list[int]] = {}
        for b, key in enumerate([by_entry[i : i + r] for i in range(0, len(by_entry), r)]):
            groups.setdefault(key, []).append(b)
        return groups

    def _decode(self, given: Sequence[int], groups: dict[bytes, list[int]], wanted) -> list:
        """Node-major symbols -> block-major, the wanted groups' codewords completed.

        Checks every GIVEN symbol of those groups (module docstring).
        """
        r, km = self.params.r, self.codec.dimension
        column = self.field.column
        full = list(self._to_blocks(given))
        # the blocks group by group, the wanted groups first
        order = list(chain.from_iterable(groups[key] for key in wanted))
        done = len(order)
        order += chain.from_iterable(blocks for key, blocks in groups.items() if key not in wanted)
        to_order = _gather(order)
        by_pos = [to_order(full[pos::r]) for pos in range(r)]
        parts: list[list] = [[] for _ in range(r)]
        mismatches = []
        start = 0
        for key in wanted:
            blocks = groups[key]
            end = start + len(blocks)
            known = [pos for pos, role in enumerate(key) if role == GIVEN]
            chosen = [column(by_pos[pos][start:end]) for pos in known[:km]]
            cols = self.codec.decode_many(known[:km], chosen)
            for pos in known[km:]:
                have = column(by_pos[pos][start:end])
                if have != cols[pos]:
                    i = next(i for i, (u, v) in enumerate(zip(have, cols[pos])) if u != v)
                    mismatches.append((blocks[i], pos))
            for part, col in zip(parts, cols):
                part.append(col)
            start = end
        if mismatches:
            b, pos = min(mismatches)
            x = self.design.blocks[b][pos]
            raise IntegrityError(f"block {b + 1}: mismatch seen at position {pos} (node {x})")
        back = _gather(sorted(range(len(order)), key=order.__getitem__))
        for pos in range(r):
            full[pos::r] = back(list(chain(*parts[pos], by_pos[pos][done:])))
        return full

    def _contents(self, full: Sequence[int], nodes: Iterable[int]) -> list[NodeContents]:
        """The nodes' contents, read from a completed block-major list."""
        alpha, column = self.alpha, self.field.column
        return [
            NodeContents(x, column(_gather(self._slots[(x - 1) * alpha : x * alpha])(full)))
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
    """A node file: the v2 header, then the column as one fixed-width hex line."""
    width, symbols = hex_width, nc.symbols
    payload = bytes(symbols).hex() if width == 2 else "".join(f"{s:0{width}x}" for s in symbols)
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
        return _node_contents_from_v1_text(text, code)
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
    symbols = bytes.fromhex(payload) if width == 2 else code.field.column(
        int(payload[i : i + width], 16) for i in range(0, len(payload), width))
    return NodeContents(node, symbols), kappa


def _node_contents_from_v1_text(text: str, code: LayeredCode) -> tuple[NodeContents, Optional[int]]:
    """Parse an old-format node file; its block labels must match the code's slots."""
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
    labels, symbols = [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise ValidationError(f"line {lineno}: expected 'block hex', got {ln!r}")
        try:
            labels.append(int(parts[0]))
            symbols.append(int(parts[1], 16))
        except ValueError:
            raise ValidationError(f"line {lineno}: expected 'block hex', got {ln!r}") from None
        if labels[-1] < 1:
            raise ValidationError(f"line {lineno}: block index {labels[-1]} must be >= 1")
    if not (1 <= node <= code.params.n and alpha == code.alpha):
        return NodeContents(node, tuple(symbols)), kappa  # _index_contents names the fault
    for label, slot in zip(labels, code._slots[(node - 1) * alpha : node * alpha]):
        if label != slot // code.params.r + 1:
            raise ValidationError(
                f"node {node} lists block {label} where block {slot // code.params.r + 1} belongs"
            )
    check_symbols(code.field, symbols, f"node {node} holds a non-field symbol {{!r}}")
    return NodeContents(node, code.field.column(symbols)), kappa
