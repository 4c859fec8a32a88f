"""Layered codes: block-local MDS codewords scattered over n storage nodes.

The data splits into one message of r-m symbols per design block, in block
order; block i carries data[i*(r-m):(i+1)*(r-m)]. Each block's (r, r-m)
codeword is spread over the block's members in ascending node order, one
symbol per member. Any k = n-m nodes reconstruct everything (each block
keeps >= r-m symbols), and up to m simultaneous failures are repaired
exactly from any d >= k helpers, group by group.

Node contents serialize to a small text format: a header line
`node alpha [precoded=1 kappa=K]`, then one `block_index hex_symbol` line
per stored symbol, in ascending block order. Every entry point checks the
block indices against the design and rejects lines out of that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .bandwidth import BandwidthReport
from .designs import BlockDesign, complete_design, design_stats, verify_steiner
from .errors import IntegrityError, SymbolMismatch, ValidationError
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
        km = self.codec.dimension
        codewords = [
            self.codec.encode(data[b * km : (b + 1) * km]) for b in range(self.block_count)
        ]
        return [
            self._node(x, [codewords[b][pos] for b, pos in self._slots[x]])
            for x in range(1, self.params.n + 1)
        ]

    def reconstruct(self, contents: Iterable[NodeContents]) -> list[int]:
        """Recover the data from any >= k distinct nodes' contents."""
        by_node = self._index_contents(contents)
        if len(by_node) < self.params.k:
            raise ValidationError(
                f"need at least k={self.params.k} distinct nodes, got {len(by_node)}"
            )
        per_block = self._gather(by_node)
        data: list[int] = []
        km = self.codec.dimension
        for b in range(self.block_count):
            data.extend(self._decode(b, per_block[b])[:km])
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
        msmr = {h: Fraction(0) for h in helpers_t}
        naive = {h: Fraction(0) for h in helpers_t}
        lnaive = {h: Fraction(0) for h in helpers_t}
        rebuilt: dict[int, dict[int, int]] = {x: {} for x in failed_t}  # node -> block -> symbol
        per_block = self._gather({h: by_node[h] for h in helpers_t})

        for b, block in enumerate(self.design.blocks):
            lost = [x for x in block if x in rebuilt]
            s = len(lost)
            if s == 0:
                continue
            provided = per_block[b]
            h_cnt = len(provided)
            if h_cnt < km:
                raise IntegrityError(
                    f"block {block} holds {h_cnt} helper symbols, fewer than r-m={km}"
                )
            cw = self._decode(b, provided)
            for x in lost:
                rebuilt[x][b] = cw[block.index(x)]
            share = Fraction(s, h_cnt - km + s)
            readers = set(sorted(provided)[:km])
            for pos, x in enumerate(block):
                if pos in provided:
                    msmr[x] += share
                if pos in readers:
                    naive[x] += 1
                    lnaive[x] += s

        out = [self._node(x, [rebuilt[x][b] for b, _ in self._slots[x]]) for x in failed_t]
        report = BandwidthReport(
            failed=failed_t, helpers=helpers_t, msmr=msmr, naive=naive, layered_naive=lnaive
        )
        return out, report

    # -- extension ---------------------------------------------------------------

    def extend(
        self, state: Iterable[NodeContents], new_data: Sequence[int]
    ) -> tuple["LayeredCode", list[NodeContents]]:
        """Grow (k+e, k, k, e) into (k+e+1, k, k, e+1) without touching old symbols.

        Appends node n+1 to every block and one new block over the old nodes;
        each old codeword gains one evaluation point (stored on the new node)
        and the new block encodes new_data. Old node contents stay literal
        prefixes of their new contents. Requires the complete t = r = k+e-1
        layout, i.e. n = k+e, d = k.
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
        if not verify_steiner(new_design):
            raise IntegrityError("extended design is not the complete design")
        new_params = SystemParams(
            n=p.n + 1, k=p.k, d=p.d, e=p.e + 1, m=p.m + 1, r=p.r + 1, t=p.t + 1
        )
        new_codec = self.codec.extended((self.field.element(p.r),))
        new_code = LayeredCode(new_params, new_design, self.field)
        if new_code.codec.points != new_codec.points:
            raise IntegrityError("extended codec does not match the rebuilt layout")

        # messages sit on each block's first r-m members, unchanged
        tail_syms = [
            new_codec.encode([provided[pos] for pos in range(km)])[p.r]
            for provided in self._gather(by_node)
        ]
        last_cw = new_code.codec.encode(list(new_data))
        new_state = [
            new_code._node(x, by_node[x] + (last_cw[x - 1],)) for x in range(1, p.n + 1)
        ]
        new_state.append(new_code._node(new_node, tail_syms))
        return new_code, new_state

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

    def _gather(self, by_node: Mapping[int, Sequence[int]]) -> list[dict[int, int]]:
        """Per-block {position: symbol} maps from slot-order symbol tuples."""
        per_block: list[dict[int, int]] = [{} for _ in range(self.block_count)]
        # ascending nodes fill each block in position order, so a decode
        # mismatch is reported the same whatever order the nodes came in
        for x, syms in sorted(by_node.items()):
            for (b, pos), sym in zip(self._slots[x], syms):
                per_block[b][pos] = sym
        return per_block

    def _decode(self, b: int, provided: Mapping[int, int]) -> list[int]:
        """Decode block b; a mismatch is reported with where it showed."""
        try:
            return self.codec.decode(provided)
        except SymbolMismatch as ex:
            x = self.design.blocks[b][ex.position]
            raise IntegrityError(
                f"block {b + 1}: mismatch seen at position {ex.position} (node {x})"
            ) from ex

    def _node(self, x: int, syms: Sequence[int]) -> NodeContents:
        labelled = tuple((b + 1, sym) for (b, _), sym in zip(self._slots[x], syms))
        return NodeContents(node=x, symbols=labelled)


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


# -- node-content text format ----------------------------------------------------


def node_contents_to_text(nc: NodeContents, hex_width: int, kappa: Optional[int] = None) -> str:
    head = f"{nc.node} {nc.alpha}"
    if kappa is not None:
        head += f" precoded=1 kappa={kappa}"
    lines = [head]
    lines.extend(f"{b} {sym:0{hex_width}x}" for b, sym in nc.symbols)
    return "\n".join(lines) + "\n"


def node_contents_from_text(text: str) -> tuple[NodeContents, Optional[int]]:
    """Parse a node file; returns (contents, kappa or None)."""
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
