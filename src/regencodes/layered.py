"""Layered codes: block-local MDS codewords scattered over n storage nodes.

The data splits into one message of r-m symbols per design block, in block
order; block i carries data[i*(r-m):(i+1)*(r-m)]. Each block's (r, r-m)
codeword is spread over the block's members in ascending node order, one
symbol per member. Any k = n-m nodes reconstruct everything (each block
keeps >= r-m symbols), and up to m simultaneous failures are repaired
exactly from any d >= k helpers, group by group.

A node holds its column (gf.py: bytes for w <= 8, else a tuple), one
symbol per slot, blocks ascending. The codewords sit in one block-major
list: entry b*r + pos is position pos of block b and belongs to the node
that the design's members list in that place. Since a node meets its
entries in block order, one walk over those members moves symbols between
the nodes' columns and that list in either direction.

The per-entry bookkeeping runs in C on the members as one str, one character
per entry whose code point is its node id (ids pass 255, and on a t = 1
design the surrogates 0xD800-0xDFFF, so not bytes). A command gives each
node one role (given, lost, or neither when absent), and one str.translate
of that string gives every entry's role; the blocks whose members have the
same roles are a group. A decode ranks the r positions once, by how many
of its blocks hold them given (most first, ties to the lower position),
and each group's first r-m given positions in that rank are its chosen
set. The groups with the same chosen set are a batch: one
MdsCodec.decode_many call through the chosen set returns the positions any
of its groups checks or needs, and each group compares its further given
symbols with its own share and takes the positions the command needs from
it. Since most blocks hold the top-ranked positions, groups whose lowest
given positions differ still share a batch. Whether a block's given
symbols agree does not depend on the chosen set; which position a
mismatch names does. So on a mismatch the lowest inconsistent block alone
is decoded again through its lowest r-m given positions, and raises
"block B: mismatch seen at position P (node X)" for the first position
that disagrees, as a block-by-block decode would. Repair joins the member
characters of each role class's read positions and counts each helper in
them with str.count, and picks each failed node's column out of the
block-major list through a translate of the members that marks that
node's entries.

A node file is the header `v2 NODE ALPHA crc=XXXXXXXX [kappa=K]` and the
column as one line of fixed-width lowercase hex; crc is zlib.crc32 of that
line. The code fixes the header; kappa=K is there exactly when its field is
an extension field (a precoded code's). A bad header, alpha, payload length
or digit raises ValidationError; then a checksum mismatch raises
IntegrityError naming the node; then a wrong kappa token raises
ValidationError, all before any decode.
"""

from __future__ import annotations

import sys
import zlib
from array import array
from collections import defaultdict
from functools import cached_property
from itertools import chain, compress, repeat
from math import lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from .designs import BlockDesign, complete_design, design_stats, verify_steiner
from .errors import IntegrityError, SymbolMismatch, ValidationError
from .gf import binary_field, check_symbols
from .mds import MdsCodec, gather, mds_codec
from .record import Record

GIVEN, LOST = 1, 2  # a position's role in _groups; 0 is neither
_UTF32 = f"utf-32-{sys.byteorder[0]}e"  # array("I") items are native-order 32-bit words


class SystemParams(Record):
    n: int  # storage nodes
    k: int  # any k nodes reconstruct the data
    d: int  # helpers contacted per repair
    e: int  # design point: simultaneous failures the bandwidth targets
    m: int  # per-group erasure budget; groups are (r, r-m) MDS
    r: int  # group size
    t: int  # covering order of the block design

    def __init__(self, n: int, k: int, d: int, e: int, m: int, r: int, t: int) -> None:
        if min(n, k, d, e, m, r, t) < 1:
            raise ValidationError("all system parameters must be >= 1")
        if not e <= m < r <= n:
            raise ValidationError(f"need e <= m < r <= n, got e={e} m={m} r={r} n={n}")
        if t > r:
            raise ValidationError(f"need t <= r, got t={t} r={r}")
        if k != n - m:
            raise ValidationError(f"need k = n - m, got k={k} n-m={n - m}")
        if not k <= d <= n - e:
            raise ValidationError(f"need k <= d <= n - e, got k={k} d={d} n-e={n - e}")
        vars(self).update(n=n, k=k, d=d, e=e, m=m, r=r, t=t)


class NodeContents(NamedTuple):
    node: int
    symbols: Sequence[int]  # the node's column: one symbol per slot, blocks ascending

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
        # block-major entry j (position j % r of block j // r) belongs to node _members[j]
        self._members = list(chain.from_iterable(design.blocks))

    @property
    def n(self) -> int:
        return self.params.n

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
        by_node, k = self._index_contents(contents), self.params.k
        if len(by_node) < k:
            raise ValidationError(f"need at least k={k} distinct nodes, got {len(by_node)}")
        return self._data(by_node, self._groups(dict.fromkeys(by_node, GIVEN)))

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
        1 <= |failed| <= m, helpers disjoint from failed, |helpers| >= n-m = k.
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
            raise ValidationError(f"repair needs at least n-m = {p.k} helpers, got {len(helpers_t)}")
        by_node = self._index_contents(state)
        missing = [h for h in helpers_t if h not in by_node]
        if missing:
            raise ValidationError(f"helper contents missing for nodes {missing}")

        r, km = p.r, self.codec.dimension
        roles = {**dict.fromkeys(helpers_t, GIVEN), **dict.fromkeys(failed_t, LOST)}
        affected = {key: blocks for key, blocks in self._groups(roles).items() if LOST in key}
        # member characters of the affected blocks' helper symbols per role class (s lost,
        # h held): the r-m lowest, which naive reads, and the rest, counted per class and priced
        read: defaultdict[tuple[int, int], list] = defaultdict(list)
        rest: defaultdict[tuple[int, int], list] = defaultdict(list)
        # each position's members over the affected blocks, group by group
        members = gather([b for blocks in affected.values() for b in blocks])
        at_pos = ["".join(members(self._member_chars[pos::r])) for pos in range(r)]
        lo = 0  # each group's offset in at_pos
        for key, blocks in affected.items():  # in order of their lowest blocks
            hi = lo + len(blocks)
            held = [pos for pos, role in enumerate(key) if role == GIVEN]
            sh = key.count(LOST), len(held)
            read[sh] += [at_pos[pos][lo:hi] for pos in held[:km]]
            rest[sh] += [at_pos[pos][lo:hi] for pos in held[km:]]
            lo = hi

        full = self._decode(self._block_major({h: by_node[h] for h in helpers_t}), affected)

        from fractions import Fraction

        from .bandwidth import BandwidthReport

        # (symbols read, further symbols held) per helper, in helpers_t order, per role class
        tally = {}
        for sh, chars in read.items():
            reads, rests = "".join(chars), "".join(rest[sh])
            tally[sh] = [(reads.count(c), rests.count(c)) for c in map(chr, helpers_t)]
        den = lcm(*(h - km + s for s, h in tally))  # one denominator for every msmr share
        msmr, naive, lnaive = {}, {}, {}
        for i, x in enumerate(helpers_t):
            msmr[x] = Fraction(sum(sum(c[i]) * s * den // (h - km + s)
                                   for (s, h), c in tally.items()), den)
            naive[x] = Fraction(sum(c[i][0] for c in tally.values()))
            lnaive[x] = Fraction(sum(c[i][0] * s for (s, _), c in tally.items()))
        report = BandwidthReport(failed_t, helpers_t, msmr=msmr, naive=naive, layered_naive=lnaive)
        return [self._column(full, x) for x in failed_t], report

    # -- extension ---------------------------------------------------------------

    def extend(
        self, state: Iterable[NodeContents], new_data: Sequence[int]
    ) -> tuple["LayeredCode", list[NodeContents]]:
        """Grow (k+e, k, k, e) into (k+e+1, k, k, e+1) without touching old symbols.

        Appends node n+1 to every block and one new block over the old nodes. The
        reconstruct decode checks every stored symbol, then the new code encodes the
        old data and new_data: its first r evaluation points are the old ones, so old
        node contents stay literal prefixes of their new contents. Requires the
        complete layout n = k+e, d = k, t = r = k+e-1.
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

        new_blocks = [block + (p.n + 1,) for block in self.design.blocks]
        new_blocks.append(tuple(range(1, p.n + 1)))
        new_design = BlockDesign(n=p.n + 1, r=p.r + 1, t=p.t + 1, blocks=tuple(new_blocks))
        new_params = SystemParams(
            n=p.n + 1, k=p.k, d=p.d, e=p.e + 1, m=p.m + 1, r=p.r + 1, t=p.t + 1
        )
        new_code = LayeredCode(new_params, new_design, self.field)
        check_symbols(self.field, new_data, "symbol {!r} is not a field element")
        data = self._data(by_node, self._groups(dict.fromkeys(by_node, GIVEN)))
        return new_code, new_code.encode([*data, *new_data])

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

    def _data(self, by_node, groups: dict[bytes, list[int]]) -> list[int]:
        """The data the nodes' columns hold, from one batched decode of the groups (_groups),
        every GIVEN symbol checked; a GIVEN position whose node is absent reads as zero."""
        r, km = self.params.r, self.codec.dimension
        full = self._decode(self._block_major(by_node), groups, keep=range(km))
        data = [0] * self.data_len
        for i in range(km):
            data[i::km] = full[i::r]
        return data

    @cached_property
    def _member_chars(self) -> str:
        """_members as one str: one character per entry, whose code point is its node id."""
        # surrogatepass: a t = 1 design's node ids pass 0xD800, which no codec takes otherwise
        return array("I", self._members).tobytes().decode(_UTF32, "surrogatepass")

    def _block_major(self, by_node) -> list:
        """The nodes' columns as one block-major list, zeros for absent nodes."""
        zeros = repeat(0)
        slots = [iter(by_node[x]) if x in by_node else zeros for x in range(self.params.n + 1)]
        # faster on CPython 3.11 than list(map(next, map(slots.__getitem__, ...))) (CHANGES.md)
        return [next(slots[x]) for x in self._members]

    def _groups(self, roles: dict[int, int]) -> dict[bytes, list]:
        """Blocks by their members' roles (absent: 0)."""
        table = [chr(roles.get(x, 0)) for x in range(self.params.n + 1)]  # node id -> its role
        by_entry, r = self._member_chars.translate(table).encode("ascii"), self.params.r
        groups: defaultdict[bytes, list[int]] = defaultdict(list)
        for b, key in enumerate([by_entry[i : i + r] for i in range(0, len(by_entry), r)]):
            groups[key].append(b)
        return dict(groups)

    def _decode(self, full: list, groups: dict[bytes, list[int]], keep: Iterable[int] = ()) -> list:
        """Decode the groups' LOST and keep positions into the block-major list full,
        checking every GIVEN symbol of those groups: one decode_many per chosen set, the
        first r-m GIVEN positions in one rank of the positions (module docstring)."""
        r, km, column = self.params.r, self.codec.dimension, self.field.column
        # the positions ranked once: most held GIVEN over the decoded blocks first, ties to
        # the lower position
        held = [0] * r
        for key, blocks in groups.items():
            for pos in range(r):
                if key[pos] == GIVEN:
                    held[pos] += len(blocks)
        rank = sorted(range(r), key=held.__getitem__, reverse=True)  # stable: ties keep order
        # the groups by their chosen positions, their first r-m GIVEN ones in rank, in order
        # of first appearance: (known, out, blocks) per group, known its GIVEN positions in
        # rank and out the positions it decodes
        batches: defaultdict[tuple, list] = defaultdict(list)
        for key, blocks in groups.items():
            known = [pos for pos in rank if key[pos] == GIVEN]
            out = [pos for pos, role in enumerate(key) if role == LOST or not role and pos in keep]
            batches[tuple(sorted(known[:km]))].append((known, out, blocks))
        # the blocks batch by batch, group by group, one column per position
        to_order = gather([b for batch in batches.values() for *_, blocks in batch for b in blocks])
        by_pos = [column(to_order(full[pos::r])) for pos in range(r)]
        mismatches = []  # (first inconsistent block, its GIVEN positions) per failing check
        start = 0
        for chosen, batch in batches.items():
            end = start + sum(len(blocks) for *_, blocks in batch)
            wanted = {pos for known, out, _ in batch for pos in chain(known[km:], out)}
            cols = self.codec.decode_many(chosen, [by_pos[pos][start:end] for pos in chosen], wanted)
            lo = 0  # each group's offset in the batch
            for known, out, blocks in batch:
                hi = lo + len(blocks)
                for pos in known[km:]:
                    have, got = by_pos[pos][start + lo : start + hi], cols[pos][lo:hi]
                    if have != got:
                        i = next(i for i, (u, v) in enumerate(zip(have, got)) if u != v)
                        mismatches.append((blocks[i], known))
                for pos in out:
                    for b, v in zip(blocks, cols[pos][lo:hi]):
                        full[b * r + pos] = v
                lo = hi
            start = end
        if mismatches:
            # the lowest inconsistent block alone, through its lowest r-m GIVEN positions
            b, known = min(mismatches)
            try:
                self.codec.decode({pos: full[b * r + pos] for pos in sorted(known)})
            except SymbolMismatch as e:
                x = self.design.blocks[b][e.position]
                raise IntegrityError(
                    f"block {b + 1}: mismatch seen at position {e.position} (node {x})") from None
        return full

    def _contents(self, full: Sequence[int], nodes: Iterable[int]) -> list[NodeContents]:
        """The nodes' contents, in the order given, read from a completed block-major list."""
        cols = [[] for _ in range(self.params.n + 1)]
        add = [col.append for col in cols]
        for x, symbol in zip(self._members, full):
            add[x](symbol)
        return [NodeContents(x, self.field.column(cols[x])) for x in nodes]

    def _column(self, full: Sequence[int], x: int) -> NodeContents:
        """Node x's contents alone, picked from a completed block-major list by its members."""
        pick = ["\0"] * (self.params.n + 1)
        pick[x] = "\1"
        mine = self._member_chars.translate(pick).encode()  # 1 at x's entries, 0 elsewhere
        return NodeContents(x, self.field.column(compress(full, mine)))


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


def _lower_hex(text: str) -> Optional[bytes]:
    """text encoded, when it holds only the digits 0-9a-f; else None. isascii is O(1) on a
    str and translate deletes the digits in C, so a payload is checked without a set."""
    if text.isascii():
        raw = text.encode()
        if not raw.translate(None, b"0123456789abcdef"):
            return raw
    return None


def _header_kappa(code) -> Optional[int]:
    """The kappa token a node file of the code carries: its extension field's, else none."""
    return getattr(code.field, "kappa", None)


def node_contents_to_text(nc: NodeContents, code) -> str:
    """A node file of the code, layered or precoded: the v2 header, then one hex line."""
    width, symbols, kappa = code.field.hex_width, nc.symbols, _header_kappa(code)
    payload = bytes(symbols).hex() if width == 2 else "".join(f"{s:0{width}x}" for s in symbols)
    head = f"v2 {nc.node} {nc.alpha} crc={zlib.crc32(payload.encode()):08x}"
    if kappa is not None:
        head += f" kappa={kappa}"
    return f"{head}\n{payload}\n"


def node_contents_from_text(text: str, code, path=None) -> NodeContents:
    """Parse one node file of the code (layered or precoded).

    Structural faults raise ValidationError, prefixed with the path (if given) when found before
    the node id; a payload that fails its checksum raises IntegrityError; a kappa token other
    than the code's then raises ValidationError.
    """
    at = "" if path is None else f"{path}: "
    if text.split(None, 1)[:1] != ["v2"]:
        raise ValidationError(f"{at}node file is not v2; the pre-v2 layout is no longer read")
    lines = text.splitlines()
    if len(lines) != 2:
        raise ValidationError(f"{at}node file must be a header and a payload line, not {len(lines)}")
    head, payload = lines
    tokens = head.split()
    if not (
        len(tokens) in (4, 5)
        and tokens[3].startswith("crc=")
        and (len(tokens) == 4 or tokens[4].startswith("kappa="))
    ):
        raise ValidationError(f"{at}bad node header {head!r}")
    try:
        node, alpha = int(tokens[1]), int(tokens[2])
        kappa = int(tokens[4][len("kappa=") :]) if len(tokens) == 5 else None
    except ValueError:
        raise ValidationError(f"{at}bad node header {head!r}") from None
    crc = tokens[3][len("crc=") :]
    if len(crc) != 8 or _lower_hex(crc) is None:
        raise ValidationError(f"node {node}: bad checksum token {tokens[3]!r}")
    if not 1 <= node <= code.n:
        raise ValidationError(f"node id {node} out of range 1..{code.n}")
    if alpha != code.alpha:
        raise ValidationError(f"node {node}: header says alpha={alpha}, the code has {code.alpha}")
    width = code.field.hex_width
    if len(payload) != alpha * width:
        raise ValidationError(
            f"node {node}: payload holds {len(payload)} hex digits, "
            f"expected alpha x {width} = {alpha * width}"
        )
    raw = _lower_hex(payload)
    if raw is None:
        raise ValidationError(f"node {node}: payload holds a character other than 0-9a-f")
    if zlib.crc32(raw) != int(crc, 16):
        raise IntegrityError(f"node {node}: payload fails its checksum crc={crc}")
    expected = _header_kappa(code)
    if kappa != expected:
        who = f"node {node}:" if path is None else path
        raise ValidationError(f"{who} kappa header {kappa} disagrees with the code ({expected})")
    symbols = bytes.fromhex(payload) if width == 2 else code.field.column(
        int(payload[i : i + width], 16) for i in range(0, len(payload), width))
    return NodeContents(node, symbols)
