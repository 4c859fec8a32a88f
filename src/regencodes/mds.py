"""Systematic MDS codes from polynomial evaluation (Reed-Solomon style).

A codec of length L and dimension K fixes L distinct evaluation points in a
field of characteristic 2. The message is the value list of a degree-<K
polynomial at the first K points; the codeword is its evaluation at all L
points, so the message is a literal prefix of the codeword and any K
positions determine the rest.

The generator rows through K positions hold Lagrange weights in barycentric
form: one weight w_i = 1 / prod_{j != i} (x_i - x_j) per chosen point, and
row(x)_i = l(x) w_i / (x - x_i) with l(x) = prod_j (x - x_j). Every factor
is a difference of points, so each entry is one exp of a sum of logs:
log row(x_p)_i = sum_j L[p][j] - L[p][i] + lw_i mod (q - 1), with
L[a][b] = log(x_a - x_b) and lw_i = -sum_{j != i} L[i][j]. The logs are
those of the field's table field (gf.py), GF(q): the field itself, or an
extension field's subfield (extfield.py), whose copy must hold the points;
a codec with a point outside it is refused. The codec builds the L table
once. A row then gathers its K logs from L in one C call and sums them,
and each entry costs a few additions and one lookup, plus its embedding
into the field when the table field is a subfield. Rows are built as they
are asked for and kept per position set (generator).

All coding runs on columns (gf.py): decode_many applies one set of rows to
a whole batch of codewords, one column per position, and returns only the
positions asked for; the per-symbol encode and decode are its batch of one.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .errors import SymbolMismatch, ValidationError
from .gf import check_symbols
from .record import Record


def gather(indices: Sequence[int]):
    """seq -> the tuple of seq's items at the indices, in one C call."""
    get = itemgetter(*indices)
    return get if len(indices) != 1 else lambda seq: (get(seq),)


class MdsCodec(Record):
    field: object
    length: int
    dimension: int
    points: tuple[int, ...]

    def __init__(self, field, length: int, dimension: int, points: tuple[int, ...]) -> None:
        if not 1 <= dimension <= length:
            raise ValidationError(
                f"codec needs 1 <= dimension <= length, got ({length}, {dimension})"
            )
        if len(points) != length:
            raise ValidationError("need exactly one evaluation point per position")
        if len(set(points)) != length:
            raise ValidationError("evaluation points must be distinct")
        # the points as table-field elements, whose logs build the rows; _generators maps
        # sorted positions to their generator rows, None where not built yet; _rows() fills it
        vars(self).update(field=field, length=length, dimension=dimension, points=points,
                          _table_points=tuple(map(field.table_element, points)), _generators={})

    @cached_property
    def _log_diffs(self) -> list[list[int]]:
        """[a][b] = log(x_a - x_b) in the table field for a != b; zero on the diagonal."""
        log, points = self.field.table_field.logs, self._table_points
        # in characteristic 2, subtraction is XOR
        return [[log[a ^ b] if a != b else 0 for b in points] for a in points]

    def generator(self, positions: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        """Generator rows through `dimension` ascending positions, one per position.

        Every codeword c has c[pos] = sum_i rows[pos][i] c[positions[i]], so
        the row of a chosen position is its unit vector. Kept for the life
        of the codec.
        """
        return self._rows(tuple(positions), range(self.length))

    def _rows(self, key: tuple[int, ...], wanted: Iterable[int]) -> tuple:
        """The rows through key with at least the wanted ones built (the rest may be None)."""
        rows = self._generators.get(key)
        if rows is None:
            if len(key) != self.dimension or not all(
                0 <= a < b for a, b in zip(key, key[1:] + (self.length,))
            ):
                raise ValidationError(
                    f"need {self.dimension} ascending positions below {self.length}, got {key}"
                )
            rows = (None,) * self.length
        missing = [pos for pos in wanted if rows[pos] is None]
        if not missing:
            return rows
        f, logs, pick = self.field, self._log_diffs, gather(key)
        table = f.table_field
        exps, cycle = table.exps, table.order - 1
        # lw_i = log w_i; entry i of the row at pos is exp(log l(x_pos) - L[pos][i] + lw_i)
        lws = [-sum(pick(logs[i])) for i in key]
        rows = list(rows)
        for pos in missing:
            if pos in key:
                rows[pos] = tuple(f.one if p == pos else f.zero for p in key)
                continue
            at = pick(logs[pos])
            ell = sum(at)  # the log of l(x_pos)
            row = [exps[(ell - a + lw) % cycle] for a, lw in zip(at, lws)]
            rows[pos] = tuple(row if table is f else map(f.embed, row))
        self._generators[key] = rows = tuple(rows)
        return rows

    def decode_many(self, chosen: Iterable[int], columns: Sequence,
                    wanted: Optional[Iterable[int]] = None) -> list:
        """The wanted columns (default: all) of a batch of codewords from `dimension` of them.

        chosen holds `dimension` ascending positions, and columns[i] is the
        field's column (gf.py) of position chosen[i] across the batch. The
        chosen columns come back as given, every other wanted one as their
        combination by the generator rows through chosen, and None at the
        positions not wanted; only the wanted rows are built. The caller
        checks that the columns hold field elements and compares any
        further symbols it has with the result.
        """
        chosen = tuple(chosen)
        wanted = set(range(self.length) if wanted is None else wanted).difference(chosen)
        if wanted and not 0 <= min(wanted) <= max(wanted) < self.length:
            raise ValidationError(f"wanted positions must lie below {self.length}, got {wanted}")
        rows = self._rows(chosen, wanted)
        if len(columns) != self.dimension or len({len(c) for c in columns}) != 1:
            raise ValidationError(
                f"need {self.dimension} columns of one length, "
                f"got lengths {[len(c) for c in columns]}"
            )
        given, lincomb = dict(zip(chosen, columns)), self.field.lincomb
        return [
            lincomb(rows[pos], columns) if pos in wanted else given.get(pos)
            for pos in range(self.length)
        ]

    def encode(self, message: Sequence[int]) -> list[int]:
        """Message -> full codeword (message prefix + parity); a batch of one."""
        f = self.field
        if len(message) != self.dimension:
            raise ValidationError(f"message must have {self.dimension} symbols, got {len(message)}")
        check_symbols(f, message, "symbol {!r} is not a field element")
        cols = self.decode_many(range(self.dimension), [f.column((s,)) for s in message])
        return [col[0] for col in cols]

    def decode(self, available: Mapping[int, int]) -> list[int]:
        """Recover the full codeword from >= dimension positions; a batch of one.

        Interpolates through the lowest `dimension` provided positions, then
        checks every provided symbol against the result; a mismatch means the
        inputs are not a codeword restriction and raises SymbolMismatch, an
        IntegrityError that carries the position.
        """
        f = self.field
        for pos, sym in available.items():
            if not 0 <= pos < self.length:
                raise ValidationError(f"position {pos} out of range for length {self.length}")
            if not f.contains(sym):
                raise ValidationError(f"symbol {sym!r} is not a field element")
        if len(available) < self.dimension:
            raise ValidationError(
                f"need at least {self.dimension} positions to decode, got {len(available)}"
            )
        chosen = sorted(available)[: self.dimension]
        cols = self.decode_many(chosen, [f.column((available[p],)) for p in chosen])
        cw = [col[0] for col in cols]
        for pos, sym in available.items():
            if cw[pos] != sym:
                raise SymbolMismatch(pos)
        return cw


def mds_codec(field, length: int, dimension: int) -> MdsCodec:
    """Codec over the field's canonical points 0..length-1."""
    points = tuple(field.element(i) for i in range(length))
    return MdsCodec(field, length, dimension, points)
