"""Systematic MDS codes from polynomial evaluation (Reed-Solomon style).

A codec of length L and dimension K fixes L distinct evaluation points in a
field of characteristic 2. The message is the value list of a degree-<K
polynomial at the first K points; the codeword is its evaluation at all L
points, so the message is a literal prefix of the codeword and any K
positions determine the rest.

The generator rows through K positions hold Lagrange weights in barycentric
form: one weight w_i = 1 / prod_{j != i} (x_i - x_j) per chosen point, and
row(x)_i = l(x) w_i / (x - x_i) with l(x) = prod_j (x - x_j), so a position
set costs K + (L-K) K inverses. The rows are built once per position set
and kept on the codec (generator).

All coding runs on columns (gf.py): decode_many applies one set of rows to
a whole batch of codewords, one column per position, and the per-symbol
encode and decode are its batch of one codeword.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Mapping, Sequence

from .errors import SymbolMismatch, ValidationError
from .gf import check_symbols


@dataclass(frozen=True)
class MdsCodec:
    field: object
    length: int
    dimension: int
    points: tuple[int, ...]

    # sorted positions -> generator rows, filled by generator()
    _generators: dict = dataclass_field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.dimension <= self.length:
            raise ValidationError(
                f"codec needs 1 <= dimension <= length, got ({self.length}, {self.dimension})"
            )
        if len(self.points) != self.length:
            raise ValidationError("need exactly one evaluation point per position")
        if len(set(self.points)) != self.length:
            raise ValidationError("evaluation points must be distinct")

    def generator(self, positions: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        """Generator rows through `dimension` ascending positions, one per position.

        Every codeword c has c[pos] = sum_i rows[pos][i] c[positions[i]], so
        the row of a chosen position is its unit vector. Built on the first
        request for a position set and kept for the life of the codec.
        """
        key = tuple(positions)
        rows = self._generators.get(key)
        if rows is None:
            if len(key) != self.dimension or not all(
                0 <= a < b for a, b in zip(key, key[1:] + (self.length,))
            ):
                raise ValidationError(
                    f"need {self.dimension} ascending positions below {self.length}, got {key}"
                )
            rows = self._barycentric_rows(key)
            self._generators[key] = rows
        return rows

    def _barycentric_rows(self, key: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        # in characteristic 2, subtraction is add()
        f = self.field
        base = [self.points[p] for p in key]
        weights = []
        for xi in base:
            d = f.one
            for xj in base:
                if xj != xi:
                    d = f.mul(d, f.add(xi, xj))
            weights.append(f.inv(d))
        rows = []
        for pos, x in enumerate(self.points):
            if pos in key:
                rows.append(tuple(f.one if p == pos else f.zero for p in key))
                continue
            ell = f.one
            for xj in base:
                ell = f.mul(ell, f.add(x, xj))
            rows.append(tuple(
                f.mul(f.mul(ell, w), f.inv(f.add(x, xi))) for xi, w in zip(base, weights)
            ))
        return tuple(rows)

    def decode_many(self, chosen: Iterable[int], columns: Sequence) -> list:
        """All `length` columns of a batch of codewords from `dimension` of them.

        chosen holds `dimension` ascending positions, and columns[i] is the
        field's column (gf.py) of position chosen[i] across the batch. The
        chosen columns come back as given; every other one is their
        combination by the generator rows through chosen. The caller checks
        that the columns hold field elements and compares any further
        symbols it has with the result.
        """
        chosen = tuple(chosen)
        rows = self.generator(chosen)
        if len(columns) != self.dimension or len({len(c) for c in columns}) != 1:
            raise ValidationError(
                f"need {self.dimension} columns of one length, "
                f"got lengths {[len(c) for c in columns]}"
            )
        given = dict(zip(chosen, columns))
        lincomb = self.field.lincomb
        return [
            given[pos] if pos in given else lincomb(row, columns)
            for pos, row in enumerate(rows)
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
