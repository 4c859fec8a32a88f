"""Systematic MDS codes from polynomial evaluation (Reed-Solomon style).

A codec of length L and dimension K fixes L distinct evaluation points in a
field of characteristic 2. The message is the value list of a degree-<K
polynomial at the first K points; the codeword is its evaluation at all L
points, so the message is a literal prefix of the codeword and any K
positions determine the rest. The Lagrange weights from K positions to the
codeword are built once per position set and kept on the codec (generator).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Mapping, Sequence

from .errors import SymbolMismatch, ValidationError


def _lagrange_weight(field, xs: Sequence[int], i: int, x: int) -> int:
    # weight of the value at xs[i] when interpolating through xs and
    # evaluating at x; in characteristic 2, subtraction is add()
    w = field.one
    for j, xj in enumerate(xs):
        if j == i:
            continue
        w = field.mul(w, field.mul(field.add(x, xj), field.inv(field.add(xs[i], xj))))
    return w


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
            base = [self.points[p] for p in key]
            rows = tuple(
                tuple(_lagrange_weight(self.field, base, i, x) for i in range(self.dimension))
                for x in self.points
            )
            self._generators[key] = rows
        return rows

    def _combine(self, values: Sequence[int], row: Sequence[int]) -> int:
        f = self.field
        acc = f.zero
        for v, w in zip(values, row):
            acc = f.add(acc, f.mul(v, w))
        return acc

    def encode(self, message: Sequence[int]) -> list[int]:
        """Message -> full codeword (message prefix + parity)."""
        f = self.field
        if len(message) != self.dimension:
            raise ValidationError(f"message must have {self.dimension} symbols, got {len(message)}")
        for s in message:
            if not f.contains(s):
                raise ValidationError(f"symbol {s!r} is not a field element")
        parity = self.generator(range(self.dimension))[self.dimension:]
        return list(message) + [self._combine(message, row) for row in parity]

    def decode(self, available: Mapping[int, int]) -> list[int]:
        """Recover the full codeword from >= dimension positions.

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
        values = [available[p] for p in chosen]
        cw = [
            available[pos] if pos in chosen else self._combine(values, row)
            for pos, row in enumerate(self.generator(chosen))
        ]
        for pos, sym in available.items():
            if cw[pos] != sym:
                raise SymbolMismatch(pos)
        return cw

    def extended(self, new_points: Sequence[int]) -> "MdsCodec":
        """Same polynomial space, extra evaluation points appended."""
        return MdsCodec(
            self.field,
            self.length + len(new_points),
            self.dimension,
            self.points + tuple(new_points),
        )


def mds_codec(field, length: int, dimension: int) -> MdsCodec:
    """Codec over the field's canonical points 0..length-1."""
    points = tuple(field.element(i) for i in range(length))
    return MdsCodec(field, length, dimension, points)
