"""Systematic MDS codes from polynomial evaluation (Reed-Solomon style).

A codec of length L and dimension K fixes L distinct evaluation points in a
field of characteristic 2. The message is the value list of a degree-<K
polynomial at the first K points; the codeword is its evaluation at all L
points, so the message is a literal prefix of the codeword and any K
positions determine the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

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

    def __post_init__(self) -> None:
        if not 1 <= self.dimension <= self.length:
            raise ValidationError(
                f"codec needs 1 <= dimension <= length, got ({self.length}, {self.dimension})"
            )
        if len(self.points) != self.length:
            raise ValidationError("need exactly one evaluation point per position")
        if len(set(self.points)) != self.length:
            raise ValidationError("evaluation points must be distinct")

    @cached_property
    def _parity(self) -> list[list[int]]:
        # _parity[i][j]: contribution of message[i] to parity position j
        msg_pts = self.points[: self.dimension]
        return [
            [_lagrange_weight(self.field, msg_pts, i, x) for x in self.points[self.dimension:]]
            for i in range(self.dimension)
        ]

    def encode(self, message: Sequence[int]) -> list[int]:
        """Message -> full codeword (message prefix + parity)."""
        f = self.field
        if len(message) != self.dimension:
            raise ValidationError(f"message must have {self.dimension} symbols, got {len(message)}")
        for s in message:
            if not f.contains(s):
                raise ValidationError(f"symbol {s!r} is not a field element")
        cw = list(message)
        for j in range(self.length - self.dimension):
            acc = f.zero
            for i in range(self.dimension):
                acc = f.add(acc, f.mul(message[i], self._parity[i][j]))
            cw.append(acc)
        return cw

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
        chosen_set = set(chosen)
        base = [self.points[p] for p in chosen]
        cw: list[int] = []
        for pos in range(self.length):
            if pos in chosen_set:
                cw.append(available[pos])
                continue
            acc = f.zero
            for i, p in enumerate(chosen):
                acc = f.add(acc, f.mul(available[p], _lagrange_weight(f, base, i, self.points[pos])))
            cw.append(acc)
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
