"""Arithmetic in GF(2^w) via exp/log tables.

Elements are plain ints in [0, 2^w). Addition (and so subtraction) is XOR;
multiplication and inversion go through discrete logarithms of a fixed
primitive element, whose tables exps and logs are public: mds.py builds
generator rows from sums of logs. A BinaryField is its own table field;
embed and table_element, the identity here, map between a field and its
table field the way an extension field's (extfield.py) map its subfield.

Codecs work on columns: one position's symbols across a batch of codewords
(column), combined by lincomb. For w <= 8 a column is `bytes`, and lincomb
is the region arithmetic of Plank, Greenan and Miller ("Screaming Fast
Galois Field Arithmetic", FAST 2013) without SIMD: multiplying a column by
c is `col.translate(T_c)` with T_c[v] = c*v, and adding columns is one
big-int XOR. The 2^w tables of 256 bytes each (at most 64 KiB, at w = 8)
are built once per field from the exp/log tables by `bytes.translate`
itself. For 9 <= w <= 16 a column is a tuple and lincomb loops over its
elements.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import filterfalse
from typing import Iterable, Sequence

from .errors import ValidationError

# Primitive polynomial per width (bit i = coefficient of x^i).
_PRIMITIVE = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}


class BinaryField:
    """The finite field with 2**w elements, 1 <= w <= 16."""

    zero = 0
    one = 1

    def __init__(self, w: int = 8) -> None:
        if w not in _PRIMITIVE:
            raise ValidationError(f"unsupported field width {w}; supported: 1..16")
        self.w = w
        self.order = 1 << w
        self.poly = _PRIMITIVE[w]
        exp = [0] * (2 * self.order)
        log = [0] * self.order
        x = 1
        for i in range(self.order - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.order:
                x ^= self.poly
        # duplicate the cycle so mul() can skip one modular reduction
        for i in range(self.order - 1, 2 * self.order):
            exp[i] = exp[i - (self.order - 1)]
        # exps[e] = g^e for 0 <= e < 2 * order, logs[a] = log_g a for a != 0 (logs[0] = 0)
        self.exps = exp
        self.logs = log
        if w <= 8:
            self._mul_tables = self._column_tables()

    def _column_tables(self) -> tuple[bytes, ...]:
        # T_c maps v to c*v. logs[v - 1] = log v, so translating logs through
        # exp[log c :] gives c*v for every nonzero v at once; entries at and
        # past the field's order are padding that field symbols never index
        order = self.order
        logs = bytes(self.logs[1:order])
        exps = bytes(self.exps)
        return (bytes(256),) + tuple(
            (b"\0" + logs.translate(exps[lc : lc + order - 1].ljust(256, b"\0"))).ljust(256, b"\0")
            for lc in self.logs[1:order]
        )

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exps[self.logs[a] + self.logs[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValidationError("zero has no inverse")
        return self.exps[self.order - 1 - self.logs[a]]

    def contains(self, a: object) -> bool:
        return isinstance(a, int) and 0 <= a < self.order

    @property
    def table_field(self) -> "BinaryField":
        """The field whose exps and logs hold this one's arithmetic: itself."""
        return self

    @staticmethod
    def embed(a: int) -> int:
        """A table-field element as an element of this field: itself."""
        return a

    def table_element(self, a: int) -> int:
        """The table-field element that embed maps to a: a itself, refused outside the field."""
        if not self.contains(a):
            raise ValidationError(f"{a!r} is not a GF(2^{self.w}) element")
        return a

    def column(self, symbols: Iterable[int]):
        """The column holding these symbols: bytes for w <= 8, else a tuple."""
        return bytes(symbols) if self.w <= 8 else tuple(symbols)

    def lincomb(self, weights: Sequence[int], columns: Sequence):
        """The column sum_i weights[i] * columns[i], for equal-length columns."""
        if self.w > 8:
            return lincomb_loop(self.mul, weights, columns)
        tables = self._mul_tables
        acc = 0
        for c, col in zip(weights, columns):
            acc ^= int.from_bytes(col.translate(tables[c]), "little")
        return acc.to_bytes(len(columns[0]), "little")

    def element(self, i: int) -> int:
        """The i-th canonical element, used as the i-th evaluation point."""
        if not 0 <= i < self.order:
            raise ValidationError(
                f"GF(2^{self.w}) has only {self.order} elements, no element #{i}"
            )
        return i

    @property
    def hex_width(self) -> int:
        return (self.w + 3) // 4

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BinaryField) and other.w == self.w

    def __hash__(self) -> int:
        return hash(("BinaryField", self.w))

    def __repr__(self) -> str:
        return f"BinaryField(w={self.w})"


def lincomb_loop(mul, weights: Sequence[int], columns: Sequence) -> tuple:
    """lincomb for tuple columns, one mul(symbol, weight) per element."""
    out = [0] * len(columns[0])
    for c, col in zip(weights, columns):
        out = [o ^ mul(v, c) for o, v in zip(out, col)]
    return tuple(out)


def check_symbols(field, symbols: Sequence, message: str) -> None:
    """ValidationError(message.format(s)) for the first s not in field. Bytes need no scan in
    a field of at least 256 elements, and one max() clears them in a smaller one."""
    if not (isinstance(symbols, bytes)
            and (field.order >= 256 or max(symbols, default=0) < field.order)):
        for s in filterfalse(field.contains, symbols):
            raise ValidationError(message.format(s))


@lru_cache(maxsize=None)
def binary_field(w: int = 8) -> BinaryField:
    """Shared BinaryField instances; table construction is done once per w."""
    return BinaryField(w)
