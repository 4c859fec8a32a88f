"""Binary extension fields GF(2^(w*kappa)) hosting GF(2^w) as a subfield.

Elements are ints: bit i is the coefficient of x^i in GF(2)[x]/(modulus).
The modulus is the first irreducible polynomial of the right degree in a
fixed enumeration and the subfield copy is located as the fixed space of the
w-fold Frobenius, so equal parameters always rebuild the exact same field:
moduli and embedding table are reproducible.

The basis theta of the big field over the subfield is the power basis
1, x, ..., x^(kappa-1). The modulus is irreducible of degree D = w*kappa,
so x generates GF(2^D) over GF(2), and so also over GF(q), q = 2^w. The
degree of x over GF(q) is then D/w = kappa: no nonzero polynomial over
GF(q) of degree below kappa vanishes at x, and the kappa powers are
independent over the subfield.

The embedding is a field homomorphism from the table-driven GF(2^w) in
gf.py: it maps the table field's generator to a root (the smallest, for
determinism) of the same primitive polynomial inside the big field.

Arithmetic is table-driven (Plank, Greenan and Miller, "Screaming Fast
Galois Field Arithmetic", FAST 2013, without SIMD); each field builds two
tables from its modulus alone, once, in the constructor:

- a reduction table of 256 entries, red[t] = (t << D) ^ ((t << D) mod
  modulus) for degree D, shared with the modulus search's squarings, which
  clear the bits above D a byte at a time. mul(a, b) makes the 16
  unreduced multiples of a (each below 2^(D+3)) and walks b four bits at a
  time from the top: p = (p << 4) ^ multiple[nibble], then p ^= red[p >> D]
  clears the bits above D, about D/4 table steps instead of D bit steps.
- Frobenius tables. z -> z^q is GF(2)-linear, so the images of the D unit
  monomials x^i (w squarings each) fix it; they are summed into ceil(D/8)
  tables of up to 256 entries, one per byte of the operand, and
  frobenius(a) is the XOR of ceil(D/8) lookups.

The tables take about 4 D^2 bytes and the modulus search grows faster
still, so a degree above MAX_EXTENSION_DEGREE is refused up front.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .errors import IntegrityError, ValidationError
from .gf import BinaryField, binary_field, lincomb_loop

# at D = 1024 the modulus search takes about 4.2 s (13 s when it reduced a
# bit at a time) and the Frobenius tables about 5 MB; D = 2048 takes about
# two minutes (2-core x86-64 VM, Python 3.11)
MAX_EXTENSION_DEGREE = 1024

# squaring spreads bits: byte b -> the 16-bit word of b's bits at even offsets, as two bytes
_SPREAD = [sum(1 << 2 * i for i in range(8) if b >> i & 1) for b in range(256)]
_SPREAD_LO, _SPREAD_HI = bytes(v & 0xFF for v in _SPREAD), bytes(v >> 8 for v in _SPREAD)


def _polyrem(a: int, b: int) -> int:
    blen = b.bit_length()
    while a.bit_length() >= blen:
        a ^= b << (a.bit_length() - blen)
    return a


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _polyrem(a, b)
    return a


@lru_cache(maxsize=4)
def _reduction_table(modulus: int) -> tuple[int, ...]:
    """red[t] = (t << D) ^ ((t << D) mod modulus) for each byte t, D the degree."""
    d = modulus.bit_length() - 1
    red = [0]
    for j in range(8):  # red is GF(2)-linear in t: double it one bit of t at a time
        unit = (1 << d + j) ^ _polyrem(1 << d + j, modulus)
        red += [v ^ unit for v in red]
    return tuple(red)


def _sqrmod(a: int, modulus: int) -> int:
    """a^2 mod modulus: spread a's bits, then clear the bits past the degree a byte at a time."""
    b = a.to_bytes((a.bit_length() + 7) // 8, "little")
    sq = bytearray(2 * len(b))
    sq[0::2], sq[1::2] = b.translate(_SPREAD_LO), b.translate(_SPREAD_HI)
    p = int.from_bytes(sq, "little")
    red, d = _reduction_table(modulus), modulus.bit_length() - 1
    for s in range((p.bit_length() - 1 - d) & ~7, -1, -8):
        p ^= red[p >> (d + s)] << s
    return p


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(h: int, degree: int) -> bool:
    # Rabin: x^(2^degree) == x mod h, and gcd(x^(2^(degree/p)) - x, h) == 1
    # for every prime p dividing the degree
    checkpoints = {degree // p for p in _prime_factors(degree)}
    cur = 2  # the polynomial x
    for i in range(1, degree + 1):
        cur = _sqrmod(cur, h)
        if i in checkpoints and _gcd(cur ^ 2, h) != 1:
            return False
    return cur == 2


@lru_cache(maxsize=None)
def find_modulus(degree: int) -> int:
    """First irreducible binary polynomial of the given degree.

    Enumerates ascending low bits; the constant term must be 1 and the
    number of terms odd, or x or x+1 would divide.
    """
    if degree < 2:
        raise ValidationError(f"modulus degree must be >= 2, got {degree}")
    if degree > MAX_EXTENSION_DEGREE:
        raise ValidationError(
            f"extension degree {degree} exceeds the limit of {MAX_EXTENSION_DEGREE}"
        )
    top = 1 << degree
    for low in range(3, top, 2):
        h = top | low
        if bin(h).count("1") % 2 == 0:
            continue
        if _is_irreducible(h, degree):
            return h
    raise IntegrityError(f"no irreducible polynomial of degree {degree} found")


def _kernel(images: list[int]) -> list[int]:
    # kernel basis of the GF(2)-linear map taking unit vector i to images[i]
    pivots: dict[int, tuple[int, int]] = {}
    kernel = []
    for i, img in enumerate(images):
        pre = 1 << i
        while img:
            lead = img.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (img, pre)
                break
            pimg, ppre = pivots[lead]
            img ^= pimg
            pre ^= ppre
        else:
            kernel.append(pre)
    return kernel


class BinaryExtensionField:
    """GF(q^kappa) for q = 2^w, with q <= 256."""

    zero = 0
    one = 1

    def __init__(self, subfield: BinaryField, kappa: int) -> None:
        if kappa < 1:
            raise ValidationError(f"kappa must be >= 1, got {kappa}")
        if subfield.w > 8:
            raise ValidationError("extension subfields wider than GF(2^8) are not supported")
        self.subfield = subfield
        self.kappa = kappa
        self.degree = subfield.w * kappa
        if self.degree < 2:
            raise ValidationError("GF(2) needs no extension machinery; use BinaryField")
        self.modulus = find_modulus(self.degree)
        self.order = 1 << self.degree
        # every multiply, construction included, goes through _red
        self._red = _reduction_table(self.modulus)
        images = self._frobenius_images()
        self._frob = self._frobenius_tables(images)
        self._beta_pows = self._embed_subfield(images)
        self._emb = self._embedding_table()
        # x has degree kappa over the subfield (module docstring)
        self.theta = tuple(1 << i for i in range(kappa))

    # -- construction internals ---------------------------------------------

    def _frobenius_images(self) -> list[int]:
        # (x^i)^q for each unit monomial, by w reference squarings
        images = []
        for i in range(self.degree):
            z = 1 << i
            for _ in range(self.subfield.w):
                z = _sqrmod(z, self.modulus)
            images.append(z)
        return images

    @staticmethod
    def _frobenius_tables(images: list[int]) -> tuple[tuple[tuple[int, ...], int], ...]:
        # (table, shift) per byte of an operand; table[v] is the image of
        # the byte v << shift, built from the image of v's lowest set bit
        tables = []
        for shift in range(0, len(images), 8):
            size = 1 << min(8, len(images) - shift)
            tab = [0] * size
            for v in range(1, size):
                tab[v] = tab[v & (v - 1)] ^ images[shift + (v & -v).bit_length() - 1]
            tables.append((tuple(tab), shift))
        return tuple(tables)

    def _embed_subfield(self, images: list[int]) -> list[int]:
        w = self.subfield.w
        if w == 1:
            return [1]
        # fixed space of z -> z^(2^w): solve (Frob^w + id) z = 0
        kern = _kernel([img ^ (1 << i) for i, img in enumerate(images)])
        if len(kern) != w:
            raise IntegrityError(f"subfield of size 2^{w} has rank {len(kern)}")
        elems = sorted(
            {self._combine(kern, mask) for mask in range(1 << w)}
        )
        g = self.subfield.poly
        beta = next((z for z in elems if self._eval_gf2_poly(g, z) == 0), None)
        if beta is None:
            raise IntegrityError("subfield generator polynomial has no root in its own copy")
        pows = [1]
        for _ in range(w - 1):
            pows.append(self.mul(pows[-1], beta))
        return pows

    @staticmethod
    def _combine(basis: list[int], mask: int) -> int:
        acc = 0
        i = 0
        while mask:
            if mask & 1:
                acc ^= basis[i]
            mask >>= 1
            i += 1
        return acc

    def _eval_gf2_poly(self, g: int, z: int) -> int:
        acc = 0
        p = 1
        while g:
            if g & 1:
                acc ^= p
            g >>= 1
            p = self.mul(p, z)
        return acc

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """a * b by a 4-bit window over b and the reduction table."""
        a2, a4, a8 = a << 1, a << 2, a << 3
        a3, a12 = a2 ^ a, a8 ^ a4
        multiples = (
            0, a, a2, a3, a4, a4 ^ a, a4 ^ a2, a4 ^ a3,
            a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a12, a12 ^ a, a12 ^ a2, a12 ^ a3,
        )
        red, d = self._red, self.degree
        p = 0
        for s in range((b.bit_length() - 1) & -4, -1, -4):
            p = (p << 4) ^ multiples[b >> s & 15]
            p ^= red[p >> d]
        return p

    def frobenius(self, a: int) -> int:
        """a -> a^q, the subfield-fixing field automorphism, by table lookups."""
        out = 0
        for tab, shift in self._frob:
            out ^= tab[a >> shift & 0xFF]
        return out

    def pow(self, a: int, e: int) -> int:
        res = 1
        while e:
            if e & 1:
                res = self.mul(res, a)
            a = self.mul(a, a)
            e >>= 1
        return res

    def inv(self, a: int) -> int:
        """a^-1 by the extended Euclidean algorithm in GF(2)[x].

        Keeps a*g1 == u and a*g2 == v (mod modulus) while cancelling the
        leading term of the longer of u, v; stops when u reaches 1. An
        operand outside the field could be a multiple of the modulus, and u
        would never reach 1, so it is refused.
        """
        if a == 0:
            raise ValidationError("zero has no inverse")
        if not self.contains(a):
            raise ValidationError(f"{a!r} is not a field element")
        u, v = a, self.modulus
        g1, g2 = 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v = v, u
                g1, g2 = g2, g1
                j = -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def contains(self, a: object) -> bool:
        return isinstance(a, int) and 0 <= a < self.order

    @staticmethod
    def column(symbols: Iterable[int]) -> tuple:
        """The column holding these symbols, a tuple (see gf.py)."""
        return tuple(symbols)

    def lincomb(self, weights: Sequence[int], columns: Sequence) -> tuple:
        """The column sum_i weights[i] * columns[i], one mul per element."""
        return lincomb_loop(self.mul, weights, columns)

    def embed(self, a: int) -> int:
        """Image of a subfield element; a ring homomorphism from gf.py tables."""
        if not self.subfield.contains(a):
            raise ValidationError(f"{a!r} is not a GF(2^{self.subfield.w}) element")
        return self._emb[a]

    def _embedding_table(self) -> list[int]:
        emb = [0] * self.subfield.order
        for a in range(self.subfield.order):
            acc = 0
            for j in range(self.subfield.w):
                if a >> j & 1:
                    acc ^= self._beta_pows[j]
            emb[a] = acc
        return emb

    def element(self, i: int) -> int:
        """Canonical evaluation points: the embedded subfield elements."""
        if not 0 <= i < self.subfield.order:
            raise ValidationError(
                f"subfield GF(2^{self.subfield.w}) has no element #{i} to embed as a point"
            )
        return self._emb[i]

    @property
    def hex_width(self) -> int:
        return (self.degree + 3) // 4

    def __repr__(self) -> str:
        return f"BinaryExtensionField(w={self.subfield.w}, kappa={self.kappa})"


@lru_cache(maxsize=None)
def extension_field(w: int, kappa: int) -> BinaryExtensionField:
    """Shared instances; construction cost is paid once per (w, kappa)."""
    return BinaryExtensionField(binary_field(w), kappa)
