"""Binary extension fields GF(2^(w*kappa)) hosting GF(2^w) as a subfield.

Elements are ints: bit i is the coefficient of x^i in GF(2)[x]/(modulus).
The modulus is the first irreducible polynomial of the right degree in a
fixed enumeration, read from the table _MODULUS_LOWS, which holds it for
every degree up to MAX_EXTENSION_DEGREE, so a build searches for nothing.
find_modulus, the search, is the table's oracle and regenerates it
(tests/moduli.py); no build calls it. The subfield copy is located as the
fixed space of the w-fold Frobenius, so equal parameters always rebuild the
exact same field: moduli and embedding table are reproducible.

The basis theta of the big field over the subfield is the power basis
1, x, ..., x^(kappa-1). The modulus is irreducible of degree D = w*kappa,
so x generates GF(2^D) over GF(2), and so also over GF(q), q = 2^w. The
degree of x over GF(q) is then D/w = kappa: no nonzero polynomial over
GF(q) of degree below kappa vanishes at x, and the kappa powers are
independent over the subfield.

The embedding is a field homomorphism from the table-driven GF(2^w) in
gf.py: it maps the table field's generator to a root (the smallest, for
determinism) of the same primitive polynomial inside the big field.
table_element inverts it through an echelon basis of the copy, at most w
XORs and no table of the copy: mds.py takes its points' logs there.

Every multiply runs in a lane form of the field: a is held as one int in
which coefficient i sits alone in byte lane i (a's binary digits as ASCII
text, less b"0" in every lane). One int multiply then sums every lane's
coefficient products at C speed. A lane must not sum more than 255 of
them, so the second operand is taken 255 lanes at a time: one multiply
below D = 256, two at D = 280, five at D = 1024. A parity mask keeps each
sum mod 2, and the lanes from D up are folded down by the modulus' low
terms until none is left (twice for the table's moduli). mul(a, b)
converts both operands in, multiplies and converts the product out; the
precode and the interpolation in precoded.py multiply long chains of
elements and hold them in the lane form throughout, converting once on
the way in and once on the way out. Going in refuses an int outside the
field.

Frobenius is table-driven (Plank, Greenan and Miller, "Screaming Fast
Galois Field Arithmetic", FAST 2013, without SIMD). z -> z^q is
GF(2)-linear, so the images of the D unit monomials x^i (w squarings
each) fix it; the constructor sums them into ceil(D/8) tables of up to
256 entries, one per byte of the operand, and frobenius(a) is the XOR of
ceil(D/8) lookups. The lane form leaves for the tables and comes back.
A byte's table spans its eight images: entry v XORs those of v's set bits.
One helper, _span, builds every such table of subset sums: these, the
embedding table, the subfield's copy, and an element's subfield multiples.

The constructor also finds minpoly, the minimal polynomial g(Y) = Y^kappa
+ sum g_l Y^l of x over the subfield, by one D x D GF(2) solve: x^kappa in
the basis embed(beta^j) x^l (l < kappa, j < w). Its roots are the
conjugates z_i = x^(q^i), and precoded.py inverts the precode's Vandermonde
map through it; the field keeps z_i and 1 / g'(z_i) = (1 / g'(x))^(q^i) for
every i < kappa, in the lane form; the precode reads its points' z_i from
there. On a 2-core x86-64 VM (Python 3.11), at w = 2, the solve takes about
0.1 ms at D = 80 and 14 ms at D = 1024, the constants about 0.2 and 35 ms.

The tables take about 4 D^2 bytes, and the modulus table ends at
MAX_EXTENSION_DEGREE, so a degree above it is refused up front.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import IntegrityError, ValidationError
from .gf import BinaryField, binary_field, lincomb_loop

# the last degree _MODULUS_LOWS holds; at D = 1024 the Frobenius tables take about 5 MB.
# Raising it means extending the table with tests/moduli.py --write, whose search takes
# about 1 s at D = 1024 and about 12 s at D = 2048 (2-core x86-64 VM, Python 3.11)
MAX_EXTENSION_DEGREE = 1024

# the lane form's multiply takes its second operand 255 byte lanes at a time
_LANE_PIECE_BITS = 8 * 255
_LANE_PIECE = (1 << _LANE_PIECE_BITS) - 1

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


def _sqrmod(a: int, modulus: int) -> int:
    """a^2 mod modulus: spread a's bits, then fold the part hi * x^D past the degree D down to
    hi * low, for modulus = x^D + low: one shifted hi per tap, twice when the taps are below D/2."""
    b = a.to_bytes((a.bit_length() + 7) // 8, "little")
    sq = bytearray(2 * len(b))
    sq[0::2], sq[1::2] = b.translate(_SPREAD_LO), b.translate(_SPREAD_HI)
    p = int.from_bytes(sq, "little")
    d = modulus.bit_length() - 1
    low, mask = modulus ^ (1 << d), (1 << d) - 1
    taps = [t for t in range(low.bit_length()) if low >> t & 1]
    while p >> d:
        hi, p = p >> d, p & mask
        for t in taps:
            p ^= hi << t
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


def _check_degree(degree: int) -> None:
    if degree < 2:
        raise ValidationError(f"modulus degree must be >= 2, got {degree}")
    if degree > MAX_EXTENSION_DEGREE:
        raise ValidationError(
            f"extension degree {degree} exceeds the limit of {MAX_EXTENSION_DEGREE}"
        )


def find_modulus(degree: int) -> int:
    """First irreducible binary polynomial of the given degree.

    Enumerates ascending low bits; the constant term must be 1 and the
    number of terms odd, or x or x+1 would divide. The oracle of _MODULUS_LOWS
    and its generator (tests/moduli.py); no field build calls it.
    """
    _check_degree(degree)
    top = 1 << degree
    for low in range(3, top, 2):
        h = top | low
        if bin(h).count("1") % 2 == 0:
            continue
        if _is_irreducible(h, degree):
            return h
    raise IntegrityError(f"no irreducible polynomial of degree {degree} found")


def table_modulus(degree: int) -> int:
    """find_modulus(degree), read from _MODULUS_LOWS: x^degree plus the entry's low terms."""
    _check_degree(degree)
    i = 2 * (degree - 2)
    return 1 << degree | int.from_bytes(_MODULUS_LOWS[i : i + 2], "big")


# find_modulus(D) ^ (1 << D) for each degree D from 2 to MAX_EXTENSION_DEGREE, two big-endian
# bytes per degree: the largest, 0x16c1 at D = 768, needs 13 bits. Written by
# `python tests/moduli.py --write` from the search and checked against it by --check and by
# tier-1; not edited by hand
_MODULUS_LOWS = bytes.fromhex(
    "000300030003000500030003001b0003000900050009001b00210003002b0009000900270009000500030021001b"
    "0009001b00270003000500030009008d004b001b00050035003f0063001100390009002700590021001b00030021"
    "002d0071001d004b00090047007d0047009500110063007b0003002700690003001b001b0009002700a30065002b"
    "002b005f001d0047004b00350065005f001d00af001100d7009500210107006500a3003f0069002d00ed00650005"
    "00630077006f00410099004b006500c3006900bd001b0011006300af00530035005300950039002d002d00af0017"
    "002700650101001b012300470005007d00af0095000300870021000900f30077006f00a30059002d013d016d00af"
    "005301ab00f3002d00950063002d003f00a902fb00350009004d000300e100b1006900650137007b002d004d00e7"
    "00c901ef025b00630041005f0161004d003f00030125007d004100bd002d01850017000900c300f30191015d010b"
    "019d00e10065006501c100bb008701f7001d00b7000901ef006900ed002d004d00d101830035022500af024301cd"
    "002d0081026b00990065002b0069008b007100f500f5008101370035003501b5016d00f5007b0107026700bd0095"
    "00f500bd01cb01cd002100930027003f01290179017301230167005301a70215013d0093006f0095007d003f0087"
    "002d042500bd025101fb006900d10311027f0245002d004d0149038700c30035011f01e3008700ed013b004b00b7"
    "0021002102250213004d0167016100af01fb006501d500f5002d007b008b025b00f90035008d0021013b00af0021"
    "0167003f0003003f00c5008b011503870173012300a90291008b0167007b016b00950161012f001b00a502f7007b"
    "00170157040b00ed010b013d006f00f50047000500270333009300e7001b00af02cb011f015d03db0087011500e7"
    "00f5019100650065014900bd0291032b006300e701f1016b0167002d0093019b012902010261016100bb008d05eb"
    "002d010d016d01850161001701a1010b0251032b056300270223022301df004103950183009900cf013b0047019b"
    "0081018501f7007d01e300c50257002d00bb003f0321007b0355010d01a7002d00a90419016d00a500d7013b0215"
    "0225013b0077027f0081003500bb021f01ad007b02730167015b023d013d002b00eb036f00e7046b00710047019d"
    "010d001b008100a5018f02bf00d106a3019d00bd027f01d50335007107f1014302f100cf026d021f00db022300c3"
    "026105950257010d03c90843055f007d013d0003003f014902b90311009f0179005301fd00dd0297026100db05d7"
    "01ad00f90215001b026102a1007b0053024f053f00b1019706a3007702cd0167003501310009005f031d031700f5"
    "009f018900530401012501e300a9034d00a5062d01ab016b076d026b01fd02370223005302230283017300930489"
    "04310003001d00a3014500a90407002704310201025d0143005f010b01c7007701f1031b01fb019d0213006f07d9"
    "058103f9004b00cf04e5028500f502f101ad01ab004b043d00650653014f0a1700e70425032703bd03bb00690a5f"
    "010d016706f3005305c50027014501ad010d00a50843016d0419015b0251018f0137055f02070071003f00c30077"
    "00f5009f004d005902cb017302e502cb01a701e3024f00d7031b045b008700c3027f03ff0761003f00e10659035f"
    "046702f7025d049d007d054700650095042f0207008700a901f7060f01ab006301cd061b015b01fd036f03690497"
    "00f3002102ef082300090237006f01f10137013b00b101830a11028f0521016701ad04e9057706eb016d0d6702b5"
    "003500630245006f035901b9004b0491011901b901e303c9016d008b0317034d001b05710267012f01490275019d"
    "0635013b015d0213015d02cb067b017f00650395008b0363010d0161043b03d10035001b01c705e100390a69086b"
    "009304610ae70027053f025101790077038d0c9f01ab0021032b001d026d0d510137009901850843018509270021"
    "02f103a500170309077f06f3023701a100af045104b500c303f900f3041f02e504890dbf0ab100c30257020d066f"
    "0009013701e3006902910b7f019116c102c10e15035300810541014f00d10cc9073101d5044f01df046d00d703bb"
    "043b00bd056900c90473002700bd00530273021300e7009301e3055500c901790283028303c901ab068100ed031b"
    "008103db010b006f00e70e3d01a7041303db08f1050f01e5011f00ed04b301c70201003f07610275007b0077001b"
    "01c702a701cd00f904df056503dd016104c703c903eb0071013b067703eb0005006904e5013702670d2f02f10131"
    "048300a9049708d50069044f026b005301ab00c3004d045d000304c702250a1d06dd0095047300f5008b047f0fb1"
    "03650071056302290a8d092101d9034701b90183029b00d103cf03bb0419016b018f01370137013b00a902d5059f"
    "0873000306af01c7018308f7026b061d02fb019101370b91014300a300bb0017014906350b91078f02a108d30275"
    "00e103c30b2501bf0a4b0289040d0819001b0359020705b7013d028506c900e7017500b104830843034d05cf012f"
    "01d904d501c70035010d01ab00c3025b035f011f00af00710641023710b301b90be904f705ed00530473025703eb"
    "022501b9039300470081059f005f0e73034d004d020b014301c1015d007d041901b901150009016d010700eb071f"
    "019d03530503013b0173026700b703dd03330039002b002d017301f103d70039010b10e308150017003f020700af"
    "007d08ad025d007706f5050301ab00270a93008102cd"
)


def _span(basis: Sequence[int]) -> list[int]:
    """[v] is the XOR of basis[j] over the set bits j of v: every subset sum, one XOR each."""
    tab = [0]
    for b in basis:
        tab += [t ^ b for t in tab]
    return tab


def _reduce(pivots: dict[int, tuple[int, int]], img: int, pre: int) -> tuple[int, int]:
    """img less the pivots (lead bit -> (image, preimage)) that its lead bits meet, and pre
    less their preimages, until img is 0 or its lead bit has no pivot."""
    while img:
        lead = img.bit_length() - 1
        if lead not in pivots:
            break
        pimg, ppre = pivots[lead]
        img ^= pimg
        pre ^= ppre
    return img, pre


def _kernel(images: list[int], pivots: Optional[dict[int, tuple[int, int]]] = None) -> list[int]:
    """Kernel basis of the GF(2)-linear map taking unit vector i to images[i]. The given
    pivots dict is filled with an echelon basis of the image, each with a preimage, for
    _reduce."""
    pivots = {} if pivots is None else pivots
    kernel = []
    for i, img in enumerate(images):
        img, pre = _reduce(pivots, img, 1 << i)
        if img:
            pivots[img.bit_length() - 1] = (img, pre)
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
        self.modulus = table_modulus(self.degree)
        self.order = 1 << self.degree
        # every multiply, construction included, goes through the lane form
        self._lane_constants()
        images = self._frobenius_images()
        # (table, shift) per byte of an operand; table[v] is the image of the byte v << shift
        self._frob = tuple((tuple(_span(images[shift : shift + 8])), shift)
                           for shift in range(0, self.degree, 8))
        beta_pows = self._embed_subfield(images)
        self._emb = _span(beta_pows)
        # an echelon basis of the subfield's copy, each vector with its subfield element
        self._emb_pivots: dict[int, tuple[int, int]] = {}
        _kernel(beta_pows, self._emb_pivots)
        # x has degree kappa over the subfield (module docstring)
        self.theta = tuple(1 << i for i in range(kappa))
        self._lane_beta_pows = [self._lanes_in(b) for b in beta_pows]
        self.minpoly = self._minimal_polynomial(beta_pows)
        self._vandermonde_constants()

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

    def _lane_constants(self) -> None:
        # the lane form (module docstring), one byte per coefficient
        d = self.degree
        self._lane_format = f"0{d}b"
        self._lane_top = 8 * d
        self._lane_shifts = range(_LANE_PIECE_BITS, self._lane_top, _LANE_PIECE_BITS)
        self._lane_zeros = int.from_bytes(b"0" * d, "big")
        self._lane_low = (1 << self._lane_top) - 1
        self._lane_parity = int.from_bytes(b"\x01" * 2 * d, "big")
        # a folded lane sums one product per low term of the modulus: at most
        # ten over the whole table, far below 256
        self._lane_tail = self._lanes_in(self.modulus ^ (1 << d))

    def _embed_subfield(self, images: list[int]) -> list[int]:
        w = self.subfield.w
        if w == 1:
            return [1]
        # fixed space of z -> z^(2^w): solve (Frob^w + id) z = 0
        kern = _kernel([img ^ (1 << i) for i, img in enumerate(images)])
        if len(kern) != w:
            raise IntegrityError(f"subfield of size 2^{w} has rank {len(kern)}")
        # the subfield's polynomial has GF(2) coefficients, and 0 and 1 are their own lane forms
        g = [self.subfield.poly >> j & 1 for j in range(w + 1)]
        copy = sorted(_span(kern))
        beta = next((z for z in copy if not self._lane_horner(g, self._lanes_in(z))), None)
        if beta is None:
            raise IntegrityError("subfield generator polynomial has no root in its own copy")
        pows = [1]
        for _ in range(w - 1):
            pows.append(self.mul(pows[-1], beta))
        return pows

    def _times_x(self, a: int) -> int:
        a <<= 1
        return a ^ self.modulus if a >> self.degree else a

    def _minimal_polynomial(self, beta_pows: list[int]) -> tuple[int, ...]:
        # x^kappa in the GF(2) basis beta^j x^l (l < kappa, j < w), as the one kernel vector of
        # the basis and x^kappa together: bit l*w + j of it is bit j of g_l, the coefficient of
        # Y^l, as embed reads a subfield element's bits
        w, kappa = self.subfield.w, self.kappa
        columns = []  # columns[j][l] = beta^j x^l
        for b in beta_pows:
            columns.append([])
            for _ in range(kappa):
                columns[-1].append(b)
                b = self._times_x(b)
        x_kappa = self._times_x(columns[0][-1])
        kern = _kernel([col[l] for l in range(kappa) for col in columns] + [x_kappa])
        if len(kern) != 1:
            raise IntegrityError(f"x has degree other than kappa={kappa} over the subfield")
        mask = self.subfield.order - 1
        return tuple(kern[0] >> (l * w) & mask for l in range(kappa)) + (self.subfield.one,)

    def _vandermonde_constants(self) -> None:
        # the conjugates z_i = x^(q^i), the roots of minpoly, and 1 / g'(z_i) = (1 / g'(x))^(q^i)
        # (g' has subfield coefficients), both in the lane form
        self._lane_conjugates = self._lane_orbit(2)  # x
        emb = self._lane_multiples(1)  # the embedded subfield elements in the lane form
        # in characteristic 2 the derivative keeps the odd-degree terms, each one degree down
        slope = [emb[c] if s % 2 == 0 else 0 for s, c in enumerate(self.minpoly[1:])]
        slope = self._lane_horner(slope, self._lane_conjugates[0])  # g'(x)
        self._lane_inv_slopes = self._lane_orbit(self.inv(self._lanes_out(slope)))

    def _lane_orbit(self, a: int) -> tuple[int, ...]:
        # a^(q^i) for every i < kappa, in the lane form
        orbit = [self._lanes_in(a)]
        for _ in range(self.kappa - 1):
            a = self.frobenius(a)
            orbit.append(self._lanes_in(a))
        return tuple(orbit)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """a * b through the lane form; refuses an operand outside the field."""
        return self._lanes_out(self._lane_mul(self._lanes_in(a), self._lanes_in(b)))

    def frobenius(self, a: int) -> int:
        """a -> a^q, the subfield-fixing field automorphism, by table lookups."""
        out = 0
        for tab, shift in self._frob:
            out ^= tab[a >> shift & 0xFF]
        return out

    # -- the lane form: one GF(2) coefficient per lane of an int -------------

    def _lanes_in(self, a: int) -> int:
        """a in the lane form: its binary digits as ASCII, each lane less b"0"."""
        if not self.contains(a):
            raise ValidationError(f"{a!r} is not a field element")
        return int.from_bytes(format(a, self._lane_format).encode(), "big") ^ self._lane_zeros

    def _lanes_out(self, s: int) -> int:
        """The element whose lane form is s."""
        return int((s ^ self._lane_zeros).to_bytes(self.degree, "big"), 2)

    def _lane_mul(self, s: int, t: int) -> int:
        """s * t in the lane form. Each int multiply takes t at most 255 lanes at a time,
        so no lane sums more than 255 coefficient products and none carries into the
        next; the parity mask keeps the sums mod 2. The lanes from D up are then folded
        down through the modulus' low terms until none is left."""
        top, parity = self._lane_top, self._lane_parity
        p = (s * (t & _LANE_PIECE)) & parity
        for shift in self._lane_shifts:  # none below D = 256
            p ^= ((s * (t >> shift & _LANE_PIECE)) & parity) << shift
        hi = p >> top
        while hi:
            p = (p & self._lane_low) ^ ((hi * self._lane_tail) & parity)
            hi = p >> top
        return p

    def _lane_multiples(self, s: int) -> list[int]:
        """[a] is embed(a) * s for every subfield element a, all in the lane form: w - 1
        multiplies by the powers of the subfield generator, then the span of those."""
        return _span([s] + [self._lane_mul(s, b) for b in self._lane_beta_pows[1:]])

    def _lane_horner(self, coeffs: Sequence[int], s: int) -> int:
        """sum_j coeffs[j] s^j, all in the lane form."""
        acc = coeffs[-1]
        for c in coeffs[-2::-1]:
            acc = self._lane_mul(acc, s) ^ c
        return acc

    def _lane_frobenius(self, s: int) -> int:
        """frobenius in the lane form, through the compact tables."""
        return self._lanes_in(self.frobenius(self._lanes_out(s)))

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

    @property
    def table_field(self) -> BinaryField:
        """The field whose exps and logs hold the subfield's arithmetic: the subfield."""
        return self.subfield

    def table_element(self, a: int) -> int:
        """The subfield element that embed maps to a, by w reduction steps at most; refused
        when a lies outside the subfield's copy."""
        if self.contains(a):
            rest, sub = _reduce(self._emb_pivots, a, 0)
            if not rest:
                return sub
        raise ValidationError(f"{a!r} is not in the field's copy of GF(2^{self.subfield.w})")

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
