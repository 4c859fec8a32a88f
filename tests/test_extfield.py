"""Structure checks for GF((2^w)^kappa): modulus, embedding, basis."""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from regencodes import ValidationError, binary_field, extfield
from regencodes.extfield import (
    MAX_EXTENSION_DEGREE,
    BinaryExtensionField,
    _is_irreducible,
    _sqrmod,
    extension_field,
    find_modulus,
    table_modulus,
)


def gf2_polymul(a, b):
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def reference_mul(f, a, b):
    # bit-serial carry-less product, then long division by the modulus;
    # shares nothing with the field's lane-form multiply
    prod = gf2_polymul(a, b)
    for i in range(prod.bit_length() - 1, f.degree - 1, -1):
        if prod >> i & 1:
            prod ^= f.modulus << (i - f.degree)
    return prod


def reference_frobenius(f, a):
    for _ in range(f.subfield.w):
        a = reference_mul(f, a, a)
    return a


def irreducible_by_trial_division(h, degree):
    # independent of the Frobenius-based test: try every factor of degree
    # 1..degree//2 by polynomial long division over GF(2)
    for f in range(2, 1 << (degree // 2 + 1)):
        rem = h
        fdeg = f.bit_length() - 1
        while rem.bit_length() - 1 >= fdeg and rem:
            rem ^= f << (rem.bit_length() - 1 - fdeg)
        if rem == 0:
            return False
    return True


@pytest.mark.parametrize("degree", [2, 3, 4, 6, 8, 10, 12])
def test_modulus_is_irreducible(degree):
    h = find_modulus(degree)
    assert h.bit_length() - 1 == degree
    assert _is_irreducible(h, degree)
    assert irreducible_by_trial_division(h, degree)


# the first irreducible polynomial of each degree, as the bit-serial search
# found them; degree 1024 is the search's upper bound
PINNED_MODULI = {
    2: 0x7, 3: 0xB, 5: 0x25, 7: 0x83, 8: 0x11B, 9: 0x203, 16: 0x1002B, 24: 0x100001B,
    32: 0x10000008D, 40: 0x10000000039, 64: (1 << 64) | 0x1B, 80: (1 << 80) | 0xAF,
    128: (1 << 128) | 0x87, 140: (1 << 140) | 0x53, 160: (1 << 160) | 0x2D,
    200: (1 << 200) | 0x2D, 256: (1 << 256) | 0x425, 300: (1 << 300) | 0x21,
    400: (1 << 400) | 0x2D, 512: (1 << 512) | 0x125, 1024: (1 << 1024) | 0x2CD,
}


def test_moduli_are_pinned():
    for degree, modulus in PINNED_MODULI.items():
        assert find_modulus(degree) == modulus, degree


# -- the table of moduli, against the search (tests/moduli.py checks every degree) ---------

def test_the_table_covers_every_degree_a_field_can_have():
    assert len(extfield._MODULUS_LOWS) == 2 * (MAX_EXTENSION_DEGREE - 1)  # degrees 2..1024
    for degree, why in ((1, "modulus degree must be >= 2, got 1"),
                        (1025, "extension degree 1025 exceeds the limit of 1024")):
        with pytest.raises(ValidationError) as err:
            table_modulus(degree)
        assert str(err.value) == why


def test_every_table_modulus_is_irreducible():
    for degree in range(2, MAX_EXTENSION_DEGREE + 1):
        h = table_modulus(degree)
        assert h.bit_length() - 1 == degree and _is_irreducible(h, degree), degree


def test_the_table_holds_the_pinned_moduli():
    assert {degree: table_modulus(degree) for degree in PINNED_MODULI} == PINNED_MODULI


def test_the_table_agrees_with_the_search(rng):
    # every degree up to 64, and a seeded sample above it (1024 is searched once, above)
    degrees = [*range(2, 65), *sorted(rng.sample(range(65, MAX_EXTENSION_DEGREE), 10))]
    assert [table_modulus(d) for d in degrees] == [find_modulus(d) for d in degrees]


def _refuse_the_search(h, degree):
    raise AssertionError(f"a field build searched for its modulus (degree {degree})")


def test_no_field_build_searches_for_its_modulus(monkeypatch):
    # built directly, past extension_field's cache of built fields
    monkeypatch.setattr(extfield, "_is_irreducible", _refuse_the_search)
    for w, kappa in ((2, 40), (2, 112), (1, 97), (4, 20), (8, 3)):
        f = BinaryExtensionField(binary_field(w), kappa)
        assert f.modulus == table_modulus(w * kappa)


def test_no_precoded_command_searches_for_its_modulus(tmp_path):
    # a fresh process: nothing is cached from earlier tests
    data = bytes((7 * i + 1) % 16 for i in range(27))  # nine 20-bit symbols
    (tmp_path / "data.bin").write_bytes(data)
    code = ("import os, sys\nfrom regencodes import extfield\nfrom regencodes.cli import main\n"
            "def refuse(h, degree):\n    raise AssertionError(f'searched at degree {degree}')\n"
            "extfield._is_irreducible = refuse\nos.chdir(sys.argv[1])\n"
            "print([main(argv.split()) for argv in sys.argv[2:]])")
    commands = [
        "encode --construction precoded --n 5 --k 3 --d 4 --e 1 --m 1 --r 2 --data data.bin "
        "--out-dir nodes",
        "reconstruct --node-dir nodes --nodes 2,4,5 --out back.bin",
        "repair --node-dir nodes --failed 1 --helpers 2,3,4,5",
    ]
    src = Path(extfield.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path), *commands],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.splitlines()[-1:] == ["[0, 0, 0]"], done.stderr
    assert (tmp_path / "back.bin").read_bytes() == data


def test_squaring_matches_the_bit_serial_reference_at_wide_degrees(rng):
    # _sqrmod folds the bits past the degree back through the modulus's taps
    for degree in (80, 140, 1024):
        modulus = SimpleNamespace(degree=degree, modulus=table_modulus(degree))
        for a in [1 << (degree - 1), (1 << degree) - 1] + [rng.randrange(1 << degree) for _ in range(20)]:
            assert _sqrmod(a, modulus.modulus) == reference_mul(modulus, a, a)


def test_irreducibility_test_agrees_with_trial_division():
    for degree in (2, 3, 4, 5, 6):
        for h in range(1 << degree, 1 << (degree + 1)):
            assert _is_irreducible(h, degree) == irreducible_by_trial_division(h, degree)


def test_modulus_is_deterministic():
    assert find_modulus(20) == find_modulus(20)
    f1 = extension_field(4, 5)
    f2 = BinaryExtensionField(binary_field(4), 5)
    assert f1.modulus == f2.modulus
    assert f1.theta == f2.theta
    assert f1 is extension_field(4, 5)


def test_embedding_is_a_field_homomorphism():
    sub = binary_field(4)
    f = extension_field(4, 3)
    for a in range(16):
        for b in range(16):
            assert f.embed(sub.add(a, b)) == f.add(f.embed(a), f.embed(b))
            assert f.embed(sub.mul(a, b)) == f.mul(f.embed(a), f.embed(b))
    assert f.embed(0) == f.zero
    assert f.embed(1) == f.one
    # injective
    assert len({f.embed(a) for a in range(16)}) == 16


@pytest.mark.parametrize("w, kappa", [(1, 5), (2, 40), (4, 3), (8, 2)])
def test_table_element_inverts_embed_and_refuses_the_rest(w, kappa, rng):
    f = extension_field(w, kappa)
    assert f.table_field is f.subfield
    assert [f.table_element(f.embed(a)) for a in range(f.subfield.order)] == list(
        range(f.subfield.order))
    copy = {f.embed(a) for a in range(f.subfield.order)}
    outside = [z for z in (rng.randrange(f.order) for _ in range(200)) if z not in copy]
    for z in outside + [f.order, -1, "1"]:
        with pytest.raises(ValidationError) as err:
            f.table_element(z)
        assert str(err.value) == f"{z!r} is not in the field's copy of GF(2^{w})"


def test_frobenius_fixes_exactly_the_subfield(rng):
    f = extension_field(4, 3)
    embedded = {f.embed(a) for a in range(16)}
    for z in embedded:
        assert f.frobenius(z) == z
    moved = 0
    for _ in range(50):
        z = rng.randrange(1, 1 << f.degree)
        if z not in embedded:
            moved += f.frobenius(z) != z
    assert moved > 0
    # frobenius is x -> x^(2^w)
    z = rng.randrange(1, 1 << f.degree)
    assert f.frobenius(z) == f.pow(z, 1 << 4)


def test_arithmetic(rng):
    f = extension_field(2, 5)
    top = 1 << f.degree
    for _ in range(200):
        a, b = rng.randrange(top), rng.randrange(top)
        assert f.mul(a, b) == f.mul(b, a)
        assert _sqrmod(a, f.modulus) == f.mul(a, a)
        assert f.add(a, a) == 0
    for _ in range(50):
        a = rng.randrange(1, top)
        assert f.mul(a, f.inv(a)) == f.one
    with pytest.raises(ValidationError):
        f.inv(0)
    assert f.pow(3, 0) == f.one
    assert f.pow(0, 9) == f.zero


@pytest.mark.parametrize("w,kappa", [(1, 2), (1, 3), (2, 1), (3, 1), (2, 2), (8, 1)])
def test_small_field_kernels_match_reference_on_every_element(w, kappa):
    # degree <= 8: few enough elements to multiply every pair
    f = extension_field(w, kappa)
    elems = range(1 << f.degree)
    for a in elems:
        for b in elems:
            assert f.mul(a, b) == reference_mul(f, a, b), (a, b)
        assert f.frobenius(a) == reference_frobenius(f, a), a


@pytest.mark.parametrize("w,kappa", [(2, 40), (2, 70), (3, 70)])
def test_wide_field_kernels_match_reference(w, kappa, rng):
    f = extension_field(w, kappa)
    top = 1 << f.degree
    edges = [0, 1, top >> 1, top - 1]
    elems = edges + [rng.randrange(top) for _ in range(60)]
    pairs = [(a, b) for a in elems for b in edges] + [(b, a) for a in elems for b in edges]
    pairs += [(rng.randrange(top), rng.randrange(top)) for _ in range(200)]
    for a, b in pairs:
        assert f.mul(a, b) == reference_mul(f, a, b), (a, b)
    # each byte of these runs through all 256 values: every table entry is read
    offsets = [rng.randrange(256) for _ in range(0, f.degree, 8)]
    elems += [
        sum((v ^ off) << (8 * j) for j, off in enumerate(offsets)) & (top - 1)
        for v in range(256)
    ]
    for a in elems:
        assert f.frobenius(a) == reference_frobenius(f, a), a
    for _ in range(100):
        a, b = rng.randrange(top), rng.randrange(top)
        assert f.frobenius(a ^ b) == f.frobenius(a) ^ f.frobenius(b)


@pytest.mark.parametrize("w,kappa", [(2, 5), (4, 20), (3, 70)])
def test_inverse_matches_fermat(w, kappa, rng):
    f = extension_field(w, kappa)
    top = 1 << (f.degree - 1)
    elems = [f.one, top, top | 1, top | rng.randrange(top)]
    elems += [f.embed(a) for a in range(1, f.subfield.order)]
    elems += [rng.randrange(1, 1 << f.degree) for _ in range(8)]
    for a in elems:
        assert f.inv(a) == f.pow(a, (1 << f.degree) - 2)
    with pytest.raises(ValidationError):
        f.inv(0)
    with pytest.raises(ValidationError):
        f.inv(f.modulus)  # not a field element, and a multiple of the modulus


def test_theta_is_the_power_basis(subfield_rank):
    shapes = [(w, kappa) for w in range(1, 9) for kappa in range(1, 13) if w * kappa >= 2]
    for w, kappa in shapes + [(2, 40), (2, 70), (3, 70), (8, 30)]:
        f = extension_field(w, kappa)
        assert f.theta == tuple(1 << i for i in range(kappa)), (w, kappa)
        assert subfield_rank(f, f.theta) == kappa, (w, kappa)


def test_theta_is_an_independent_basis(subfield_rank):
    f = extension_field(2, 6)
    assert len(f.theta) == 6
    assert subfield_rank(f, f.theta) == 6
    # scaling one basis vector by a subfield unit keeps independence,
    # appending any subfield combination of the others breaks it
    scaled = (f.mul(f.embed(2), f.theta[0]),) + f.theta[1:]
    assert subfield_rank(f, scaled) == 6
    combo = f.add(f.theta[0], f.mul(f.embed(3), f.theta[1]))
    assert subfield_rank(f, f.theta + (combo,)) == 6
    # a subfield multiple of a point, and zero, add no rank
    f = extension_field(3, 4)
    assert subfield_rank(f, f.theta[:1]) == 1
    assert subfield_rank(f, (f.theta[0], f.mul(f.embed(5), f.theta[0]))) == 1
    assert subfield_rank(f, f.theta[:2]) == 2
    assert subfield_rank(f, f.theta[:2] + (f.zero,)) == 2


def _subfield_poly_at(f, coeffs, z):
    """sum_s embed(coeffs[s]) z^s by the bit-serial reference multiply."""
    acc = 0
    for c in reversed(coeffs):
        acc = reference_mul(f, acc, z) ^ f.embed(c)
    return acc


@pytest.mark.parametrize("w,kappa", [(2, 5), (3, 4), (2, 40), (2, 140)])
def test_minimal_polynomial_of_x(w, kappa):
    f = extension_field(w, kappa)
    g = f.minpoly
    assert len(g) == kappa + 1 and g[-1] == 1  # monic of degree kappa
    assert all(f.subfield.contains(c) for c in g)
    assert _subfield_poly_at(f, g, 2) == 0  # g(x)
    assert _subfield_poly_at(f, g, reference_frobenius(f, 2)) == 0  # g(x^q)
    if kappa <= 5:  # every conjugate is a root, and the slope constants invert g' there
        unlanes = f._lanes_out
        slope = [c if s % 2 == 0 else 0 for s, c in enumerate(g[1:])]  # g'
        z = 2
        for i in range(kappa):
            assert unlanes(f._lane_conjugates[i]) == z
            assert _subfield_poly_at(f, g, z) == 0
            inv_slope = unlanes(f._lane_inv_slopes[i])
            assert reference_mul(f, _subfield_poly_at(f, slope, z), inv_slope) == 1
            z = reference_frobenius(f, z)
        assert z == 2  # kappa steps go round


def test_element_points_are_embedded_subfield():
    f = extension_field(4, 3)
    pts = [f.element(i) for i in range(16)]
    assert pts[0] == 0 and pts[1] == 1
    assert len(set(pts)) == 16
    for p in pts[1:]:
        assert f.frobenius(p) == p
    with pytest.raises(ValidationError):
        f.element(16)


def test_contains():
    f = extension_field(2, 5)
    assert f.contains(0)
    assert f.contains((1 << 10) - 1)
    assert not f.contains(1 << 10)
    assert not f.contains(-1)
    assert not f.contains(None)


def test_repr():
    assert repr(extension_field(2, 3)) == "BinaryExtensionField(w=2, kappa=3)"


def test_constructor_validation():
    with pytest.raises(ValidationError):
        extension_field(1, 1)  # total degree 1
    with pytest.raises(ValidationError):
        BinaryExtensionField(binary_field(12), 2)  # subfield too wide
    with pytest.raises(ValidationError):
        extension_field(2, 0)
    with pytest.raises(ValidationError) as err:
        find_modulus(1)
    assert str(err.value) == "modulus degree must be >= 2, got 1"
    with pytest.raises(ValidationError) as err:
        extension_field(2, 3).embed(4)
    assert str(err.value) == "4 is not a GF(2^2) element"


def test_extension_degree_is_bounded():
    assert MAX_EXTENSION_DEGREE == 1024
    # refused before any search: at degree 1024 the search alone takes seconds
    with pytest.raises(ValidationError, match="exceeds the limit of 1024"):
        find_modulus(1025)
    with pytest.raises(ValidationError, match="extension degree 1028"):
        extension_field(4, 257)


def test_wide_field_builds_quickly():
    f = extension_field(4, 20)  # GF(2^80)
    assert f.degree == 80
    a = (1 << 79) | 0x1234
    assert f.mul(a, f.inv(a)) == 1


def dense_operands(f, rng):
    """All-ones, near-all-ones and seeded elements: all-ones fills every lane of a product."""
    ones = f.order - 1
    near = [ones ^ 1, ones ^ (1 << (f.degree - 1)), ones >> 1, ones ^ (1 << (f.degree // 2))]
    return [ones, *near, 0, 1] + [rng.randrange(f.order) for _ in range(6)]


# one int multiply per product up to D = 254; from D = 256 the second operand is
# split into 255-lane pieces: two at 256 and 280, five at 1024. mul is the lane
# kernel with a conversion at each end, so both are held to the bit-serial reference.
@pytest.mark.parametrize("w,kappa", [(2, 5), (2, 40), (2, 112), (2, 127), (2, 128), (2, 140),
                                     (2, 512)])
def test_lane_kernel_matches_mul_and_frobenius_on_dense_operands(w, kappa, rng):
    f = extension_field(w, kappa)
    lanes, unlanes = f._lanes_in, f._lanes_out
    elems = dense_operands(f, rng)
    for a in elems:
        assert unlanes(lanes(a)) == a
        assert unlanes(f._lane_frobenius(lanes(a))) == reference_frobenius(f, a), a
        for b in elems:
            want = reference_mul(f, a, b)
            assert unlanes(f._lane_mul(lanes(a), lanes(b))) == want, (a, b)
            assert f.mul(a, b) == want, (a, b)


@pytest.mark.parametrize("w,kappa", [(2, 40), (3, 70), (8, 16)])
def test_lane_multiples_are_the_embedded_subfield_times_s(w, kappa, rng):
    f = extension_field(w, kappa)
    for s in [1, f.order - 1] + [rng.randrange(f.order) for _ in range(3)]:
        tab = f._lane_multiples(f._lanes_in(s))
        assert len(tab) == f.subfield.order
        for a in range(f.subfield.order):
            assert tab[a] == f._lanes_in(reference_mul(f, f.embed(a), s)), (s, a)


def test_lane_form_refuses_what_is_not_a_field_element():
    f = extension_field(2, 40)
    for bad in (f.order, f.order + 5, -1, None, "1"):
        with pytest.raises(ValidationError, match="is not a field element"):
            f._lanes_in(bad)
    assert f._lanes_in(0) == 0 and f._lanes_in(1) == 1
    # mul goes in through the lane form, so it refuses the same operands, either side
    for bad, good in ((f.order, 3), (-1, 5), (1 << 90, 1 << 90), (None, 1), ("1", 1)):
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(ValidationError, match="is not a field element"):
                f.mul(a, b)
