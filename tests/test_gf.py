"""Table-driven GF(2^w) arithmetic against a carryless-multiply reference."""

import random

import pytest

from regencodes import ValidationError, binary_field
from regencodes.gf import _PRIMITIVE


def clmul_reduce(a, b, poly, w):
    # shift-and-xor product, then reduce by the field polynomial; no tables
    prod = 0
    for i in range(w):
        if b >> i & 1:
            prod ^= a << i
    for i in range(2 * w - 2, w - 1, -1):
        if prod >> i & 1:
            prod ^= poly << (i - w)
    return prod


@pytest.mark.parametrize("w", [2, 3, 4])
def test_mul_matches_reference_exhaustive(w):
    f = binary_field(w)
    poly = _PRIMITIVE[w]
    for a in range(1 << w):
        for b in range(1 << w):
            assert f.mul(a, b) == clmul_reduce(a, b, poly, w)


@pytest.mark.parametrize("w", [8, 12, 16])
def test_mul_matches_reference_sampled(w, rng):
    f = binary_field(w)
    poly = _PRIMITIVE[w]
    for _ in range(500):
        a = rng.randrange(1 << w)
        b = rng.randrange(1 << w)
        assert f.mul(a, b) == clmul_reduce(a, b, poly, w)


def test_add_is_xor():
    f = binary_field(8)
    assert f.add(0x53, 0xCA) == 0x53 ^ 0xCA
    assert f.add(0, 0xFF) == 0xFF


def test_field_axioms(rng):
    f = binary_field(8)
    for _ in range(200):
        a, b, c = (rng.randrange(256) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(a, f.one) == a
        assert f.mul(a, 0) == 0


def test_inverse_and_division():
    f = binary_field(8)
    for a in range(1, 256):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ValidationError):
        f.inv(0)


def test_generator_has_full_period():
    # the log table only works if element 2 generates the multiplicative group
    for w in (2, 4, 8):
        f = binary_field(w)
        seen = set()
        x = 1
        for _ in range((1 << w) - 1):
            seen.add(x)
            x = f.mul(x, 2)
        assert x == 1
        assert len(seen) == (1 << w) - 1


def test_element_enumeration():
    f = binary_field(4)
    elems = [f.element(i) for i in range(16)]
    assert elems[0] == 0
    assert len(set(elems)) == 16
    with pytest.raises(ValidationError):
        f.element(16)
    with pytest.raises(ValidationError):
        f.element(-1)


def test_contains_screens_out_non_elements():
    # mul and friends trust their inputs; contains is the boundary check
    f = binary_field(4)
    assert f.contains(15)
    assert not f.contains(16)
    assert not f.contains(-1)
    assert not f.contains("3")


def test_factory_is_cached_and_validates():
    assert binary_field(8) is binary_field(8)
    assert binary_field(8) == binary_field(8)
    assert binary_field(8) != binary_field(4)
    with pytest.raises(ValidationError):
        binary_field(0)
    with pytest.raises(ValidationError):
        binary_field(17)


def test_hex_width():
    assert binary_field(4).hex_width == 1
    assert binary_field(8).hex_width == 2
    assert binary_field(12).hex_width == 3
