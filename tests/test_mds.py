import itertools

import pytest

from regencodes import IntegrityError, ValidationError, binary_field
from regencodes.extfield import extension_field
from regencodes.mds import MdsCodec, mds_codec


@pytest.fixture(scope="module")
def codec():
    return mds_codec(binary_field(8), length=7, dimension=4)


def test_systematic_prefix(codec, rng):
    msg = [rng.randrange(256) for _ in range(4)]
    cw = codec.encode(msg)
    assert len(cw) == 7
    assert cw[:4] == msg


def test_every_k_subset_decodes(codec, rng):
    for _ in range(5):
        msg = [rng.randrange(256) for _ in range(4)]
        cw = codec.encode(msg)
        for positions in itertools.combinations(range(7), 4):
            available = {p: cw[p] for p in positions}
            assert codec.decode(available) == cw


def test_linearity(codec, rng):
    f = binary_field(8)
    for _ in range(20):
        a = [rng.randrange(256) for _ in range(4)]
        b = [rng.randrange(256) for _ in range(4)]
        ca = codec.encode(a)
        cb = codec.encode(b)
        summed = codec.encode([f.add(x, y) for x, y in zip(a, b)])
        assert summed == [f.add(x, y) for x, y in zip(ca, cb)]


def test_extra_symbols_are_verified(codec, rng):
    msg = [rng.randrange(256) for _ in range(4)]
    cw = codec.encode(msg)
    available = {p: cw[p] for p in range(6)}
    available[5] ^= 1
    with pytest.raises(IntegrityError):
        codec.decode(available)


def test_decode_needs_dimension_symbols(codec):
    cw = codec.encode([1, 2, 3, 4])
    with pytest.raises(ValidationError):
        codec.decode({p: cw[p] for p in range(3)})


def test_decode_rejects_unknown_position(codec):
    cw = codec.encode([1, 2, 3, 4])
    available = {p: cw[p] for p in range(3)}
    available[9] = 0
    with pytest.raises(ValidationError):
        codec.decode(available)


def test_decode_rejects_non_field_symbol(codec):
    cw = codec.encode([1, 2, 3, 4])
    available = {p: cw[p] for p in range(4)}
    available[0] = 256
    with pytest.raises(ValidationError):
        codec.decode(available)


def test_encode_validates_message(codec):
    with pytest.raises(ValidationError):
        codec.encode([1, 2, 3])
    with pytest.raises(ValidationError):
        codec.encode([1, 2, 3, 300])


def test_extended_codec_keeps_old_positions(codec, rng):
    # LayeredCode.extend relies on this: the canonical codec one position
    # longer has the old codewords as prefixes
    f = binary_field(8)
    bigger = mds_codec(f, 8, 4)
    assert bigger.points[:7] == codec.points
    msg = [rng.randrange(256) for _ in range(4)]
    assert bigger.encode(msg)[:7] == codec.encode(msg)
    # the new position joins decoding like any other
    cw = bigger.encode(msg)
    assert bigger.decode({p: cw[p] for p in (0, 5, 6, 7)}) == cw
    ext = extension_field(3, 2)
    for length, dimension in ((3, 2), (4, 1), (7, 7)):
        short = mds_codec(ext, length, dimension)
        longer = mds_codec(ext, length + 1, dimension)
        for _ in range(5):
            msg = [rng.randrange(1 << ext.degree) for _ in range(dimension)]
            assert longer.encode(msg)[:length] == short.encode(msg)


def test_constructor_validation():
    f = binary_field(8)
    with pytest.raises(ValidationError):
        mds_codec(f, 4, 5)  # dimension > length
    with pytest.raises(ValidationError):
        mds_codec(f, 300, 2)  # not enough field elements
    with pytest.raises(ValidationError):
        MdsCodec(field=f, length=3, dimension=2, points=(1, 1, 2))


def test_identity_when_no_parity():
    c = mds_codec(binary_field(8), 4, 4)
    assert c.encode([9, 8, 7, 6]) == [9, 8, 7, 6]


def _check_generator(codec, bits, rng):
    f = codec.field
    k = codec.dimension
    cw = codec.encode([rng.randrange(1 << bits) for _ in range(k)])
    for positions in itertools.combinations(range(codec.length), k):
        rows = codec.generator(positions)
        assert len(rows) == codec.length
        for i, p in enumerate(positions):
            assert rows[p] == tuple(f.one if j == i else f.zero for j in range(k))
        values = [cw[p] for p in positions]
        rebuilt = []
        for row in rows:
            acc = f.zero
            for v, w in zip(values, row):
                acc = f.add(acc, f.mul(v, w))
            rebuilt.append(acc)
        assert rebuilt == cw, positions
        assert codec.generator(list(positions)) is rows  # built once per set


def test_generator_through_every_subset(codec, rng):
    _check_generator(codec, 8, rng)
    # the kept rows are not part of the codec's value
    assert codec == mds_codec(binary_field(8), 7, 4)
    assert hash(codec) == hash(mds_codec(binary_field(8), 7, 4))


def test_generator_over_extension_field(rng):
    # an (r, r-m) = (5, 3) group code over GF((2^3)^6), as in precoded codes
    field = extension_field(3, 6)
    _check_generator(mds_codec(field, 5, 3), field.degree, rng)


def test_generator_validates_positions(codec):
    bad = [
        (1, 0, 2, 3),  # not sorted
        (0, 0, 1, 2),  # repeated
        (0, 1, 2),  # too few
        (0, 1, 2, 3, 4),  # too many
        (0, 1, 2, 7),  # past the end
        (-1, 0, 1, 2),  # negative
    ]
    for positions in bad:
        with pytest.raises(ValidationError):
            codec.generator(positions)


def _lagrange_rows(field, points, positions):
    # product form: row(x)_i = prod_{j != i} (x - x_j) / (x_i - x_j)
    base = [points[p] for p in positions]
    rows = []
    for x in points:
        row = []
        for i, xi in enumerate(base):
            w = field.one
            for j, xj in enumerate(base):
                if j != i:
                    w = field.mul(w, field.mul(field.add(x, xj), field.inv(field.add(xi, xj))))
            row.append(w)
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("field, length, dimension", [
    (binary_field(8), 9, 5),
    (binary_field(4), 7, 3),
    (extension_field(3, 6), 5, 3),
])
def test_barycentric_rows_equal_product_lagrange(field, length, dimension):
    codec = mds_codec(field, length, dimension)
    for positions in itertools.combinations(range(length), dimension):
        assert codec.generator(positions) == _lagrange_rows(field, codec.points, positions)


@pytest.mark.parametrize("field, bits, length, dimension", [
    (binary_field(4), 4, 6, 3),
    (binary_field(8), 8, 6, 3),
    (binary_field(16), 16, 6, 3),
    (extension_field(2, 6), 12, 4, 2),  # GF(4) has only four points
], ids=["gf16", "gf256", "gf65536", "gf4^6"])
def test_decode_many_matches_one_block_decode(field, bits, length, dimension, rng):
    codec = mds_codec(field, length, dimension)
    batch = [codec.encode([rng.randrange(1 << bits) for _ in range(dimension)])
             for _ in range(40)]
    for chosen in itertools.combinations(range(length), dimension):
        cols = codec.decode_many(chosen, [field.column(cw[p] for cw in batch) for p in chosen])
        assert len(cols) == length
        for pos, col in enumerate(cols):
            assert col == field.column(cw[pos] for cw in batch), (chosen, pos)
        for cw in batch:
            assert codec.decode({p: cw[p] for p in chosen}) == cw


@pytest.mark.parametrize("w", [8, 3])
def test_column_tables_equal_mul(w):
    # lincomb with one weight c is exactly the column through T_c
    f = binary_field(w)
    every = f.column(range(f.order))
    for c in range(f.order):
        assert f.lincomb([c], [every]) == bytes(f.mul(c, v) for v in range(f.order)), c
    # one 256-byte table per element: 64 KiB at w = 8
    assert len(f._mul_tables) == f.order
    assert {len(t) for t in f._mul_tables} == {256}


def test_decode_many_edge_batches(codec, rng):
    f = codec.field
    cw = codec.encode([rng.randrange(256) for _ in range(4)])
    one = codec.decode_many((1, 3, 5, 6), [f.column([cw[p]]) for p in (1, 3, 5, 6)])
    assert [col[0] for col in one] == cw
    # no parity rows: the columns come back as given
    plain = mds_codec(f, 4, 4)
    cols = [bytes([p, 9, 200]) for p in range(4)]
    assert plain.decode_many(range(4), cols) == cols
    assert plain.decode_many(range(4), [b""] * 4) == [b""] * 4
    with pytest.raises(ValidationError):
        codec.decode_many((0, 1, 2, 3), [b"\x01"] * 3)  # too few columns
    with pytest.raises(ValidationError):
        codec.decode_many((0, 1, 2, 3), [b"\x01", b"\x02", b"\x03", b"\x04\x05"])
    with pytest.raises(ValidationError):
        codec.decode_many((0, 1, 3, 2), [b"\x01"] * 4)  # not ascending
