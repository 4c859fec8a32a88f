import itertools
from math import comb

import pytest

from regencodes import ValidationError
from regencodes.designs import (
    BlockDesign,
    bundled_design,
    bundled_design_names,
    complete_design,
    design_stats,
    load_design,
    parse_design,
    serialize_design,
    verify_steiner,
)


def test_complete_design_counts():
    d = complete_design(5, 3)
    assert d.block_count == comb(5, 3)
    assert d.blocks == tuple(itertools.combinations(range(1, 6), 3))
    assert verify_steiner(d)
    st = design_stats(d)
    assert (st.N, st.alpha, st.lambda2, st.lambda3) == (10, 6, 3, 1)


def test_complete_design_validates():
    with pytest.raises(ValidationError):
        complete_design(3, 4)
    with pytest.raises(ValidationError):
        complete_design(3, 0)
    # refused by arithmetic before any block is built, however large n is
    for n, r in [(40, 20), (10**9, 5 * 10**8), (100_001, 1)]:
        with pytest.raises(ValidationError, match=f"C\\({n},{r}\\) has more than 100000"):
            complete_design(n, r)
    assert complete_design(100_000, 1).block_count == 100_000


def test_bundled_steiner_3_4_8():
    d = bundled_design("s_3_4_8")
    assert (d.n, d.r, d.t) == (8, 4, 3)
    assert d.block_count == 14
    assert verify_steiner(d)
    st = design_stats(d)
    assert (st.N, st.alpha, st.lambda2, st.lambda3) == (14, 7, 3, 1)
    # every point lies in exactly alpha blocks
    for x in range(1, 9):
        assert sum(x in b for b in d.blocks) == 7


def test_bundled_fano_plane():
    d = bundled_design("s_2_3_7")
    assert (d.n, d.r, d.t) == (7, 3, 2)
    assert verify_steiner(d)
    st = design_stats(d)
    assert (st.N, st.alpha, st.lambda2, st.lambda3) == (7, 3, 1, 0)


def test_bundled_names():
    names = bundled_design_names()
    assert "s_3_4_8" in names and "s_2_3_7" in names
    with pytest.raises(ValidationError):
        bundled_design("no_such_design")


def test_perturbed_design_fails_verification():
    d = bundled_design("s_3_4_8")
    blocks = list(d.blocks)
    blocks[0] = blocks[1]  # duplicate block: some triples now covered twice
    bad = BlockDesign(n=8, r=4, t=3, blocks=tuple(blocks))
    assert not verify_steiner(bad)


def test_wrong_block_count_fails_stats():
    d = bundled_design("s_3_4_8")
    bad = BlockDesign(n=8, r=4, t=3, blocks=d.blocks[:13])
    with pytest.raises(ValidationError):
        design_stats(bad)


def test_blocks_are_normalized_sorted():
    d = BlockDesign(n=5, r=3, t=2, blocks=((3, 1, 2), (5, 4, 1)))
    assert d.blocks == ((1, 2, 3), (1, 4, 5))


def test_block_validation():
    with pytest.raises(ValidationError):
        BlockDesign(n=5, r=3, t=2, blocks=((1, 2),))  # wrong size
    with pytest.raises(ValidationError):
        BlockDesign(n=5, r=3, t=2, blocks=((1, 2, 6),))  # out of range
    with pytest.raises(ValidationError):
        BlockDesign(n=5, r=3, t=2, blocks=((1, 2, 2),))  # repeated point
    with pytest.raises(ValidationError):
        BlockDesign(n=5, r=3, t=4, blocks=((1, 2, 3),))  # t > r


def test_serialize_parse_round_trip():
    for name in bundled_design_names():
        d = bundled_design(name)
        assert parse_design(serialize_design(d)) == d


def test_parse_strictness():
    good = serialize_design(complete_design(4, 2))
    assert parse_design(good) == complete_design(4, 2)
    with pytest.raises(ValidationError):
        parse_design("")
    with pytest.raises(ValidationError):
        parse_design("4 2\n1 2\n")  # header too short
    with pytest.raises(ValidationError):
        parse_design("4 2 2\n1 2\n1 x\n")  # non-integer entry
    with pytest.raises(ValidationError):
        parse_design("4 2 2\n1 2 3\n")  # block size disagrees with r
    with pytest.raises(ValidationError):
        parse_design("4 2 2\n1 5\n")  # point out of range
    # an incomplete but well-formed file parses; completeness is verify's job
    d = parse_design("4 2 2\n1 2\n")
    assert not verify_steiner(d)


def test_load_design(tmp_path):
    d = bundled_design("s_2_3_7")
    p = tmp_path / "fano.design"
    p.write_text(serialize_design(d))
    assert load_design(p) == d
