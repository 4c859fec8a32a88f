import random

import pytest

from old_format import OLD_FORMAT_DIR
from regencodes import SystemParams, build_code, bundled_design


@pytest.fixture
def rng():
    return random.Random(0xC0DE)


@pytest.fixture(scope="session")
def subfield_rank():
    """Rank over the embedded GF(2^w) of extension-field points, by GF(2) elimination.

    The subfield multiples of the points span a GF(2^w)-space, so its
    dimension over GF(2), found by eliminating the w multiples
    embed(2^j) * p of each point p, is w times the rank over GF(2^w).
    """

    def rank(f, points):
        pivots = {}
        for p in points:
            for j in range(f.subfield.w):
                v = f.mul(f.embed(1 << j), p)
                while v:
                    lead = v.bit_length() - 1
                    if lead not in pivots:
                        pivots[lead] = v
                        break
                    v ^= pivots[lead]
        return len(pivots) // f.subfield.w

    return rank


@pytest.fixture(scope="session")
def example_code():
    """The (8,6,6,2) layered code over S(3,4,8) used throughout the docs."""
    params = SystemParams(n=8, k=6, d=6, e=2, m=2, r=4, t=3)
    return build_code(params, design=bundled_design("s_3_4_8"))


@pytest.fixture(scope="session")
def example_state(example_code):
    data = [(37 * i + 11) % 256 for i in range(example_code.data_len)]
    return data, example_code.encode(data)


@pytest.fixture
def old_format_dir(tmp_path):
    """A fresh copy of OLD_FORMAT_DIR on disk."""
    path = tmp_path / "old_nodes"
    path.mkdir()
    for name, text in OLD_FORMAT_DIR.items():
        (path / name).write_text(text)
    return path
