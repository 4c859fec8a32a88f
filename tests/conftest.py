import random

import pytest

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


# The n=4, m=1, r=3 code of bytes 1..8 over GF(2^8), as the old node-directory
# layout stored it: code.json without format_version and with the design's
# block lists, node files of one `block hex` line per symbol. It is still read.
OLD_FORMAT_DIR = {
    "code.json": (
        '{"construction": "layered", "design": {"blocks": [[1, 2, 3], [1, 2, 4], '
        '[1, 3, 4], [2, 3, 4]], "n": 4, "r": 3, "t": 3}, "field": {"w": 8}, '
        '"format": "regencodes-node-dir", "params": {"d": 3, "e": 1, "k": 3, '
        '"m": 1, "n": 4, "r": 3, "t": 3}, "version": "0.1.0"}\n'
    ),
    "node_001.txt": "1 3\n1 01\n2 03\n3 05\n",
    "node_002.txt": "2 3\n1 02\n2 04\n4 07\n",
    "node_003.txt": "3 3\n1 07\n3 06\n4 08\n",
    "node_004.txt": "4 3\n2 0d\n3 03\n4 19\n",
}


@pytest.fixture
def old_format_dir(tmp_path):
    """A fresh copy of OLD_FORMAT_DIR on disk."""
    path = tmp_path / "old_nodes"
    path.mkdir()
    for name, text in OLD_FORMAT_DIR.items():
        (path / name).write_text(text)
    return path
