"""Test data that both the pytest suite (conftest.py) and the scripted flow (flow.py) read;
it imports nothing, so flow.py runs where pytest is not installed."""

# The n=4, m=1, r=3 code of bytes 1..8 over GF(2^8), as the pre-v2 node-directory
# layout stored it: code.json without format_version and with the design's
# block lists, node files of one `block hex` line per symbol. It is refused.
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
