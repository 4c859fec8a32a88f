"""End-to-end CLI behavior through main(argv): files, manifests, exit codes."""

import csv
import hashlib
import io
import json
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

from regencodes import NodeContents, SystemParams, build_code
from regencodes.cli import main
from regencodes.designs import bundled_design, serialize_design
from regencodes.layered import LayeredCode, node_contents_from_text, node_contents_to_text
from regencodes.tradeoff import CSV_HEADER


DATA8 = bytes(range(1, 9))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def encode_small(tmp_path, capsys, out_name="nodes"):
    data = tmp_path / "data.bin"
    data.write_bytes(DATA8)
    out_dir = tmp_path / out_name
    code, out = run(
        capsys, "encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3",
        "--r", "3", "--data", str(data), "--out-dir", str(out_dir),
    )
    assert code == 0
    return data, out_dir, json.loads(out)


def rewrite_flipped(out_dir, node, which=0):
    """Flip one stored symbol and write the node back through the writer,
    so that its checksum holds and only a decode can see the change."""
    code = build_code(SystemParams(n=4, k=3, d=3, e=1, m=1, r=3, t=3))
    path = out_dir / f"node_{node:03d}.txt"
    nc, _ = node_contents_from_text(path.read_text(), code)
    symbols = bytearray(nc.symbols)
    symbols[which] ^= 1
    path.write_text(node_contents_to_text(NodeContents(node, bytes(symbols)), hex_width=2))


def dir_digest(dirpath, skip=("manifest.json",)):
    out = {}
    for p in sorted(Path(dirpath).iterdir()):
        if p.name in skip:
            continue
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_encode_writes_a_node_directory(tmp_path, capsys):
    _, out_dir, payload = encode_small(tmp_path, capsys)
    assert payload["nodes"] == 4
    assert payload["alpha"] == 3
    assert payload["data_symbols"] == 8
    assert payload["symbol_bytes"] == 1
    names = {p.name for p in out_dir.iterdir()}
    assert names == {"code.json", "manifest.json",
                     "node_001.txt", "node_002.txt", "node_003.txt", "node_004.txt"}
    meta = json.loads((out_dir / "code.json").read_text())
    assert meta["format"] == "regencodes-node-dir"
    assert meta["format_version"] == 2
    assert meta["construction"] == "layered"
    assert meta["params"] == {"n": 4, "k": 3, "d": 3, "e": 1, "m": 1, "r": 3, "t": 3}
    assert meta["design"] == {"n": 4, "r": 3, "t": 3, "complete": True}
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "encode"
    assert len(manifest["outputs"]) == 5
    head, payload = (out_dir / "node_001.txt").read_text().splitlines()
    assert head == f"v2 1 3 crc={zlib.crc32(payload.encode()):08x}"
    assert payload == "010305"  # the symbols of blocks 1, 2 and 3, in slot order


def test_encode_is_deterministic(tmp_path, capsys):
    _, out_dir, _ = encode_small(tmp_path, capsys)
    before = dir_digest(out_dir, skip=())
    for p in out_dir.iterdir():
        p.unlink()
    encode_small(tmp_path, capsys)
    assert dir_digest(out_dir, skip=()) == before
    assert not list(out_dir.glob("*.tmp"))


def test_repair_restores_deleted_nodes(tmp_path, capsys):
    _, out_dir, _ = encode_small(tmp_path, capsys)
    original = (out_dir / "node_001.txt").read_bytes()
    (out_dir / "node_001.txt").unlink()
    report_path = tmp_path / "report.json"
    code, out = run(
        capsys, "repair", "--node-dir", str(out_dir),
        "--failed", "1", "--helpers", "2,3,4", "--report", str(report_path),
    )
    assert code == 0
    assert (out_dir / "node_001.txt").read_bytes() == original
    payload = json.loads(out)
    assert payload["totals"]["msmr"] == [6, 1]
    assert payload["totals"]["naive"] == [6, 1]
    assert payload["written"] == [str(out_dir / "node_001.txt")]
    assert json.loads(report_path.read_text()) == payload


def test_reconstruct_round_trips(tmp_path, capsys):
    data, out_dir, _ = encode_small(tmp_path, capsys)
    back = tmp_path / "back.bin"
    code, out = run(
        capsys, "reconstruct", "--node-dir", str(out_dir),
        "--nodes", "2,3,4", "--out", str(back),
    )
    assert code == 0
    assert back.read_bytes() == DATA8
    assert json.loads(out)["bytes"] == 8


def test_reconstruct_to_stdout(tmp_path, capsysbinary):
    data = tmp_path / "data.bin"
    data.write_bytes(DATA8)
    out_dir = tmp_path / "nodes"
    assert main(["encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3",
                 "--r", "3", "--data", str(data), "--out-dir", str(out_dir)]) == 0
    capsysbinary.readouterr()
    assert main(["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2,4"]) == 0
    assert capsysbinary.readouterr().out == DATA8


def test_tampered_node_file_fails_with_exit_3(tmp_path, capsys):
    # a checksummed flip: the decode sees block 1 disagree at its third member
    _, out_dir, _ = encode_small(tmp_path, capsys)
    rewrite_flipped(out_dir, 1)
    code = main(["reconstruct", "--node-dir", str(out_dir),
                 "--nodes", "1,2,3,4", "--out", str(tmp_path / "x.bin")])
    assert code == 3
    assert capsys.readouterr().err == (
        "integrity error: block 1: mismatch seen at position 2 (node 3)\n")
    assert not (tmp_path / "x.bin").exists()


def test_on_disk_flip_is_named_by_the_checksum(tmp_path, capsys, monkeypatch):
    _, out_dir, _ = encode_small(tmp_path, capsys)
    path = out_dir / "node_002.txt"
    head, payload = path.read_text().splitlines()
    digit = "1" if payload[3] == "0" else "0"
    path.write_text(f"{head}\n{payload[:3]}{digit}{payload[4:]}\n")

    def refuse(*args):
        raise AssertionError("a node that fails its checksum reached the decode")

    monkeypatch.setattr(LayeredCode, "_decode", refuse)
    extra = tmp_path / "extra.bin"
    extra.write_bytes(b"\xaa\xbb")
    for argv in (
        ["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2,3,4"],
        ["repair", "--node-dir", str(out_dir), "--failed", "1", "--helpers", "2,3,4"],
        ["extend", "--node-dir", str(out_dir), "--new-data", str(extra),
         "--out-dir", str(tmp_path / "bigger")],
    ):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("integrity error: node 2: payload fails its checksum crc="), err
    assert not (tmp_path / "bigger").exists()


def test_validation_failures_exit_2(tmp_path, capsys):
    data = tmp_path / "data.bin"
    data.write_bytes(DATA8)
    bad = [
        # e > m
        ["encode", "--n", "4", "--m", "1", "--e", "2", "--d", "3", "--r", "3",
         "--data", str(data), "--out-dir", str(tmp_path / "x")],
        # missing r and design
        ["encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3",
         "--data", str(data), "--out-dir", str(tmp_path / "x")],
        # data file of the wrong length
        ["encode", "--n", "5", "--m", "1", "--e", "1", "--d", "4", "--r", "4",
         "--data", str(data), "--out-dir", str(tmp_path / "x")],
        # nonexistent data file
        ["encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3",
         "--data", str(tmp_path / "missing.bin"), "--out-dir", str(tmp_path / "x")],
        ["region", "--k", "3", "--e", "3"],
        ["points", "--n", "10", "--k", "7", "--d", "6", "--e", "1"],
        ["compare", "--n", "7", "--k", "7", "--d", "7"],
        # no GF(2^0); must not fall back to the default width
        ["encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3",
         "--field-width", "0", "--data", str(data), "--out-dir", str(tmp_path / "x")],
        # C(40, 20) blocks, refused before any is built
        ["design", "--n", "40", "--r", "20"],
        # extension degree 3 * 4 * C(9, 5) = 1512, refused before the field search
        ["encode", "--construction", "precoded", "--n", "9", "--k", "6", "--m", "1",
         "--e", "1", "--d", "7", "--r", "5", "--data", str(data), "--out-dir", str(tmp_path / "x")],
    ]
    for argv in bad:
        code, _ = run(capsys, *argv)
        assert code == 2, argv


def test_symbol_range_is_checked(tmp_path, capsys):
    data = tmp_path / "data.bin"
    data.write_bytes(bytes([0xFF] * 8))
    code, _ = run(
        capsys, "encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3",
        "--r", "3", "--field-width", "4",
        "--data", str(data), "--out-dir", str(tmp_path / "x"),
    )
    assert code == 2
    # the error names the first symbol out of range
    data.write_bytes(bytes([1, 15, 0, 16, 17, 2, 3, 4]))
    code = main(["encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3",
                 "--field-width", "4", "--data", str(data), "--out-dir", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == f"error: symbol #3 in {data} exceeds 4 bits\n"


def test_non_field_symbol_under_a_valid_checksum_exits_2(tmp_path, capsys):
    # a GF(2^5) symbol takes two hex digits, so a payload can hold 0xff with
    # a checksum that matches; the node's column check refuses it
    data = tmp_path / "data.bin"
    data.write_bytes(bytes(range(3, 11)))
    out_dir = tmp_path / "nodes"
    assert main(["encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3",
                 "--field-width", "5", "--data", str(data), "--out-dir", str(out_dir)]) == 0
    path = out_dir / "node_001.txt"
    payload = "ff" + path.read_text().splitlines()[1][2:]
    path.write_text(f"v2 1 3 crc={zlib.crc32(payload.encode()):08x}\n{payload}\n")
    capsys.readouterr()
    for argv in (
        ["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2,3"],
        ["repair", "--node-dir", str(out_dir), "--failed", "4", "--helpers", "1,2,3"],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "error: node 1 holds a non-field symbol 255\n"


def test_missing_node_file_exits_2(tmp_path, capsys):
    _, out_dir, _ = encode_small(tmp_path, capsys)
    (out_dir / "node_002.txt").unlink()
    code, _ = run(capsys, "reconstruct", "--node-dir", str(out_dir),
                  "--nodes", "1,2,3")
    assert code == 2


def test_foreign_code_json_is_rejected(tmp_path, capsys):
    out_dir = tmp_path / "junk"
    out_dir.mkdir()
    (out_dir / "code.json").write_text(json.dumps({"format": "something-else"}))
    code, _ = run(capsys, "reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2")
    assert code == 2
    # malformed descriptors: not an object, a non-integer parameter, a block
    # that is not a list
    layered = {
        "format": "regencodes-node-dir", "construction": "layered",
        "params": {"n": 4, "k": 3, "d": 3, "e": 1, "m": 1, "r": 3, "t": 3},
        "field": {"w": 8}, "design": {"n": 4, "r": 3, "t": 3, "blocks": [5, 6]},
    }
    for meta in ([1, 2], {**layered, "params": {"n": "eight"}}, layered):
        (out_dir / "code.json").write_text(json.dumps(meta))
        code, _ = run(capsys, "reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2")
        assert code == 2
    # a format_version this reader does not know, on an otherwise valid descriptor
    complete = {**layered, "design": {"n": 4, "r": 3, "t": 3, "complete": True}}
    for version in (3, 1, "2", None):
        (out_dir / "code.json").write_text(json.dumps({**complete, "format_version": version}))
        assert main(["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2"]) == 2
        assert "format_version" in capsys.readouterr().err


def test_out_of_order_node_lines_exit_2(tmp_path, capsys, old_format_dir):
    # old-format labels intact, two lines swapped: every entry point rejects
    # the node (the v2 layout has no labels to disorder)
    out_dir = old_format_dir
    path = out_dir / "node_001.txt"
    head, first, second, *rest = path.read_text().splitlines()
    path.write_text("\n".join([head, second, first, *rest]) + "\n")
    code, _ = run(capsys, "repair", "--node-dir", str(out_dir),
                  "--failed", "4", "--helpers", "1,2,3")
    assert code == 2
    code, _ = run(capsys, "reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2,3")
    assert code == 2
    new_data = tmp_path / "new.bin"
    new_data.write_bytes(bytes([9, 10]))
    code, _ = run(capsys, "extend", "--node-dir", str(out_dir),
                  "--new-data", str(new_data), "--out-dir", str(tmp_path / "ext"))
    assert code == 2


def test_out_dir_env_prefixes_relative_outputs(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REGENCODES_OUT_DIR", str(tmp_path))
    data = tmp_path / "data.bin"
    data.write_bytes(DATA8)
    code, _ = run(
        capsys, "encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3",
        "--r", "3", "--data", str(data), "--out-dir", "sub/nodes",
    )
    assert code == 0
    assert (tmp_path / "sub" / "nodes" / "code.json").exists()
    # absolute paths ignore the prefix
    out_abs = tmp_path / "abs_nodes"
    code, _ = run(
        capsys, "encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3",
        "--r", "3", "--data", str(data), "--out-dir", str(out_abs),
    )
    assert code == 0
    assert (out_abs / "code.json").exists()


def test_design_generate_and_load(tmp_path, capsys):
    out = tmp_path / "pairs.design"
    code, text = run(capsys, "design", "--n", "5", "--r", "2", "--out", str(out))
    assert code == 0
    payload = json.loads(text)
    assert payload["blocks"] == 10
    assert payload["steiner"] is True
    code, text = run(capsys, "design", "--load", str(out))
    assert code == 0
    assert json.loads(text)["blocks"] == 10
    code, _ = run(capsys, "design", "--load", str(out), "--n", "6")
    assert code == 2
    code, _ = run(capsys, "design", "--n", "5")
    assert code == 2


def test_design_rejects_non_steiner_file(tmp_path, capsys):
    d = bundled_design("s_3_4_8")
    text = serialize_design(d).splitlines()
    dup = tmp_path / "bad.design"
    dup.write_text("\n".join([text[0]] + [text[1]] * 14) + "\n")
    code, _ = run(capsys, "design", "--load", str(dup))
    assert code == 2


def test_encode_with_design_file(tmp_path, capsys):
    dpath = tmp_path / "s348.design"
    dpath.write_text(serialize_design(bundled_design("s_3_4_8")))
    data = tmp_path / "data.bin"
    data.write_bytes(bytes(range(28)))
    out_dir = tmp_path / "nodes"
    code, out = run(
        capsys, "encode", "--n", "8", "--m", "2", "--e", "2", "--d", "6",
        "--design", str(dpath), "--data", str(data), "--out-dir", str(out_dir),
    )
    assert code == 0
    assert json.loads(out)["alpha"] == 7
    back = tmp_path / "back.bin"
    code, _ = run(capsys, "reconstruct", "--node-dir", str(out_dir),
                  "--nodes", "1,2,4,5,7,8", "--out", str(back))
    assert code == 0
    assert back.read_bytes() == bytes(range(28))


def test_extend_chain(tmp_path, capsys):
    data, out_dir, _ = encode_small(tmp_path, capsys)
    extra = tmp_path / "extra.bin"
    extra.write_bytes(b"\xaa\xbb")
    bigger = tmp_path / "bigger"
    code, out = run(capsys, "extend", "--node-dir", str(out_dir),
                    "--new-data", str(extra), "--out-dir", str(bigger))
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == 5
    assert payload["data_symbols"] == 10
    # old payloads are literal prefixes of the new ones, which gain the new
    # block's symbol
    for x in range(1, 5):
        old = (out_dir / f"node_{x:03d}.txt").read_text().splitlines()[1]
        new = (bigger / f"node_{x:03d}.txt").read_text().splitlines()[1]
        assert new[: len(old)] == old and len(new) == len(old) + 2
    back = tmp_path / "ext.bin"
    code, _ = run(capsys, "reconstruct", "--node-dir", str(bigger),
                  "--nodes", "1,3,5", "--out", str(back))
    assert code == 0
    assert back.read_bytes() == DATA8 + b"\xaa\xbb"
    code, _ = run(capsys, "extend", "--node-dir", str(bigger),
                  "--new-data", str(extra), "--out-dir", str(tmp_path / "b2"))
    assert code == 0


def test_extend_of_corrupted_dir_exits_3_and_writes_nothing(tmp_path, capsys):
    _, out_dir, _ = encode_small(tmp_path, capsys)
    rewrite_flipped(out_dir, 2)
    extra = tmp_path / "extra.bin"
    extra.write_bytes(b"\xaa\xbb")
    bigger = tmp_path / "bigger"
    code = main(["extend", "--node-dir", str(out_dir),
                 "--new-data", str(extra), "--out-dir", str(bigger)])
    assert code == 3
    assert capsys.readouterr().err == (
        "integrity error: block 1: mismatch seen at position 2 (node 3)\n")
    written = list(bigger.glob("node_*.txt")) + list(bigger.glob("code.json"))
    assert written == []


def test_old_format_dir_reads_and_is_rewritten_as_v2(tmp_path, capsys, old_format_dir):
    # the same data and exit codes as when this layout was the written one;
    # repair and extend write v2 files, identical to a fresh v2 directory's
    _, fresh, _ = encode_small(tmp_path, capsys)
    back = tmp_path / "back.bin"
    code, _ = run(capsys, "reconstruct", "--node-dir", str(old_format_dir),
                  "--nodes", "1,2,4", "--out", str(back))
    assert code == 0
    assert back.read_bytes() == DATA8

    extra = tmp_path / "extra.bin"
    extra.write_bytes(b"\xaa\xbb")
    for src, dst in ((old_format_dir, "old_bigger"), (fresh, "fresh_bigger")):
        code, _ = run(capsys, "extend", "--node-dir", str(src),
                      "--new-data", str(extra), "--out-dir", str(tmp_path / dst))
        assert code == 0
    assert dir_digest(tmp_path / "old_bigger") == dir_digest(tmp_path / "fresh_bigger")

    (old_format_dir / "node_004.txt").unlink()
    code, out = run(capsys, "repair", "--node-dir", str(old_format_dir),
                    "--failed", "4", "--helpers", "1,2,3")
    assert code == 0
    assert json.loads(out)["totals"]["naive"] == [6, 1]
    assert (old_format_dir / "node_004.txt").read_bytes() == (fresh / "node_004.txt").read_bytes()
    # a directory of both layouts reads as one
    code, _ = run(capsys, "reconstruct", "--node-dir", str(old_format_dir),
                  "--nodes", "1,2,3,4", "--out", str(back))
    assert code == 0
    assert back.read_bytes() == DATA8

    # an old-format symbol changed on disk meets the decode, as before
    path = old_format_dir / "node_001.txt"
    path.write_text(path.read_text().replace("\n1 01\n", "\n1 00\n"))
    code = main(["reconstruct", "--node-dir", str(old_format_dir),
                 "--nodes", "1,2,3,4", "--out", str(back)])
    assert code == 3
    assert capsys.readouterr().err == (
        "integrity error: block 1: mismatch seen at position 2 (node 3)\n")


def oversized_designs():
    # n=40, r=20, t=6, 20 blocks: the block count is wrong, and C(40,6) is
    # far above MAX_BLOCKS. n=40, r=39, t=20, two blocks: 2*C(39,20) is
    # C(40,20), so only the bound stops a C(39,20)-subset expansion per block
    shifted = [sorted((i + j) % 40 + 1 for j in range(20)) for i in range(20)]
    yield 40, 20, 6, shifted
    yield 40, 39, 20, [list(range(1, 40)), list(range(2, 41))]


def test_oversized_designs_exit_2_before_expansion(tmp_path, capsys, monkeypatch):
    from regencodes import designs

    def refuse(*args):
        raise AssertionError("t-subsets expanded")

    monkeypatch.setattr(designs.itertools, "combinations", refuse)
    for n, r, t, blocks in oversized_designs():
        dpath = tmp_path / "big.design"
        dpath.write_text("\n".join([f"{n} {r} {t}"] + [" ".join(map(str, b)) for b in blocks]))
        code, _ = run(capsys, "design", "--load", str(dpath))
        assert code == 2
        node_dir = tmp_path / "nodes"
        node_dir.mkdir(exist_ok=True)
        (node_dir / "code.json").write_text(json.dumps({
            "format": "regencodes-node-dir", "construction": "layered",
            "params": {"n": n, "k": n - 1, "d": n - 1, "e": 1, "m": 1, "r": r, "t": t},
            "field": {"w": 8}, "design": {"n": n, "r": r, "t": t, "blocks": blocks},
        }))
        code, _ = run(capsys, "reconstruct", "--node-dir", str(node_dir), "--nodes", "1")
        assert code == 2
    # a complete design is stored as its shape; C(40, 20) blocks are refused
    # before complete_design builds any
    node_dir = tmp_path / "complete"
    node_dir.mkdir()
    (node_dir / "code.json").write_text(json.dumps({
        "format": "regencodes-node-dir", "format_version": 2, "construction": "layered",
        "params": {"n": 40, "k": 39, "d": 39, "e": 1, "m": 1, "r": 20, "t": 20},
        "field": {"w": 8}, "design": {"n": 40, "r": 20, "t": 20, "complete": True},
    }))
    assert main(["reconstruct", "--node-dir", str(node_dir), "--nodes", "1"]) == 2
    assert "more than 100000 blocks" in capsys.readouterr().err


def test_precoded_round_trip(tmp_path, capsys):
    data = tmp_path / "pdata.bin"
    data.write_bytes(b"".join(
        (v % (1 << 20)).to_bytes(3, "big") for v in range(101, 110)
    ))
    out_dir = tmp_path / "pnodes"
    code, out = run(
        capsys, "encode", "--construction", "precoded", "--n", "5", "--k", "3",
        "--d", "4", "--e", "1", "--m", "1", "--r", "2",
        "--data", str(data), "--out-dir", str(out_dir),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["data_symbols"] == 9
    assert payload["symbol_bytes"] == 3
    meta = json.loads((out_dir / "code.json").read_text())
    assert meta["construction"] == "precoded"
    assert meta["field"]["kappa"] == 10
    head = (out_dir / "node_001.txt").read_text().splitlines()[0]
    assert head.startswith("v2 1 4 crc=") and head.endswith(" kappa=10")
    back = tmp_path / "pback.bin"
    code, _ = run(capsys, "reconstruct", "--node-dir", str(out_dir),
                  "--nodes", "2,4,5", "--out", str(back))
    assert code == 0
    assert back.read_bytes() == data.read_bytes()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_HEADER
    return rows[1:]


def frac(row, which):
    if which == "alpha":
        return Fraction(int(row[3]), int(row[4]))
    return Fraction(int(row[5]), int(row[6]))


def test_region_csv(tmp_path, capsys):
    out = tmp_path / "region.csv"
    code, text = run(capsys, "region", "--k", "14", "--e", "3", "--out", str(out))
    assert code == 0
    payload = json.loads(text)
    assert payload["p_star"] == 3
    assert payload["n_corners"] == 10
    rows = parse_csv(out.read_text())
    assert len(rows) == 15  # r = 4..17 plus mbcr
    assert sum(r[-1] == "1" for r in rows) == 10
    # stdout mode: csv lands on stdout instead
    code, text = run(capsys, "region", "--k", "14", "--e", "3")
    assert code == 0
    assert text.splitlines()[0] == ",".join(CSV_HEADER)


def test_points_csv(tmp_path, capsys):
    out = tmp_path / "points.csv"
    code, _ = run(capsys, "points", "--n", "19", "--k", "13", "--d", "14",
                  "--e", "3", "--out", str(out))
    assert code == 0
    rows = parse_csv(out.read_text())
    assert len(rows) == 60  # 58 construction points + msmr + mbcr
    labels = {r[0] for r in rows}
    assert "msmr" in labels and "mbcr" in labels
    code, _ = run(capsys, "points", "--n", "19", "--k", "13", "--d", "14",
                  "--e", "3", "--m-values", "6", "--out", str(out))
    assert code == 0
    assert len(parse_csv(out.read_text())) == 15


def test_compare_csv(tmp_path, capsys):
    out = tmp_path / "compare.csv"
    code, _ = run(capsys, "compare", "--n", "10", "--k", "7", "--d", "7",
                  "--out", str(out))
    assert code == 0
    rows = parse_csv(out.read_text())
    msmr = {int(r[1]): frac(r, "beta") for r in rows if r[0].startswith("msmr")}
    naive = {int(r[1]): frac(r, "beta") for r in rows if r[0].startswith("layered-naive")}
    assert set(msmr) == set(naive) == set(range(4, 11))
    assert all(msmr[r] <= naive[r] for r in msmr)
    assert any(msmr[r] < naive[r] for r in msmr)
    assert msmr[4] == naive[4] == Fraction(2, 35)


def test_verify_runs_clean(capsys):
    code, out = run(capsys, "verify", "--seed", "12345")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(ln.startswith("ok ") for ln in lines)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("regencodes ")
