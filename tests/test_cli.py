"""End-to-end CLI behavior through main(argv): files, manifests, exit codes."""

import argparse
import csv
import errno
import hashlib
import io
import json
import os
import stat
import tracemalloc
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

from regencodes import NodeContents, SystemParams, ValidationError, build_code, tradeoff
from regencodes.cli import _build_parser, main
from regencodes.designs import bundled_design, serialize_design
from regencodes.files import write_files
from regencodes.layered import LayeredCode, node_contents_from_text, node_contents_to_text
from regencodes.tradeoff import CSV_HEADER, MAX_BINOMIAL_BITS, MAX_CSV_ROWS


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
    nc = node_contents_from_text(path.read_text(), code)
    symbols = bytearray(nc.symbols)
    symbols[which] ^= 1
    path.write_text(node_contents_to_text(NodeContents(node, bytes(symbols)), code))


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


def unreadable_node_file(tmp_path, capsys):
    _, out_dir, _ = encode_small(tmp_path, capsys)
    path = out_dir / "node_001.txt"
    path.write_bytes(b"v2 1 3 crc=\xff\n")
    return ["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2,3"], path


def unreadable_code_json(tmp_path, capsys):
    _, out_dir, _ = encode_small(tmp_path, capsys)
    path = out_dir / "code.json"
    path.write_bytes(b'{"format": "\xff"}\n')
    return ["repair", "--node-dir", str(out_dir), "--failed", "1", "--helpers", "2,3,4"], path


def missing_design_load(tmp_path, capsys):
    path = tmp_path / "nope.design"
    return ["design", "--load", str(path)], path


def missing_design_encode(tmp_path, capsys):
    path = tmp_path / "nope.design"
    data = tmp_path / "data.bin"
    data.write_bytes(DATA8)
    return ["encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3", "--design", str(path),
            "--data", str(data), "--out-dir", str(tmp_path / "x")], path


def non_utf8_design(tmp_path, capsys):
    path = tmp_path / "latin.design"
    path.write_bytes(b"4 3 3\n1 2 \xff\n")
    return ["design", "--load", str(path)], path


@pytest.mark.parametrize("case", [unreadable_node_file, unreadable_code_json,
                                  missing_design_load, missing_design_encode, non_utf8_design])
def test_unreadable_inputs_exit_2_naming_the_file(tmp_path, capsys, case):
    argv, path = case(tmp_path, capsys)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: cannot read ") and str(path) in err, err
    assert not (tmp_path / "x").exists()


def test_refused_report_path_leaves_the_node_dir_unchanged(tmp_path, capsys):
    _, out_dir, _ = encode_small(tmp_path, capsys)
    (out_dir / "node_001.txt").unlink()
    before = dir_digest(out_dir, skip=())
    taken = tmp_path / "taken"
    taken.mkdir()
    for report, why in ((taken, "it is not a regular file"),
                        (out_dir / "code.json" / "rep", "a parent is not a directory")):
        argv = ["repair", "--node-dir", str(out_dir), "--failed", "1", "--helpers", "2,3,4",
                "--report", str(report)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {report}: {why}\n")
        assert not (out_dir / "node_001.txt").exists()
        assert dir_digest(out_dir, skip=()) == before
    assert list(taken.iterdir()) == []


def test_refused_node_file_write_leaves_the_node_dir_unchanged(tmp_path, capsys):
    # an extend, a re-encode and a two-node repair, each into a directory whose later node
    # file is a directory: every target is checked before the first file is replaced
    _, out_dir, _ = encode_small(tmp_path, capsys)
    extra, other, data6 = tmp_path / "extra.bin", tmp_path / "other.bin", tmp_path / "data6.bin"
    extra.write_bytes(b"\xaa\xbb")
    other.write_bytes(bytes(range(11, 19)))
    data6.write_bytes(bytes(range(30)))
    bigger, six = tmp_path / "bigger", tmp_path / "six"
    extend = ["extend", "--node-dir", str(out_dir), "--new-data", str(extra),
              "--out-dir", str(bigger)]
    assert main(extend) == 0
    assert main(["encode", "--n", "6", "--m", "2", "--e", "2", "--d", "4", "--r", "4",
                 "--data", str(data6), "--out-dir", str(six)]) == 0
    (six / "node_001.txt").unlink()
    extra.write_bytes(b"\xcc\xdd")
    capsys.readouterr()
    for dirpath, node, argv in (
        (bigger, 3, extend),
        (out_dir, 3, ["encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3",
                      "--data", str(other), "--out-dir", str(out_dir)]),
        (six, 4, ["repair", "--node-dir", str(six), "--failed", "1,4",
                  "--helpers", "2,3,5,6"]),
    ):
        taken = dirpath / f"node_{node:03d}.txt"
        taken.unlink()
        taken.mkdir()
        before = dir_digest(dirpath, skip=(taken.name,))
        assert main(argv) == 2, argv
        refusal = f"error: cannot write {taken}: it is not a regular file\n"
        assert capsys.readouterr() == ("", refusal)
        assert dir_digest(dirpath, skip=(taken.name,)) == before
        assert list(taken.iterdir()) == []
    # what the refused re-encode left is still the first encode
    back = tmp_path / "back.bin"
    assert main(["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2,4",
                 "--out", str(back)]) == 0
    assert back.read_bytes() == DATA8


def test_manifest_sits_beside_a_suffix_less_output(tmp_path, capsys):
    _, out_dir, _ = encode_small(tmp_path, capsys)
    for argv, name in (
        (["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2,3",
          "--out", str(tmp_path / "rec")], "rec"),
        (["region", "--k", "6", "--e", "2", "--out", str(tmp_path / "table")], "table"),
        (["repair", "--node-dir", str(out_dir), "--failed", "1", "--helpers", "2,3,4",
          "--report", str(tmp_path / "rep")], "rep"),
    ):
        assert main(argv) == 0, argv
        assert (tmp_path / name).is_file()
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert str(tmp_path / name) in manifest["outputs"]
    assert (tmp_path / "rec").read_bytes() == DATA8


def test_output_path_that_cannot_be_a_file_exits_2(tmp_path, capsys):
    _, out_dir, _ = encode_small(tmp_path, capsys)
    taken = tmp_path / "taken"
    taken.mkdir()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    capsys.readouterr()
    for out, why in ((taken, "it is not a regular file"), (fifo, "it is not a regular file"),
                     (out_dir / "code.json" / "rec", "a parent is not a directory")):
        argv = ["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2,3", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: {why}\n"
    assert list(taken.iterdir()) == [] and not fifo.is_file()
    assert not list(tmp_path.rglob("*.tmp"))


def tree_digest(root):
    """Every path under root: True for a directory, else the file's sha256."""
    return {str(p.relative_to(root)): p.is_dir() or hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(root).rglob("*"))}


SMALL = ["--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3"]


@pytest.mark.parametrize("argv,manifest", [
    (["design", "--n", "4", "--r", "3", "--out", "out.design"], "out.design.manifest.json"),
    (["encode", *SMALL, "--data", "other.bin", "--out-dir", "nodes"], "nodes/manifest.json"),
    (["extend", "--node-dir", "nodes", "--new-data", "extra.bin", "--out-dir", "ext"],
     "ext/manifest.json"),
    (["repair", "--node-dir", "nodes", "--failed", "1", "--helpers", "2,3,4",
      "--report", "rep.json"], "rep.json.manifest.json"),
    (["reconstruct", "--node-dir", "nodes", "--nodes", "1,2,3", "--out", "back.bin"],
     "back.bin.manifest.json"),
    (["region", "--k", "6", "--e", "2", "--out", "t.csv"], "t.csv.manifest.json"),
    (["points", "--n", "19", "--k", "13", "--d", "14", "--e", "3", "--out", "t.csv"],
     "t.csv.manifest.json"),
    (["compare", "--n", "10", "--k", "7", "--d", "7", "--out", "t.csv"], "t.csv.manifest.json"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_a_refused_manifest_leaves_every_output_as_it_was(tmp_path, capsys, monkeypatch,
                                                          argv, manifest):
    # the manifest is the batch's last target, so every output is checked before it and
    # written only once it passes
    _, out_dir, _ = encode_small(tmp_path, capsys)
    monkeypatch.chdir(tmp_path)
    Path("other.bin").write_bytes(bytes(range(11, 19)))
    Path("extra.bin").write_bytes(b"\xaa\xbb")
    if argv[0] == "repair":
        (out_dir / "node_001.txt").unlink()  # what the repair would write back
    (out_dir / "manifest.json").unlink()
    Path(manifest).mkdir(parents=True)
    before = tree_digest(tmp_path)
    assert main(argv) == 2
    err = f"error: cannot write {manifest}: it is not a regular file\n"
    assert capsys.readouterr() == ("", err)
    assert tree_digest(tmp_path) == before
    assert not list(tmp_path.rglob("*.tmp"))


def test_unwritable_names_and_a_failed_write_exit_2_writing_nothing(tmp_path, capsys, monkeypatch):
    _, out_dir, _ = encode_small(tmp_path, capsys)
    monkeypatch.chdir(tmp_path)
    Path("other.bin").write_bytes(bytes(range(11, 19)))
    long = "x" * 300  # past any file system's name limit
    too_long = os.strerror(errno.ENAMETOOLONG)
    cases = [
        (["reconstruct", "--node-dir", "nodes", "--nodes", "1,2,3", "--out", long],
         f"{long}: {too_long}"),
        (["region", "--k", "6", "--e", "2", "--out", f"x/{long}/y.csv"],
         f"x/{long}/y.csv: {too_long}"),
        (["encode", *SMALL, "--data", "other.bin", "--out-dir", long],
         f"{long}/code.json: {too_long}"),
    ]
    before = tree_digest(tmp_path)
    for argv, why in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: cannot write {why}\n")
        assert tree_digest(tmp_path) == before

    # a full disk at the second temp file of a re-encode: the first temp goes too
    fdopen, opened = os.fdopen, []

    def full_disk(fd, *args):
        opened.append(fd)
        fh = fdopen(fd, *args)
        if len(opened) == 2:
            fh.close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return fh

    with monkeypatch.context() as patched:
        patched.setattr(os, "fdopen", full_disk)
        assert main(["encode", *SMALL, "--data", "other.bin", "--out-dir", "nodes"]) == 2
    assert len(opened) == 2
    err = f"error: cannot write nodes/node_001.txt: {os.strerror(errno.ENOSPC)}\n"
    assert capsys.readouterr() == ("", err)
    assert tree_digest(tmp_path) == before
    assert not list(tmp_path.rglob("*.tmp"))


def test_a_stale_temp_file_is_skipped_and_kept(tmp_path):
    # a temp left by an earlier process of the same pid holds the first name write_files tries
    target, other = tmp_path / "out.bin", tmp_path / "sub" / "other.txt"
    stale = tmp_path / f"out.bin.{os.getpid()}.0.tmp"
    stale.write_bytes(b"stale")
    assert write_files([(target, b"new"), (other, "text")]) == [str(target), str(other)]
    assert target.read_bytes() == b"new" and other.read_text() == "text"
    assert stale.read_bytes() == b"stale"
    assert sorted(p.name for p in tmp_path.rglob("*.tmp")) == [stale.name]
    for path in (target, other):  # owner read and write only
        assert stat.S_IMODE(path.stat().st_mode) == 0o600


@pytest.mark.parametrize("report", ["nodes/node_001.txt", "nodes/../nodes/node_001.txt",
                                    "link/node_001.txt"])
def test_an_output_named_twice_exits_2_writing_nothing(tmp_path, capsys, monkeypatch, report):
    # a report renamed over the rebuilt node file would leave a node file that no command reads
    _, out_dir, _ = encode_small(tmp_path, capsys)
    monkeypatch.chdir(tmp_path)
    (out_dir / "node_001.txt").unlink()
    os.symlink("nodes", "link")
    before = tree_digest(tmp_path)
    assert main(["repair", "--node-dir", "nodes", "--failed", "1", "--helpers", "2,3,4",
                 "--report", report]) == 2
    err = f"error: cannot write {report}: it is named twice among the outputs\n"
    assert capsys.readouterr() == ("", err)
    assert tree_digest(tmp_path) == before
    assert not list(tmp_path.rglob("*.tmp"))


def test_foreign_code_json_is_rejected(tmp_path, capsys):
    out_dir = tmp_path / "junk"
    out_dir.mkdir()
    (out_dir / "code.json").write_text(json.dumps({"format": "something-else"}))
    code, _ = run(capsys, "reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2")
    assert code == 2
    # malformed descriptors: not an object, a non-integer parameter, a block
    # that is not a block line
    layered = {
        "format": "regencodes-node-dir", "format_version": 2, "construction": "layered",
        "params": {"n": 4, "k": 3, "d": 3, "e": 1, "m": 1, "r": 3, "t": 3},
        "field": {"w": 8}, "design": {"n": 4, "r": 3, "t": 3, "blocks": [5, 6]},
    }
    for meta, message in (
        ([1, 2], "is not a regencodes node directory descriptor"),
        ({**layered, "params": {"n": "eight"}}, "malformed code.json: invalid literal"),
        (layered, "malformed code.json: 'int' object has no attribute 'split'"),
    ):
        (out_dir / "code.json").write_text(json.dumps(meta))
        assert main(["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2"]) == 2
        assert message in capsys.readouterr().err
    # a format_version this reader does not know, on an otherwise valid descriptor
    complete = {**layered, "design": {"n": 4, "r": 3, "t": 3, "complete": True}}
    for version in (3, 1, "2", None):
        (out_dir / "code.json").write_text(json.dumps({**complete, "format_version": version}))
        assert main(["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2"]) == 2
        assert "format_version" in capsys.readouterr().err


@pytest.mark.parametrize("n,message", [
    ("1e400", "malformed code.json: cannot convert float infinity to integer"),
    ("Infinity", "malformed code.json: cannot convert float infinity to integer"),
    ("1" + "0" * 4400, "is not valid JSON: Exceeds the limit (4300 digits)"),
    (None, "is not valid JSON: maximum recursion depth exceeded"),
], ids=["overflow", "infinity", "long-int", "deep-nesting"])
def test_code_json_past_python_number_and_nesting_limits_exits_2(tmp_path, capsys, n, message):
    _, out_dir, _ = encode_small(tmp_path, capsys)
    path = out_dir / "code.json"
    text = path.read_text()
    # None: 100,000 nested arrays in place of the whole descriptor
    path.write_text("[" * 100_000 if n is None else text.replace('"n": 4,', f'"n": {n},'))
    assert main(["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2,3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def encode_small_precoded(tmp_path, capsys):
    data = tmp_path / "pdata.bin"
    data.write_bytes(b"".join((101 + i).to_bytes(3, "big") for i in range(9)))  # 20-bit symbols
    out_dir = tmp_path / "pnodes"
    assert main(["encode", "--construction", "precoded", "--n", "5", "--k", "3", "--d", "4",
                 "--e", "1", "--m", "1", "--r", "2", "--data", str(data),
                 "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    return out_dir


# each number code.json holds must be an int: int() would cut a float and take a bool or a
# string, and several of these were read as another code that then decoded with exit 0
@pytest.mark.parametrize("precoded,section,key,value", [
    (False, "params", "n", 4.9),
    (False, "field", "w", 8.5),
    (False, "field", "w", True),
    (False, "params", "k", "3"),
    (False, "params", "t", 3.0),
    (False, "design", "n", 4.0),
    (False, "design", "r", 3.5),
    (False, "design", "t", True),
    (True, "params", "r", 2.0),
    (True, "field", "w", 4.5),
], ids=["n-float", "w-float", "w-bool", "k-string", "t-whole-float", "design-n-float",
        "design-r-float", "design-t-bool", "precoded-r-float", "precoded-w-float"])
def test_code_json_numbers_that_are_not_ints_exit_2_naming_the_key(
        tmp_path, capsys, precoded, section, key, value):
    out_dir = encode_small_precoded(tmp_path, capsys) if precoded else encode_small(
        tmp_path, capsys)[1]
    path = out_dir / "code.json"
    meta = json.loads(path.read_text())
    meta[section][key] = value
    path.write_text(json.dumps(meta))
    assert main(["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2,3",
                 "--out", str(tmp_path / "back.bin")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: code.json {section}.{key} must be an integer, got {value!r}\n"
    assert not (tmp_path / "back.bin").exists()


def test_oversized_data_and_node_files_exit_2(tmp_path, capsys):
    # sparse files: 64 MiB long, nothing stored; tests/test_fuzz.py feeds 4 GiB ones and
    # /dev/zero under an address-space limit
    _, out_dir, _ = encode_small(tmp_path, capsys)
    big, node = tmp_path / "big.bin", out_dir / "node_002.txt"
    for path in (big, node):
        with open(path, "wb") as fh:
            fh.truncate(1 << 26)
    argv = ["encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3",
            "--out-dir", str(tmp_path / "out")]
    assert main([*argv, "--data", str(big)]) == 2
    assert capsys.readouterr().err == (
        f"error: data file {big} holds {1 << 26} bytes; need exactly 8 symbols x 1 bytes = 8\n")
    assert main([*argv, "--data", os.devnull]) == 2  # a device, not read
    assert capsys.readouterr().err == (
        f"error: cannot read data file {os.devnull}: it is not a regular file\n")
    # a node file holds alpha x 2 hex digits, plus at most 4 KiB of header and line ends
    assert main(["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2,3"]) == 2
    assert capsys.readouterr().err == (
        f"error: node file {node} is longer than the {3 * 2 + 4096} bytes it may hold\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not os.path.exists("/proc/version"), reason="needs procfs")
def test_a_procfs_data_file_reports_the_bytes_read(tmp_path, capsys):
    # stat gives 0 bytes for /proc/version; the refusal names what a read finds, up to the cap
    length = len(Path("/proc/version").read_bytes())
    argv = ["encode", "--e", "1", "--data", "/proc/version", "--out-dir", str(tmp_path / "out")]
    assert main([*argv, "--n", "4", "--m", "1", "--d", "3", "--r", "3"]) == 2
    assert capsys.readouterr().err == ("error: data file /proc/version holds more than 8 bytes; "
                                       "need exactly 8 symbols x 1 bytes = 8\n")
    assert main([*argv, "--n", "14", "--m", "4", "--d", "10", "--r", "9"]) == 2
    assert capsys.readouterr().err == (f"error: data file /proc/version holds {length} bytes; "
                                       "need exactly 10010 symbols x 1 bytes = 10010\n")
    assert not (tmp_path / "out").exists()


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


def test_out_dir_env_resolves_node_dirs_like_outputs(tmp_path, capsys, monkeypatch):
    # commands both write and read node directories, so --node-dir sits under the prefix too
    monkeypatch.setenv("REGENCODES_OUT_DIR", str(tmp_path / "prefix"))
    monkeypatch.chdir(tmp_path)
    Path("data.bin").write_bytes(DATA8)  # an input path, used as given
    assert main(["encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3",
                 "--data", "data.bin", "--out-dir", "nodes"]) == 0
    nodes = tmp_path / "prefix" / "nodes"
    before = (nodes / "node_002.txt").read_bytes()
    (nodes / "node_002.txt").unlink()
    assert main(["repair", "--node-dir", "nodes", "--failed", "2", "--helpers", "1,3,4"]) == 0
    assert (nodes / "node_002.txt").read_bytes() == before
    assert main(["reconstruct", "--node-dir", "nodes", "--nodes", "1,2,3",
                 "--out", "back.bin"]) == 0
    assert (tmp_path / "prefix" / "back.bin").read_bytes() == DATA8
    assert not (tmp_path / "nodes").exists() and not (tmp_path / "back.bin").exists()
    capsys.readouterr()


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


def test_non_steiner_block_list_in_code_json_exits_2_and_writes_nothing(tmp_path, capsys):
    dpath = tmp_path / "s237.design"
    dpath.write_text(serialize_design(bundled_design("s_2_3_7")))
    data = tmp_path / "data.bin"
    data.write_bytes(bytes(range(14)))
    steiner = tmp_path / "steiner"
    assert main(["encode", "--n", "7", "--m", "1", "--e", "1", "--d", "6", "--design", str(dpath),
                 "--data", str(data), "--out-dir", str(steiner)]) == 0
    capsys.readouterr()
    _, complete, _ = encode_small(tmp_path, capsys)
    extra = tmp_path / "extra.bin"
    extra.write_bytes(b"\xaa\xbb")
    # the complete design written out as its block list is read like any other
    meta = json.loads((complete / "code.json").read_text())
    meta["design"] = {"n": 4, "r": 3, "t": 3, "blocks": ["1 2 3", "1 2 4", "1 3 4", "2 3 4"]}
    (complete / "code.json").write_text(json.dumps(meta))
    assert main(["reconstruct", "--node-dir", str(complete), "--nodes", "1,2,3"]) == 0
    capsys.readouterr()
    for node_dir, helpers in ((steiner, "2,3,4,5,6,7"), (complete, "2,3,4")):
        meta = json.loads((node_dir / "code.json").read_text())
        blocks = meta["design"]["blocks"]
        meta["design"]["blocks"] = [blocks[0]] + blocks[:1] + blocks[2:]  # block 2 -> block 1
        (node_dir / "code.json").write_text(json.dumps(meta))
        before = dir_digest(node_dir, skip=())
        for argv in (
            ["repair", "--node-dir", str(node_dir), "--failed", "1", "--helpers", helpers,
             "--report", str(tmp_path / "report.json")],
            ["reconstruct", "--node-dir", str(node_dir), "--nodes", helpers,
             "--out", str(tmp_path / "back.bin")],
            ["extend", "--node-dir", str(node_dir), "--new-data", str(extra),
             "--out-dir", str(tmp_path / "bigger")],
        ):
            assert main(argv) == 2, argv
            assert capsys.readouterr() == (
                "", "error: design does not cover every t-subset exactly once\n")
            assert dir_digest(node_dir, skip=()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "data.bin", "extra.bin", "nodes", "s237.design", "steiner"]


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


def test_encode_refuses_options_that_contradict_the_design(tmp_path, capsys):
    dpath = tmp_path / "s348.design"
    dpath.write_text(serialize_design(bundled_design("s_3_4_8")))
    data = tmp_path / "data.bin"
    data.write_bytes(bytes(range(28)))
    layered = ["encode", "--n", "8", "--m", "2", "--e", "2", "--d", "6", "--design", str(dpath),
               "--data", str(data)]
    assert main([*layered, "--r", "5", "--out-dir", str(tmp_path / "r5")]) == 2
    assert "file has r=4, asked for r=5" in capsys.readouterr().err
    wide = tmp_path / "wide.bin"
    wide.write_bytes(bytes(360))
    precoded = ["encode", "--construction", "precoded", "--n", "6", "--k", "4", "--d", "5",
                "--e", "1", "--m", "1", "--r", "3", "--data", str(wide)]
    assert main([*precoded, "--design", str(dpath), "--out-dir", str(tmp_path / "pre")]) == 2
    assert "precoded encode takes no --design" in capsys.readouterr().err
    five = tmp_path / "five.bin"
    five.write_bytes(bytes(20))
    for k in ("2", "9"):  # n-m = 4
        assert main(["encode", "--n", "5", "--k", k, "--m", "1", "--e", "1", "--d", "4",
                     "--r", "3", "--data", str(five), "--out-dir", str(tmp_path / f"k{k}")]) == 2
        assert f"layered encode has k = n-m = 4, asked for k={k}" in capsys.readouterr().err
        assert not (tmp_path / f"k{k}").exists()
    assert not (tmp_path / "r5").exists() and not (tmp_path / "pre").exists()
    # an --r that agrees with the file, and layered k = n-m given as --k, still encode
    assert main([*layered, "--r", "4", "--k", "6", "--out-dir", str(tmp_path / "r4")]) == 0
    assert json.loads((tmp_path / "r4" / "code.json").read_text())["params"]["r"] == 4
    assert main([*precoded, "--out-dir", str(tmp_path / "pre")]) == 0


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


def test_pre_v2_node_dir_exits_2_and_writes_nothing(tmp_path, capsys, old_format_dir):
    before = dir_digest(old_format_dir, skip=())
    extra = tmp_path / "extra.bin"
    extra.write_bytes(b"\xaa\xbb")
    for argv in (
        ["reconstruct", "--node-dir", str(old_format_dir), "--nodes", "1,2,4",
         "--out", str(tmp_path / "back.bin")],
        ["repair", "--node-dir", str(old_format_dir), "--failed", "4", "--helpers", "1,2,3",
         "--report", str(tmp_path / "report.json")],
        ["extend", "--node-dir", str(old_format_dir), "--new-data", str(extra),
         "--out-dir", str(tmp_path / "bigger")],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == (
            "error: code.json has no format_version; the pre-v2 layout is no longer read\n")
    assert dir_digest(old_format_dir, skip=()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["extra.bin", "old_nodes"]
    # a pre-v2 node file under a v2 code.json
    _, out_dir, _ = encode_small(tmp_path, capsys)
    (out_dir / "node_002.txt").write_text((old_format_dir / "node_002.txt").read_text())
    assert main(["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2,4"]) == 2
    assert capsys.readouterr().err == (
        f"error: {out_dir / 'node_002.txt'}: "
        "node file is not v2; the pre-v2 layout is no longer read\n")


def test_node_file_faults_before_the_node_id_name_the_file(tmp_path, capsys):
    _, out_dir, _ = encode_small(tmp_path, capsys)
    path = out_dir / "node_002.txt"
    head, payload = path.read_text().splitlines()
    for text, message in (
        (f"{head}\n{payload}\n{payload}\n", "node file must be a header and a payload line, not 3"),
        (f"v2 2 3\n{payload}\n", "bad node header 'v2 2 3'"),
        (f"{head} kappa=x\n{payload}\n", f"bad node header '{head} kappa=x'"),
    ):
        path.write_text(text)
        assert main(["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2,4"]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
    # a kappa token on a layered node file is refused, once its checksum has passed
    path.write_text(f"{head} kappa=4\n{payload}\n")
    assert main(["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2,4"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path} kappa header 4 disagrees with the code (None)\n")
    # a fault found after the node id names the node, as before
    path.write_text(f"{head}\n{payload[:-2]}\n")
    assert main(["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2,4"]) == 2
    assert capsys.readouterr().err == (
        "error: node 2: payload holds 4 hex digits, expected alpha x 2 = 6\n")


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
        lines = [" ".join(map(str, b)) for b in blocks]
        dpath.write_text("\n".join([f"{n} {r} {t}"] + lines))
        assert main(["design", "--load", str(dpath)]) == 2
        assert f"C({n},{t}) {t}-subsets to cover, more than 100000" in capsys.readouterr().err
        node_dir = tmp_path / "nodes"
        node_dir.mkdir(exist_ok=True)
        (node_dir / "code.json").write_text(json.dumps({
            "format": "regencodes-node-dir", "format_version": 2, "construction": "layered",
            "params": {"n": n, "k": n - 1, "d": n - 1, "e": 1, "m": 1, "r": r, "t": t},
            "field": {"w": 8}, "design": {"n": n, "r": r, "t": t, "blocks": lines},
        }))
        assert main(["reconstruct", "--node-dir", str(node_dir), "--nodes", "1"]) == 2
        assert f"C({n},{t}) {t}-subsets to cover, more than 100000" in capsys.readouterr().err
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
    # C(100000, 99999) blocks are few enough, but they hold 99,999 points each
    (node_dir / "code.json").write_text(json.dumps({
        "format": "regencodes-node-dir", "format_version": 2, "construction": "layered",
        "params": {"n": 100000, "k": 99999, "d": 99999, "e": 1, "m": 1, "r": 99999, "t": 99999},
        "field": {"w": 8}, "design": {"n": 100000, "r": 99999, "t": 99999, "complete": True},
    }))
    assert main(["reconstruct", "--node-dir", str(node_dir), "--nodes", "1"]) == 2
    assert capsys.readouterr().err == ("error: complete design C(100000,99999) has more than "
                                       "2000000 points in all its blocks\n")


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


def test_precoded_kappa_header_must_match_the_code(tmp_path, capsys):
    data = tmp_path / "pdata.bin"
    data.write_bytes(bytes(27))
    out_dir = tmp_path / "pnodes"
    assert main(["encode", "--construction", "precoded", "--n", "5", "--k", "3", "--d", "4",
                 "--e", "1", "--m", "1", "--r", "2", "--data", str(data),
                 "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    path = out_dir / "node_002.txt"
    head, payload = path.read_text().splitlines()
    bare = head.rsplit(" ", 1)[0]
    reconstruct = ["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2,3"]
    for header, kappa in ((f"{bare} kappa=11", 11), (bare, None)):
        path.write_text(f"{header}\n{payload}\n")
        assert main(reconstruct) == 2
        assert capsys.readouterr().err == (
            f"error: {path} kappa header {kappa} disagrees with the code (10)\n")
    # a bad crc is still an integrity failure first, whatever the kappa token says
    flipped = ("1" if payload[0] == "0" else "0") + payload[1:]
    for header in (head, f"{bare} kappa=11", bare):
        path.write_text(f"{header}\n{flipped}\n")
        assert main(reconstruct) == 3
        assert "payload fails its checksum" in capsys.readouterr().err
    # a file that names the wrong node and carries a wrong kappa reports the kappa
    path.write_text((out_dir / "node_001.txt").read_text().replace("kappa=10", "kappa=11"))
    assert main(reconstruct) == 2
    assert capsys.readouterr().err == (
        f"error: {path} kappa header 11 disagrees with the code (10)\n")
    path.write_text((out_dir / "node_001.txt").read_text())
    assert main(reconstruct) == 2
    assert capsys.readouterr().err == f"error: {path} names node 1, expected 2\n"


def test_precoded_code_with_d_below_n_minus_m_exits_2(tmp_path, capsys):
    # helpers below n-m could never repair it; encode and every load refuse it
    data = tmp_path / "pdata.bin"
    data.write_bytes(bytes(36 * 10))
    message = "error: repair needs d >= n-m = 5 helpers, got d=4\n"
    encode = ["encode", "--construction", "precoded", "--n", "6", "--k", "4", "--e", "1",
              "--m", "1", "--r", "3", "--data", str(data), "--out-dir"]
    assert main(encode + [str(tmp_path / "short"), "--d", "4"]) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "short").exists()
    out_dir = tmp_path / "pnodes"
    assert main(encode + [str(out_dir), "--d", "5"]) == 0
    capsys.readouterr()
    meta = json.loads((out_dir / "code.json").read_text())
    meta["params"]["d"] = 4
    (out_dir / "code.json").write_text(json.dumps(meta))
    before = dir_digest(out_dir, skip=())
    for argv in (["repair", "--node-dir", str(out_dir), "--failed", "1", "--helpers", "2,3,4,5"],
                 ["reconstruct", "--node-dir", str(out_dir), "--nodes", "1,2,3,4"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == message
    assert dir_digest(out_dir, skip=()) == before


def test_precoded_repair_names_the_n_minus_m_bound(tmp_path, capsys):
    # the code's k is 4; each group decodes from the n-m = 5 helpers of the inner code
    data = tmp_path / "pdata.bin"
    data.write_bytes(bytes(range(36)) * 10)
    out_dir = tmp_path / "pnodes"
    assert main(["encode", "--construction", "precoded", "--n", "6", "--k", "4", "--d", "5",
                 "--e", "1", "--m", "1", "--r", "3", "--data", str(data),
                 "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    (out_dir / "node_001.txt").unlink()
    before = dir_digest(out_dir, skip=())
    assert main(["repair", "--node-dir", str(out_dir), "--failed", "1",
                 "--helpers", "2,3,4,5"]) == 2
    assert capsys.readouterr() == ("", "error: repair needs at least n-m = 5 helpers, got 4\n")
    assert dir_digest(out_dir, skip=()) == before
    assert main(["repair", "--node-dir", str(out_dir), "--failed", "1",
                 "--helpers", "2,3,4,5,6"]) == 0


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


def test_points_refuses_a_repeated_m(tmp_path, capsys):
    out = tmp_path / "points.csv"
    for m_values, error in (("1,1", "m=1 is listed more than once"),
                            ("", "no (m, r) pairs to evaluate")):
        assert main(["points", "--n", "5", "--k", "3", "--d", "4", "--e", "1",
                     "--m-values", m_values, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert not out.exists()


def test_compare_refuses_k_below_1_before_any_row(capsys):
    for n, k, d in ((5, 0, 2), (5, -2, -1), (1, 0, 0)):
        assert main(["compare", "--n", str(n), "--k", str(k), "--d", str(d)]) == 2
        assert capsys.readouterr() == ("", f"error: compare needs k >= 1, got k={k}\n")
    assert main(["compare", "--n", "5", "--k", "5", "--d", "5"]) == 2
    assert capsys.readouterr() == ("", "error: compare needs k < n, got n=5 k=5\n")


@pytest.mark.parametrize("argv, error", [
    (["points", "--n", "5", "--k", "0", "--d", "2", "--e", "1"], "need 1 <= k <= n, got n=5 k=0"),
    (["compare", "--n", "10", "--k", "7", "--d", "10"], "need k <= d <= n-1, got d=10"),
    (["encode", "--n", "4", "--e", "1", "--d", "3", "--r", "3", "--data", "unread.bin",
      "--out-dir", "nodes"], "layered encode needs --m"),
])
def test_refusals_name_their_bound(tmp_path, capsys, monkeypatch, argv, error):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert list(tmp_path.iterdir()) == []


def test_analysis_size_gate_refuses_before_allocating(capsys):
    tracemalloc.start()
    try:
        assert main(["region", "--k", "10000000", "--e", "50"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert capsys.readouterr() == (
        "", f"error: 10000001 points exceed the limit of {MAX_CSV_ROWS} rows\n")
    n = MAX_BINOMIAL_BITS + 1
    for argv in (["points", "--n", str(n), "--k", str(n - 1), "--d", str(n - 1), "--e", "1"],
                 ["compare", "--n", str(n), "--k", str(n - 1), "--d", str(n - 1)]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: n={n} exceeds the limit of "
                                           f"{MAX_BINOMIAL_BITS} on the bits of a binomial C(n, .)\n")
    n = MAX_BINOMIAL_BITS
    code, out = run(capsys, "compare", "--n", str(n), "--k", str(n - 1), "--d", str(n - 1))
    assert code == 0 and len(out.splitlines()) == 1 + 2 * (n - 1)


@pytest.mark.parametrize("argv,rows", [
    (["region", "--k", "14", "--e", "3"], 15),  # k+1
    (["points", "--n", "19", "--k", "13", "--d", "14", "--e", "3"], 58),  # sum of n-m, m = 3..6
    (["points", "--n", "19", "--k", "13", "--d", "14", "--e", "3", "--m-values", "6,4"], 28),
    (["compare", "--n", "10", "--k", "7", "--d", "7"], 14),  # 2k
])
def test_analysis_size_gate_counts_the_rows_it_prints(capsys, monkeypatch, argv, rows):
    printed = rows + 2 * (argv[0] == "points")  # points adds the msmr and mbcr rows
    monkeypatch.setattr(tradeoff, "MAX_CSV_ROWS", rows)
    code, out = run(capsys, *argv)
    assert code == 0 and len(out.splitlines()) == 1 + printed
    monkeypatch.setattr(tradeoff, "MAX_CSV_ROWS", rows - 1)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {rows} points exceed the limit of {rows - 1} rows\n")


def test_points_refuses_bad_extremes_before_any_curve(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("curves built for a refused command")

    monkeypatch.setattr(tradeoff, "achievable_points_general", unreachable)
    # valid curves (e <= n-k, k <= d <= n-e), but e > k leaves no msmr or mbcr point
    assert main(["points", "--n", "512", "--k", "15", "--d", "60", "--e", "141"]) == 2
    assert capsys.readouterr() == ("", "error: need 1 <= e <= k <= d, got e=141 k=15 d=60\n")


def test_points_checks_its_m_values_once_and_the_extremes_before_the_curves(capsys, monkeypatch):
    calls = []
    for name in ("curve_m_values", "msmr_row", "mbcr_row", "curve_rows"):
        def traced(*args, _name=name, _fn=getattr(tradeoff, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(tradeoff, name, traced)
    code, out = run(capsys, "points", "--n", "19", "--k", "13", "--d", "14", "--e", "3",
                    "--m-values", "6,4")
    assert code == 0 and len(out.splitlines()) == 1 + 28 + 2
    assert calls == ["curve_m_values", "msmr_row", "mbcr_row", "curve_rows"]
    # the refused command of the test above builds no curve either
    monkeypatch.setattr(tradeoff, "curve_rows", None)
    assert main(["points", "--n", "512", "--k", "15", "--d", "60", "--e", "141"]) == 2
    assert capsys.readouterr() == ("", "error: need 1 <= e <= k <= d, got e=141 k=15 d=60\n")


def test_verify_runs_clean(capsys):
    code, out = run(capsys, "verify", "--seed", "12345")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(ln.startswith("ok ") for ln in lines)


def test_verify_fails_a_crashing_suite_and_runs_the_rest(capsys, monkeypatch):
    from regencodes import selfcheck

    def overflow(rng):
        raise OverflowError("int too big to convert")

    def invalid(rng):
        raise ValidationError("need e <= m")

    monkeypatch.setattr(selfcheck, "_SUITES", [("overflow", overflow), ("invalid", invalid),
                                               selfcheck._SUITES[0]])
    code, out = run(capsys, "verify", "--seed", "1")
    assert code == 3
    assert out == ("FAIL overflow: OverflowError: int too big to convert\n"
                   "FAIL invalid: ValidationError: need e <= m\n"
                   "ok gf-tables\n"
                   "FAILED 2 suite(s)\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("regencodes ")


def test_out_of_range_node_ids_are_refused_before_any_file_is_read(tmp_path, capsys):
    _, out_dir, _ = encode_small(tmp_path, capsys)
    (out_dir / "node_009.txt").mkdir()  # reading it would fail, so the range check must come first
    for argv, err in (
        (["reconstruct", "--nodes", "1,2,9"], "error: node id 9 out of range 1..4\n"),
        (["reconstruct", "--nodes", "0,1,2,3"], "error: node id 0 out of range 1..4\n"),
        (["repair", "--failed", "1", "--helpers", "2,3,9"],
         "error: failed and helper nodes must lie in 1..n\n"),
        (["repair", "--failed", "9", "--helpers", "1,2,3"],
         "error: failed and helper nodes must lie in 1..n\n"),
    ):
        assert main([*argv, "--node-dir", str(out_dir)]) == 2, argv
        assert capsys.readouterr().err == err


# one valid argv per subcommand, every option given where the command allows it
VALID_ARGV = {
    "design": ["--n", "7", "--r", "3", "--load", "in.design", "--out", "out.design"],
    "encode": ["--construction", "precoded", "--n", "6", "--k", "4", "--m", "1", "--e", "1",
               "--d", "5", "--r", "3", "--design", "x.design", "--field-width", "2",
               "--data", "data.bin", "--out-dir", "nodes"],
    "repair": ["--node-dir", "nodes", "--failed", "1", "--helpers", "2,3,4", "--report", "r.json"],
    "reconstruct": ["--node-dir", "nodes", "--nodes", "1,2,3", "--out", "back.bin"],
    "extend": ["--node-dir", "n4", "--new-data", "extra.bin", "--out-dir", "n5"],
    "region": ["--k", "4", "--e", "2", "--out", "region.csv"],
    "points": ["--n", "8", "--k", "5", "--d", "6", "--e", "2", "--m-values", "2,3",
               "--out", "points.csv"],
    "compare": ["--n", "8", "--k", "5", "--d", "6", "--out", "compare.csv"],
    "verify": ["--seed", "7"],
}


def _subparsers(ap: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_subcommand_has_a_valid_argv():
    assert set(_subparsers(_build_parser())) == set(VALID_ARGV)


@pytest.mark.parametrize("command", sorted(VALID_ARGV))
def test_single_command_parser_matches_the_full_parser(command):
    full, single = _build_parser(), _build_parser(command)
    assert list(_subparsers(single)) == [command]
    assert single.format_usage() == full.format_usage()
    assert _subparsers(single)[command].format_help() == _subparsers(full)[command].format_help()
    argv = [command, *VALID_ARGV[command]]
    assert single.parse_args(argv) == full.parse_args(argv)
