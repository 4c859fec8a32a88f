"""A seeded script of CLI commands whose outputs are pinned by their hashes.

Each case runs its commands through `cli.main` in a fresh temporary working
directory, with relative paths, REGENCODES_OUT_DIR unset and COLUMNS=80.
For every command the record holds the exit code (argparse's SystemExit is
caught) and a sha256 of stdout, of stderr and of each file the command
wrote. In a written .json file the value of every "version" key is masked
first, so a version bump does not move the hashes. Between commands a case
may edit files itself (write seeded data, flip a stored symbol); those edits
are not recorded.

    python tests/flow.py                compare a fresh run with flow_hashes.json
    python tests/flow.py --write        rewrite flow_hashes.json from a fresh run
    python tests/flow.py --against REV  compare a fresh run with the same cases run
                                        against REV's src/ (a git revision)

--against unpacks `git archive REV src` into a temporary directory, so it
writes nothing under .git, runs this tree's cases against that package in a
subprocess, and prints every entry that differs.

tests/test_flow.py runs the comparison in tier-1. A change that means to
alter an output rewrites the JSON and names each changed entry; regenerating
it to make a difference go away defeats the point. The --help hashes depend
on the Python minor version's argparse; the JSON was written under 3.11.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

# imported before any case changes the working directory
from old_format import OLD_FORMAT_DIR  # noqa: E402
from regencodes.cli import main as cli_main  # noqa: E402
from regencodes.designs import bundled_design, serialize_design  # noqa: E402

HASHES = HERE / "flow_hashes.json"
SEED = 20260
SUBCOMMANDS = ("design", "encode", "repair", "reconstruct", "extend",
               "region", "points", "compare", "verify")
_VERSION = re.compile(rb'("version": )"[^"]*"')


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@contextlib.contextmanager
def _cli_environment():
    saved = {key: os.environ.get(key) for key in ("REGENCODES_OUT_DIR", "COLUMNS")}
    os.environ.pop("REGENCODES_OUT_DIR", None)
    os.environ["COLUMNS"] = "80"
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


class Case:
    """One case's working directory and the record of its commands."""

    def __init__(self, name: str, root: Path, record: dict) -> None:
        self.name, self.root, self.record = name, root, record
        self.steps = 0
        self.rng = random.Random(f"{SEED}/{name}")

    def run(self, *argv: str) -> int:
        before = _snapshot(self.root)
        out, err = io.BytesIO(), io.StringIO()
        stdout = io.TextIOWrapper(out, encoding="utf-8", newline="\n", write_through=True)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            try:
                code = cli_main(list(argv))
            except SystemExit as ex:  # argparse: --help, usage errors
                code = ex.code
            stdout.flush()
        files = {}
        for name, blob in _snapshot(self.root).items():
            if before.get(name) != blob:
                files[name] = _sha(_VERSION.sub(rb'\1"*"', blob) if name.endswith(".json") else blob)
        key = f"{self.name}/{self.steps:02d} {' '.join(argv)}"
        self.steps += 1
        self.record[key] = {"exit": code, "stdout": _sha(out.getvalue()),
                            "stderr": _sha(err.getvalue().encode()), "files": files}
        return code

    def write(self, name: str, blob) -> None:
        path = self.root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(blob, bytes):
            path.write_bytes(blob)
        else:
            path.write_text(blob)

    def data(self, name: str, count: int, bits: int) -> bytes:
        """Write count seeded symbols of the given width as a data file."""
        nbytes = (bits + 7) // 8
        blob = b"".join(self.rng.getrandbits(bits).to_bytes(nbytes, "big") for _ in range(count))
        self.write(name, blob)
        return blob

    def copy(self, src: str, dst: str) -> None:
        shutil.copytree(self.root / src, self.root / dst)

    def drop(self, node_dir: str, nodes: str) -> None:
        """Delete the files of the comma-listed nodes, so that a repair's rewrite shows."""
        for x in nodes.split(","):
            (self.root / node_dir / f"node_{int(x):03d}.txt").unlink()

    def flip(self, node_dir: str, node: int, slot: int, recrc: bool) -> None:
        """Flip the low bit of one stored symbol; with recrc the header's crc is recomputed,
        so only a decode can see the change."""
        path = self.root / node_dir / f"node_{node:03d}.txt"
        head, payload = path.read_text().splitlines()
        width = len(payload) // int(head.split()[2])
        i = (slot + 1) * width - 1
        payload = payload[:i] + f"{int(payload[i], 16) ^ 1:x}" + payload[i + 1:]
        if recrc:
            tokens = head.split()
            tokens[3] = f"crc={zlib.crc32(payload.encode()):08x}"
            head = " ".join(tokens)
        path.write_text(f"{head}\n{payload}\n")

    def edit_header(self, node_dir: str, node: int, edit) -> None:
        """Replace one node file's header line by edit(header); the payload and crc stay."""
        path = self.root / node_dir / f"node_{node:03d}.txt"
        head, payload = path.read_text().splitlines()
        path.write_text(f"{edit(head)}\n{payload}\n")


# -- the cases -----------------------------------------------------------------------


def _help(case: Case) -> None:
    case.run("--help")
    for sub in SUBCOMMANDS:
        case.run(sub, "--help")
    case.run()
    case.run("encode", "--n", "4")
    case.run("region", "--k", "x", "--e", "1")
    case.run("--version")
    case.run("bogus")
    case.run("region", "--k", "4", "--e", "2", "--bogus")
    case.run("encode", "--n", "4", "-h")
    case.run("region", "--k", "4", "--e", "2", "--o", "r.csv")


def _node_dir_checks(case: Case, nodes: str, alpha: int, reconstruct: list[str],
                     repairs: list[tuple[str, str]]) -> None:
    """Reconstruct and repair clean, then from copies with one flipped symbol each: three
    flipped on disk (the crc fails) and three under a recomputed crc."""
    for subset in reconstruct:
        case.run("reconstruct", "--node-dir", nodes, "--nodes", subset, "--out", "back.bin")
        case.run("reconstruct", "--node-dir", nodes, "--nodes", subset)
    for failed, helpers in repairs:
        case.copy(nodes, "work")
        case.drop("work", failed)
        case.run("repair", "--node-dir", "work", "--failed", failed, "--helpers", helpers,
                 "--report", "report.json")
        shutil.rmtree(case.root / "work")
    for recrc in (False, True):
        for trial in range(3):
            bad = f"flip{int(recrc)}{trial}"
            case.copy(nodes, bad)
            subset = reconstruct[trial % len(reconstruct)]
            node = int(case.rng.choice(subset.split(",")))
            case.flip(bad, node, case.rng.randrange(alpha), recrc)
            case.run("reconstruct", "--node-dir", bad, "--nodes", subset, "--out", "bad.bin")
            failed, helpers = repairs[trial % len(repairs)]
            if str(node) in helpers.split(","):
                case.drop(bad, failed)
                case.run("repair", "--node-dir", bad, "--failed", failed, "--helpers", helpers)


def _layered(argv: list[str], count: int, bits: int, alpha: int, reconstruct: list[str],
             repairs: list[tuple[str, str]], setup=None):
    def case_fn(case: Case) -> None:
        if setup:
            setup(case)
        blob = case.data("data.bin", count, bits)
        case.write("short.bin", blob[:-1])
        case.write("long.bin", blob + b"\0")
        for data in ("data.bin", "short.bin", "long.bin"):
            case.run("encode", *argv, "--data", data, "--out-dir", "nodes")
        _node_dir_checks(case, "nodes", alpha, reconstruct, repairs)
    return case_fn


def _bundled(name: str):
    def setup(case: Case) -> None:
        case.write(f"{name}.design", serialize_design(bundled_design(name)))
        case.run("design", "--load", f"{name}.design", "--out", "canon.design")
    return setup


def _extend_chain(case: Case) -> None:
    case.data("data.bin", 8, 8)
    case.run("encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3",
             "--data", "data.bin", "--out-dir", "n4")
    blob = case.data("extra.bin", 2, 8)
    case.write("extra_short.bin", blob[:1])
    case.write("extra_long.bin", blob + b"\0")
    case.run("extend", "--node-dir", "n4", "--new-data", "extra_short.bin", "--out-dir", "bad")
    case.run("extend", "--node-dir", "n4", "--new-data", "extra_long.bin", "--out-dir", "bad")
    case.run("extend", "--node-dir", "n4", "--new-data", "extra.bin", "--out-dir", "n5")
    case.data("extra2.bin", 2, 8)
    case.run("extend", "--node-dir", "n5", "--new-data", "extra2.bin", "--out-dir", "n6")
    case.run("reconstruct", "--node-dir", "n6", "--nodes", "1,4,6", "--out", "back.bin")
    case.drop("n6", "2,5,6")
    case.run("repair", "--node-dir", "n6", "--failed", "2,5,6", "--helpers", "1,3,4")
    for recrc in (False, True):
        bad = f"flip{int(recrc)}"
        case.copy("n5", bad)
        case.flip(bad, 3, case.rng.randrange(4), recrc)
        case.run("extend", "--node-dir", bad, "--new-data", "extra2.bin", "--out-dir", "n6bad")


def _precoded(params: list[str], count: int, degree: int, alpha: int,
              reconstruct: list[str], repairs: list[tuple[str, str]]):
    def case_fn(case: Case) -> None:
        blob = case.data("data.bin", count, degree)
        case.write("short.bin", blob[:-1])
        case.write("long.bin", blob + b"\0")
        argv = ["--construction", "precoded", *params]
        for data in ("data.bin", "short.bin", "long.bin"):
            case.run("encode", *argv, "--data", data, "--out-dir", "nodes")
        case.run("extend", "--node-dir", "nodes", "--new-data", "data.bin", "--out-dir", "ext")
        _node_dir_checks(case, "nodes", alpha, reconstruct, repairs)
    return case_fn


def _precoded_low_k(case: Case) -> None:
    """A precoded code whose k-node reconstruct leaves many evaluations undetermined: from k
    nodes, from k+1, then from k+1 with one symbol flipped under a recomputed crc."""
    case.data("data.bin", 20, 80)
    case.run("encode", "--construction", "precoded", "--n", "6", "--k", "2", "--d", "5",
             "--e", "1", "--m", "1", "--r", "3", "--data", "data.bin", "--out-dir", "nodes")
    case.run("reconstruct", "--node-dir", "nodes", "--nodes", "2,5", "--out", "back.bin")
    case.run("reconstruct", "--node-dir", "nodes", "--nodes", "1,3,6", "--out", "back3.bin")
    case.copy("nodes", "bad")
    case.flip("bad", int(case.rng.choice("136")), case.rng.randrange(10), True)
    case.run("reconstruct", "--node-dir", "bad", "--nodes", "1,3,6", "--out", "bad.bin")


def _tradeoff(case: Case) -> None:
    case.run("region", "--k", "4", "--e", "2")
    case.run("region", "--k", "6", "--e", "3", "--out", "region.csv")
    case.run("points", "--n", "8", "--k", "5", "--d", "6", "--e", "2")
    case.run("points", "--n", "9", "--k", "6", "--d", "7", "--e", "2", "--m-values", "2,3",
             "--out", "points.csv")
    case.run("points", "--n", "8", "--k", "5", "--d", "6", "--e", "2", "--m-values", "2,x")
    case.run("compare", "--n", "8", "--k", "5", "--d", "6")
    case.run("compare", "--n", "10", "--k", "7", "--d", "7", "--out", "compare.csv")
    case.run("compare", "--n", "5", "--k", "5", "--d", "5")
    case.run("points", "--n", "30", "--k", "20", "--d", "22", "--e", "4")
    case.run("compare", "--n", "20", "--k", "14", "--d", "15")
    case.run("points", "--n", "5", "--k", "3", "--d", "4", "--e", "1", "--m-values", "1,1")
    case.run("points", "--n", "8", "--k", "5", "--d", "6", "--e", "2", "--m-values", "")
    # compare at its edges: the fewest r (m = 1), a single r (k = 1) and d = n-1
    case.run("compare", "--n", "3", "--k", "2", "--d", "2")
    case.run("compare", "--n", "8", "--k", "1", "--d", "7")
    case.run("compare", "--n", "12", "--k", "5", "--d", "11")


def _ladder(case: Case) -> None:
    """The benchmark's analysis commands not pinned above, and the e=1 region, whose shared
    mbcr/r=2 corner carries both names in the corner chain but not in the CSV."""
    for k, e in (("14", "3"), ("30", "3"), ("60", "5"), ("100", "5")):
        case.run("region", "--k", k, "--e", e)
    case.run("points", "--n", "19", "--k", "13", "--d", "14", "--e", "3")
    case.run("region", "--k", "5", "--e", "1")
    case.run("region", "--k", "5", "--e", "1", "--out", "region.csv")


def _design(case: Case) -> None:
    case.run("design", "--n", "8", "--r", "4")
    case.run("design", "--n", "7", "--r", "3", "--out", "c73.design")
    case.run("design", "--load", "c73.design", "--n", "7")
    case.run("design", "--load", "c73.design", "--r", "4")
    case.run("design", "--n", "7")
    case.write("bad.design", "4 3 2\n1 2 3\n1 2 4\n")
    case.run("design", "--load", "bad.design")
    case.run("design", "--load", "missing.design")


def _verify(case: Case) -> None:
    case.run("verify", "--seed", "12345")


def _pre_v2(case: Case) -> None:
    for name, text in OLD_FORMAT_DIR.items():
        case.write(f"old/{name}", text)
    case.data("extra.bin", 2, 8)
    case.run("reconstruct", "--node-dir", "old", "--nodes", "1,2,4", "--out", "back.bin")
    case.run("repair", "--node-dir", "old", "--failed", "4", "--helpers", "1,2,3")
    case.run("extend", "--node-dir", "old", "--new-data", "extra.bin", "--out-dir", "bigger")


def _invalid(case: Case) -> None:
    case.data("data.bin", 8, 8)
    case.run("encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3",
             "--data", "data.bin", "--out-dir", "nodes")
    case.run("reconstruct", "--node-dir", "nodes", "--nodes", "1,2")
    case.run("reconstruct", "--node-dir", "nodes", "--nodes", "1,2,x")
    case.run("reconstruct", "--node-dir", "nodes", "--nodes", "1,2,9")
    case.run("reconstruct", "--node-dir", "absent", "--nodes", "1,2,3")
    case.run("repair", "--node-dir", "nodes", "--failed", "1", "--helpers", "1,2,3")
    case.run("repair", "--node-dir", "nodes", "--failed", "1,2", "--helpers", "3,4")
    case.run("repair", "--node-dir", "nodes", "--failed", "", "--helpers", "1,2,3")
    case.run("encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3",
             "--data", "data.bin", "--out-dir", "x")
    case.run("encode", "--construction", "precoded", "--n", "5", "--d", "4", "--e", "1",
             "--r", "2", "--data", "data.bin", "--out-dir", "x")
    case.run("encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3",
             "--data", "missing.bin", "--out-dir", "x")
    case.write("wide.bin", bytes([15] * 19 + [16]))
    case.run("encode", "--n", "5", "--m", "1", "--e", "1", "--d", "4", "--r", "3",
             "--field-width", "4", "--data", "wide.bin", "--out-dir", "x")
    (case.root / "nodes" / "node_002.txt").unlink()
    case.run("reconstruct", "--node-dir", "nodes", "--nodes", "1,2,3")


def _node_headers(case: Case) -> None:
    """Node files whose headers disagree with their directory under a valid crc: a wrong,
    missing or extra kappa token, and a file copied under another node's name."""
    case.data("data.bin", 9, 20)
    case.run("encode", "--construction", "precoded", "--n", "5", "--k", "3", "--d", "4",
             "--e", "1", "--m", "1", "--r", "2", "--data", "data.bin", "--out-dir", "pre")
    case.data("plain.bin", 8, 8)
    case.run("encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3",
             "--data", "plain.bin", "--out-dir", "lay")
    edits = [
        ("pre", "kappa11", 2, lambda head: head.replace("kappa=10", "kappa=11"), "1,2,3"),
        ("pre", "nokappa", 3, lambda head: head.rsplit(" ", 1)[0], "1,2,3"),
        ("lay", "extra", 2, lambda head: head + " kappa=4", "1,2,4"),
    ]
    for src, bad, node, edit, nodes in edits:
        case.copy(src, bad)
        case.edit_header(bad, node, edit)
        case.run("reconstruct", "--node-dir", bad, "--nodes", nodes, "--out", "back.bin")
    case.copy("lay", "swapped")
    shutil.copyfile(case.root / "swapped" / "node_001.txt", case.root / "swapped" / "node_003.txt")
    case.run("reconstruct", "--node-dir", "swapped", "--nodes", "1,2,3", "--out", "back.bin")


def _domain_edges(case: Case) -> None:
    """A precoded code with d < n-m, compare with k < 1, and repairs from fewer than n-m
    distinct helpers: precoded, precoded with a repeated helper, and layered."""
    case.data("data.bin", 36, 80)
    case.run("encode", "--construction", "precoded", "--n", "6", "--k", "4", "--d", "4",
             "--e", "1", "--m", "1", "--r", "3", "--data", "data.bin", "--out-dir", "nodes")
    case.run("compare", "--n", "5", "--k", "0", "--d", "2")
    case.run("encode", "--construction", "precoded", "--n", "6", "--k", "4", "--d", "5",
             "--e", "1", "--m", "1", "--r", "3", "--data", "data.bin", "--out-dir", "ok")
    case.run("repair", "--node-dir", "ok", "--failed", "1", "--helpers", "2,3,4,5")
    case.run("repair", "--node-dir", "ok", "--failed", "1", "--helpers", "2,3,4,5,5")
    case.data("plain.bin", 30, 8)
    case.run("encode", "--n", "6", "--m", "2", "--e", "2", "--d", "4", "--r", "4",
             "--data", "plain.bin", "--out-dir", "lay")
    case.run("repair", "--node-dir", "lay", "--failed", "1", "--helpers", "2,3,5")


def _encode_design(case: Case) -> None:
    """A layered encode whose --r contradicts its --design, one whose --r agrees and one that
    also passes --k, a precoded encode given a --design, and layered encodes whose --k is
    below, above and equal to n-m."""
    case.write("s_3_4_8.design", serialize_design(bundled_design("s_3_4_8")))
    case.data("data.bin", 28, 8)
    layered = ["--n", "8", "--m", "2", "--e", "2", "--d", "6", "--design", "s_3_4_8.design",
               "--data", "data.bin"]
    case.run("encode", *layered, "--r", "5", "--out-dir", "r5")
    case.run("encode", *layered, "--r", "4", "--out-dir", "r4")
    case.run("encode", *layered, "--k", "6", "--out-dir", "k6")
    case.data("wide.bin", 36, 80)
    case.run("encode", "--construction", "precoded", "--n", "6", "--k", "4", "--d", "5",
             "--e", "1", "--m", "1", "--r", "3", "--design", "s_3_4_8.design",
             "--data", "wide.bin", "--out-dir", "pre")
    case.data("five.bin", 20, 8)
    for k in ("2", "9", "4"):
        case.run("encode", "--n", "5", "--k", k, "--m", "1", "--e", "1", "--d", "4", "--r", "3",
                 "--data", "five.bin", "--out-dir", f"k{k}")


def _refused_writes(case: Case) -> None:
    """An extend, a re-encode and a two-node repair into directories that already hold an
    encode, each refused because one of its later node files is a directory; then a
    reconstruct from the refused re-encode's directory."""
    layered = ["--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3"]
    case.data("data.bin", 8, 8)
    case.data("other.bin", 8, 8)
    case.data("extra.bin", 2, 8)
    case.data("extra2.bin", 2, 8)
    case.run("encode", *layered, "--data", "data.bin", "--out-dir", "nodes")
    case.run("extend", "--node-dir", "nodes", "--new-data", "extra.bin", "--out-dir", "ext")
    case.drop("ext", "3")
    (case.root / "ext" / "node_003.txt").mkdir()
    case.run("extend", "--node-dir", "nodes", "--new-data", "extra2.bin", "--out-dir", "ext")
    case.drop("nodes", "3")
    (case.root / "nodes" / "node_003.txt").mkdir()
    case.run("encode", *layered, "--data", "other.bin", "--out-dir", "nodes")
    case.run("reconstruct", "--node-dir", "nodes", "--nodes", "1,2,4", "--out", "back.bin")
    case.data("data6.bin", 30, 8)
    case.run("encode", "--n", "6", "--m", "2", "--e", "2", "--d", "4", "--r", "4",
             "--data", "data6.bin", "--out-dir", "six")
    case.drop("six", "1,4")
    (case.root / "six" / "node_004.txt").mkdir()
    case.run("repair", "--node-dir", "six", "--failed", "1,4", "--helpers", "2,3,5,6")


CASES = {
    "help": _help,
    "complete": _layered(["--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3"],
                         8, 8, 3, ["1,2,4", "1,2,3,4"], [("3", "1,2,4")]),
    "complete-n6": _layered(["--n", "6", "--m", "2", "--e", "2", "--d", "4", "--r", "4"],
                            30, 8, 10, ["2,3,5,6", "1,2,3,4,6"], [("1,4", "2,3,5,6"), ("2", "1,3,4,5,6")]),
    "s237": _layered(["--n", "7", "--m", "1", "--e", "1", "--d", "6", "--design", "s_2_3_7.design"],
                     14, 8, 3, ["1,2,3,4,5,7", "1,2,3,4,5,6,7"], [("6", "1,2,3,4,5,7")],
                     setup=_bundled("s_2_3_7")),
    "s348": _layered(["--n", "8", "--m", "2", "--e", "2", "--d", "6", "--design", "s_3_4_8.design"],
                     28, 8, 7, ["1,2,4,5,7,8", "1,2,3,4,5,7,8"], [("3,6", "1,2,4,5,7,8")],
                     setup=_bundled("s_3_4_8")),
    "gf4": _layered(["--n", "5", "--m", "1", "--e", "1", "--d", "4", "--r", "3", "--field-width", "4"],
                    20, 4, 6, ["1,2,3,5", "1,2,3,4,5"], [("4", "1,2,3,5")]),
    "gf12": _layered(["--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3", "--field-width", "12"],
                     8, 12, 3, ["2,3,4", "1,2,3,4"], [("1", "2,3,4")]),
    "extend": _extend_chain,
    "precoded-f9": _precoded(["--n", "5", "--k", "3", "--d", "4", "--e", "1", "--m", "1", "--r", "2"],
                             9, 20, 4, ["2,4,5", "1,2,3", "1,2,3,5"], [("2", "1,3,4,5")]),
    "precoded-f36": _precoded(["--n", "6", "--k", "4", "--d", "5", "--e", "1", "--m", "1", "--r", "3"],
                              36, 80, 10, ["1,3,4,6", "2,3,4,5,6"], [("5", "1,2,3,4,6")]),
    "precoded-low-k": _precoded_low_k,
    "tradeoff": _tradeoff,
    "ladder": _ladder,
    "design": _design,
    "verify": _verify,
    "pre-v2": _pre_v2,
    "invalid": _invalid,
    "node-headers": _node_headers,
    "domain-edges": _domain_edges,
    "refused-writes": _refused_writes,
    "encode-design": _encode_design,
}


def run_flow() -> dict:
    """Run every case; the record maps 'case/NN argv' to its exit code and hashes."""
    record: dict = {}
    cwd = os.getcwd()
    with _cli_environment():
        for name, case_fn in CASES.items():
            with tempfile.TemporaryDirectory(prefix=f"flow-{name}-") as tmp:
                root = Path(tmp)
                os.chdir(root)
                try:
                    case_fn(Case(name, root, record))
                finally:
                    os.chdir(cwd)
    return record


def diff(pinned: dict, got: dict) -> list[str]:
    """The keys whose records differ, are missing, or are new."""
    return sorted(key for key in pinned.keys() | got.keys() if pinned.get(key) != got.get(key))


# run in a subprocess with REV's src/ first on sys.path: argv is src, tests, output file
_RUN_AGAINST = """import json, sys
sys.path[:0] = sys.argv[1:3]
import flow
with open(sys.argv[3], "w") as fh:
    json.dump(flow.run_flow(), fh)
"""


def run_flow_against(rev: str) -> dict:
    """Run every case against the package as it is at the git revision rev."""
    repo = HERE.parent
    archive = subprocess.run(["git", "-C", str(repo), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="flow-against-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        out = Path(tmp) / "record.json"
        subprocess.run([sys.executable, "-c", _RUN_AGAINST, str(Path(tmp) / "src"), str(HERE),
                        str(out)], check=True)
        return json.loads(out.read_text())


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="python tests/flow.py")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help=f"rewrite {HASHES.name}")
    mode.add_argument("--against", metavar="REV", help="compare with REV's src/ instead")
    args = ap.parse_args(argv)
    if args.write:
        got = run_flow()
        HASHES.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} commands to {HASHES.name}")
        return 0
    if args.against:
        try:
            pinned = run_flow_against(args.against)
        except subprocess.CalledProcessError as ex:
            print(f"{ex.cmd[0]} failed: {(ex.stderr or b'').decode(errors='replace').strip()}",
                  file=sys.stderr)
            return 2
    else:
        pinned = json.loads(HASHES.read_text())
    got = run_flow()
    changed = diff(pinned, got)
    for key in changed:
        print(f"differs: {key}")
    print(f"{len(got)} commands, {len(changed)} differ from {args.against or HASHES.name}")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
