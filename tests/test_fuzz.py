"""Seeded fuzzing of node directories, data files and analysis arguments through the CLI.

Every mutated node file or code.json must end in one of the documented exit
codes (0 ok, 2 invalid input, 3 integrity failure), never in an uncaught
exception: an out-of-field operand reaching the extension-field kernels
would raise IndexError from their tables, or compute garbage, and one
reaching the GF(2^8) column kernel would not fit its bytes. Each mutation
returns the node file it touched (None for code.json) and the exit codes
allowed when a command reads that file; a command that does not read it
must succeed. A v2 node file whose payload or checksum digits change but
keep their layout fails its checksum (exit 3) whatever the redundancy; any
other change to it is refused (exit 2). A data file for encode or extend
--new-data of the wrong length, or with a symbol of w bits or more, is
refused (exit 2); one that stays in the field is encoded. The arguments of
region, points and compare, drawn up to 10^9, must end in exit 0 or 2 within
a time limit and a 1 GiB address space: a request too large is refused, not
run out of memory or time. So must 4 GiB sparse data and node files and
/dev/zero in their place: a file longer than the code can use is refused
before it is read whole. A FIFO with no writer in place of any input file is
refused (exit 2) before a read can wait on it.
"""

import contextlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from regencodes.cli import main
from regencodes.designs import bundled_design, serialize_design

HEX = "0123456789abcdef"
WRONG_TYPES = ["x", "", None, [], [3], {}, {"n": 5}, 2.5, True, -1, float("inf"), 10**5000]
ANY = {0, 2, 3}
REFUSED = {2}
CHECKSUM = {3}

# -- v2 node files: [header, payload] --------------------------------------------


def flip_digit(files, rng):
    name, lines = pick_node(files, rng)
    payload = lines[1]
    j = rng.randrange(len(payload))
    lines[1] = payload[:j] + rng.choice(HEX.replace(payload[j], "")) + payload[j + 1:]
    # the checksum names the node before any decode, redundancy or not
    return f"flip {name} digit {j}", name, CHECKSUM


def widen_digit(files, rng):
    name, lines = pick_node(files, rng)
    j = rng.randrange(len(lines[1]) + 1)
    lines[1] = lines[1][:j] + rng.choice(HEX) * rng.randrange(1, 4) + lines[1][j:]
    return f"widen {name} at digit {j}", name, REFUSED


def truncate_payload(files, rng):
    name, lines = pick_node(files, rng)
    j = rng.randrange(len(lines[1]))
    lines[1] = lines[1][:j]
    return f"truncate {name} payload to {j} digits", name, REFUSED


def drop_line(files, rng):
    name, lines = pick_node(files, rng)
    i = rng.randrange(len(lines))
    del lines[i]
    return f"drop {name} line {i + 1}", name, REFUSED


def duplicate_line(files, rng):
    name, lines = pick_node(files, rng)
    i = rng.randrange(len(lines))
    lines.insert(rng.randrange(len(lines) + 1), lines[i])
    return f"duplicate {name} line {i + 1}", name, REFUSED


def garble_crc(files, rng):
    name, lines = pick_node(files, rng)
    head = lines[0].split()
    crc = head[3][len("crc="):]
    wrong = f"{int(crc, 16) ^ (1 << rng.randrange(32)):08x}"
    head[3] = rng.choice([
        "crc=", "crc=x", f"crc={crc[:-1]}", f"crc={crc}0", f"crc={crc.upper()}",
        f"CRC={crc}", f"crc=0x{crc}", crc, f"crc={wrong}",
    ])
    lines[0] = " ".join(head)
    # a well-formed checksum that does not match is an integrity failure
    return f"crc of {name} -> {head[3]!r}", name, CHECKSUM if head[3] == f"crc={wrong}" else REFUSED


def garble_header(files, rng):
    name, lines = pick_node(files, rng)
    head = lines[0].split()
    i = rng.randrange(len(head))
    head[i] = rng.choice([t for t in (
        "", "x", "-1", "0", "999", "v1", "v3", "kappa=", "kappa=x", "kappa=11",
        str(int(head[1]) % node_count(files) + 1), head[i] + "0",
    ) if t != head[i]])
    if rng.random() < 0.2:
        del head[rng.randrange(len(head))]
    lines[0] = " ".join(head)
    return f"header of {name} -> {lines[0]!r}", name, REFUSED


# -- code.json ------------------------------------------------------------------------


def retype_meta_key(files, rng):
    meta = files["code.json"]
    section = rng.choice([None, "params", "field"])
    owner = meta if section is None else meta[section]
    key = rng.choice(sorted(owner))
    owner[key] = rng.choice(WRONG_TYPES)
    return f"code.json {section or 'top'}.{key} = {owner[key]!r}", None, ANY


def drop_meta_key(files, rng):
    meta = files["code.json"]
    section = rng.choice([None, "params", "field"])
    owner = meta if section is None else meta[section]
    key = rng.choice(sorted(owner))
    del owner[key]
    return f"code.json drops {section or 'top'}.{key}", None, ANY


def wrong_modulus(files, rng):
    field = files["code.json"]["field"]
    modulus = int(field["modulus"], 16)
    field["modulus"] = rng.choice([
        hex(modulus ^ (1 << rng.randrange(1, 20))), hex(modulus << 1), "0x0",
        modulus, field["modulus"].upper(), "modulus",
    ])
    return f"code.json modulus = {field['modulus']!r}", None, REFUSED


def garble_complete_design(files, rng):
    design = files["code.json"]["design"]
    key = rng.choice(sorted(design))
    design[key] = rng.choice([False, 1, "true", None] if key == "complete"
                             else [design[key] - 1, design[key] + 1, 0])
    return f"code.json design.{key} = {design[key]!r}", None, REFUSED


def nest_meta(files, rng):
    depth = rng.choice([1000, 100_000])
    # raw text past the JSON reader's recursion limit, closed or not
    files["code.json"] = "[" * depth + rng.choice(["", "]" * depth])
    return f"code.json nests {depth} arrays", None, REFUSED


def move_block_member(files, rng):
    blocks = files["code.json"]["design"]["blocks"]
    b = rng.randrange(len(blocks))
    block = blocks[b].split()
    i = rng.randrange(len(block))
    block[i] = rng.choice([str(x) for x in range(1, node_count(files) + 1) if str(x) != block[i]])
    blocks[b] = " ".join(block)
    return f"code.json design block {blocks[b]!r}", None, REFUSED


NODE_MUTATIONS = [
    flip_digit, widen_digit, truncate_payload, drop_line, duplicate_line, garble_crc,
    garble_header,
]
META_MUTATIONS = [retype_meta_key, drop_meta_key, nest_meta]
PRECODED_MUTATIONS = NODE_MUTATIONS + META_MUTATIONS + [wrong_modulus]
LAYERED_MUTATIONS = NODE_MUTATIONS + META_MUTATIONS + [garble_complete_design]
LISTED_MUTATIONS = NODE_MUTATIONS + META_MUTATIONS + [move_block_member]


def node_count(files):
    return len(files) - 1


def pick_node(files, rng):
    name = f"node_{rng.randrange(1, node_count(files) + 1):03d}.txt"
    return name, files[name]


@contextlib.contextmanager
def any_int_digits():
    """Lift the cap on the digits of an int turned to text or back, as a huge literal is named
    and written; the CLI then reads it under the cap again."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def write_dir(dirpath, files):
    for name, content in files.items():
        if isinstance(content, str):  # raw text
            text = content
        elif name == "code.json":
            text = json.dumps(content, indent=2, sort_keys=True) + "\n"
        else:
            text = "\n".join(content) + "\n"
        (dirpath / name).write_text(text)


def run_cli(capsys, argv, desc, allowed):
    try:
        code = main(argv)
    except Exception as ex:  # any escape is a breach of the exit-code contract
        pytest.fail(f"{desc}: {argv[0]} raised {type(ex).__name__}: {ex}")
    err = capsys.readouterr().err
    assert "Traceback" not in err, (desc, err)
    assert code in allowed, (desc, argv, code, err)
    return code


def encode_dir(tmp_path, capsys, encode_argv, data):
    (tmp_path / "data.bin").write_bytes(data)
    node_dir = tmp_path / "nodes"
    assert main([*encode_argv, "--data", str(tmp_path / "data.bin"),
                 "--out-dir", str(node_dir)]) == 0
    capsys.readouterr()
    return node_dir


def fuzz_node_dir(tmp_path, capsys, node_dir, mutations, max_failed):
    pristine = {"code.json": json.loads((node_dir / "code.json").read_text())}
    n, k = (pristine["code.json"]["params"][key] for key in "nk")
    for x in range(1, n + 1):
        name = f"node_{x:03d}.txt"
        pristine[name] = (node_dir / name).read_text().splitlines()

    rng = random.Random(20181)
    seen = set()
    for i in range(200):
        files = json.loads(json.dumps(pristine))
        with any_int_digits():
            desc, touched, allowed = rng.choice(mutations)(files, rng)
            write_dir(node_dir, files)
        nodes = sorted(rng.sample(range(1, n + 1), rng.choice(range(k, n + 1))))
        failed = sorted(rng.sample(range(1, n + 1), 1 + i % max_failed))
        helpers = [x for x in range(1, n + 1) if x not in failed]
        for argv, read in [
            (["reconstruct", "--node-dir", str(node_dir), "--nodes", ",".join(map(str, nodes)),
              "--out", str(tmp_path / "back.bin")], nodes),
            (["repair", "--node-dir", str(node_dir), "--failed", ",".join(map(str, failed)),
              "--helpers", ",".join(map(str, helpers))], helpers),
        ]:
            reads_it = touched is None or touched in {f"node_{x:03d}.txt" for x in read}
            seen.add(run_cli(capsys, argv, desc, allowed if reads_it else {0}))
    # the mutations reach every outcome: untouched reads, refusals, mismatches
    assert seen == {0, 2, 3}


def test_fuzzed_precoded_node_dir_exits_cleanly(tmp_path, capsys):
    node_dir = encode_dir(
        tmp_path, capsys,
        ["encode", "--construction", "precoded", "--n", "5", "--k", "3", "--d", "4",
         "--e", "1", "--m", "1", "--r", "2"],
        b"".join((v * 40503 % (1 << 20)).to_bytes(3, "big") for v in range(9)),
    )
    fuzz_node_dir(tmp_path, capsys, node_dir, PRECODED_MUTATIONS, max_failed=1)


def test_fuzzed_layered_node_dir_exits_cleanly(tmp_path, capsys):
    # the complete design of 4-sets over 6 nodes, (4, 2) groups over GF(2^8)
    node_dir = encode_dir(
        tmp_path, capsys,
        ["encode", "--n", "6", "--m", "2", "--e", "2", "--d", "4", "--r", "4"],
        bytes(v * 97 % 256 for v in range(30)),
    )
    fuzz_node_dir(tmp_path, capsys, node_dir, LAYERED_MUTATIONS, max_failed=2)


def test_fuzzed_listed_design_node_dir_exits_cleanly(tmp_path, capsys):
    # S(3,4,8) is not complete, so code.json lists its blocks as lines
    design = tmp_path / "s348.design"
    design.write_text(serialize_design(bundled_design("s_3_4_8")))
    node_dir = encode_dir(
        tmp_path, capsys,
        ["encode", "--n", "8", "--m", "2", "--e", "2", "--d", "6", "--design", str(design)],
        bytes(v * 89 % 256 for v in range(28)),
    )
    fuzz_node_dir(tmp_path, capsys, node_dir, LISTED_MUTATIONS, max_failed=2)


# -- data files --------------------------------------------------------------------


def mutate_data(blob, nbytes, w, rng):
    """One seeded mutation of a valid data file of nbytes-byte symbols over GF(2^w).

    Returns its description, the mutated file and the exit codes allowed.
    """
    count = len(blob) // nbytes
    kind = rng.choice(["truncate", "pad", "stray", "stray", "rewrite"])
    if kind == "truncate":
        j = rng.randrange(len(blob))
        return f"truncate to {j} bytes", blob[:j], REFUSED
    if kind == "pad":
        j = rng.randrange(len(blob) + 1)
        extra = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 2 * nbytes + 2)))
        return f"insert {len(extra)} bytes at {j}", blob[:j] + extra + blob[j:], REFUSED
    i = rng.randrange(count)
    # a symbol of w bits or more does not fit the field; a rewrite stays in it
    v = rng.randrange(1 << w, 1 << 8 * nbytes) if kind == "stray" else rng.randrange(1 << w)
    blob = blob[: i * nbytes] + v.to_bytes(nbytes, "big") + blob[(i + 1) * nbytes:]
    return f"{kind} symbol #{i} = {v}", blob, REFUSED if kind == "stray" else {0}


@pytest.mark.parametrize("w,nbytes", [(4, 1), (12, 2)])
def test_fuzzed_data_files_exit_cleanly(tmp_path, capsys, w, nbytes):
    # the complete (4, 3, 3, 1) layout, so the directory can also be extended
    argv = ["encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3",
            "--field-width", str(w)]
    data = b"".join((v * 2654435761 % (1 << w)).to_bytes(nbytes, "big") for v in range(8))
    node_dir = encode_dir(tmp_path, capsys, argv, data)
    new_data = data[: 2 * nbytes]
    rng = random.Random(w)
    seen = set()
    for _ in range(150):
        desc, blob, allowed = mutate_data(data, nbytes, w, rng)
        (tmp_path / "fuzzed.bin").write_bytes(blob)
        seen.add(run_cli(capsys, [*argv, "--data", str(tmp_path / "fuzzed.bin"),
                                  "--out-dir", str(tmp_path / "out")], desc, allowed))
        desc, blob, allowed = mutate_data(new_data, nbytes, w, rng)
        (tmp_path / "fuzzed.bin").write_bytes(blob)
        seen.add(run_cli(capsys, ["extend", "--node-dir", str(node_dir), "--new-data",
                                  str(tmp_path / "fuzzed.bin"), "--out-dir", str(tmp_path / "ext")],
                         desc, allowed))
    assert seen == {0, 2}


# -- arguments of the analysis commands -------------------------------------------

# run in one subprocess, which limits its own address space; argv lists come on stdin,
# and each runs through cli.main under a wall-clock limit
ARGV_RUNNER = """
import contextlib, io, json, resource, signal, sys, traceback
sys.path.insert(0, sys.argv[1])
limit = float(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from regencodes.cli import main


class TimeLimit(Exception):
    pass


def expire(signum, frame):
    raise TimeLimit


signal.signal(signal.SIGALRM, expire)
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as ex:  # argparse
                code = ex.code
    except TimeLimit:
        code = "time limit"
    except BaseException:
        code = "raised"
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    results.append([argv, code, err.getvalue()])
json.dump(results, sys.stdout)
"""
ARGV_CASES = 100  # per command
ARGV_SECONDS = 10  # per case


def log_uniform(rng, top=10**9):
    return int(10 ** rng.uniform(0, math.log10(top))) if top > 1 else 1


def odd_value(rng):
    return rng.choice(["0", f"-{log_uniform(rng)}", "1.5", "2e3", "x", "", "0x10", "7,"])


def fuzz_argv(command, rng):
    """Seeded arguments for one analysis command, drawn log-uniform up to 10^9.

    Half the cases draw each value independently, so most are refused; the other half
    draw the later values inside the ranges the first one leaves (0 < e < k for region,
    k <= d <= n-e and e <= n-k otherwise), so many run. Then a value is now and then
    zero, negative or not an integer, and a flag now and then missing.
    """
    n = log_uniform(rng)
    if rng.random() < 0.5:
        values = [n] + [log_uniform(rng) for _ in range({"region": 1, "points": 3,
                                                           "compare": 2}[command])]
    elif command == "region":
        values = [n, log_uniform(rng, n)]  # k, e
    elif command == "compare":
        k = n - log_uniform(rng, n)
        values = [n, k, k + log_uniform(rng, n - k) - 1]
    else:
        e = log_uniform(rng, n - 1)
        k = n - e - log_uniform(rng, n - e) + 1
        values = [n, k, k + log_uniform(rng, n - e - k + 1) - 1, e]
    names = {"region": ["--k", "--e"], "points": ["--n", "--k", "--d", "--e"],
             "compare": ["--n", "--k", "--d"]}[command]
    argv = [command]
    for name, value in zip(names, values):
        if rng.random() < 0.97:
            argv += [name, odd_value(rng) if rng.random() < 0.1 else str(value)]
    if command == "points" and rng.random() < 0.3:
        argv += ["--m-values", ",".join(str(log_uniform(rng, n)) for _ in range(rng.randrange(4)))]
    return argv


def test_fuzzed_analysis_arguments_exit_cleanly(tmp_path):
    rng = random.Random(2121)
    cases = [fuzz_argv(command, rng) for command in ("region", "points", "compare")
             for _ in range(ARGV_CASES)]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", ARGV_RUNNER, str(src), str(ARGV_SECONDS)],
                          input=json.dumps(cases), capture_output=True, text=True, cwd=tmp_path,
                          timeout=ARGV_SECONDS * 12)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(cases)
    bad = [(argv, code, err) for argv, code, err in results
           if code not in ANY or "Traceback" in err]
    assert bad == []
    assert {code for _, code, _ in results} == {0, 2}


# -- files far longer than the code reads ----------------------------------------------


def test_huge_data_and_node_files_exit_2_under_an_address_limit(tmp_path, capsys):
    layout = ["--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3"]
    node_dir = encode_dir(tmp_path, capsys, ["encode", *layout], bytes(range(8)))
    dirs = {name: tmp_path / name for name in ("huge", "zero", "huge-json", "zero-json")}
    for name, dirpath in dirs.items():
        dirpath.mkdir()
        for f in node_dir.iterdir():
            (dirpath / f.name).write_bytes(f.read_bytes())
        (dirpath / ("code.json" if name.endswith("json") else "node_002.txt")).unlink()
    (dirs["zero"] / "node_002.txt").symlink_to("/dev/zero")
    (dirs["zero-json"] / "code.json").symlink_to("/dev/zero")
    for path in (dirs["huge"] / "node_002.txt", dirs["huge-json"] / "code.json",
                 tmp_path / "huge.bin"):
        with open(path, "wb") as fh:  # sparse: 4 GiB long, nothing stored
            fh.truncate(4 << 30)
    cases = [
        argv for data in ("huge.bin", "/dev/zero") for argv in (
            ["encode", *layout, "--data", data, "--out-dir", "out"],
            ["extend", "--node-dir", "nodes", "--new-data", data, "--out-dir", "ext"],
        )
    ] + [
        argv for nodes in dirs for argv in (
            ["reconstruct", "--node-dir", nodes, "--nodes", "1,2,3", "--out", "back.bin"],
            ["repair", "--node-dir", nodes, "--failed", "1", "--helpers", "2,3,4"],
        )
    ] + [
        argv for design in ("huge.bin", "/dev/zero") for argv in (
            ["design", "--load", design],
            ["encode", *layout, "--design", design, "--data", "data.bin", "--out-dir", "out"],
        )
    ] + [  # complete designs of 10^5 blocks of 99,999 points, and of one block of 10^12
        ["design", "--n", "100000", "--r", "99999"],
        ["design", "--n", "1000000000000", "--r", "1000000000000"],
        ["encode", "--n", "1000000000000", "--m", "1", "--e", "1", "--d", "999999999999",
         "--r", "1000000000000", "--data", "data.bin", "--out-dir", "out"],
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", ARGV_RUNNER, str(src), str(ARGV_SECONDS)],
                          input=json.dumps(cases), capture_output=True, text=True, cwd=tmp_path,
                          timeout=ARGV_SECONDS * len(cases))
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert [code for _, code, _ in results] == [2] * len(cases), results
    assert not any("Traceback" in err for _, _, err in results)


def test_fifo_input_files_exit_2_without_blocking(tmp_path, capsys):
    # a FIFO with no writer blocks a plain open() for reading until one comes
    layout = ["--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3"]
    node_dir = encode_dir(tmp_path, capsys, ["encode", *layout], bytes(range(8)))
    os.mkfifo(tmp_path / "fifo")
    cases = [
        ["encode", *layout, "--data", "fifo", "--out-dir", "out"],
        ["extend", "--node-dir", node_dir.name, "--new-data", "fifo", "--out-dir", "ext"],
        ["encode", *layout, "--design", "fifo", "--data", "data.bin", "--out-dir", "out"],
        ["design", "--load", "fifo"],
    ]
    errors = [f"error: cannot read {what} file fifo: it is not a regular file\n"
              for what in ("data", "data", "design", "design")]
    for name in ("node_002.txt", "code.json"):
        dirpath = tmp_path / name.split(".")[0]
        dirpath.mkdir()
        for f in node_dir.iterdir():
            if f.name != name:
                (dirpath / f.name).write_bytes(f.read_bytes())
        os.mkfifo(dirpath / name)
        what = "node file " if name.startswith("node") else ""
        for argv in (["reconstruct", "--node-dir", dirpath.name, "--nodes", "1,2,3"],
                     ["repair", "--node-dir", dirpath.name, "--failed", "1", "--helpers", "2,3,4"]):
            cases.append(argv)
            errors.append(f"error: cannot read {what}{dirpath.name}/{name}: "
                          "it is not a regular file\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", ARGV_RUNNER, str(src), str(ARGV_SECONDS)],
                          input=json.dumps(cases), capture_output=True, text=True, cwd=tmp_path,
                          timeout=ARGV_SECONDS * len(cases))
    assert proc.returncode == 0, proc.stderr
    assert [(code, err) for _, code, err in json.loads(proc.stdout)] == [(2, e) for e in errors]
