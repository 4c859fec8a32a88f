"""Seeded fuzzing of a precoded and a layered node directory through the CLI.

Every mutated node file or code.json must end in one of the documented exit
codes (0 ok, 2 invalid input, 3 integrity failure), never in an uncaught
exception: an out-of-field operand reaching the extension-field kernels
would raise IndexError from their tables, or compute garbage, and one
reaching the GF(2^8) column kernel would not fit its bytes. Each mutation
returns the node file it touched (None for code.json) and the exit codes
allowed when a command reads that file; a command that does not read it
must succeed.
"""

import json
import random

import pytest

from regencodes.cli import main

HEX = "0123456789abcdef"
WRONG_TYPES = ["x", "", None, [], [3], {}, {"n": 5}, 2.5, True, -1]
ANY = {0, 2, 3}
REFUSED = {2}


def flip_symbol(files, rng):
    name, lines = pick_node(files, rng)
    i = rng.randrange(1, len(lines))
    block, sym = lines[i].split()
    j = rng.randrange(len(sym))
    digit = rng.choice(HEX.replace(sym[j], ""))
    lines[i] = f"{block} {sym[:j]}{digit}{sym[j + 1:]}"
    # still a field element; a mismatch shows only where there is redundancy
    return f"flip {name} line {i + 1} digit {j}", name, {0, 3}


def widen_symbol(files, rng):
    name, lines = pick_node(files, rng)
    i = rng.randrange(1, len(lines))
    block, sym = lines[i].split()
    lines[i] = f"{block} {rng.choice(HEX[1:]) * rng.randrange(1, 4)}{sym}"
    return f"widen {name} line {i + 1}", name, REFUSED


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


def reorder_lines(files, rng):
    name, lines = pick_node(files, rng)
    i, j = rng.sample(range(len(lines)), 2)
    lines[i], lines[j] = lines[j], lines[i]
    return f"swap {name} lines {i + 1} and {j + 1}", name, REFUSED


def garble_header(files, rng):
    name, lines = pick_node(files, rng)
    head = lines[0].split()
    i = rng.randrange(len(head))
    head[i] = rng.choice([
        "", "x", "-1", "0", "999", "precoded=0", "kappa=", "kappa=x",
        "kappa=11", str(int(head[0]) % node_count(files) + 1), head[i] + "0",
    ])
    if rng.random() < 0.2:
        del head[rng.randrange(len(head))]
    lines[0] = " ".join(head)
    return f"header of {name} -> {lines[0]!r}", name, REFUSED


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


MUTATIONS = [
    flip_symbol, widen_symbol, drop_line, duplicate_line, reorder_lines,
    garble_header, retype_meta_key, drop_meta_key, wrong_modulus,
]


def move_block_member(files, rng):
    blocks = files["code.json"]["design"]["blocks"]
    block = rng.choice(blocks)
    i = rng.randrange(len(block))
    block[i] = rng.choice([x for x in range(1, node_count(files) + 1) if x != block[i]])
    return f"code.json design block {block}", None, REFUSED


LAYERED_MUTATIONS = [m for m in MUTATIONS if m is not wrong_modulus] + [move_block_member]


def node_count(files):
    return len(files) - 1


def pick_node(files, rng):
    name = f"node_{rng.randrange(1, node_count(files) + 1):03d}.txt"
    return name, files[name]


def write_dir(dirpath, files):
    for name, content in files.items():
        if name == "code.json":
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


def fuzz_node_dir(tmp_path, capsys, encode_argv, data, mutations, n, max_failed):
    (tmp_path / "data.bin").write_bytes(data)
    node_dir = tmp_path / "nodes"
    assert main([*encode_argv, "--data", str(tmp_path / "data.bin"),
                 "--out-dir", str(node_dir)]) == 0
    capsys.readouterr()
    pristine = {"code.json": json.loads((node_dir / "code.json").read_text())}
    for x in range(1, n + 1):
        name = f"node_{x:03d}.txt"
        pristine[name] = (node_dir / name).read_text().splitlines()
    k = pristine["code.json"]["params"]["k"]

    rng = random.Random(20181)
    seen = set()
    for i in range(200):
        files = json.loads(json.dumps(pristine))
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
    fuzz_node_dir(
        tmp_path, capsys,
        ["encode", "--construction", "precoded", "--n", "5", "--k", "3", "--d", "4",
         "--e", "1", "--m", "1", "--r", "2"],
        b"".join((v * 40503 % (1 << 20)).to_bytes(3, "big") for v in range(9)),
        MUTATIONS, n=5, max_failed=1,
    )


def test_fuzzed_layered_node_dir_exits_cleanly(tmp_path, capsys):
    # the complete design of 4-sets over 6 nodes, (4, 2) groups over GF(2^8)
    fuzz_node_dir(
        tmp_path, capsys,
        ["encode", "--n", "6", "--m", "2", "--e", "2", "--d", "4", "--r", "4"],
        bytes(v * 97 % 256 for v in range(30)),
        LAYERED_MUTATIONS, n=6, max_failed=2,
    )
