"""Seeded fuzzing of node directories and data files through the CLI.

Every mutated node file or code.json must end in one of the documented exit
codes (0 ok, 2 invalid input, 3 integrity failure), never in an uncaught
exception: an out-of-field operand reaching the extension-field kernels
would raise IndexError from their tables, or compute garbage, and one
reaching the GF(2^8) column kernel would not fit its bytes. Each mutation
returns the node file it touched (None for code.json) and the exit codes
allowed when a command reads that file; a command that does not read it
must succeed. A v2 node file whose payload or checksum digits change but
keep their layout fails its checksum (exit 3) whatever the redundancy; any
other change to it is refused (exit 2). Old-format files carry no checksum, so a
changed symbol shows only where a decode has a symbol to spare. A data file
for encode or extend --new-data of the wrong length, or with a symbol of w
bits or more, is refused (exit 2); one that stays in the field is encoded.
"""

import json
import random

import pytest

from regencodes.cli import main

HEX = "0123456789abcdef"
WRONG_TYPES = ["x", "", None, [], [3], {}, {"n": 5}, 2.5, True, -1]
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


# -- old-format node files: [header, "block hex", ...] -----------------------------


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


def reorder_lines(files, rng):
    name, lines = pick_node(files, rng)
    i, j = rng.sample(range(len(lines)), 2)
    lines[i], lines[j] = lines[j], lines[i]
    return f"swap {name} lines {i + 1} and {j + 1}", name, REFUSED


def garble_v1_header(files, rng):
    name, lines = pick_node(files, rng)
    head = lines[0].split()
    i = rng.randrange(len(head))
    head[i] = rng.choice([t for t in (
        "", "x", "-1", "0", "999", "precoded=0", "kappa=", "kappa=x",
        "kappa=11", str(int(head[0]) % node_count(files) + 1), head[i] + "0",
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


def move_block_member(files, rng):
    blocks = files["code.json"]["design"]["blocks"]
    block = rng.choice(blocks)
    i = rng.randrange(len(block))
    block[i] = rng.choice([x for x in range(1, node_count(files) + 1) if x != block[i]])
    return f"code.json design block {block}", None, REFUSED


NODE_MUTATIONS = [
    flip_digit, widen_digit, truncate_payload, drop_line, duplicate_line, garble_crc,
    garble_header,
]
META_MUTATIONS = [retype_meta_key, drop_meta_key]
PRECODED_MUTATIONS = NODE_MUTATIONS + META_MUTATIONS + [wrong_modulus]
LAYERED_MUTATIONS = NODE_MUTATIONS + META_MUTATIONS + [garble_complete_design]
V1_MUTATIONS = [
    flip_symbol, widen_symbol, drop_line, duplicate_line, reorder_lines, garble_v1_header,
] + META_MUTATIONS + [move_block_member]


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


def test_fuzzed_old_format_node_dir_exits_cleanly(tmp_path, capsys, old_format_dir):
    # the old layout's labelled lines and block lists; repair writes v2 files,
    # which each round overwrites
    fuzz_node_dir(tmp_path, capsys, old_format_dir, V1_MUTATIONS, max_failed=1)


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
