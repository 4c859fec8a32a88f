"""Command line front end.

    regencodes design --n 8 --r 4 [--load FILE] [--out FILE]
    regencodes encode --n 8 --m 2 --e 2 --d 6 --design FILE \
        --data FILE --out-dir DIR
    regencodes encode --construction precoded --n 6 --k 4 --d 5 --e 1 \
        --m 1 --r 3 --data FILE --out-dir DIR
    regencodes repair --node-dir DIR --failed 1,2 --helpers 3,4,5,6,7,8
    regencodes reconstruct --node-dir DIR --nodes 1,2,4,5,6,8 --out FILE
    regencodes extend --node-dir DIR --new-data FILE --out-dir DIR
    regencodes region --k 14 --e 3 [--out FILE]
    regencodes points --n 19 --k 13 --d 14 --e 3 [--m-values 3,4,5,6]
    regencodes compare --n 10 --k 7 --d 7 [--out FILE]
    regencodes verify [--seed N]

Node directories are self-describing. code.json carries format_version 2,
the construction, parameters, field and design: a complete design as
{"n", "r", "t", "complete": true}, rebuilt on load, any other as its block
list, one "p1 p2 ..." block line per JSON line. One node_XXX.txt per node
holds the header `v2 NODE ALPHA crc=XXXXXXXX [kappa=K]` and one line of the
node's symbols as fixed-width hex in slot order; crc is zlib.crc32 of that
payload line, so a node file changed on disk fails with exit 3 naming the
node before any decode. Header, alpha, payload length and hex digits are
checked first (exit 2). The old layout, code.json without format_version
and node files of `block hex` lines, is still read; only v2 is written.
All file writes are atomic (write to a temp name, then rename) and every
command that writes files also writes a JSON run manifest next to them.
Relative output paths are placed under $REGENCODES_OUT_DIR when it is set.

Exit codes: 0 success, 2 invalid input, 3 integrity failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
import tempfile
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .bandwidth import beta_formula, beta_layered_naive_e1
from .designs import (
    BlockDesign,
    complete_design,
    design_stats,
    load_design,
    serialize_design,
    verify_steiner,
)
from .errors import IntegrityError, ValidationError
from .gf import binary_field
from .layered import (
    LayeredCode,
    NodeContents,
    SystemParams,
    build_code,
    node_contents_from_text,
    node_contents_to_text,
)
from .precoded import PrecodedCode, build_precoded, rho
from .tradeoff import (
    CSV_HEADER,
    achievable_points_general,
    achievable_points_c1,
    corner_points,
    csv_rows,
    mbcr_point,
    msmr_point,
    TradeoffPoint,
)

DEFAULT_SEED = 12345
OUT_DIR_ENV = "REGENCODES_OUT_DIR"
CODE_JSON_VERSION = 2  # the code.json layout written; one without the key is the old one


# -- small shared helpers -----------------------------------------------------


def _resolve(path: str) -> Path:
    p = Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _atomic_write(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = data if isinstance(data, bytes) else data.encode()
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_manifest(target: Path, command: str, parameters: dict,
                    inputs: list[str], outputs: list[str], seed=None) -> Path:
    manifest = {
        "tool": "regencodes",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "inputs": sorted(inputs),
        "outputs": sorted(outputs),
        "seed": seed,
    }
    if target.is_dir() or target.suffix == "":
        path = target / "manifest.json"
    else:
        path = target.with_name(target.name + ".manifest.json")
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValidationError(f"{what} must be comma-separated integers, got {text!r}") from None


def _symbol_bytes(bits: int) -> int:
    return (bits + 7) // 8


def _read_data_file(path: Path, count: int, bits: int) -> Sequence[int]:
    nbytes = _symbol_bytes(bits)
    try:
        blob = path.read_bytes()
    except OSError as ex:
        raise ValidationError(f"cannot read data file {path}: {ex}") from None
    if len(blob) != count * nbytes:
        raise ValidationError(
            f"data file {path} holds {len(blob)} bytes; need exactly "
            f"{count} symbols x {nbytes} bytes = {count * nbytes}"
        )
    if nbytes == 1:
        out = blob  # one int per symbol already
    else:
        out = [int.from_bytes(blob[i : i + nbytes], "big") for i in range(0, len(blob), nbytes)]
    if max(out, default=0) >> bits:
        i = next(i for i, v in enumerate(out) if v >> bits)
        raise ValidationError(f"symbol #{i} in {path} exceeds {bits} bits")
    return out


def _data_to_bytes(symbols: Sequence[int], bits: int) -> bytes:
    nbytes = _symbol_bytes(bits)
    if nbytes == 1:
        return bytes(symbols)
    return b"".join(int(v).to_bytes(nbytes, "big") for v in symbols)


def _node_path(dirpath: Path, node: int) -> Path:
    return dirpath / f"node_{node:03d}.txt"


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


def _emit_csv(rows: list[list[str]], out: Optional[str], command: str,
              parameters: dict, summary: Optional[dict] = None) -> None:
    text = _csv_text(rows)
    if out is None:
        sys.stdout.write(text)
        return
    path = _resolve(out)
    _atomic_write(path, text)
    _write_manifest(path, command, parameters, inputs=[], outputs=[str(path)])
    payload = {"out": str(path), "rows": len(rows)}
    if summary:
        payload.update(summary)
    _print_json(payload)


# -- node directories ----------------------------------------------------------


def _node_kappa(code) -> Optional[int]:
    """The kappa node-file headers carry: the field's for a precoded code, else none."""
    return code.field.kappa if isinstance(code, PrecodedCode) else None


def _write_nodes(dirpath: Path, code, state: list[NodeContents]) -> list[str]:
    written = []
    kappa = _node_kappa(code)
    for nc in state:
        path = _node_path(dirpath, nc.node)
        _atomic_write(path, node_contents_to_text(nc, code.field.hex_width, kappa=kappa))
        written.append(str(path))
    return written


def _save_node_dir(dirpath: Path, meta: dict, code, state: list[NodeContents]) -> list[str]:
    code_path = dirpath / "code.json"
    _atomic_write(code_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return [str(code_path)] + _write_nodes(dirpath, code, state)


def _load_code_meta(dirpath: Path) -> dict:
    code_path = dirpath / "code.json"
    try:
        meta = json.loads(code_path.read_text())
    except OSError as ex:
        raise ValidationError(f"cannot read {code_path}: {ex}") from None
    except json.JSONDecodeError as ex:
        raise ValidationError(f"{code_path} is not valid JSON: {ex}") from None
    if not isinstance(meta, dict) or meta.get("format") != "regencodes-node-dir":
        raise ValidationError(f"{code_path} is not a regencodes node directory descriptor")
    return meta


def _design_from_meta(dd: dict, version: int) -> BlockDesign:
    n, r, t = int(dd["n"]), int(dd["r"]), int(dd["t"])
    if version == CODE_JSON_VERSION and dd.get("complete") is True:
        if t != r:
            raise ValidationError(f"a complete design has t = r, code.json says t={t} r={r}")
        return complete_design(n, r)  # refuses C(n, r) > MAX_BLOCKS before building
    # v2 stores each block as a design-file line, the old layout as a list
    blocks = [b.split() for b in dd["blocks"]] if version == CODE_JSON_VERSION else dd["blocks"]
    return BlockDesign(n=n, r=r, t=t, blocks=tuple(tuple(int(x) for x in b) for b in blocks))


def _code_from_meta(meta: dict):
    # the old layout has no format_version; it differs from v2 only in the design
    version = meta.get("format_version", 1)
    if "format_version" in meta and version != CODE_JSON_VERSION:
        raise ValidationError(
            f"code.json format_version {version!r} is not supported (expected {CODE_JSON_VERSION})"
        )
    construction = meta.get("construction")
    params = meta.get("params", {})
    fieldspec = meta.get("field", {})
    try:
        if construction == "layered":
            sp = SystemParams(**{key: int(params[key]) for key in ("n", "k", "d", "e", "m", "r", "t")})
            design = _design_from_meta(meta["design"], version)
            field = binary_field(int(fieldspec["w"]))
            return build_code(sp, design, field)
        if construction == "precoded":
            code = build_precoded(
                n=int(params["n"]), k=int(params["k"]), d=int(params["d"]),
                e=int(params["e"]), m=int(params["m"]), r=int(params["r"]),
                w=int(fieldspec["w"]),
            )
            stored = fieldspec.get("modulus")
            if stored != hex(code.field.modulus):
                raise ValidationError(
                    f"stored field modulus {stored} disagrees with the rebuilt field"
                )
            return code
    except KeyError as ex:
        raise ValidationError(f"code.json is missing {ex}") from None
    except ValidationError:
        raise
    except (AttributeError, TypeError, ValueError) as ex:
        raise ValidationError(f"malformed code.json: {ex}") from None
    raise ValidationError(f"unknown construction {construction!r} in code.json")


def _load_nodes(dirpath: Path, nodes: Sequence[int], code) -> list[NodeContents]:
    expect_kappa = _node_kappa(code)
    layered = code if expect_kappa is None else code.inner  # whose slots the files follow
    out = []
    for x in nodes:
        path = _node_path(dirpath, x)
        try:
            text = path.read_text()
        except OSError as ex:
            raise ValidationError(f"cannot read node file {path}: {ex}") from None
        nc, kappa = node_contents_from_text(text, layered)
        if nc.node != x:
            raise ValidationError(f"{path} names node {nc.node}, expected {x}")
        if kappa != expect_kappa:
            raise ValidationError(
                f"{path} kappa header {kappa} disagrees with the code ({expect_kappa})"
            )
        out.append(nc)
    return out


def _layered_meta(code: LayeredCode) -> dict:
    p, design = code.params, code.design
    stored = {"n": design.n, "r": design.r, "t": design.t}
    lex = itertools.combinations(range(1, design.n + 1), design.r)
    if design.t == design.r and design.blocks == tuple(lex):
        stored["complete"] = True
    else:
        stored["blocks"] = [" ".join(map(str, b)) for b in design.blocks]
    return {
        "format": "regencodes-node-dir",
        "format_version": CODE_JSON_VERSION,
        "version": __version__,
        "construction": "layered",
        "params": {"n": p.n, "k": p.k, "d": p.d, "e": p.e, "m": p.m, "r": p.r, "t": p.t},
        "field": {"w": code.field.w},
        "design": stored,
    }


def _precoded_meta(code: PrecodedCode) -> dict:
    return {
        "format": "regencodes-node-dir",
        "format_version": CODE_JSON_VERSION,
        "version": __version__,
        "construction": "precoded",
        "params": {"n": code.n, "k": code.k, "d": code.d, "e": code.e,
                   "m": code.m, "r": code.r},
        "field": {"w": code.field.subfield.w, "kappa": code.field.kappa,
                  "modulus": hex(code.field.modulus)},
    }


# -- subcommands ------------------------------------------------------------------


def _cmd_design(args) -> int:
    if args.load:
        design = load_design(args.load)
        if args.n is not None and design.n != args.n:
            raise ValidationError(f"file has n={design.n}, asked for n={args.n}")
        if args.r is not None and design.r != args.r:
            raise ValidationError(f"file has r={design.r}, asked for r={args.r}")
    else:
        if args.n is None or args.r is None:
            raise ValidationError("generation needs --n and --r (or use --load FILE)")
        design = complete_design(args.n, args.r)
    if not verify_steiner(design):
        raise ValidationError(
            f"design does not cover every {design.t}-subset exactly once"
        )
    stats = design_stats(design)
    _print_json({
        "n": design.n, "r": design.r, "t": design.t,
        "blocks": stats.N, "alpha": stats.alpha,
        "lambda2": stats.lambda2, "lambda3": stats.lambda3,
        "steiner": True,
    })
    if args.out:
        path = _resolve(args.out)
        _atomic_write(path, serialize_design(design))
        _write_manifest(path, "design",
                        {"n": design.n, "r": design.r, "t": design.t},
                        inputs=[args.load] if args.load else [],
                        outputs=[str(path)])
    return 0


def _cmd_encode(args) -> int:
    out_dir = _resolve(args.out_dir)
    if args.construction == "layered":
        for name in ("n", "m", "e", "d"):
            if getattr(args, name) is None:
                raise ValidationError(f"layered encode needs --{name}")
        if args.design:
            design = load_design(args.design)
            r, t = design.r, design.t
        elif args.r is not None:
            design, r, t = None, args.r, args.r
        else:
            raise ValidationError("layered encode needs --r or --design FILE")
        params = SystemParams(n=args.n, k=args.n - args.m, d=args.d,
                              e=args.e, m=args.m, r=r, t=t)
        field = binary_field(8 if args.field_width is None else args.field_width)
        code = build_code(params, design, field)
        meta = _layered_meta(code)
    else:
        for name in ("n", "k", "m", "e", "d", "r"):
            if getattr(args, name) is None and not (name == "m" and args.k is not None):
                raise ValidationError(f"precoded encode needs --{name}")
        m = args.m if args.m is not None else args.n - args.k
        code = build_precoded(n=args.n, k=args.k, d=args.d, e=args.e,
                              m=m, r=args.r, w=args.field_width)
        meta = _precoded_meta(code)

    bits = code.field.order.bit_length() - 1  # a precoded code's: the extension field's
    data = _read_data_file(Path(args.data), code.data_len, bits)
    state = code.encode(data)
    written = _save_node_dir(out_dir, meta, code, state)
    params_json = dict(meta["params"])
    params_json["construction"] = args.construction
    manifest = _write_manifest(out_dir, "encode", params_json,
                               inputs=[args.data], outputs=written)
    _print_json({
        "construction": args.construction,
        "out_dir": str(out_dir),
        "nodes": len(state),
        "alpha": code.alpha,
        "data_symbols": code.data_len,
        "symbol_bytes": _symbol_bytes(bits),
        "manifest": str(manifest),
    })
    return 0


def _cmd_repair(args) -> int:
    dirpath = _resolve(args.node_dir)
    meta = _load_code_meta(dirpath)
    code = _code_from_meta(meta)
    failed = _int_list(args.failed, "--failed")
    helpers = _int_list(args.helpers, "--helpers")
    state = _load_nodes(dirpath, sorted(set(helpers)), code)
    repaired, report = code.repair(state, failed, helpers)
    written = _write_nodes(dirpath, code, repaired)
    payload = report.to_json_dict()
    payload["written"] = written
    _print_json(payload)
    if args.report:
        rpath = _resolve(args.report)
        _atomic_write(rpath, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        _write_manifest(rpath, "repair",
                        {"failed": failed, "helpers": helpers},
                        inputs=[str(dirpath)], outputs=written + [str(rpath)])
    return 0


def _cmd_reconstruct(args) -> int:
    dirpath = _resolve(args.node_dir)
    meta = _load_code_meta(dirpath)
    code = _code_from_meta(meta)
    nodes = _int_list(args.nodes, "--nodes")
    state = _load_nodes(dirpath, sorted(set(nodes)), code)
    data = code.reconstruct(state)
    bits = code.field.order.bit_length() - 1
    blob = _data_to_bytes(data, bits)
    if args.out:
        path = _resolve(args.out)
        _atomic_write(path, blob)
        _write_manifest(path, "reconstruct", {"nodes": sorted(set(nodes))},
                        inputs=[str(dirpath)], outputs=[str(path)])
        _print_json({"out": str(path), "data_symbols": len(data), "bytes": len(blob)})
    else:
        sys.stdout.buffer.write(blob)
    return 0


def _cmd_extend(args) -> int:
    dirpath = _resolve(args.node_dir)
    out_dir = _resolve(args.out_dir)
    meta = _load_code_meta(dirpath)
    if meta.get("construction") != "layered":
        raise ValidationError("only layered node directories can be extended")
    code = _code_from_meta(meta)
    state = _load_nodes(dirpath, range(1, code.params.n + 1), code)
    new_data = _read_data_file(Path(args.new_data), code.codec.dimension, code.field.w)
    new_code, new_state = code.extend(state, new_data)
    new_meta = _layered_meta(new_code)
    written = _save_node_dir(out_dir, new_meta, new_code, new_state)
    manifest = _write_manifest(out_dir, "extend", new_meta["params"],
                               inputs=[str(dirpath), args.new_data], outputs=written)
    _print_json({
        "out_dir": str(out_dir),
        "nodes": new_code.params.n,
        "alpha": new_code.alpha,
        "data_symbols": new_code.data_len,
        "manifest": str(manifest),
    })
    return 0


def _cmd_region(args) -> int:
    region = corner_points(args.k, args.e)
    points = achievable_points_c1(args.k, args.e) + [mbcr_point(args.k, args.k, args.e)]
    rows = csv_rows(points, corners=region.corners)
    _emit_csv(rows, args.out, "region", {"k": args.k, "e": args.e},
              summary={"p_star": region.p_star, "n_corners": region.n_corners})
    return 0


def _cmd_points(args) -> int:
    m_values = _int_list(args.m_values, "--m-values") if args.m_values else None
    points = achievable_points_general(args.n, args.k, args.d, args.e, m_values)
    points = points + [msmr_point(args.k, args.d, args.e), mbcr_point(args.k, args.d, args.e)]
    rows = csv_rows(points)
    _emit_csv(rows, args.out, "points",
              {"n": args.n, "k": args.k, "d": args.d, "e": args.e,
               "m_values": m_values})
    return 0


def _cmd_compare(args) -> int:
    n, k, d = args.n, args.k, args.d
    m = n - k
    if m < 1:
        raise ValidationError(f"compare needs k < n, got n={n} k={k}")
    if not k <= d <= n - 1:
        raise ValidationError(f"need k <= d <= n-1, got d={d}")
    points = []
    for r in range(m + 1, n + 1):
        denom = rho(n, k, m, r)
        alpha_bar = Fraction(comb(n - 1, r - 1), denom)
        msmr = beta_formula(n, 1, m, r, d) / denom
        naive = beta_layered_naive_e1(n, m, r, d) / denom
        points.append(TradeoffPoint(alpha_bar, msmr, f"msmr(r={r})", r=r, m=m))
        points.append(TradeoffPoint(alpha_bar, naive, f"layered-naive(r={r})", r=r, m=m))
    rows = csv_rows(points)
    _emit_csv(rows, args.out, "compare", {"n": n, "k": k, "d": d, "m": m})
    return 0


def _cmd_verify(args) -> int:
    from .selfcheck import run_suites

    failures = run_suites(seed=args.seed, out=sys.stdout)
    if failures:
        print(f"FAILED {failures} suite(s)")
        return 3
    return 0


# -- parser -----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="regencodes",
        description="Layered regenerating codes: repair, reconstruction, tradeoff region.",
    )
    ap.add_argument("--version", action="version", version=f"regencodes {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="generate or validate a block design")
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--load", help="read a design file instead of generating")
    p.add_argument("--out", help="write the canonical design file here")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("encode", help="encode a data file into a node directory")
    p.add_argument("--construction", choices=["layered", "precoded"], default="layered")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, help="precoded only; layered has k = n-m")
    p.add_argument("--m", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--design", help="layered: load the block design from a file")
    p.add_argument("--field-width", type=int, dest="field_width")
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("repair", help="rebuild failed nodes from helper node files")
    p.add_argument("--node-dir", required=True, dest="node_dir")
    p.add_argument("--failed", required=True)
    p.add_argument("--helpers", required=True)
    p.add_argument("--report", help="also write the bandwidth report JSON here")
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser("reconstruct", help="recover the data file from k nodes")
    p.add_argument("--node-dir", required=True, dest="node_dir")
    p.add_argument("--nodes", required=True)
    p.add_argument("--out", help="write the data here (default: stdout)")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("extend", help="grow (k+e,k) into (k+e+1,k) with fresh data")
    p.add_argument("--node-dir", required=True, dest="node_dir")
    p.add_argument("--new-data", required=True, dest="new_data")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("region", help="corner points and achievable curve at n=k+e, d=k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--out", help="write CSV here (default: stdout)")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("points", help="achievable (alpha, beta) curves for general (n,k,d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--m-values", dest="m_values", help="comma list; default: all valid m")
    p.add_argument("--out", help="write CSV here (default: stdout)")
    p.set_defaults(func=_cmd_points)

    p = sub.add_parser("compare", help="msmr vs naive repair bandwidth, single failure")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", help="write CSV here (default: stdout)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify", help="run randomized self-checks")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_verify)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except IntegrityError as ex:
        print(f"integrity error: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
