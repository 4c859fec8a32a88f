"""Command line front end.

    regencodes design --n 8 --r 4 [--load FILE] [--out FILE]
    regencodes encode --n 8 --m 2 --e 2 --d 6 --design FILE \
        --data FILE --out-dir DIR
    regencodes encode --construction precoded --n 6 --k 4 --d 5 --e 1 \
        --m 1 --r 3 --data FILE --out-dir DIR
    regencodes repair --node-dir DIR --failed 1,2 --helpers 3,4,5,6,7,8 [--report FILE]
    regencodes reconstruct --node-dir DIR --nodes 1,2,4,5,6,8 [--out FILE]
    regencodes extend --node-dir DIR --new-data FILE --out-dir DIR
    regencodes region --k 14 --e 3 [--out FILE]
    regencodes points --n 19 --k 13 --d 14 --e 3 [--m-values 3,4,5,6] [--out FILE]
    regencodes compare --n 10 --k 7 --d 7 [--out FILE]
    regencodes verify [--seed N]

Node directories are read and written by nodedir.py, whose docstring gives
their format, and every file through files.py. A command writes its files and
its JSON run manifest in one files.write_files batch, then prints; repair
without --report writes no manifest, so the directory's stays the encode's.
Relative output and --node-dir paths are placed under $REGENCODES_OUT_DIR
when it is set (commands both write and read node directories); other
input paths are used as given. A command imports precoded, tradeoff or
selfcheck only when it runs them, so a layered codec command loads none.
region, points and compare write their CSV from tradeoff's integer rows,
one line per row (tradeoff.csv_rows), and build no Fraction on the way.

Exit codes: 0 success, 2 invalid input, 3 integrity failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, nodedir
from .designs import complete_design, design_stats, load_design, serialize_design, verify_steiner
from .errors import IntegrityError, ValidationError
from .files import read_regular, write_files
from .gf import binary_field
from .layered import LayeredCode, SystemParams, build_code

DEFAULT_SEED = 12345
OUT_DIR_ENV = "REGENCODES_OUT_DIR"


# -- small shared helpers -----------------------------------------------------


def _resolve(path: str) -> Path:
    p = Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _write(files: list[tuple[Path, object]], command: str, parameters: dict,
           inputs: list[str], directory: Optional[Path] = None) -> Path:
    """Write the files and their run manifest in one batch; returns the manifest's path."""
    manifest = {
        "tool": "regencodes",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "inputs": sorted(inputs),
        "outputs": sorted(str(path) for path, _ in files),
        "seed": None,
    }
    out = files[-1][0]
    path = directory / "manifest.json" if directory else out.with_name(out.name + ".manifest.json")
    write_files([*files, (path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")])
    return path


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValidationError(f"{what} must be comma-separated integers, got {text!r}") from None


def _symbol_width(field) -> tuple[int, int]:
    """Bits and bytes of one data-file symbol; a field (extension, if precoded) of order 2^bits."""
    w = field.order.bit_length() - 1
    return w, (w + 7) // 8


def _read_data_file(path: Path, count: int, field) -> Sequence[int]:
    bits, nbytes = _symbol_width(field)
    want = count * nbytes
    blob, size = read_regular(path, "data file ", want)  # a longer file is not read whole
    if len(blob) != want:
        held = size  # stat gives 0 for a procfs file; then the bytes read say what it holds
        if size < len(blob):
            held = len(blob) if len(blob) <= want else f"more than {want}"
        raise ValidationError(
            f"data file {path} holds {held} bytes; need exactly "
            f"{count} symbols x {nbytes} bytes = {want}"
        )
    if nbytes == 1:
        out = blob  # one int per symbol already
    else:
        out = [int.from_bytes(blob[i : i + nbytes], "big") for i in range(0, len(blob), nbytes)]
    if max(out, default=0) >> bits:
        i = next(i for i, v in enumerate(out) if v >> bits)
        raise ValidationError(f"symbol #{i} in {path} exceeds {bits} bits")
    return out


def _data_to_bytes(symbols: Sequence[int], field) -> bytes:
    nbytes = _symbol_width(field)[1]
    if nbytes == 1:
        return bytes(symbols)
    return b"".join(int(v).to_bytes(nbytes, "big") for v in symbols)


def _emit_csv(rows: list, out: Optional[str], command: str, parameters: dict,
              summary: Optional[dict] = None, corners: Sequence = ()) -> None:
    """Write tradeoff rows (label, r, m, an, ad, bn, bd) as CSV, to stdout or to out."""
    from .tradeoff import CSV_HEADER, csv_rows

    text = "\n".join([",".join(CSV_HEADER), *csv_rows(rows, corners), ""])
    if out is None:
        sys.stdout.write(text)
        return
    path = _resolve(out)
    _write([(path, text)], command, parameters, inputs=[])
    payload = {"out": str(path), "rows": len(rows)}
    if summary:
        payload.update(summary)
    _print_json(payload)


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
    if args.out:
        _write([(_resolve(args.out), serialize_design(design))], "design",
               {"n": design.n, "r": design.r, "t": design.t},
               inputs=[args.load] if args.load else [])
    _print_json({
        "n": design.n, "r": design.r, "t": design.t,
        "blocks": stats.N, "alpha": stats.alpha,
        "lambda2": stats.lambda2, "lambda3": stats.lambda3,
        "steiner": True,
    })
    return 0


def _cmd_encode(args) -> int:
    out_dir = _resolve(args.out_dir)
    if args.construction == "layered":
        for name in ("n", "m", "e", "d"):
            if getattr(args, name) is None:
                raise ValidationError(f"layered encode needs --{name}")
        if args.k is not None and args.k != args.n - args.m:
            raise ValidationError(f"layered encode has k = n-m = {args.n - args.m}, "
                                  f"asked for k={args.k}")
        if args.design:
            design = load_design(args.design)
            if args.r is not None and design.r != args.r:
                raise ValidationError(f"file has r={design.r}, asked for r={args.r}")
            r, t = design.r, design.t
        elif args.r is not None:
            design, r, t = None, args.r, args.r
        else:
            raise ValidationError("layered encode needs --r or --design FILE")
        params = SystemParams(n=args.n, k=args.n - args.m, d=args.d,
                              e=args.e, m=args.m, r=r, t=t)
        field = binary_field(8 if args.field_width is None else args.field_width)
        code = build_code(params, design, field)
    else:
        from .precoded import build_precoded

        if args.design:
            raise ValidationError("precoded encode takes no --design; it uses the complete design")
        for name in ("n", "k", "e", "d", "r"):
            if getattr(args, name) is None:
                raise ValidationError(f"precoded encode needs --{name}")
        m = args.m if args.m is not None else args.n - args.k
        code = build_precoded(n=args.n, k=args.k, d=args.d, e=args.e,
                              m=m, r=args.r, w=args.field_width)

    data = _read_data_file(Path(args.data), code.data_len, code.field)
    state = code.encode(data)
    params_json = {**nodedir.code_params(code), "construction": args.construction}
    manifest = _write(nodedir.directory_files(out_dir, code, state), "encode", params_json,
                      inputs=[args.data], directory=out_dir)
    _print_json({
        "construction": args.construction,
        "out_dir": str(out_dir),
        "nodes": len(state),
        "alpha": code.alpha,
        "data_symbols": code.data_len,
        "symbol_bytes": _symbol_width(code.field)[1],
        "manifest": str(manifest),
    })
    return 0


def _cmd_repair(args) -> int:
    dirpath = _resolve(args.node_dir)
    code = nodedir.load_code(dirpath)
    failed = _int_list(args.failed, "--failed")
    helpers = _int_list(args.helpers, "--helpers")
    if not set(failed + helpers) <= set(range(1, code.n + 1)):  # before any file is read
        raise ValidationError("failed and helper nodes must lie in 1..n")
    state = nodedir.load_nodes(dirpath, code, sorted(set(helpers)))
    repaired, report = code.repair(state, failed, helpers)
    files = nodedir.node_files(dirpath, code, repaired)
    payload = report.to_json_dict()
    payload["written"] = [str(path) for path, _ in files]
    if args.report:
        report_file = (_resolve(args.report), json.dumps(payload, indent=2, sort_keys=True) + "\n")
        _write([*files, report_file], "repair", {"failed": failed, "helpers": helpers},
               inputs=[str(dirpath)])
    else:  # the directory's manifest stays the encode's
        write_files(files)
    _print_json(payload)
    return 0


def _cmd_reconstruct(args) -> int:
    dirpath = _resolve(args.node_dir)
    code = nodedir.load_code(dirpath)
    nodes = sorted(set(_int_list(args.nodes, "--nodes")))
    for x in nodes:  # before any file is read
        if not 1 <= x <= code.n:
            raise ValidationError(f"node id {x} out of range 1..{code.n}")
    state = nodedir.load_nodes(dirpath, code, nodes)
    data = code.reconstruct(state)
    blob = _data_to_bytes(data, code.field)
    if args.out:
        path = _resolve(args.out)
        _write([(path, blob)], "reconstruct", {"nodes": nodes}, inputs=[str(dirpath)])
        _print_json({"out": str(path), "data_symbols": len(data), "bytes": len(blob)})
    else:
        sys.stdout.buffer.write(blob)
    return 0


def _cmd_extend(args) -> int:
    dirpath = _resolve(args.node_dir)
    out_dir = _resolve(args.out_dir)
    code = nodedir.load_code(dirpath)
    if not isinstance(code, LayeredCode):
        raise ValidationError("only layered node directories can be extended")
    state = nodedir.load_nodes(dirpath, code, range(1, code.n + 1))
    new_data = _read_data_file(Path(args.new_data), code.codec.dimension, code.field)
    new_code, new_state = code.extend(state, new_data)
    manifest = _write(nodedir.directory_files(out_dir, new_code, new_state), "extend",
                      nodedir.code_params(new_code), inputs=[str(dirpath), args.new_data],
                      directory=out_dir)
    _print_json({
        "out_dir": str(out_dir),
        "nodes": new_code.n,
        "alpha": new_code.alpha,
        "data_symbols": new_code.data_len,
        "manifest": str(manifest),
    })
    return 0


def _cmd_region(args) -> int:
    from .tradeoff import region_rows

    rows, corners, p_star = region_rows(args.k, args.e)
    _emit_csv(rows, args.out, "region", {"k": args.k, "e": args.e},
              summary={"p_star": p_star, "n_corners": len(corners)}, corners=corners)
    return 0


def _cmd_points(args) -> int:
    from .tradeoff import curve_m_values, curve_rows, mbcr_row, msmr_row

    m_values = None if args.m_values is None else _int_list(args.m_values, "--m-values")
    # achievable_points_general in two steps, to refuse bad extremes before any curve
    curves = curve_m_values(args.n, args.k, args.d, args.e, m_values)
    extremes = [msmr_row(args.k, args.d, args.e), mbcr_row(args.k, args.d, args.e)]
    rows = curve_rows(args.n, args.k, args.d, args.e, curves) + extremes
    _emit_csv(rows, args.out, "points",
              {"n": args.n, "k": args.k, "d": args.d, "e": args.e,
               "m_values": m_values})
    return 0


def _cmd_compare(args) -> int:
    from .tradeoff import compare_rows

    n, k, d = args.n, args.k, args.d
    _emit_csv(compare_rows(n, k, d), args.out, "compare", {"n": n, "k": k, "d": d, "m": n - k})
    return 0


def _cmd_verify(args) -> int:
    from .selfcheck import run_suites

    failures = run_suites(seed=args.seed, out=sys.stdout)
    if failures:
        print(f"FAILED {failures} suite(s)")
        return 3
    return 0


# -- parser -----------------------------------------------------------------------
#
# main() builds the top-level parser with only the subparser its first argument names;
# any other argv (none, -h, --version, an unknown command) gets all nine, so every help
# text, usage line and error message is the same either way. Each main() call builds its
# parser afresh; nothing is kept between calls.


def _design_parser(sub) -> None:
    p = sub.add_parser("design", help="generate or validate a block design")
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--load", help="read a design file instead of generating")
    p.add_argument("--out", help="write the canonical design file here")
    p.set_defaults(func=_cmd_design)


def _encode_parser(sub) -> None:
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


def _repair_parser(sub) -> None:
    p = sub.add_parser("repair", help="rebuild failed nodes from helper node files")
    p.add_argument("--node-dir", required=True, dest="node_dir")
    p.add_argument("--failed", required=True)
    p.add_argument("--helpers", required=True)
    p.add_argument("--report", help="also write the bandwidth report JSON here")
    p.set_defaults(func=_cmd_repair)


def _reconstruct_parser(sub) -> None:
    p = sub.add_parser("reconstruct", help="recover the data file from k nodes")
    p.add_argument("--node-dir", required=True, dest="node_dir")
    p.add_argument("--nodes", required=True)
    p.add_argument("--out", help="write the data here (default: stdout)")
    p.set_defaults(func=_cmd_reconstruct)


def _extend_parser(sub) -> None:
    p = sub.add_parser("extend", help="grow (k+e,k) into (k+e+1,k) with fresh data")
    p.add_argument("--node-dir", required=True, dest="node_dir")
    p.add_argument("--new-data", required=True, dest="new_data")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=_cmd_extend)


def _region_parser(sub) -> None:
    p = sub.add_parser("region", help="corner points and achievable curve at n=k+e, d=k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--out", help="write CSV here (default: stdout)")
    p.set_defaults(func=_cmd_region)


def _points_parser(sub) -> None:
    p = sub.add_parser("points", help="achievable (alpha, beta) curves for general (n,k,d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--m-values", dest="m_values", help="comma list; default: all valid m")
    p.add_argument("--out", help="write CSV here (default: stdout)")
    p.set_defaults(func=_cmd_points)


def _compare_parser(sub) -> None:
    p = sub.add_parser("compare", help="msmr vs naive repair bandwidth, single failure")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", help="write CSV here (default: stdout)")
    p.set_defaults(func=_cmd_compare)


def _verify_parser(sub) -> None:
    p = sub.add_parser("verify", help="run randomized self-checks")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_verify)


_SUBPARSERS = {  # in the order --help lists them
    "design": _design_parser,
    "encode": _encode_parser,
    "repair": _repair_parser,
    "reconstruct": _reconstruct_parser,
    "extend": _extend_parser,
    "region": _region_parser,
    "points": _points_parser,
    "compare": _compare_parser,
    "verify": _verify_parser,
}


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser: every subcommand, or only `command`'s."""
    ap = argparse.ArgumentParser(
        prog="regencodes",
        description="Layered regenerating codes: repair, reconstruction, tradeoff region.",
    )
    ap.add_argument("--version", action="version", version=f"regencodes {__version__}")
    if command is None:
        sub = ap.add_subparsers(dest="command", required=True)
        for add in _SUBPARSERS.values():
            add(sub)
    else:
        # spell out what the full build shows by default, so the top-level usage still lists
        # every command; the full build leaves it unset, or "the following arguments are
        # required" would name the list instead of `command`
        sub = ap.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_SUBPARSERS) + "}")
        _SUBPARSERS[command](sub)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _SUBPARSERS else None
    args = _build_parser(command).parse_args(argv)
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
