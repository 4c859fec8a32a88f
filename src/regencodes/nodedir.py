"""Node directories: code.json and one node file per node, read and written.

A node directory is self-describing. code.json carries format_version 2, the
construction, parameters, field and design: a complete design as
{"n", "r", "t", "complete": true}, rebuilt on load, any other as its block
list, one "p1 p2 ..." block line per JSON line. One node_XXX.txt per node
holds the header `v2 NODE ALPHA crc=XXXXXXXX [kappa=K]` and one line of the
node's symbols as fixed-width hex in slot order (layered.py formats and parses
it); crc is zlib.crc32 of that payload line, so a node file changed on disk
fails with exit 3 naming the node before any decode. Header, alpha, payload
length and hex digits are checked first (exit 2), and the kappa token only a
precoded code's node files carry after the checksum (exit 2). Both go through
files.py; code.json is read no further than CODE_JSON_CAP bytes, and each of
its numbers must be an int, not a bool, a float or a string (exit 2).
"""

from __future__ import annotations

import json
import operator
from pathlib import Path
from typing import Iterable

from . import __version__
from .designs import MAX_BLOCKS, MAX_DESIGN_BYTES, BlockDesign, complete_design
from .errors import ValidationError
from .files import read_regular_text, write_files
from .gf import binary_field
from .layered import (LayeredCode, NodeContents, SystemParams, build_code,
                      node_contents_from_text, node_contents_to_text)

CODE_JSON_FORMAT = "regencodes-node-dir"
CODE_JSON_VERSION = 2  # the only code.json layout read or written
_LAYERED_PARAMS = SystemParams._fields  # n, k, d, e, m, r, t
# a code.json is its design's block lines (designs.MAX_DESIGN_BYTES at most), each quoted,
# indented and ended in code.json by under 16 more bytes, and under 4 KiB of the rest
CODE_JSON_CAP = MAX_DESIGN_BYTES + 16 * MAX_BLOCKS + 4096


def node_path(dirpath: Path, node: int) -> Path:
    return dirpath / f"node_{node:03d}.txt"


def node_files(dirpath, code, state: Iterable[NodeContents]) -> list[tuple[Path, str]]:
    """(path, text) of each node's file, for write_files."""
    dirpath = Path(dirpath)
    return [(node_path(dirpath, nc.node), node_contents_to_text(nc, code)) for nc in state]


def _precoded_params() -> tuple[str, ...]:
    """n, k, d, e, m, r: the rest of a PrecodedCode's fields are built from them."""
    from .precoded import PrecodedCode  # loaded by a precoded command only

    return PrecodedCode._fields[:6]


def code_params(code) -> dict:
    """The parameters code.json stores: n, k, d, e, m, r and, for a layered code, t."""
    if isinstance(code, LayeredCode):
        return {key: getattr(code.params, key) for key in _LAYERED_PARAMS}
    return {key: getattr(code, key) for key in _precoded_params()}


def _code_json(code) -> dict:
    meta = {"format": CODE_JSON_FORMAT, "format_version": CODE_JSON_VERSION,
            "version": __version__, "params": code_params(code)}
    if not isinstance(code, LayeredCode):
        field = code.field
        meta.update(construction="precoded", field={
            "w": field.subfield.w, "kappa": field.kappa, "modulus": hex(field.modulus)})
        return meta
    design = code.design
    stored = {"n": design.n, "r": design.r, "t": design.t}
    # the code's design is Steiner: with t = r it holds every r-subset once, in lexicographic
    # order exactly when its blocks ascend
    if design.t == design.r and all(map(operator.lt, design.blocks, design.blocks[1:])):
        stored["complete"] = True
    else:
        stored["blocks"] = [" ".join(map(str, b)) for b in design.blocks]
    meta.update(construction="layered", field={"w": code.field.w}, design=stored)
    return meta


def directory_files(dirpath, code, state: Iterable[NodeContents]) -> list[tuple[Path, str]]:
    """(path, text) of code.json and of each node's file, for write_files."""
    meta = json.dumps(_code_json(code), indent=2, sort_keys=True) + "\n"
    return [(Path(dirpath) / "code.json", meta), *node_files(dirpath, code, state)]


def save(dirpath, code, state: Iterable[NodeContents]) -> list[str]:
    """Write code.json and the nodes' files, all or none of them; returns their paths."""
    return write_files(directory_files(dirpath, code, state))


def _integer(spec: dict, key: str, where: str) -> int:
    """spec[key], refused unless it is an int: a bool, or a float or a string that int() would
    cut or parse, is not. What int() itself refuses keeps its malformed-code.json message."""
    value = spec[key]
    int(value)
    if type(value) is not int:
        raise ValidationError(f"code.json {where}.{key} must be an integer, got {value!r}")
    return value


def _design(dd: dict) -> BlockDesign:
    n, r, t = (_integer(dd, key, "design") for key in ("n", "r", "t"))
    if dd.get("complete") is True:
        if t != r:
            raise ValidationError(f"a complete design has t = r, code.json says t={t} r={r}")
        return complete_design(n, r)  # refuses C(n, r) > MAX_BLOCKS before building
    blocks = tuple(tuple(int(x) for x in b.split()) for b in dd["blocks"])
    return BlockDesign(n=n, r=r, t=t, blocks=blocks)


def load_code(dirpath):
    """The code a node directory's code.json describes, rebuilt; ValidationError if it cannot be."""
    code_path = Path(dirpath) / "code.json"
    text = read_regular_text(code_path, "", CODE_JSON_CAP)
    try:
        meta = json.loads(text)
    except (ValueError, RecursionError) as ex:  # also an over-long int or too deep a nesting
        raise ValidationError(f"{code_path} is not valid JSON: {ex}") from None
    if not isinstance(meta, dict) or meta.get("format") != CODE_JSON_FORMAT:
        raise ValidationError(f"{code_path} is not a regencodes node directory descriptor")
    if "format_version" not in meta:
        raise ValidationError("code.json has no format_version; "
                              "the pre-v2 layout is no longer read")
    version = meta["format_version"]
    if version != CODE_JSON_VERSION:
        raise ValidationError(
            f"code.json format_version {version!r} is not supported (expected {CODE_JSON_VERSION})"
        )
    construction, params = meta.get("construction"), meta.get("params", {})
    fieldspec = meta.get("field", {})
    try:
        if construction == "layered":
            sp = SystemParams(**{key: _integer(params, key, "params") for key in _LAYERED_PARAMS})
            design = _design(meta["design"])
            return build_code(sp, design, binary_field(_integer(fieldspec, "w", "field")))
        if construction == "precoded":
            from .precoded import build_precoded

            code = build_precoded(**{key: _integer(params, key, "params")
                                     for key in _precoded_params()},
                                  w=_integer(fieldspec, "w", "field"))
            stored = fieldspec.get("modulus")
            if stored != hex(code.field.modulus):
                raise ValidationError(
                    f"stored field modulus {stored} disagrees with the rebuilt field")
            return code
    except KeyError as ex:
        raise ValidationError(f"code.json is missing {ex}") from None
    except ValidationError:
        raise
    except (AttributeError, TypeError, ValueError, OverflowError) as ex:  # int(inf) overflows
        raise ValidationError(f"malformed code.json: {ex}") from None
    raise ValidationError(f"unknown construction {construction!r} in code.json")


def load_nodes(dirpath, code, nodes: Iterable[int]) -> list[NodeContents]:
    """The listed nodes' contents, each parsed and checked against the code.

    ValidationError if a file cannot be read, is over 4 KiB longer than its payload, is
    malformed or names another node; IntegrityError if its payload fails its checksum.
    """
    out, dirpath = [], Path(dirpath)
    cap = code.alpha * code.field.hex_width + 4096  # the payload, room for header and line ends
    for x in nodes:
        path = node_path(dirpath, x)
        nc = node_contents_from_text(read_regular_text(path, "node file ", cap), code, path)
        if nc.node != x:
            raise ValidationError(f"{path} names node {nc.node}, expected {x}")
        out.append(nc)
    return out
