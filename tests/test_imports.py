"""Every import in the package's modules is used, every private helper is referenced, every
cache is listed with the reason it pays, only files.write_files writes files, only
files.read_regular opens files to read them, only layered.py reaches into LayeredCode's
block-major list, and the modules import each other only along the package's layers;
stdlib-ast checks, no linter. A fresh `import regencodes.cli` loads neither dataclasses,
inspect nor importlib.resources, nor a module only some commands run; each command loads a
pinned set of the package's modules; and the package's lazy public names stay as listed."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regencodes

SRC = Path(__file__).resolve().parent.parent / "src" / "regencodes"


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_finds_unused_names():
    source = "import os\nimport os.path as p\nfrom a import b, c\nb(p)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


def test_no_unused_imports_in_package():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"  # re-exports
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh `python -S` (site's .pth imports kept out of sys.modules) that
    imports the package from this tree."""
    return subprocess.run([sys.executable, "-S", "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                          check=True)


def test_the_cli_import_loads_neither_dataclasses_nor_inspect():
    # every command is a fresh process that imports regencodes.cli first: `import dataclasses`
    # (which imports inspect) and dataclass() code generation took a quarter of that import
    # without a bytecode cache and half of it with one, and produced nothing. Only verify
    # reads the bundled designs through importlib.resources. The modules only some commands
    # run (and fractions, with the decimal it imports) are loaded by those commands. write_files
    # names its temp files itself: tempfile (with random and shutil) cost 4 ms of the import.
    # region, points and compare format their CSV lines themselves, so csv is not loaded
    unused = {"dataclasses", "inspect", "importlib.resources", "fractions", "decimal",
              "tempfile", "csv", "_csv", *(f"regencodes.{name}"
                for name in ("extfield", "precoded", "tradeoff", "bandwidth", "selfcheck"))}
    code = f"import sys, regencodes.cli; print(sorted({unused!r} & {{*sys.modules}}))"
    assert fresh_python(code).stdout == "[]\n"


# what `import regencodes.cli` loads: the layered codec commands run nothing else
CLI = {"cli", "designs", "errors", "files", "gf", "layered", "mds", "nodedir", "record"}
PRECODED = CLI | {"extfield", "precoded", "bandwidth"}  # precoded builds on bandwidth.rho
ANALYSIS = CLI | {"tradeoff", "bandwidth"}  # the region and the closed forms it builds on
LOADED = [  # each command, run in order, with the package's modules it loads
    (["design", "--n", "5", "--r", "3"], CLI),
    (["encode", "--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3",
      "--data", "data.bin", "--out-dir", "nodes"], CLI),
    (["reconstruct", "--node-dir", "nodes", "--nodes", "1,2,3", "--out", "back.bin"], CLI),
    (["repair", "--node-dir", "nodes", "--failed", "1", "--helpers", "2,3,4"],
     CLI | {"bandwidth"}),  # its report only
    (["extend", "--node-dir", "nodes", "--new-data", "new.bin", "--out-dir", "grown"], CLI),
    (["encode", "--construction", "precoded", "--n", "5", "--k", "3", "--d", "4", "--e", "1",
      "--m", "1", "--r", "2", "--data", "pdata.bin", "--out-dir", "pnodes"], PRECODED),
    (["reconstruct", "--node-dir", "pnodes", "--nodes", "2,4,5", "--out", "pback.bin"],
     PRECODED),
    (["repair", "--node-dir", "pnodes", "--failed", "1", "--helpers", "2,3,4,5"], PRECODED),
    (["region", "--k", "4", "--e", "2"], ANALYSIS),
    (["points", "--n", "7", "--k", "4", "--d", "5", "--e", "2"], ANALYSIS),
    (["compare", "--n", "6", "--k", "4", "--d", "4"], ANALYSIS),
]


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    (tmp_path / "data.bin").write_bytes(bytes(range(1, 9)))
    (tmp_path / "new.bin").write_bytes(bytes([9, 10]))
    (tmp_path / "pdata.bin").write_bytes(bytes(27))
    code = ("import json, os, sys\nfrom regencodes.cli import main\nos.chdir(sys.argv[1])\n"
            "status = main(sys.argv[2:])\nprint(json.dumps([status, sorted(\n"
            "    m.split('.', 1)[1] for m in sys.modules if m.startswith('regencodes.'))]))")
    loaded = {}
    for argv, _ in LOADED:
        lines = fresh_python(code, str(tmp_path), *argv).stdout.splitlines()
        loaded[" ".join(argv)] = json.loads(lines[-1])
    assert loaded == {" ".join(argv): [0, sorted(modules)] for argv, modules in LOADED}


# private helpers that only tests call, each with the reason it stays (ROADMAP aim 2)
KEPT_PRIVATE = {
    "_n2": "tradeoff.py: the paper's closed form for the sign of the chord gap; the tests "
           "reproduce the optimal-p claim through it",
}


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """'file:line: name' for each private (non-dunder) function or class, at any depth, that
    no module in sources references: a method by attribute, anything else by name or
    attribute, so a dead method is caught even where a module function shares its name."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined, names, attrs = [], set(), set()
    for name, source in sources.items():
        tree = ast.parse(source)
        methods = {id(stmt) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for stmt in node.body if isinstance(stmt, defs)}
        for node in ast.walk(tree):
            if isinstance(node, defs):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((name, node.lineno, node.name, id(node) in methods))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return [f"{name}:{line}: {helper}" for name, line, helper, method in defined
            if helper not in attrs and (method or helper not in names)]


def test_checker_finds_unreferenced_private_helpers():
    sources = {
        "a.py": "def _dead(): pass\ndef _called(): pass\nclass _Box:\n"
                "    def _meth(self): pass\n    def _used(self): pass\n"
                "    def _called(self): pass\n    def __init__(self): pass\n",
        "b.py": "from a import _called\n_called()\nx = _Box()\nx._used()\n",
    }
    # _Box._called shares its name with a called module function, but no attribute reads it
    assert unreferenced_private_defs(sources) == ["a.py:1: _dead", "a.py:4: _meth",
                                                  "a.py:6: _called"]


def test_no_unreferenced_private_helpers_in_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = [entry for entry in unreferenced_private_defs(sources)
             if entry.rsplit(" ", 1)[1] not in KEPT_PRIVATE]
    assert found == []


# -- listed caches ------------------------------------------------------------------------

CACHES = {"lru_cache", "cache", "cached_property"}
# every cache in the package, each with the reason it pays: a cache that saves nothing only
# adds a lookup per call (ROADMAP aim 2)
KEPT_CACHES = {
    "binary_field": "gf.py: one BinaryField per width, so its multiplication tables are built "
                    "once and every code and codec of that width shares them",
    "extension_field": "extfield.py: one field per (w, kappa), so the subfield embedding, the "
                       "Frobenius map and x's minimal polynomial are found once",
    "MdsCodec._log_diffs": "mds.py: the n^2 table-field logs of point differences that a "
                           "generator row's entries are summed from, taken on the first row a "
                           "codec builds and shared by the rest",
    "LayeredCode._member_chars": "layered.py: the block-major node ids as one str, built once "
                                 "per code and read by every repair's bookkeeping",
}


def _simple_name(node: ast.AST):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def caches(source: str) -> list[tuple[int, str]]:
    """(line, name) of each cache in source: a function or method decorated with lru_cache,
    cache or cached_property, by its qualified name (Class.method), and any other use of
    those names, by its source text."""
    tree = ast.parse(source)
    found, decorators = [], set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for dec in child.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if _simple_name(target) in CACHES:
                        found.append((child.lineno, prefix + child.name))
                        decorators.update(map(id, ast.walk(target)))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    found += [(node.lineno, ast.unparse(node)) for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in decorators
              and _simple_name(node) in CACHES]
    return sorted(found)


def test_checker_finds_caches():
    source = ("import functools\nfrom functools import cache, cached_property, lru_cache\n"
              "@cache\ndef a(): pass\n@functools.lru_cache(maxsize=None)\ndef b(): pass\n"
              "class C:\n    @cached_property\n    def c(self): pass\n    @property\n"
              "    def d(self): pass\nbinom = cache(comb)\nf = functools.cache\n")
    assert caches(source) == [(4, "a"), (6, "b"), (9, "C.c"), (12, "cache"),
                              (13, "functools.cache")]


def test_every_cache_is_listed():
    found = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in caches(path.read_text()) if name not in KEPT_CACHES]
    assert found == []


# -- one writer ---------------------------------------------------------------------------

WRITE_CALLS = {"os.replace", "os.rename", "os.fdopen"}
WRITE_METHODS = {"write_text", "write_bytes"}


def inside(tree: ast.AST, names) -> set[int]:
    """The ids of the nodes inside any function whose name is in names."""
    return {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name in names for node in ast.walk(fn)}


def write_mode(call: ast.Call) -> bool:
    """An open() or .open() call given a constant write mode, or an os.open() whose flags
    name O_CREAT."""
    if ast.unparse(call.func) == "os.open":
        flags = [*call.args[1:2], *(k.value for k in call.keywords if k.arg == "flags")]
        return any(_simple_name(node) == "O_CREAT" for flag in flags for node in ast.walk(flag))
    modes = [*call.args, *(k.value for k in call.keywords if k.arg == "mode")]
    return any(isinstance(m, ast.Constant) and isinstance(m.value, str)
               and set(m.value) <= set("rwxabt+") and set(m.value) & set("wxa+") for m in modes)


def file_writes(source: str, allowed: str = "") -> list[tuple[int, str]]:
    """(line, call) of each call that writes a file, outside any function named allowed:
    os.replace, os.rename, os.fdopen, anything from tempfile, write_text, write_bytes, an
    open() or .open() given a constant write mode, and an os.open() given O_CREAT."""
    tree = ast.parse(source)
    skipped = inside(tree, {allowed})
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "tempfile":
            found.append((node.lineno, "from tempfile import"))
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else name
        if attr == "open":
            writes = write_mode(node)
        else:
            writes = (name in WRITE_CALLS or name.startswith("tempfile.")
                      or attr in WRITE_METHODS)
        if writes:
            found.append((node.lineno, name))
    return found


def test_checker_finds_file_writes():
    source = ("import os, tempfile\nfrom tempfile import mkstemp\n"
              "open(p)\nopen(p, 'rb')\nopen(p, mode='a')\np.open('w')\np.read_text()\n"
              "os.replace(a, b)\nos.rename(a, b)\nos.fdopen(fd, 'wb')\ntempfile.mkstemp()\n"
              "p.write_text(s)\np.write_bytes(b)\nos.open(p, os.O_RDONLY | os.O_NONBLOCK)\n"
              "os.open(p, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)\n"
              "os.open(p, flags=O_CREAT)\ndef keep():\n    os.replace(a, b)\n")
    assert file_writes(source, allowed="keep") == [
        (2, "from tempfile import"), (5, "open"), (6, "p.open"), (8, "os.replace"),
        (9, "os.rename"), (10, "os.fdopen"), (11, "tempfile.mkstemp"), (12, "p.write_text"),
        (13, "p.write_bytes"), (15, "os.open"), (16, "os.open")]
    assert file_writes(source)[-1] == (18, "os.replace")


def test_only_write_files_writes_files():
    # a second write path could not keep write_files' all-or-nothing batch
    found = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in file_writes(path.read_text(),
                                           "write_files" if path.name == "files.py" else "")]
    assert found == []


# -- one reader ---------------------------------------------------------------------------

READ_METHODS = {"open", "read_text", "read_bytes"}  # os.open included, unless it creates
# functions besides files.read_regular that may read, each in designs.py with the reason it
# stays
KEPT_READERS = {
    "bundled_design": "package data read through importlib.resources: not an input a command "
                      "is given, so no FIFO or over-long file can stand in its place",
}


def file_reads(source: str, allowed=()) -> list[tuple[int, str]]:
    """(line, call) of each call that opens a file to read it, outside the functions named in
    allowed: os.open without O_CREAT, read_text, read_bytes, and an open() or .open() not given
    a write mode."""
    tree = ast.parse(source)
    skipped = inside(tree, allowed)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skipped:
            continue
        name = ast.unparse(node.func)
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else name
        if attr in READ_METHODS and not write_mode(node):
            found.append((node.lineno, name))
    return found


def test_checker_finds_file_reads():
    source = ("import os\nopen(p)\nopen(p, 'rb', opener=o)\np.open()\nos.open(p, os.O_RDONLY)\n"
              "p.read_text()\nres.read_bytes()\nopen(p, 'w')\nos.fdopen(fd, 'wb')\nfh.read(4)\n"
              "os.stat(p)\nos.open(p, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)\n"
              "def keep():\n    open(p)\n")
    assert file_reads(source, allowed={"keep"}) == [
        (2, "open"), (3, "open"), (4, "p.open"), (5, "os.open"), (6, "p.read_text"),
        (7, "res.read_bytes")]
    assert file_reads(source)[-1] == (14, "open")


def test_only_read_regular_opens_files_to_read():
    # a second reader could block on a FIFO, or read an input past its cap
    allowed = {"files.py": {"read_regular"}, "designs.py": set(KEPT_READERS)}
    found = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in file_reads(path.read_text(), allowed.get(path.name, ()))]
    assert found == []


# -- one decode ---------------------------------------------------------------------------

BLOCK_MAJOR = {"_block_major", "_decode", "_contents", "_column", "_members", "_member_chars"}


def block_major_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) of each attribute, or string constant (as getattr takes), that names one
    of LayeredCode's block-major internals."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in BLOCK_MAJOR:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Constant) and node.value in BLOCK_MAJOR:
            found.append((node.lineno, node.value))
    return sorted(found)


def test_checker_finds_block_major_uses():
    source = ("full = code._block_major(by_node)\ncode.inner._decode(full, groups)\n"
              "x = code._data(by_node, groups)\ny = code._members[0]\n"
              "getattr(code, '_column')\n_contents = 1\ncode.decode()\n")
    assert block_major_uses(source) == [(1, "_block_major"), (2, "_decode"), (4, "_members"),
                                        (5, "_column")]


def test_only_layered_reaches_into_the_block_major_list():
    # a second decode over that list could drift from _decode's checks (ROADMAP aim 2)
    found = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py"))
             if path.name != "layered.py" for line, name in block_major_uses(path.read_text())]
    assert found == []


# -- layers -------------------------------------------------------------------------------

# the package modules each module may not reach through its imports, direct or not: the
# tradeoff region and the closed forms under it run without the codec stack, and the layered
# code without the extension field and the precode built over it; files.py reaches nothing
# but errors
CODEC_STACK = {"gf", "extfield", "mds", "layered", "precoded", "nodedir", "cli"}
UNREACHED = {
    "tradeoff": CODEC_STACK,
    "bandwidth": CODEC_STACK,
    "layered": {"extfield", "precoded"},
}


def package_imports(source: str) -> set[str]:
    """The package's modules that source imports anywhere in it, a function body included;
    `from . import __version__`, a name of the __init__ re-export hub, is not one."""
    package, found = SRC.name, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative: one of the package's own
                module = f"{package}.{module}".rstrip(".")
            names = [module] if module != package else [f"{package}.{a.name}" for a in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith(package + "."))
    return found - {"__version__"}


def reached(graph: dict[str, set[str]], start: str) -> set[str]:
    """The modules start imports, and those they import, and so on."""
    seen, todo = set(), [start]
    while todo:
        for dep in graph.get(todo.pop(), ()):
            if dep not in seen:
                seen.add(dep)
                todo.append(dep)
    return seen


def test_checker_finds_package_imports():
    source = ("import os.path\nimport regencodes.cli\nfrom . import __version__, nodedir\n"
              "from .files import write_files\nfrom regencodes import gf\n"
              "from regencodes.mds import mds_codec\nfrom os import path\n"
              "def f():\n    from .selfcheck import run_suites\n")
    assert package_imports(source) == {"cli", "nodedir", "files", "gf", "mds", "selfcheck"}
    graph = {"a": {"b"}, "b": {"c", "a"}, "c": set(), "d": {"a"}}
    assert reached(graph, "a") == {"a", "b", "c"}
    assert reached(graph, "c") == set()


def test_modules_import_along_the_layers():
    # an import between layers is where a fact starts to be held twice (ROADMAP aim 2), and
    # with the analysis layer free of the codec stack, region, points and compare can leave
    # the field and codec modules unloaded (item 11)
    graph = {path.stem: package_imports(path.read_text()) for path in SRC.glob("*.py")
             if path.name != "__init__.py"}  # the re-export hub
    banned = {**UNREACHED, "files": set(graph) - {"errors"}}
    found = {name: sorted(reached(graph, name) & modules) for name, modules in banned.items()}
    assert found == {name: [] for name in banned}


# -- the public names ---------------------------------------------------------------------

PUBLIC = [  # regencodes.__all__, in its order
    "BandwidthReport", "beta_closed_form_d_eq_k", "beta_formula", "beta_layered_naive_e1",
    "beta_oracle", "beta_steiner_e2", "rho", "BlockDesign", "DesignStats", "bundled_design",
    "bundled_design_names", "complete_design", "design_stats", "load_design", "parse_design",
    "serialize_design", "verify_steiner", "IntegrityError", "ValidationError",
    "BinaryExtensionField", "extension_field", "BinaryField", "binary_field", "LayeredCode",
    "NodeContents", "SystemParams", "build_code", "node_contents_from_text",
    "node_contents_to_text", "MdsCodec", "mds_codec", "PrecodedCode", "build_precoded",
    "linearized_eval", "linearized_precode", "rank_oracle", "BoundParams", "Region",
    "TradeoffPoint", "achievable_point_c1", "achievable_points_c1",
    "achievable_points_general", "compare_points", "corner_points", "functional_bound_check",
    "hull_oracle", "k_threshold", "mbcr_point", "msmr_point", "p_max", "p_star", "slope_c1",
    "__version__",
]


def test_the_package_names_resolve_from_their_modules():
    assert regencodes.__all__ == PUBLIC
    for name in PUBLIC[:-1]:  # each from the module the table names, so it cannot drift
        assert getattr(regencodes, name).__module__ == f"regencodes.{regencodes._MODULE_OF[name]}"
    star = {}
    exec("from regencodes import *", star)
    assert set(PUBLIC) <= set(star) and set(PUBLIC) <= set(dir(regencodes))
    assert star["__version__"] == regencodes.__version__
    with pytest.raises(AttributeError, match="^module 'regencodes' has no attribute 'nope'$"):
        regencodes.nope  # noqa: B018
