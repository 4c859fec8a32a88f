"""Every import in the package's modules is used, and every private helper is referenced;
stdlib-ast checks, no linter."""

import ast
from pathlib import Path

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
