"""Every import in the package's modules is used; a stdlib-ast check, no linter."""

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
