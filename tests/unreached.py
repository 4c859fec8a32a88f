"""List the statements of src/regencodes that no tier-1 test executes.

    python tests/unreached.py

runs the tier-1 suite in this process under sys.settrace, then prints one line per
statement of the package that no test ran, as `file:line: source`. A statement is an ast
statement that compiles to code: a simple statement spans all of its lines, and a compound
one (if, for, while, def, class, with, try) its header, from its first decorator or keyword
up to its body. It counts as run when any line of that span emits a line event, so a
condition written over several lines counts as run whichever of its lines the interpreter
reports. Code that runs only in a subprocess, such as the commands of the fuzz runner
(tests/test_fuzz.py), is not seen: a statement that only a subprocess reaches is listed.

KEPT names each statement that stays unrun on purpose, by its file and its first source
line, with the reason it stays. Those are printed with their reasons. The script exits 1
when a statement outside KEPT is listed, when a KEPT entry matches no unrun statement, or
when the suite itself fails; otherwise it exits 0. pytest does not collect this file, as
it does not collect tests/flow.py.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "regencodes"

# (file, first source line of the statement) -> why it stays unrun
KEPT = {
    ("extfield.py", 'raise IntegrityError(f"no irreducible polynomial of degree {degree} found")'):
        "field theory: GF(2) has an irreducible polynomial of every degree, so the search "
        "returns before it ends",
    ("extfield.py", 'raise IntegrityError(f"subfield of size 2^{w} has rank {len(kern)}")'):
        "field theory: the fixed space of z -> z^(2^w) is the subfield GF(2^w), of rank w",
    ("extfield.py", 'raise IntegrityError("subfield generator polynomial has no root in its '
                    'own copy")'):
        "field theory: the subfield's modulus has a root in every copy of GF(2^w)",
    ("extfield.py", 'raise IntegrityError(f"x has degree other than kappa={kappa} over the '
                    'subfield")'):
        "field theory: x generates GF(2^(w kappa)) over GF(2^w), so its minimal polynomial "
        "has degree kappa",
    ("tradeoff.py", 'raise IntegrityError(f"p_star={ps} leaves no construction corners for '
                    'k={k} e={e}")'):
        "the paper's corner theorem: 2e + p_star <= k + e, so some construction r is a corner",
    ("tradeoff.py", 'raise IntegrityError("e=1 expects mbcr to equal the r=2 construction '
                    'point")'):
        "the paper: for e = 1 the MBCR point is the r = 2 construction point",
    ("cli.py", "raise SystemExit(main())"):
        "the script entry; tests call main() in process",
    ("__main__.py", "raise SystemExit(main())"):
        "the `python -m regencodes` entry; tests call main() in process",
}


def code_lines(code) -> set[int]:
    """The lines any instruction of code, or of a code object nested in it, belongs to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def first_line(node: ast.stmt) -> int:
    return min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])


def statements(source: str, path: str) -> list[tuple[int, int]]:
    """(first, last) line of each statement of source that compiles to code, in line order:
    a compound statement's span ends where its body begins. Module-level imports are left
    out: they run whenever their module is imported, and __main__.py is imported only by
    `python -m regencodes`."""
    executable = code_lines(compile(source, path, "exec"))
    tree = ast.parse(source)
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or (
                node in tree.body and isinstance(node, (ast.Import, ast.ImportFrom))):
            continue
        start = first_line(node)
        if hasattr(node, "body"):
            end = max(start, first_line(node.body[0]) - 1)
        else:
            end = node.end_lineno
        if executable.intersection(range(start, end + 1)):
            spans.append((start, end))
    return sorted(spans)


def unrun(sources: dict[str, str], ran: dict[str, set[int]]) -> list[tuple[str, int, str]]:
    """(file, line, first source line) of each statement none of whose lines ran."""
    found = []
    for name, source in sources.items():
        text = source.splitlines()
        for start, end in statements(source, name):
            if not ran.get(name, set()).intersection(range(start, end + 1)):
                found.append((name, start, text[start - 1].strip()))
    return found


def run_suite() -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 under a line tracer; return pytest's exit code and the lines run per file."""
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import pytest  # imported before tracing starts; the package is not

    sys.settrace(tracer)  # the suite starts no threads
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return int(code), {Path(f).name: lines for f, lines in ran.items()}


def main() -> int:
    code, ran = run_suite()
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    found = unrun(sources, ran)
    print()
    listed = set()
    for name, line, first in found:
        reason = KEPT.get((name, first))
        if reason is None:
            print(f"{name}:{line}: {first}")
        else:
            listed.add((name, first))
            print(f"{name}:{line}: {first}  [kept: {reason}]")
    stale = [key for key in KEPT if key not in listed]
    for name, first in stale:
        print(f"KEPT entry matches no unrun statement: {name}: {first}")
    unexpected = sum((name, first) not in KEPT for name, _, first in found)
    print(f"{len(found)} unrun statements, {len(found) - unexpected} of them kept, {unexpected} not")
    if code:
        print(f"the suite exited {code}; its coverage is incomplete")
    return 1 if unexpected or stale or code else 0


if __name__ == "__main__":
    sys.exit(main())
