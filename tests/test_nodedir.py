"""Node directories through the library: save, load_code, load_nodes, and who spells the format."""

import ast
from pathlib import Path

import pytest

from regencodes import SystemParams, ValidationError, build_code, build_precoded, bundled_design
from regencodes.cli import main
from regencodes.nodedir import load_code, load_nodes, node_path, save

SRC = Path(__file__).resolve().parent.parent / "src" / "regencodes"


def seeded(code):
    order = code.field.order
    return [(97 * i + 13) % order for i in range(code.data_len)]


@pytest.mark.parametrize("make,k", [
    (lambda: build_code(SystemParams(n=5, k=4, d=4, e=1, m=1, r=3, t=3)), 4),
    (lambda: build_code(SystemParams(n=8, k=6, d=6, e=2, m=2, r=4, t=3),
                        design=bundled_design("s_3_4_8")), 6),
    (lambda: build_precoded(n=5, k=3, d=4, e=1, m=1, r=2), 3),
], ids=["complete", "s348", "precoded"])
def test_saved_directory_loads_back_and_reconstructs(tmp_path, make, k):
    code = make()
    data = seeded(code)
    written = save(tmp_path, code, code.encode(data))
    assert written == [str(tmp_path / "code.json")] + [
        str(node_path(tmp_path, x)) for x in range(1, code.n + 1)]
    loaded = load_code(tmp_path)
    assert type(loaded) is type(code) and loaded.alpha == code.alpha
    nodes = range(code.n - k + 1, code.n + 1)  # the last k
    assert list(loaded.reconstruct(load_nodes(tmp_path, loaded, nodes))) == data


@pytest.mark.parametrize("argv,count,nbytes", [
    (["--n", "4", "--m", "1", "--e", "1", "--d", "3", "--r", "3"], 8, 1),
    (["--construction", "precoded", "--n", "5", "--k", "3", "--d", "4", "--e", "1",
      "--m", "1", "--r", "2"], 9, 3),
])
def test_cli_written_directory_opens_through_nodedir(tmp_path, capsys, argv, count, nbytes):
    blob = bytes((7 * i + 1) % 16 for i in range(count * nbytes))
    (tmp_path / "data.bin").write_bytes(blob)
    out_dir = tmp_path / "nodes"
    assert main(["encode", *argv, "--data", str(tmp_path / "data.bin"),
                 "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    code = load_code(str(out_dir))
    data = code.reconstruct(load_nodes(str(out_dir), code, [1, 2, 3]))
    assert b"".join(v.to_bytes(nbytes, "big") for v in data) == blob


def test_load_nodes_refuses_a_file_naming_another_node(tmp_path):
    code = build_code(SystemParams(n=4, k=3, d=3, e=1, m=1, r=3, t=3))
    save(tmp_path, code, code.encode(list(range(1, 9))))
    node_path(tmp_path, 3).write_bytes(node_path(tmp_path, 1).read_bytes())
    with pytest.raises(ValidationError, match=r"node_003\.txt names node 1, expected 3$"):
        load_nodes(tmp_path, code, [1, 2, 3])


# -- one owner for the format -----------------------------------------------------------

FORMAT_WORDS = ("code.json", "format_version")


def format_strings(source: str) -> list[tuple[int, str]]:
    """String constants naming the node-directory format, docstrings aside."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings and any(w in node.value for w in FORMAT_WORDS)]


def test_checker_skips_docstrings_only():
    source = ('"""code.json"""\ndef f():\n    """format_version"""\n'
              '    return "code.json", f"{x} format_version", "other"\n')
    assert [line for line, _ in format_strings(source)] == [4, 4]


def test_only_nodedir_spells_the_node_directory_format():
    found = [f"{path.name}:{line}: {text!r}"
             for path in sorted(SRC.glob("*.py")) if path.name != "nodedir.py"
             for line, text in format_strings(path.read_text())]
    assert found == []
