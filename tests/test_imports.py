import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "subtv"


def unused_imports(source: str) -> set[str]:
    """Names a module imports but neither uses nor lists in its __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_the_check_finds_an_unused_import():
    assert unused_imports("from typing import Optional, Sequence\nx: Sequence = ()\n") == {
        "Optional"
    }
    assert unused_imports("import numpy as np\n__all__ = ['np']\n") == set()


def test_every_import_is_used():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = {m.name: unused_imports(m.read_text()) for m in modules}
    assert {name: names for name, names in unused.items() if names} == {}
