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


def unread_private_names(sources: list[str]) -> set[str]:
    """Module-level private names (one leading underscore) that no source
    reads: as a name, as an attribute, or in an import."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return {n for n in defined - read if n.startswith("_") and not n.startswith("__")}


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


def test_the_check_finds_an_unread_private_name():
    sources = [
        "_A = 1\n_B = 2\n_c: int = 3\ndef _f():\n    return _B\nclass _K:\n    pass\n",
        "from .m import _K\nimport m\nx = m._c\n__all__ = []\n",
    ]
    assert unread_private_names(sources) == {"_A", "_f"}


def test_every_private_name_is_read():
    sources = [m.read_text() for m in sorted(SRC.glob("*.py"))]
    assert unread_private_names(sources) == set()
