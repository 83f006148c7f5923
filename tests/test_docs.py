import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # the README's Library block is the documented API: it must run as
    # written and print what its last comment says
    (block,) = re.findall(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert block.rstrip().endswith("print(tv)  # 1/6")
    assert out.getvalue().splitlines()[-1] == "1/6"


SRC = README.parent / "src" / "subtv"


def undefined_constants(text: str, sources: list[str]) -> set[str]:
    """Constant-like names (ROW_CAP, FULL_CUBE) in text's backticked spans
    that no source assigns at module level."""
    named = {
        name
        for span in re.findall(r"`[^`\n]+`", text)
        for name in re.findall(r"\b[A-Z][A-Z0-9]*_[A-Z0-9_]+\b", span)
    }
    defined = set()
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
    return named - defined


def test_the_check_finds_an_undefined_constant():
    sources = ["A_CAP = 1\nB_CAP: int = 2\ndef f():\n    C_CAP = 3\n"]
    text = "`A_CAP` and `posets.B_CAP`, then `C_CAP` and `D_CAP = 4`; E_CAP is not code"
    assert undefined_constants(text, sources) == {"C_CAP", "D_CAP"}


def test_readme_names_only_defined_constants():
    sources = [m.read_text() for m in sorted(SRC.glob("*.py"))]
    assert sources
    assert undefined_constants(README.read_text(), sources) == set()
