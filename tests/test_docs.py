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
