"""The Python API block of README.md runs, and each `print` line's comment is
exactly the line it writes."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_prints_its_comments():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    expected = [line.split("  # ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert len(expected) == 8
