"""README's "Library sketch" runs as written, and the comment on each of its
print lines is that line's output, so the sketch cannot drift from the
code."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _sketch():
    "the first python block after the Library sketch heading"
    section = README.read_text().split("## Library sketch", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_sketch_runs_as_written():
    code = _sketch()
    want = [line.split("#", 1)[1].strip() for line in code.splitlines()
            if line.startswith("print(")]
    assert len(want) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want
