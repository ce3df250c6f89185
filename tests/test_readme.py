"""README's "Library sketch" runs as written, and the comment on each of its
print lines is that line's output, so the sketch cannot drift from the
code; its list of public names with no caller inside the package is the
one an AST walk of the package finds."""

import ast
import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def _uncalled_exports():
    """the names of __all__, dunders aside, that no module of the package
    but __init__ references: as a name, an attribute or an import"""
    pkg = ROOT / "src" / "grasscode"
    init = ast.parse((pkg / "__init__.py").read_text())
    (exported,) = [ast.literal_eval(node.value) for node in init.body
                   if isinstance(node, ast.Assign)
                   and node.targets[0].id == "__all__"]
    seen = set()
    for path in pkg.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, ast.alias):
                    seen.add(node.asname or node.name)
    return {name for name in exported
            if not name.startswith("__") and name not in seen}


def test_uncalled_public_names_are_listed():
    head = "Public names with no caller inside the package"
    section = README.read_text().split(head, 1)[1].split("\n\n", 1)[0]
    listed = set()
    for line in section.splitlines():
        if line.startswith("- "):
            listed.update(re.findall(r"`(\w+)`", line.split(":", 1)[0]))
    assert listed == _uncalled_exports()
