"""Every imported name is read somewhere in its module.

Each module of src/ceub (but __init__.py, whose imports are the
package's re-exports) and of tests/ is parsed with ast. A name bound by
an import must be read at least once, as a Name or as the base of an
attribute (which ast also reads as a Name); `from __future__ import
annotations` binds nothing and is left out.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "ceub").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
)


def unused_imports(source: str) -> list:
    """The names that source's imports bind and that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    found = {}
    for path in MODULES:
        unused = unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport json\nimport os.path\nfrom x import a, b as c\nos.sep\nc()\n"
    assert unused_imports(source) == [(2, "json"), (4, "a")]
