"""Every name a module imports is used in it, and no module of the
package imports another's private names.

No linter runs on this code, so an import left behind by a refactor
would stay unnoticed; these tests read each module's syntax tree instead.
The package's ``__init__.py`` is skipped for unused names: its imports
are re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _modules() -> list[Path]:
    paths = sorted((ROOT / "src" / "unikirch").glob("*.py"))
    paths = [p for p in paths if p.name != "__init__.py"]
    return paths + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that source binds by an import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport os.path\nfrom a import b, c as d\nprint(os, d)\n"
    assert unused_imports(source) == ["b (line 3)"]


def test_no_module_imports_a_name_it_does_not_use():
    unused = {
        str(path.relative_to(ROOT)): names
        for path in _modules()
        if (names := unused_imports(path.read_text()))
    }
    assert unused == {}


def private_imports(source: str) -> list[str]:
    """The underscore-prefixed names that source imports from a module of
    the package, by a relative import or by the package's name."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "unikirch")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_private_imports_are_found():
    source = "from .a import _b, c\nfrom unikirch.d import _e\nfrom os import _exit\n"
    assert private_imports(source) == ["_b (line 1)", "_e (line 2)"]


def test_no_module_imports_a_private_name_of_another():
    private = {
        path.name: names
        for path in sorted((ROOT / "src" / "unikirch").glob("*.py"))
        if (names := private_imports(path.read_text()))
    }
    assert private == {}
