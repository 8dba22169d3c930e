"""Every name a module imports is used in it, no module of the package
imports another's private names, every public function and class of the
package is read by code outside the tests, not only named in docstrings,
and every name the package exports is one of them.

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


def _references(source: str) -> dict[str, list[int]]:
    """{name: lines} of every name that the code of source reads: a
    variable, an attribute, an imported name, or a string constant, which
    is how the benchmark's ``TRACED`` list names a function.  A docstring
    is a string constant too, but never a bare name."""
    refs: dict[str, list[int]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        for name in names:
            refs.setdefault(name, []).append(node.lineno)
    return refs


def unreferenced_definitions(defining: list[str], readers: list[str]) -> list[str]:
    """The public top-level functions and classes of the defining sources
    that no code of these or of the readers reads outside the name's own
    definition."""
    refs = [_references(source) for source in defining + readers]
    unread = []
    for i, source in enumerate(defining):
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            elsewhere = any(node.name in found for j, found in enumerate(refs) if j != i)
            inside = refs[i].get(node.name, [])
            if not elsewhere and all(first <= line <= node.end_lineno for line in inside):
                unread.append(node.name)
    return unread


def test_unreferenced_definitions_are_found():
    # a reads only itself; planted is named in its own docstring alone
    defining = [
        "def a():\n    return a\n\n\ndef b():\n    pass\n\n\nclass C:\n    pass\n",
        'def _private():\n    pass\n\n\n@b\ndef planted():\n    """planted, f and g"""\n',
        "def f():\n    pass\n\n\ndef g():\n    pass\n\n\nh = 1\n",
    ]
    readers = ["x.C\n", 'TRACED = (("m", "f"),)\n', "from m import g\n"]
    assert unreferenced_definitions(defining, readers) == ["a", "planted"]


def _public_definitions(source: str) -> set[str]:
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_"
    }


def stray_exports(init: str, modules: dict[str, str]) -> list[str]:
    """The names that init imports from a package module, ``from .m import
    x``, that are not a public top-level function or class of module m,
    whose source is modules[m]."""
    return [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(init))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name not in _public_definitions(modules.get(node.module, ""))
    ]


def test_stray_exports_are_found():
    init = "from .a import f, C, _g, h\nfrom .b import x\n"
    modules = {"a": "def f():\n    pass\n\n\nclass C:\n    pass\n\n\nh = 1\n"}
    assert stray_exports(init, modules) == ["a._g", "a.h", "b.x"]


def test_every_public_definition_is_read_outside_the_tests():
    # a function or class that only tests and docstrings name belongs in
    # the tests, and every name the package exports must be one of them;
    # the package's __init__ only re-exports, so it reads nothing
    package = [p for p in _modules() if p.parent.name == "unikirch"]
    readers = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    sources = [[p.read_text() for p in paths] for paths in (package, readers)]
    assert unreferenced_definitions(*sources) == []
    init = (ROOT / "src" / "unikirch" / "__init__.py").read_text()
    assert stray_exports(init, {p.stem: text for p, text in zip(package, sources[0])}) == []
