"""No module imports a name it never reads (ruff's F401, for a sandbox
that has no ruff).

CI runs ``ruff check src tests`` with ``F`` selected; where PRs are
built ruff is not installed, so an import orphaned by a refactor went
unseen until CI.  This is the same check on the standard library's
``ast``: a name bound by ``import`` / ``from ... import`` at module
level must be read somewhere in the module (an attribute base counts, a
string in ``__all__`` counts).  ``__init__.py`` files re-export and are
skipped, as are ``from __future__`` and ``import x as x`` (the explicit
re-export spelling).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname == alias.name:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    # Names spelled in strings: ``__all__`` entries and quoted
    # annotations (``Sequence["OverlayAgent"]``).
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            quoted = [node.value]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            quoted = [node.returns] + [
                arg.annotation for arg in ast.walk(node.args)
                if isinstance(arg, ast.arg)
            ]
        elif isinstance(node, ast.AnnAssign):
            quoted = [node.annotation]
        else:
            continue
        for part in quoted:
            for text in ast.walk(part) if part is not None else ():
                if isinstance(text, ast.Constant) and isinstance(
                    text.value, str
                ):
                    read.update(
                        name.id for name in ast.walk(ast.parse(text.value))
                        if isinstance(name, ast.Name)
                    )
    return sorted(
        (lineno, name) for name, lineno in bound.items() if name not in read
    )


def test_every_imported_name_is_read():
    findings = []
    files = 0
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            files += 1
            findings += [
                f"{path.relative_to(ROOT)}:{lineno}: {name} imported "
                f"but unused"
                for lineno, name in unused_imports(path)
            ]
    assert files > 200  # the walk found the tree
    assert findings == []


def test_the_check_sees_an_unused_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json as js\n"
        "from typing import List, Optional\n"
        "from a import b as b\n"
        "__all__ = ['Optional']\n"
        "def f(x: 'List[int]'):\n"
        "    return js.dumps(x)\n"
    )
    assert unused_imports(sample) == [(2, "os")]
