"""Every module-level import in ``src/`` is read by its module.

No linter ships with the repository, so this walks each module's
syntax tree with the standard library.  A name counts as read when the
module loads it anywhere, lists it in ``__all__`` or names it in a
string annotation.  Package ``__init__`` files, ``from __future__``
imports and imports marked ``# noqa: F401`` (deliberate re-exports)
are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def module_imports(tree: ast.Module):
    """Imports at module level, including under a module-level
    ``if``/``try`` (``TYPE_CHECKING`` guards, optional imports)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))


def names_read(tree: ast.Module) -> set[str]:
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [
                arg.annotation
                for arg in (
                    *args.posonlyargs,
                    *args.args,
                    *args.kwonlyargs,
                    args.vararg,
                    args.kwarg,
                )
                if arg is not None
            ]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(
                    part.value, str
                ):
                    parsed = ast.parse(part.value, mode="eval")
                    read |= {
                        inner.id
                        for inner in ast.walk(parsed)
                        if isinstance(inner, ast.Name)
                    }
    return read


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each module-level import ``path`` never reads."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    lines = text.splitlines()
    read = names_read(tree)
    unused = []
    for node in module_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            marked = "# noqa: F401" in lines[alias.lineno - 1] or (
                "# noqa: F401" in lines[node.lineno - 1]
            )
            if name not in read and not marked:
                unused.append((alias.lineno, name))
    return unused


def test_no_unused_module_level_imports():
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "import json\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "def f(p: 'Path') -> None:\n"
        "    return json.dumps(TYPE_CHECKING)\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == [(2, "os")]
