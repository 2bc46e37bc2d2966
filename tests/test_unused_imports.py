"""Guard against unused imports in the package.

No linter is a dependency of this project, so this is the standard
library's version of the unused-import rule: an ``ast`` walk of every
module under ``src/repro``. Package ``__init__.py`` files are skipped
(their imports are re-exports). A name counts as used when the module
loads it, lists it in ``__all__``, or names it inside a quoted
annotation.
"""

import ast
from pathlib import Path
from typing import List, Set, Tuple

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _annotation_names(node: ast.AST, names: Set[str]) -> None:
    """Every name an annotation uses, quoted parts included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                _annotation_names(ast.parse(sub.value, mode="eval"), names)
            except SyntaxError:
                pass


def unused_imports(source: str) -> List[Tuple[str, int]]:
    """``(name, line)`` for each name *source* imports and never uses."""
    tree = ast.parse(source)
    imported = {}
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            _annotation_names(node.annotation, used)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            _annotation_names(node.returns, used)
        elif isinstance(node, ast.AnnAssign):
            _annotation_names(node.annotation, used)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(element.value for element in node.value.elts)
    return [(name, line) for name, line in imported.items()
            if name not in used]


def test_checker_flags_unused_and_exempts_uses():
    source = (
        "from typing import Dict, List, Optional\n"
        "import os.path\n"
        "from a import b as c, d\n"
        "__all__ = ['d']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    os.getcwd()\n"
    )
    assert unused_imports(source) == [("Dict", 1), ("List", 1), ("c", 3)]


def test_package_has_no_unused_imports():
    found = [f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
             for path in sorted(PACKAGE.rglob("*.py"))
             if path.name != "__init__.py"
             for name, line in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
