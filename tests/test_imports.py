"""Each module of the package uses every name it imports.

__init__.py is left out: it imports names in order to re-export them.  A name
counts as used when the module reads it, in code or in an annotation, quoted
or not.
"""
import ast
import pathlib

import pytest

import ofnring

MODULES = sorted(path for path in pathlib.Path(ofnring.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def _read_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "Interval"
                names |= _read_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:  # a docstring or other text
                pass
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    unused = {name: line for name, line in imported.items() if name not in _read_names(tree)}
    assert unused == {}, f"{path.name} imports names it never uses (name: line)"
