"""No API that only tests call: every top-level function and class of the
package is used somewhere in the code of ``src/``, ``scripts/`` or
``bench/``.  A use is a name, an attribute, an imported name or a string
constant equal to the name (``bench/spans.py`` names its traced functions
so); docstrings and comments do not count.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uda_reid"
CALLER_DIRS = ("src", "scripts", "bench")


def used_names(tree):
    """Every name the code of a parsed module uses."""
    statements = {id(node.value) for node in ast.walk(tree)  # docstrings among them
                  if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in statements):
            yield node.value


def caller_names():
    """The names used by the Python files outside tests."""
    return {name
            for folder in CALLER_DIRS for path in sorted((ROOT / folder).rglob("*.py"))
            for name in used_names(ast.parse(path.read_text(encoding="utf-8")))}


def definitions():
    """(path, line number, name) of each top-level def and class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path, node.lineno, node.name


def test_uses_are_code_not_docstrings_or_comments():
    tree = ast.parse('"""helper"""\n# other\nx = "exact"\nimport a.b\nf(c.d)\n'
                     'def g():\n    """inner"""\n')
    assert set(used_names(tree)) == {"x", "exact", "a", "b", "f", "c", "d"}


def test_every_package_name_is_used_outside_tests():
    used = caller_names()
    found = list(definitions())
    assert len(found) > 100  # the scan reads the package
    unused = [f"{path.name}:{lineno} {name}" for path, lineno, name in found
              if name not in used]
    assert unused == []
