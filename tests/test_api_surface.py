"""No API that only tests call: every top-level function and class of the
package is named somewhere in ``src/``, ``scripts/`` or ``bench/`` other
than on its own definition line.
"""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uda_reid"
CALLER_DIRS = ("src", "scripts", "bench")


def caller_lines():
    """(path, line number, text) of every line of the Python files outside tests."""
    return [(path, no, text)
            for folder in CALLER_DIRS for path in sorted((ROOT / folder).rglob("*.py"))
            for no, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)]


def definitions():
    """(path, line number, name) of each top-level def and class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path, node.lineno, node.name


def test_every_package_name_is_used_outside_tests():
    lines = caller_lines()
    found = list(definitions())
    assert len(found) > 100  # the scan reads the package
    unused = []
    for path, lineno, name in found:
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) and (where, no) != (path, lineno)
                   for where, no, text in lines):
            unused.append(f"{path.name}:{lineno} {name}")
    assert unused == []
