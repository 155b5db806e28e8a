"""No API that only tests call: every top-level function and class of the
package is used somewhere in the code of ``src/``, ``scripts/`` or
``bench/``.  A use is a name, an attribute, an imported name or a string
constant equal to the name (``bench/spans.py`` names its traced functions
so); docstrings and comments do not count.  Every method, property and
dataclass field of a package class is read there too, as an attribute or an
exact string.

One launcher owns ``--threads``: ``uda_reid.cli`` loads no numpy at import,
and ``cli.run``'s import of the commands, after the cap, is the package's
only import inside a function.
"""
import ast
import dataclasses
import importlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uda_reid"
CALLER_DIRS = ("src", "scripts", "bench")


def used_names(tree, members=False):
    """Every name the code of a parsed module uses; with ``members``, only
    its attributes and string constants, the ways a class member is read."""
    statements = {id(node.value) for node in ast.walk(tree)  # docstrings among them
                  if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not members:
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias) and not members:
            yield from node.name.split(".")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in statements):
            yield node.value


def caller_names(members=False):
    """The names used by the Python files outside tests."""
    return {name
            for folder in CALLER_DIRS for path in sorted((ROOT / folder).rglob("*.py"))
            for name in used_names(ast.parse(path.read_text(encoding="utf-8")), members)}


def package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def definitions():
    """(path, line number, name) of each top-level def and class of the package."""
    for path, tree in package_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path, node.lineno, node.name


def members():
    """(path, line number, Class.member) of each method, property and
    dataclass field of a package class.  Dunder hooks and overrides of a
    base class's member are called by Python or by the base class."""
    for path, tree in package_trees():
        module = importlib.import_module(f"uda_reid.{path.stem}")
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            cls = getattr(module, node.name)
            fields = ({f.name for f in dataclasses.fields(cls)}
                      if dataclasses.is_dataclass(cls) else set())
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and getattr(item.target, "id", None) in fields:
                    name = item.target.id
                else:
                    continue
                if (name.startswith("__") and name.endswith("__")
                        or any(hasattr(base, name) for base in cls.__mro__[1:])):
                    continue
                yield path, item.lineno, f"{node.name}.{name}"


def test_uses_are_code_not_docstrings_or_comments():
    tree = ast.parse('"""helper"""\n# other\nx = "exact"\nimport a.b\nf(c.d)\n'
                     'def g():\n    """inner"""\n')
    assert set(used_names(tree)) == {"x", "exact", "a", "b", "f", "c", "d"}
    assert set(used_names(tree, members=True)) == {"exact", "d"}


def test_every_package_name_is_used_outside_tests():
    used = caller_names()
    found = list(definitions())
    assert len(found) > 100  # the scan reads the package
    unused = [f"{path.name}:{lineno} {name}" for path, lineno, name in found
              if name not in used]
    assert unused == []


def test_every_class_member_is_read_outside_tests():
    used = caller_names(members=True)
    found = list(members())
    assert {"EvalReport.mAP", "StageConfig.lr_gamma", "Dataset.subset"} <= {m for *_, m in found}
    assert "_Parser.error" not in {m for *_, m in found}  # overrides argparse's
    unread = [f"{path.name}:{lineno} {member}" for path, lineno, member in found
              if member.split(".")[1] not in used]
    assert unread == []


def test_the_only_import_inside_a_function_is_the_launchers():
    nested = [(path.name, func.name, [alias.name for alias in node.names])
              for path, tree in package_trees() for func in ast.walk(tree)
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == [("cli.py", "run", ["commands"])]


def test_importing_the_launcher_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    code = ("import sys, uda_reid.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'uda_reid'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout == "['uda_reid', 'uda_reid.cli']\n"
