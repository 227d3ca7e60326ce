"""The package's surface: every top-level name of a module has a user, and
the lowest layer loads alone."""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree):
    """Top-level defs, classes and assigned names, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _references(tree):
    """Names read, attributes and import aliases: a definition is none of them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_top_level_name_has_a_user():
    used = set()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            used.update(_references(_tree(path)))
    orphans = [
        "%s.%s" % (path.stem, name)
        for path in sorted((SRC / "pseudoherm").glob("*.py"))
        for name in _definitions(_tree(path))
        if not (name.startswith("__") and name.endswith("__")) and name not in used
    ]
    assert orphans == []


def test_expressions_imports_no_other_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, pseudoherm.expressions; "
         "print(sorted(m for m in sys.modules if m.startswith('pseudoherm.')))"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out.split() == ["['pseudoherm.expressions']"]
