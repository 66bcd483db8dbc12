"""Import hygiene of the package source, checked by parsing it with ``ast``:
every imported name is used (or re-exported through ``__all__``), and every
third-party module it imports is declared in pyproject.toml."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "radsym").glob("*.py"))


def _imports(tree):
    """(bound name, top-level module or None for a relative import) per
    imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                yield alias.asname or top, top
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            top = node.module.split(".")[0] if node.level == 0 else None
            for alias in node.names:
                yield alias.asname or alias.name, top


def _annotation_names(tree):
    """Names used only inside string annotations such as ``-> "Foo"``."""
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [a.annotation for a in every if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield from (
                        n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                        if isinstance(n, ast.Name)
                    )


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_annotation_names(tree)) | _exported(tree)
    unused = sorted(name for name, _ in _imports(tree) if name not in used)
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_every_third_party_import_is_declared():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    undeclared = set()
    for path in SOURCES:
        for _, top in _imports(ast.parse(path.read_text())):
            if top and top != "radsym" and top not in sys.stdlib_module_names:
                if top.lower() not in declared:
                    undeclared.add(f"{path.name}: {top}")
    assert not undeclared, f"imports missing from pyproject.toml: {sorted(undeclared)}"
