"""Checks on the package as shipped: no unused module-level imports in
the source, and the packaged fixture file matches its generator."""

import ast
from pathlib import Path

from morozov.fixtures import fixture_payload
from morozov.serialize import canonical_json

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "morozov"

# (module, name) pairs imported on purpose without a use
UNUSED_ALLOWED = {
    # perfbench/test_perfbench.py checks that the tracer's rebinding of
    # gfp.kernel and gfp.rref reaches every module importing them by name
    ("radicals", "kernel"): "perfbench/test_perfbench.py needs it",
    ("radicals", "rref"): "perfbench/test_perfbench.py needs it",
}


def _used_names(tree: ast.Module) -> set:
    """Every bare name the module reads, including the names inside
    string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            args = node.args
            annotations.extend(a.annotation for a in
                               args.posonlyargs + args.args + args.kwonlyargs)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value))
                            if isinstance(n, ast.Name))
    return used


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    unused = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(name)
    return unused


def test_no_unused_module_level_imports():
    found = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in _unused_imports(path)]
    assert sorted(set(found) - set(UNUSED_ALLOWED)) == []
    # an allowance that is no longer needed goes too
    assert set(UNUSED_ALLOWED) <= set(found)


def test_packaged_fixture_file_matches_its_generator():
    shipped = (PACKAGE / "data" / "bad_prime_fixtures.json").read_text()
    assert shipped == canonical_json(fixture_payload())
