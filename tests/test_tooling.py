"""Checks on the package as shipped: no unused module-level imports in
the source, the packaged fixture file matches its generator, and numpy
loads only for `morozov suite run`."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from morozov.fixtures import fixture_payload
from morozov.gfp import FieldMatrix
from morozov.liealg import build, conjugate_subspace, standard_parabolic
from morozov.serialize import canonical_json, subspace_to_dict

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


def _run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


# runs the CLI commands of argv[1] (a JSON list of argument lists) in a
# fresh interpreter, counting the calls that reach the abelian-ideal scan
_ENGINE_COMMANDS = """
import json, sys
from morozov import cli, radicals

scans = []
scan = radicals._abelian_spin_scan
def counted(*args):
    scans.append(args)
    return scan(*args)
radicals._abelian_spin_scan = counted
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
assert codes == [0] * len(codes), codes
assert scans, "no command reached the abelian-ideal scan"
assert "numpy" not in sys.modules
"""


def test_engine_commands_do_not_load_numpy(tmp_path):
    g = build("sl", 3, 5)
    # the sl3@5 parabolic S = (0,) moved by 1 + E_31 out of standard
    # position: its radical goes through a Killing kernel that is all of
    # the 5-dimensional view, hence the line scan
    w = FieldMatrix.identity(3, 5) + FieldMatrix(
        3, 3, 5, [int(i == 6) for i in range(9)])
    spaces = {"nil": standard_parabolic(g, (0,))["nilradical"],
              "par": conjugate_subspace(
                  g, w, standard_parabolic(g, (0,))["parabolic"])}
    for name, space in spaces.items():
        (tmp_path / f"{name}.json").write_text(
            canonical_json(subspace_to_dict(space)))
    sl3 = ["--family", "sl", "--n", "3", "--p", "5"]
    argvs = [["tower", "run", *sl3, "--subspace", str(tmp_path / "nil.json")],
             ["radical", "compute", *sl3,
              "--subspace", str(tmp_path / "par.json")]]
    done = _run_python("-c", _ENGINE_COMMANDS, json.dumps(argvs))
    assert done.returncode == 0, done.stderr


def test_suite_run_still_checks_the_structure_laws():
    done = _run_python("-m", "morozov.cli", "suite", "run", "--criteria", "1")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("[PASS        ] 1 restricted-structure laws")
