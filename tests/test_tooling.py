"""Checks on the package as shipped: no unused module-level imports in
the source, every name kept only for the benchmark is still read by it
and by no engine code but another such name, no function takes a budget
but the benchmark's shims and no command a `--budget`, no module outside
`gfp` takes a private `gfp` name but `_combine`, no module but `liealg`
reads the root-index tables or the kill-set memo, the front end runs no
engine predicate and catches ValueError only in its file loader and its
Kempf refusals, one gate raises the "not a subalgebra" fault, the front
end reads no type table, the packaged fixture file matches its generator,
no module imports numpy and `pyproject.toml` declares no runtime
dependency, and `morozov suite run` checks the structure laws with numpy
unimportable."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from morozov.fixtures import fixture_payload
from morozov.serialize import canonical_json

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "morozov"

# (module, name) pairs imported on purpose without a use
UNUSED_ALLOWED = {
    # perfbench/test_perfbench.py checks that the tracer's rebinding of
    # gfp.kernel and gfp.rref reaches every module importing them by name
    ("radicals", "kernel"): "perfbench/test_perfbench.py needs it",
    ("radicals", "rref"): "perfbench/test_perfbench.py needs it",
}

# names kept in the source only because the frozen benchmark reads them:
# (module, name) -> the file under perfbench/ that reads it
BENCHMARK_SHIMS = {
    ("radicals", "AmbientView"): "test_perfbench.py",
    ("radicals", "is_p_nilpotent"): "layertrace.py",
    ("kempf", "OptimalityCertificate.enumerated_count"): "layertrace.py",
    ("kempf", "OptimalityCertificate.admissible_count"): "layertrace.py",
    ("parabolic", "contains_borel"): "layertrace.py",
    ("parabolic", "iso_invariants"): "layertrace.py",
    ("liealg", "weyl_matrices"): "layertrace.py",
}

# functions that keep an unused `budget` parameter only because the frozen
# benchmark passes one: (module, function) -> the file under perfbench/
# that passes it
BUDGET_SHIMS = {
    ("tower", "check_tower_input"): "test_perfbench.py",
    ("kempf", "check_search_class"): "test_perfbench.py",
    ("kempf", "optimize"): "workloads.py",
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


@pytest.mark.parametrize("module,name", sorted(BENCHMARK_SHIMS))
def test_benchmark_shim_is_defined_and_still_read(module, name):
    obj = importlib.import_module(f"morozov.{module}")
    for part in name.split("."):
        assert hasattr(obj, part), f"{module}.{name} is gone from src/"
        obj = getattr(obj, part)
    reader = BENCHMARK_SHIMS[module, name]
    # a shim the benchmark no longer reads goes, with its entry here
    assert name.split(".")[-1] in (ROOT / "perfbench" / reader).read_text(), \
        f"perfbench/{reader} no longer reads {name}: delete the shim"


def _readers_in_src(name: str) -> list:
    """(module, top-level definition) around every read of `name` in the
    source, as a bare name or an attribute; None for module level."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            readers += [(path.stem, getattr(top, "name", None))
                        for node in ast.walk(top)
                        if isinstance(getattr(node, "ctx", None), ast.Load)
                        and name in (getattr(node, "id", None),
                                     getattr(node, "attr", None))]
    return readers


def test_no_shim_has_a_caller_in_src_but_another_shim():
    # a shim read by the engine is no shim: the invariant battery and the
    # Weyl-group walk are off the detection path, and weyl_matrices is read
    # only by contains_borel
    shims = {(module, name.split(".")[0]) for module, name in BENCHMARK_SHIMS}
    for module, name in sorted(BENCHMARK_SHIMS):
        readers = _readers_in_src(name.split(".")[-1])
        assert [r for r in readers if r not in shims] == [], (module, name)
    assert _readers_in_src("weyl_matrices") == [("parabolic", "contains_borel")]


def test_no_function_takes_a_budget_but_the_shims(tmp_path, capsys):
    # the one walk runs within radicals.DEFAULT_BUDGET: no function takes
    # a budget but the shims the benchmark still passes one, and tower run
    # refuses a --budget as a malformed command line (exit 3)
    from morozov.cli import EXIT_INPUT, main
    takers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args
                         + args.kwonlyargs + [args.vararg, args.kwarg] if a]
                if "budget" in names:
                    takers.add((path.stem, node.name))
    assert takers == set(BUDGET_SHIMS)
    for (module, name), reader in BUDGET_SHIMS.items():
        # a shim the benchmark no longer calls loses its budget
        assert f"{module}.{name}(" in (ROOT / "perfbench" / reader).read_text()
    u = tmp_path / "u.json"            # the line of e13 in sl3@5
    u.write_text('{"ambient_dim": 8, "basis": [[0, 0, 0, 0, 1, 0, 0, 0]], '
                 '"p": 5, "schema": 1}')
    with pytest.raises(SystemExit) as exc:
        main(["tower", "run", "--family", "sl", "--n", "3", "--p", "5",
              "--subspace", str(u), "--budget", "10"])
    assert exc.value.code == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --budget 10" in err


def _private_gfp_names(path: Path) -> set:
    """The names starting with `_` that the file takes from `gfp`, by
    import or as an attribute of the module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in ("gfp",
                                                               "morozov.gfp"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "gfp":
            names.add(node.attr)
    return {name for name in names if name.startswith("_")}


def test_reduction_stays_inside_gfp():
    # every reduction against a span is `Echelon.reduce`; outside gfp the
    # one private name in use is `_combine` (sum c * row)
    found = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "gfp.py"
             for name in sorted(_private_gfp_names(path))]
    assert [entry for entry in found if entry[1] != "_combine"] == []


def _split_table_reads(path: Path) -> set:
    """The tables of the split calculus a module reads: the attributes
    `_root_table` and `unit_powers`, and the ("moved", row) keys of the
    kill-set memo."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and \
                node.attr in ("_root_table", "unit_powers"):
            found.add(node.attr)
        elif isinstance(node, ast.Tuple) and node.elts and \
                isinstance(node.elts[0], ast.Constant) and \
                node.elts[0].value == "moved":
            found.add("moved")
    return found


def test_split_tables_are_read_inside_liealg_alone():
    # the root-index tables, the kept unit p-powers and the kill-set memo
    # are read through `LieAlgebra` methods (`split_bracket`,
    # `moved_lines`, `line_graph`, `is_p_closed`); liealg reads all three,
    # so a renamed table or key shows here
    found = {path.stem: _split_table_reads(path)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("liealg") == {"_root_table", "unit_powers", "moved"}
    assert {stem: names for stem, names in found.items() if names} == {}


def _details_frame_reads(text: str) -> int:
    """How often the source reads the "frame" entry of a `details`
    dictionary: by subscript, by `.get` or by an `in` test."""
    def is_details(node):
        return (isinstance(node, ast.Attribute) and node.attr == "details") \
            or (isinstance(node, ast.Name) and node.id == "details")

    def is_frame(node):
        return isinstance(node, ast.Constant) and node.value == "frame"
    reads = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Subscript):
            reads += is_details(node.value) and is_frame(node.slice)
        elif isinstance(node, ast.Call) and node.args and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "get":
            reads += is_details(node.func.value) and is_frame(node.args[0])
        elif isinstance(node, ast.Compare) and len(node.comparators) == 1:
            reads += is_frame(node.left) and is_details(node.comparators[0])
    return reads


def test_frame_is_read_off_the_verdict_not_its_details():
    # the frame rides on a ParabolicVerdict as (P, P^-1); only its payload
    # writes details["frame"], as P's rows, so no module in src/ but
    # parabolic and no test reads those rows back out of `details`
    for probe in ('FieldMatrix.from_rows(verdict.details["frame"], p)',
                  'v.details.get("frame")', '"frame" not in details'):
        assert _details_frame_reads(probe) == 1, probe
    readers = [path.relative_to(ROOT).as_posix()
               for path in sorted(PACKAGE.glob("*.py"))
               + sorted((ROOT / "tests").glob("*.py"))
               if path.stem != "parabolic"
               and _details_frame_reads(path.read_text())]
    assert readers == []


ENGINE_PREDICATES = {"is_subalgebra", "check_subalgebra", "is_p_closed",
                     "is_p_nil_subalgebra", "check_p_nil", "check_tower_input"}


def _front_end_checks(text: str) -> tuple:
    """The engine predicates the source calls, by bare name or attribute,
    and the functions holding an `except` clause that names ValueError."""
    calls, handlers = set(), set()
    for fn in ast.walk(ast.parse(text)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                calls.update({name} & ENGINE_PREDICATES)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None \
                    and any(isinstance(n, ast.Name) and n.id == "ValueError"
                            for n in ast.walk(node.type)):
                handlers.add(fn.name)
    return calls, handlers


def test_the_front_end_checks_and_translates_no_input():
    # every input fault is the engine's InputError, reported by `main`:
    # the front end runs no engine predicate, and catches ValueError only
    # where a loader reads a file and where Kempf's refusals read
    # inadmissible
    assert _front_end_checks(
        "def f(g, u):\n    try:\n        g.is_subalgebra(u)\n"
        "    except (KeyError, ValueError):\n        pass\n") == (
        {"is_subalgebra"}, {"f"})
    calls, handlers = _front_end_checks((PACKAGE / "cli.py").read_text())
    assert calls == set()
    assert handlers == {"_load_with", "cmd_kempf_optimize"}


def _input_error_raisers(text: str, phrase: str) -> list:
    """The qualified names of the functions that raise an InputError whose
    message holds `phrase` in one of its string parts."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and \
                    isinstance(child.exc, ast.Call) and \
                    getattr(child.exc.func, "attr",
                            getattr(child.exc.func, "id", None)) == "InputError" \
                    and any(isinstance(n, ast.Constant) and isinstance(
                        n.value, str) and phrase in n.value
                        for arg in child.exc.args for n in ast.walk(arg)):
                found.append(".".join(scope))
            visit(child, scope)
    visit(ast.parse(text), ())
    return found


def test_one_gate_raises_the_subalgebra_fault():
    # every "not a subalgebra" fault is raised by LieAlgebra.check_subalgebra
    # and no other code: the detector finds each way of writing it
    probe = ("class A:\n    def f(self, w):\n"
             "        raise InputError(f'{w} is not a subalgebra')\n"
             "def g():\n    if 1:\n"
             "        raise gfp.InputError('input is not a subalgebra')\n")
    assert _input_error_raisers(probe, "not a subalgebra") == ["A.f", "g"]
    raisers = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
               for name in _input_error_raisers(path.read_text(),
                                                "not a subalgebra")]
    assert raisers == ["liealg.LieAlgebra.check_subalgebra"]


def test_the_front_end_reads_no_type_table():
    # prime classify hands its type label to rootdata.build_rootdatum, the
    # one gate on type and rank
    reads = set()
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(node, ast.Attribute) and \
                getattr(node.value, "id", None) == "rootdata":
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "rootdata":
            reads.update(alias.name for alias in node.names)
    assert "build_rootdatum" in reads
    assert reads.isdisjoint({"CLASSICAL", "EXCEPTIONAL", "MIN_RANK",
                             "MAX_RANK"})


def test_packaged_fixture_file_matches_its_generator():
    shipped = (PACKAGE / "data" / "bad_prime_fixtures.json").read_text()
    assert shipped == canonical_json(fixture_payload())


def _run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


def _imported_modules(path: Path) -> set:
    """Top-level names of every module that the file imports, at any
    depth, deferred imports included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_no_numpy_and_declares_no_dependency():
    assert [path.stem for path in sorted(PACKAGE.glob("*.py"))
            if "numpy" in _imported_modules(path)] == []
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S)
    assert declared is not None and declared.group(1).strip() == ""


# any `import numpy` in the interpreter raises ImportError
_WITHOUT_NUMPY = """
import runpy, sys
sys.modules["numpy"] = None
sys.argv = ["morozov", *sys.argv[1:]]
runpy.run_module("morozov.cli", run_name="__main__")
"""


def test_suite_run_still_checks_the_structure_laws():
    done = _run_python("-c", _WITHOUT_NUMPY, "suite", "run", "--criteria", "1")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("[PASS        ] 1 restricted-structure laws")
    assert done.stdout.rstrip().endswith("18 algebra/prime pairs")
