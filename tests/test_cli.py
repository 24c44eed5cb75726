"""The command-line front end: every exit code a subcommand can give, 0
(success), 1 (a check failed), 2 (undetermined) and 3 (input error), and
byte-identical canonical JSON from two runs of the same command."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morozov import fixtures, suite
from morozov.cli import (EXIT_CHECK_FAILED, EXIT_INPUT, EXIT_OK,
                         EXIT_UNDETERMINED, main)
from morozov.gfp import FieldMatrix, Subspace
from morozov.liealg import (build, conjugate_subspace, standard_borel,
                            standard_parabolic)
from morozov.serialize import algebra_to_dict, canonical_json, subspace_to_dict

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _sl3_borel(role):
    return standard_borel(build("sl", 3, 5))[role]


def _conjugated(role, family="sl", p=5):
    # the standard Borel's part moved by 1 + E_31 out of standard position,
    # off the structured radical path
    g = build(family, 3, p)
    w = FieldMatrix.identity(3, p) + FieldMatrix(
        3, 3, p, [int(i == 6) for i in range(9)])
    return conjugate_subspace(g, w, standard_borel(g)[role])


def _sl3_line(label):
    g = build("sl", 3, 5)
    return g.subspace([g.element_by_label(label).coords])


def _sl3_not_closed():
    g = build("sl", 3, 5)
    return g.subspace([g.element_by_label(x).coords for x in ("e12", "f12")])


def _sl3_not_p_nil():
    # a line, so a subalgebra, on root coordinates alone; e12 + f12 is
    # semisimple, not p-nilpotent
    g = build("sl", 3, 5)
    return g.subspace([[a + b for a, b in zip(g.element_by_label("e12").coords,
                                              g.element_by_label("f12").coords)]])


def _pgl8_at_2_borel_conjugated():
    # the pgl8@2 Borel moved by 1 + E_81: the ad envelopes of its radical
    # ideals pass the word cap, and the walks that replace them the budget
    g = build("pgl", 8, 2)
    w = FieldMatrix.identity(8, 2) + FieldMatrix(
        8, 8, 2, [int(i == 56) for i in range(64)])
    return conjugate_subspace(g, w, standard_borel(g)["parabolic"])


def _sl2_at_2_borel_conjugated():
    # the Borel of sl2@2 moved by [[1, 0], [1, 1]]: N = [q, q n q^perp] = 0,
    # and the flag of J(A(q)) gives the frame [[1, 1], [1, 0]]
    g = build("sl", 2, 2)
    w = FieldMatrix.from_rows([[1, 0], [1, 1]], 2)
    return conjugate_subspace(g, w, standard_borel(g)["parabolic"])


def _sp10_at_2_siegel_conjugated():
    # the sp10@2 parabolic S = (0, 1, 2, 3), Levi gl5, moved out of
    # standard position by 1 + x for two root vectors x, elements of
    # Sp10(F_2): its associative envelope, the block-triangular algebra of
    # a Lagrangian, has 75 words, 75 x 10^2 entries, inside the cap
    g = build("sp", 10, 2)
    w = FieldMatrix.identity(10, 2)
    for root in ((-2, 0, 0, 0, 0), (0, -1, -1, 0, 0)):
        w = w @ (FieldMatrix.identity(10, 2)
                 + g.matrix_of(g.unit(g.frame.root_index[root])))
    return conjugate_subspace(g, w, standard_parabolic(
        g, (0, 1, 2, 3))["parabolic"])


SUBSPACES = {
    "sl3-nil": lambda: _sl3_borel("nilradical"),
    "sl3-borel": lambda: _sl3_borel("parabolic"),
    "sl3-levi": lambda: standard_parabolic(build("sl", 3, 5), (0,))["levi"],
    "sl3-borel-conj": lambda: _conjugated("parabolic"),
    "pgl3@3-nil-conj": lambda: _conjugated("nilradical", "pgl", 3),
    "gl3@3-borel-conj": lambda: _conjugated("parabolic", "gl", 3),
    "sl3@2-nil-S0": lambda: standard_parabolic(
        build("sl", 3, 2), (0,))["nilradical"],
    "sl3-h1": lambda: _sl3_line("h1"),
    "sl3-not-closed": _sl3_not_closed,
    "sl3-not-p-nil": _sl3_not_p_nil,
    "pgl3-ex2": lambda: fixtures.ex2_subalgebra(build("pgl", 3, 3)),
    "sl2@2-borel-conj": _sl2_at_2_borel_conjugated,
    "sp10@2-siegel-conj": _sp10_at_2_siegel_conjugated,
    "sl3@2-par-S0": lambda: standard_parabolic(
        build("sl", 3, 2), (0,))["parabolic"],
    "pgl8@2-borel-conj": _pgl8_at_2_borel_conjugated,
    "sl2-borel": lambda: build("sl", 2, 5).subspace([[1, 0, 0], [0, 1, 0]]),
}

# algebra files: sl2@5 without its family stamp, which has no torus frame
ALGEBRAS = {"sl2-unstamped": lambda: _sl2_algebra(
    lambda data: data.pop("family"))()}

FILTRATIONS = {
    "hn-ok": {"factors": [[1, 2], [1, 0], [1, -2]], "zero_index": 1},
    "hn-unordered": {"factors": [[1, 0], [1, 2], [1, -2]], "zero_index": 0},
    "hn-malformed": {"factors": [[1, 0]]},
}

SL3 = ["--family", "sl", "--n", "3", "--p", "5"]

# (argv, expected exit code); "@name" is replaced by the path of a file
# holding SUBSPACES[name] or FILTRATIONS[name]
CASES = [
    (["algebra", "build", *SL3], EXIT_OK),
    (["algebra", "build", "--family", "sl", "--n", "9", "--p", "5"], EXIT_INPUT),
    (["tower", "run", *SL3, "--subspace", "@sl3-nil"], EXIT_OK),
    # the ex2 limit is not parabolic, so verification fails
    (["tower", "run", "--family", "pgl", "--n", "3", "--p", "3",
      "--subspace", "@pgl3-ex2"], EXIT_CHECK_FAILED),
    (["tower", "run", *SL3, "--subspace", "@sl3-h1"], EXIT_INPUT),
    (["parabolic", "detect", *SL3, "--subspace", "@sl3-borel"], EXIT_OK),
    (["parabolic", "detect", *SL3, "--subspace", "@sl3-levi"], EXIT_CHECK_FAILED),
    # an algebra with no torus frame: undetermined
    (["parabolic", "detect", "--algebra", "@sl2-unstamped", "--subspace",
      "@sl2-borel"], EXIT_UNDETERMINED),
    (["parabolic", "detect", *SL3, "--subspace", "@sl3-not-closed"], EXIT_INPUT),
    (["kempf", "optimize", *SL3, "--subspace", "@sl3-nil"], EXIT_OK),
    # a line on the torus lies outside the optimizer's search class
    (["kempf", "optimize", *SL3, "--subspace", "@sl3-h1"], EXIT_UNDETERMINED),
    (["kempf", "optimize", "--family", "sl", "--n", "3", "--p", "7",
      "--subspace", "@sl3-nil"], EXIT_INPUT),
    # a subspace that is not a subalgebra, or not p-nil, is an input error
    (["kempf", "optimize", *SL3, "--subspace", "@sl3-not-closed"], EXIT_INPUT),
    (["kempf", "optimize", *SL3, "--subspace", "@sl3-not-p-nil"], EXIT_INPUT),
    (["radical", "compute", *SL3, "--subspace", "@sl3-borel"], EXIT_OK),
    # the ad envelopes of the radical ideals pass the word cap, and the
    # walks over the 2^35 vectors of the radical the budget
    (["radical", "compute", "--family", "pgl", "--n", "8", "--p", "2",
      "--subspace", "@pgl8@2-borel-conj"], EXIT_UNDETERMINED),
    (["radical", "compute", *SL3, "--subspace", "@sl3-not-closed"], EXIT_INPUT),
    (["prime", "classify", "--type", "A", "--n", "2", "--p", "5"], EXIT_OK),
    (["prime", "classify", "--type", "Z", "--p", "5"], EXIT_INPUT),
    (["hn", "check", "--filtration", "@hn-ok"], EXIT_OK),
    (["hn", "check", "--filtration", "@hn-unordered"], EXIT_CHECK_FAILED),
    (["hn", "check", "--filtration", "@hn-malformed"], EXIT_INPUT),
]


# decided with no walk by the Jacobson radical of an associative envelope:
# the tower by the envelope certificate of the p-nilpotent cone, where the
# walk needs 3^5 vectors (on pgl3@3, p | n, through ad), and on the sl3@2
# nilradical S = (0,), whose normaliser is solvable with an envelope that
# holds M_2 and p-nilpotent elements that form no subspace;
# radical compute by the p-nilpotent and ad-nilpotent cones with no walk
# (on a conjugated sl3@5 Borel; on the gl3@3 Borel moved by 1 + E_31,
# whose ad envelope holds an idempotent of trace 3 = 0; on the sl3@2
# parabolic S = (0,), its own radical, whose lifts do not commute modulo
# J); and by the flag frame of J on the conjugated sl2@2 Borel and the
# conjugated sp10@2 Siegel parabolic
ENVELOPE_CASES = {
    "tower-run-pgl3@3-envelope": (
        ["tower", "run", "--family", "pgl", "--n", "3", "--p", "3",
         "--subspace", "@pgl3@3-nil-conj"], EXIT_OK),
    "tower-run-sl3@2-envelope": (
        ["tower", "run", "--family", "sl", "--n", "3", "--p", "2",
         "--subspace", "@sl3@2-nil-S0"], EXIT_OK),
    "radical-compute-sl3-envelope": (
        ["radical", "compute", *SL3, "--subspace", "@sl3-borel-conj"],
        EXIT_OK),
    "radical-compute-gl3@3-envelope": (
        ["radical", "compute", "--family", "gl", "--n", "3", "--p", "3",
         "--subspace", "@gl3@3-borel-conj"], EXIT_OK),
    "radical-compute-sl3@2-envelope": (
        ["radical", "compute", "--family", "sl", "--n", "3", "--p", "2",
         "--subspace", "@sl3@2-par-S0"], EXIT_OK),
    "parabolic-detect-sl2@2-jacobson-frame": (
        ["parabolic", "detect", "--family", "sl", "--n", "2", "--p", "2",
         "--subspace", "@sl2@2-borel-conj"], EXIT_OK),
    "parabolic-detect-sp10@2-jacobson-frame": (
        ["parabolic", "detect", "--family", "sp", "--n", "10", "--p", "2",
         "--subspace", "@sp10@2-siegel-conj"], EXIT_OK),
}


def _refuse(self):
    raise AssertionError("enumerate_vectors called")


def _materialise(argv, tmp_path):
    out = []
    for arg in argv:
        if arg.startswith("@"):
            name = arg[1:]
            data = FILTRATIONS[name] if name in FILTRATIONS \
                else ALGEBRAS[name]() if name in ALGEBRAS \
                else subspace_to_dict(SUBSPACES[name]())
            path = tmp_path / f"{name}.json"
            path.write_text(canonical_json(data))
            arg = str(path)
        out.append(arg)
    return out


def _case_ids():
    # group-action-code; a row that repeats an earlier row's command and
    # exit code adds its input file's name
    ids = []
    for argv, code in CASES:
        case = f"{argv[0]}-{argv[1]}-{code}"
        ids.append(f"{case}-{argv[-1][1:]}" if case in ids else case)
    return ids


@pytest.mark.parametrize("argv,code", CASES + list(ENVELOPE_CASES.values()),
                         ids=_case_ids() + list(ENVELOPE_CASES))
def test_exit_code_and_byte_identical_json(argv, code, tmp_path, capsys,
                                           monkeypatch):
    walk_free = (argv, code) in ENVELOPE_CASES.values()
    argv = _materialise(argv, tmp_path)
    if walk_free:
        monkeypatch.setattr(Subspace, "enumerate_vectors", _refuse)
    runs = []
    for _ in range(2):
        assert main(argv) == code
        runs.append(capsys.readouterr())
    assert runs[0].out == runs[1].out
    if runs[0].out:
        assert runs[0].out == canonical_json(json.loads(runs[0].out))
    else:
        # input errors raised before any payload go to stderr alone
        assert code == EXIT_INPUT
        assert runs[0].err.startswith("input error:")


def _sl2_algebra(edit):
    def make():
        data = algebra_to_dict(build("sl", 2, 5))
        edit(data)
        return data
    return make


def _edit_sc(data):
    data["sc"][0][3] = (data["sc"][0][3] + 1) % 5


def _not_closed(data):
    # e12, e21 and e11 span no subalgebra: [e12, e21] = e11 - e22
    del data["family"]
    data["realization"]["mats"] = [[[0, 1], [0, 0]], [[0, 0], [1, 0]],
                                   [[1, 0], [0, 0]]]


def _string_mod_scalars(data):
    del data["family"]
    data["realization"]["mod_scalars"] = "no"


def _a_3x3_matrix(data):
    del data["family"]
    data["realization"]["mats"][1] = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]


def _a_stamped_boolean_entry(data):
    # the entry 1 of h written as true: equal in Python, not in JSON
    data["realization"]["mats"][0][0][0] = True


def _a_boolean_entry(data):
    del data["family"]
    _a_stamped_boolean_entry(data)


def _drop_a_label(data):
    # with no family stamp the matrices are read as given
    del data["family"]
    data["labels"].pop()


SL2 = ["--family", "sl", "--n", "2", "--p", "5"]

# input files that do not fit their schema: (argv up to the option that
# takes the file, the file's content, a phrase of the error message)
MALFORMED = {
    "algebra-without-realization": (
        ["algebra", "build", "--algebra"],
        _sl2_algebra(lambda data: data.pop("realization")),
        "missing field 'realization'"),
    "algebra-with-edited-sc": (
        ["algebra", "build", "--algebra"], _sl2_algebra(_edit_sc),
        "algebra file inconsistent at field 'sc'"),
    "algebra-not-bracket-closed": (
        ["algebra", "build", "--algebra"], _sl2_algebra(_not_closed),
        "matrix not in the span"),
    "algebra-with-more-matrices-than-labels": (
        ["radical", "compute", "--algebra"], _sl2_algebra(_drop_a_label), "2 labels for 3 realization matrices"),
    "subspace-without-p": (
        ["radical", "compute", *SL2, "--subspace"],
        lambda: {"ambient_dim": 3, "basis": [[1, 0, 0]]},
        "missing field 'p'"),
    "subspace-as-list": (
        ["tower", "run", *SL2, "--subspace"], lambda: [[1, 0, 0]], ""),
    "subspace-with-a-string-entry": (
        ["tower", "run", *SL2, "--subspace"],
        lambda: {"ambient_dim": 3, "p": 5, "basis": [[1, 0, 0], [0, "x", 0]]},
        "field 'basis': row 1 is not a list of integers"),
    "algebra-with-a-string-mod-scalars": (
        ["algebra", "build", "--algebra"], _sl2_algebra(_string_mod_scalars),
        "field 'realization.mod_scalars' is not true or false"),
    "algebra-with-a-matrix-of-the-wrong-size": (
        ["algebra", "build", "--algebra"], _sl2_algebra(_a_3x3_matrix),
        "field 'realization.mats[1]' is not 2 x 2"),
    "algebra-with-a-boolean-entry": (
        ["algebra", "build", "--algebra"], _sl2_algebra(_a_boolean_entry),
        "field 'realization.mats[0]': row 0 is not a list of integers"),
    "algebra-stamped-with-a-boolean-entry": (
        ["algebra", "build", "--algebra"],
        _sl2_algebra(_a_stamped_boolean_entry),
        "algebra file inconsistent at field 'realization'"),
    "algebra-with-a-boolean-p": (
        ["algebra", "build", "--algebra"],
        _sl2_algebra(lambda data: data.update(p=True)),
        "field 'p' is not an integer"),
    "subspace-with-a-boolean-entry": (
        ["tower", "run", *SL2, "--subspace"],
        lambda: {"ambient_dim": 3, "p": 5, "basis": [[True, 1, 0]]},
        "field 'basis': row 0 is not a list of integers"),
    "subspace-with-a-boolean-dimension": (
        ["tower", "run", *SL2, "--subspace"],
        lambda: {"ambient_dim": True, "p": 5, "basis": []},
        "field 'ambient_dim' is not an integer"),
    "filtration-as-list": (["hn", "check", "--filtration"], lambda: [1, 2], ""),
    "filtration-with-a-boolean-rank": (
        ["hn", "check", "--filtration"],
        lambda: {"factors": [[True, 1], [1, -1]], "zero_index": 0},
        "field 'factors': factor 0 is not a (rank, degree) pair"),
    "filtration-with-a-boolean-zero-index": (
        ["hn", "check", "--filtration"],
        lambda: {"factors": [[1, 1], [1, -1]], "zero_index": False},
        "field 'zero_index' is not an integer"),
    "filtration-with-a-bare-factor": (
        ["hn", "check", "--filtration"],
        lambda: {"factors": [[1, 2], 5], "zero_index": 0},
        "field 'factors': factor 1 is not a (rank, degree) pair"),
    "filtration-with-a-string-degree": (
        ["hn", "check", "--filtration"],
        lambda: {"factors": [[1, "2"], [1, -2]], "zero_index": 0},
        "field 'factors': factor 0 is not a (rank, degree) pair"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_file_is_an_input_error(name, tmp_path, capsys):
    argv, content, phrase = MALFORMED[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content()))
    assert main([*argv, str(path)]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"input error: {path}: ") and phrase in err



@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
@pytest.mark.parametrize("argv", [["tower", "run", *SL2, "--subspace"],
                                  ["algebra", "build", "--algebra"]],
                         ids=["subspace", "algebra"])
def test_unreadable_input_file_is_an_input_error(kind, argv, tmp_path, capsys):
    # a directory, or a file that is not UTF-8, exits 3 and names the path
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"p": 5, "basis": "\xff"}')
    assert main([*argv, str(path)]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"input error: cannot read {path}: ")


def _a_file(path):
    path.write_text("")
    return path


def _a_directory(path):
    path.mkdir(parents=True)
    return path


# name -> (argv before the path, the --out path made under tmp_path)
BUILD_OUT = ["algebra", "build", *SL3, "--out"]
FIXTURES_OUT = ["fixtures", "paper", "--out"]
UNWRITABLE = {
    "algebra-in-a-missing-directory": (
        BUILD_OUT, lambda tmp: tmp / "no" / "g.json"),
    "algebra-onto-a-directory": (
        BUILD_OUT, lambda tmp: _a_directory(tmp / "g.json")),
    "fixtures-onto-a-file": (
        FIXTURES_OUT, lambda tmp: _a_file(tmp / "out")),
    "fixtures-under-a-file": (
        FIXTURES_OUT, lambda tmp: _a_file(tmp / "f") / "out"),
    "fixtures-onto-a-directory": (
        FIXTURES_OUT, lambda tmp: _a_directory(
            tmp / "out" / "bad_prime_fixtures.json").parent),
}


@pytest.mark.parametrize("name", sorted(UNWRITABLE))
def test_unwritable_output_is_an_input_error(name, tmp_path, capsys):
    # exit 3 with one line naming the path, as for an unreadable input
    argv, make = UNWRITABLE[name]
    out = make(tmp_path)
    assert main([*argv, str(out)]) == EXIT_INPUT
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("\n") == 1
    assert err.startswith(f"input error: cannot write {out}")


@pytest.mark.parametrize("n,p,message", [
    ("0", "5", "gl/sl/pgl take n >= 2"),
    ("3", "0", "modulus 0 is not prime"),
], ids=["n=0", "p=0"])
def test_a_zero_size_or_modulus_is_given_not_missing(n, p, message, capsys):
    # 0 is a value the builder rejects with its own message, not a
    # missing --n or --p
    argv = ["algebra", "build", "--family", "sl", "--n", n, "--p", p]
    assert main(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err == f"input error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["radical", "compute", *SL3, "--bogus", "1"],
    ["radical", "compute", *SL3, "--budget", "10"],
    ["tower", "run", *SL3, "--subspace", "u.json", "--budget", "ten"],
    ["radical", "expand", *SL3],
], ids=["unknown-option", "radical-compute-budget", "budget-not-an-integer",
        "unknown-action"])
def test_a_malformed_command_line_is_an_input_error(argv, capsys):
    # exit 3, as for any input error, not argparse's 2, which here means
    # undetermined; radical compute takes no budget
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err


def test_algebra_build_writes_its_stdout_bytes_to_out(tmp_path, capsys):
    argv = ["algebra", "build", *SL3]
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    path = tmp_path / "g.json"
    assert main([*argv, "--out", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {path}\n"
    assert path.read_text() == stdout


def test_fixtures_paper_writes_the_packaged_fixture_file(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fixtures", "paper", "--out", str(out)]) == EXIT_OK
    path = out / "bad_prime_fixtures.json"
    assert capsys.readouterr().out == f"wrote {path}\n"
    packaged = Path(SRC) / "morozov" / "data" / "bad_prime_fixtures.json"
    assert path.read_bytes() == packaged.read_bytes()


def test_prime_classify_needs_n_for_classical_types_only(capsys):
    assert main(["prime", "classify", "--type", "E8", "--p", "5"]) == EXIT_OK
    pc = json.loads(capsys.readouterr().out)["classification"]
    assert (pc["bad"], pc["torsion"], pc["coxeter_number"]) == (True, True, 30)
    assert main(["prime", "classify", "--type", "A", "--p", "5"]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err == "input error: classical types need --n\n"


@pytest.mark.parametrize("p,code", [("101", EXIT_OK),
                                    ("3", EXIT_CHECK_FAILED)])
def test_hn_check_reads_the_e0_preconditions(p, code, tmp_path, capsys):
    # with --p and --dim-g the preconditions of E_0 decide the exit code
    argv = _materialise(["hn", "check", "--filtration", "@hn-ok", "--p", p,
                         "--dim-g", "3"], tmp_path)
    assert main(argv) == code
    pre = json.loads(capsys.readouterr().out)["e0_preconditions"]
    assert pre["all_pass"] is (code == EXIT_OK)


@pytest.mark.parametrize("statuses,code", [
    (("pass", "fail", "undetermined"), EXIT_CHECK_FAILED),
    (("undetermined", "pass"), EXIT_UNDETERMINED),
    (("pass", "pass"), EXIT_OK),
], ids=["fail", "undetermined", "pass"])
def test_suite_run_exits_by_its_criteria(statuses, code, monkeypatch, capsys):
    # 1 when a criterion fails, else 2 when one is undetermined, else 0
    monkeypatch.setattr(suite, "CRITERIA", [
        (str(i), lambda seed, i=i, s=s: suite.CheckResult(f"{i} stub", s))
        for i, s in enumerate(statuses, 1)])
    assert main(["suite", "run"]) == code
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0].strip("[]") for line in lines] == \
        [s.upper() for s in statuses]


def test_parabolic_detect_on_an_algebra_without_a_frame(tmp_path, capsys):
    # an algebra file without a family stamp has no torus frame; a subspace
    # that is not closed under the bracket is an input error there too
    algebra = tmp_path / "sl2.json"
    algebra.write_text(canonical_json(_sl2_algebra(
        lambda data: data.pop("family"))()))
    argv = ["parabolic", "detect", "--algebra", str(algebra), "--subspace"]
    for basis, code in (([[0, 1, 0], [0, 0, 1]], EXIT_INPUT),
                        ([[1, 0, 0], [0, 1, 0]], EXIT_UNDETERMINED)):
        path = tmp_path / "q.json"
        path.write_text(canonical_json(
            {"schema": 1, "ambient_dim": 3, "p": 5, "basis": basis}))
        assert main([*argv, str(path)]) == code
        out, err = capsys.readouterr()
        if code == EXIT_INPUT:
            assert out == "" and "not a subalgebra" in err
        else:
            assert json.loads(out)["verdict"]["failure_reason"] == \
                "no-torus-found"

def test_radical_compute_on_an_algebra_without_a_frame(tmp_path, capsys):
    # sl2@5 without its family stamp, no subspace: h = sl2 is simple, and
    # with no frame nor structured step the radical ideals come from the
    # envelope of no lifts at all
    algebra = tmp_path / "sl2.json"
    algebra.write_text(canonical_json(ALGEBRAS["sl2-unstamped"]()))
    assert main(["radical", "compute", "--algebra", str(algebra)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["status"] == "ok"
    assert report["rad"] == report["nil"] == report["rad_p"] == []


def test_kempf_and_tower_on_an_algebra_without_a_frame(tmp_path, capsys):
    # sl2@5 without its family stamp and its Borel nilradical <e12>: the
    # optimizer's input check needs the torus frame, so kempf optimize
    # reads inadmissible and the tower's verification skips Kempf, both
    # with the reason, and neither ends in a traceback; parabolicity reads
    # undetermined without the frame, so tower run exits 2
    algebra = tmp_path / "sl2.json"
    algebra.write_text(canonical_json(ALGEBRAS["sl2-unstamped"]()))
    path = tmp_path / "u.json"
    path.write_text(canonical_json(
        {"schema": 1, "ambient_dim": 3, "p": 5, "basis": [[0, 1, 0]]}))
    argv = ["--algebra", str(algebra), "--subspace", str(path)]
    reason = "algebra has no torus frame"
    assert main(["kempf", "optimize", *argv]) == EXIT_UNDETERMINED
    out = json.loads(capsys.readouterr().out)
    assert (out["status"], out["reason"]) == ("inadmissible", reason)
    assert main(["tower", "run", *argv]) == EXIT_UNDETERMINED
    out = json.loads(capsys.readouterr().out)
    assert out["trace"]["status"] == "stabilized"
    checks = out["verification"]
    assert (checks["kempf"], checks["kempf_reason"]) == ("skipped", reason)
    assert checks["parabolic_status"] == "undetermined"


def test_tower_run_stabilises_where_the_cone_is_not_a_subspace(
        tmp_path, capsys):
    # sl3 at p = 2, S = (0,): the p-nilpotent elements of rad(q) do not
    # form a subspace, but rad_p(q), the tower's next u, is the nilradical,
    # so the tower stabilises on it at once and every check passes
    g = build("sl", 3, 2)
    data = standard_parabolic(g, (0,))
    path = tmp_path / "u.json"
    path.write_text(canonical_json(subspace_to_dict(data["nilradical"])))
    argv = ["tower", "run", "--family", "sl", "--n", "3", "--p", "2",
            "--subspace", str(path)]
    assert main(argv) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"]["status"] == "stabilized" and payload["seed"] == 0
    assert [step["u"] for step in payload["trace"]["steps"]] == [
        subspace_to_dict(data["nilradical"])["basis"]] * 3
    checks = payload["verification"]
    assert (checks["fixed_point"], checks["parabolic"],
            checks["u_is_p_radical"]) == ("pass", "pass", "pass")


def test_two_processes_give_byte_identical_json(tmp_path):
    # a fresh interpreter each, with different hash seeds, so that no memo
    # and no set or dict order is shared
    argv = _materialise(["tower", "run", *SL3, "--subspace", "@sl3-nil"],
                        tmp_path)
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [SRC, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "morozov.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["verification"]["parabolic"] == "pass"
