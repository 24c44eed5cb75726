"""Command-line front end: one row of `COMMANDS` per subcommand, with its
handler and its flags in `--help` order.

Exit codes: 0 = computation succeeded / all checks passed, 1 = a
verification failed, 2 = undetermined, 3 = input error or malformed
command line.  An input error has one shape on every command: nothing on
stdout and one line `input error: ...` on stderr, written by `main` from
the `gfp.InputError` raised by the engine gate that found the fault, or
by the file readers here; no handler tests an input (`prime classify`
hands its type label to `rootdata.build_rootdatum`) or turns an engine
exception into an input error.  Where a command has several readings (the
checks of `tower run`, the status of `radical compute`, the criteria of
`suite run`), `_exit_code` reads them: 1 if any fails, else 2 if any is
undetermined, else 0; a tower whose budget runs out exits 2.  No command
takes a budget: the one walk left, in `radicals`, runs within
`radicals.DEFAULT_BUDGET`.  Output is canonical JSON (default) or text;
identical inputs and seed give byte-identical JSON."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import fixtures as fixtures_mod
from . import hnslope, kempf, parabolic, radicals, rootdata, suite, tower
from .gfp import InputError
from .liealg import build
from .serialize import (SCHEMA_VERSION, algebra_from_dict, algebra_to_dict,
                        canonical_json, subspace_from_dict)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_UNDETERMINED = 2
EXIT_INPUT = 3


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: line {exc.lineno} "
                         f"column {exc.colno}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


@contextmanager
def _writing(path):
    """An output path that cannot be written is an input error."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _load_with(path: str, loader):
    """loader(the JSON in path), where a file the loader cannot read is an
    input error."""
    data = _load_json(path)
    try:
        return loader(data)
    except KeyError as exc:
        raise InputError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _algebra_from_args(args) -> "LieAlgebra":
    if getattr(args, "algebra", None):
        return _load_with(args.algebra, algebra_from_dict)
    if None not in (args.family, args.n, args.p):
        return build(args.family, args.n, args.p)
    raise InputError("give either --algebra FILE or --family/--n/--p")


def _subspace_from_args(args, g):
    return _load_with(args.subspace, lambda data: subspace_from_dict(data, g))


def _exit_code(readings) -> int:
    """The exit rule of a command with several readings: 1 if any is
    "fail", else 2 if any is "undetermined", else 0."""
    return EXIT_CHECK_FAILED if "fail" in readings else \
        EXIT_UNDETERMINED if "undetermined" in readings else EXIT_OK


def _envelope(args, payload: dict) -> str:
    """payload as canonical JSON, with the schema version and the seed."""
    return canonical_json({"schema": SCHEMA_VERSION, "seed": args.seed,
                           **payload})


def _emit(args, payload: dict, exit_code: int, text_lines=None) -> int:
    if args.text and text_lines is not None:
        for line in text_lines:
            print(line)
    else:
        sys.stdout.write(_envelope(args, payload))
    return exit_code


# -- subcommand handlers -----------------------------------------------------

def cmd_algebra_build(args) -> int:
    out = _envelope(args, algebra_to_dict(_algebra_from_args(args)))
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(out)
    return EXIT_OK


def cmd_tower_run(args) -> int:
    g = _algebra_from_args(args)
    u0 = _subspace_from_args(args, g)
    trace = tower.run_tower(g, u0)
    report = tower.verify_morozov(g, trace) \
        if trace.status == "stabilized" else None
    payload = {"trace": trace.as_dict(),
               "verification": None if report is None else report.as_dict()}
    text = [f"tower status: {trace.status}"]
    for s in trace.steps:
        text.append(f"  step {s.index}: dim u = {s.u.dim}"
                    + ("" if s.q is None else f", dim q = {s.q.dim}")
                    + ("" if s.method is None else f" [{s.method}]"))
    if report is None:
        return _emit(args, payload, EXIT_UNDETERMINED, text)
    for k, v in report.checks.items():
        text.append(f"  check {k}: {v}")
    return _emit(args, payload, _exit_code(report.checks.values()), text)


def cmd_kempf_optimize(args) -> int:
    g = _algebra_from_args(args)
    u = _subspace_from_args(args, g)
    try:
        cert = kempf.optimize(g, u)
    except InputError:
        raise
    except ValueError as exc:
        # the optimizer's other refusals (no torus frame, u = 0, support on
        # the torus, 0 in the hull) read inadmissible
        return _emit(args, {"status": "inadmissible", "reason": str(exc)},
                     EXIT_UNDETERMINED)
    report = kempf.verify_obstruction(g, u, cert)
    payload = {"certificate": cert.as_dict(), "obstruction": report}
    text = [f"lambda = {list(cert.lam.coords)}  alpha = {cert.alpha}  "
            f"ratio^2 = {cert.ratio_sq}",
            f"checks: {report}"]
    return _emit(args, payload, EXIT_OK, text)


def cmd_parabolic_detect(args) -> int:
    g = _algebra_from_args(args)
    q = _subspace_from_args(args, g)
    verdict = parabolic.detect_parabolic(g, q)
    payload = {"verdict": verdict.as_dict()}
    code = {"parabolic": EXIT_OK, "not-parabolic": EXIT_CHECK_FAILED,
            "undetermined": EXIT_UNDETERMINED}[verdict.status]
    return _emit(args, payload, code,
                 [f"status: {verdict.status}",
                  f"failure_reason: {verdict.failure_reason}"])


def cmd_radical_compute(args) -> int:
    g = _algebra_from_args(args)
    h = _subspace_from_args(args, g) if args.subspace else g.full_space()
    rep = radicals.radical_report(g, h)
    payload = {"report": rep.as_dict()}
    text = [f"rad dim {None if rep.rad is None else rep.rad.dim}",
            f"nil dim {None if rep.nil is None else rep.nil.dim}",
            f"rad_p dim {None if rep.rad_p is None else rep.rad_p.dim}",
            f"method {rep.method_used}, status {rep.status}"]
    return _emit(args, payload, _exit_code([rep.status]), text)


def cmd_prime_classify(args) -> int:
    rd = rootdata.build_rootdatum(args.type.upper(), args.n or 0)
    pc = rootdata.classify_prime(rd, args.p)
    payload = {"classification": pc.as_dict()}
    text = [f"{rd.label} at p={args.p}: torsion={pc.is_torsion} "
            f"bad={pc.is_bad} good={pc.is_good} very_good={pc.is_very_good} "
            f"separably_good={pc.is_separably_good} h={pc.coxeter_number}"]
    return _emit(args, payload, EXIT_OK, text)


def cmd_hn_check(args) -> int:
    f = _load_with(args.filtration, lambda data: hnslope.HNFiltration.make(
        data["factors"], data["zero_index"]))
    hn_ok = hnslope.verify_hn(f)
    payload = {"filtration": f.as_dict(), "strictly_decreasing": hn_ok,
               "readings": hnslope.zero_index_readings(f)}
    ok = hn_ok
    if f.total_degree() == 0:
        dual = hnslope.dual_pattern(f)
        payload["dual_pattern"] = dual
        ok = ok and dual["passes"]
    if args.p is not None and args.dim_g is not None:
        pre = hnslope.e0_preconditions(f, args.p, args.dim_g)
        payload["e0_preconditions"] = pre
        ok = ok and pre["all_pass"]
    return _emit(args, payload, EXIT_OK if ok else EXIT_CHECK_FAILED,
                 [json.dumps(payload, indent=2, default=str)])


def cmd_fixtures_paper(args) -> int:
    payload = fixtures_mod.fixture_payload()
    path = Path(args.out) / "bad_prime_fixtures.json"
    with _writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(canonical_json(payload))
    print(f"wrote {path}")
    return EXIT_OK


def cmd_suite_run(args) -> int:
    selected = args.criteria.split(",") if args.criteria else None
    results = suite.run_suite(selected, seed=args.seed)
    for res in results:
        print(res.line())
    return _exit_code([res.status for res in results])


# -- command table ------------------------------------------------------------

_ALGEBRA = (("--algebra", {"help": "algebra JSON file"}),
            ("--family", {"choices": ["gl", "sl", "pgl", "sp", "so"]}),
            ("--n", {"type": int}), ("--p", {"type": int}))
_SUBSPACE = (("--subspace", {"required": True, "help": "subspace JSON file"}),)
_SEED = (("--seed", {"type": int, "default": 0}),)
_OUTPUT = _SEED + (("--text", {
    "action": "store_true",
    "help": "human-readable output instead of canonical JSON"}),)

# (group, action, handler, flags in --help order); one action per group
COMMANDS = (
    ("algebra", "build", cmd_algebra_build,
     _ALGEBRA + _OUTPUT + (("--out", {}),)),
    ("tower", "run", cmd_tower_run, _ALGEBRA + _SUBSPACE + _OUTPUT),
    ("kempf", "optimize", cmd_kempf_optimize, _ALGEBRA + _SUBSPACE + _OUTPUT),
    ("parabolic", "detect", cmd_parabolic_detect,
     _ALGEBRA + _SUBSPACE + _OUTPUT),
    ("radical", "compute", cmd_radical_compute,
     _ALGEBRA + _OUTPUT + (("--subspace", {}),)),
    ("prime", "classify", cmd_prime_classify,
     (("--type", {"required": True,
                  "help": "A/B/C/D (with --n) or E6/E7/E8/F4/G2"}),
      ("--n", {"type": int}), ("--p", {"type": int, "required": True}))
     + _OUTPUT),
    ("hn", "check", cmd_hn_check,
     (("--filtration", {"required": True}), ("--p", {"type": int}),
      ("--dim-g", {"type": int})) + _OUTPUT),
    ("fixtures", "paper", cmd_fixtures_paper,
     (("--out", {"required": True}),) + _SEED),
    ("suite", "run", cmd_suite_run,
     (("--criteria", {"help": "comma-separated criterion ids"}),) + _SEED),
)


class _Parser(argparse.ArgumentParser):
    """Exit 3 on a malformed command line: argparse's 2 means undetermined."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="morozov",
        description="exact normaliser-tower engine for restricted Lie "
                    "algebras over prime fields")
    groups = ap.add_subparsers(dest="group", required=True)
    for group, action, fn, flags in COMMANDS:
        sub = groups.add_parser(group).add_subparsers(
            dest="action", required=True).add_parser(action)
        for flag, options in flags:
            sub.add_argument(flag, **options)
        sub.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except radicals.Undetermined as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED


if __name__ == "__main__":
    sys.exit(main())
