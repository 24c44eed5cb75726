"""Command-line front end.

Exit codes: 0 = computation succeeded / all checks passed, 1 = a
verification failed, 2 = undetermined, 3 = input error or malformed
command line.  No command takes a budget: the one walk left, in
`radicals`, runs within `radicals.DEFAULT_BUDGET`.
Output is canonical JSON (default) or text; identical inputs and seed
give byte-identical JSON."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import fixtures as fixtures_mod
from . import hnslope, kempf, parabolic, radicals, rootdata, suite, tower
from .liealg import build
from .serialize import (algebra_from_dict, algebra_to_dict, canonical_json,
                        subspace_from_dict)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_UNDETERMINED = 2
EXIT_INPUT = 3


class InputError(Exception):
    pass


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
        try:
            return build(args.family, args.n, args.p)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    raise InputError("give either --algebra FILE or --family/--n/--p")


def _subspace_from_args(args, g):
    return _load_with(args.subspace, lambda data: subspace_from_dict(data, g))


def _emit(args, payload: dict, exit_code: int, text_lines=None) -> int:
    payload = {"schema": 1, "seed": args.seed, **payload}
    if getattr(args, "text", False) and text_lines is not None:
        for line in text_lines:
            print(line)
    else:
        sys.stdout.write(canonical_json(payload))
    return exit_code


# -- subcommand handlers -----------------------------------------------------

def cmd_algebra_build(args) -> int:
    g = _algebra_from_args(args)
    payload = algebra_to_dict(g)
    out = canonical_json({"schema": 1, "seed": args.seed, **payload})
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
    if report is not None:
        for k, v in report.checks.items():
            text.append(f"  check {k}: {v}")
    if trace.status == "input-error":
        return _emit(args, payload, EXIT_INPUT, text)
    if trace.status in ("budget-exceeded", "max-steps", "cycle-detected"):
        return _emit(args, payload, EXIT_UNDETERMINED, text)
    bad = report is not None and any(
        v == "fail" for v in report.checks.values())
    return _emit(args, payload, EXIT_CHECK_FAILED if bad else EXIT_OK, text)


def cmd_kempf_optimize(args) -> int:
    g = _algebra_from_args(args)
    u = _subspace_from_args(args, g)
    try:
        cert = kempf.optimize(g, u)
    except ValueError as exc:
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
    try:
        verdict = parabolic.detect_parabolic(g, q)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    payload = {"verdict": verdict.as_dict()}
    code = {"parabolic": EXIT_OK, "not-parabolic": EXIT_CHECK_FAILED,
            "undetermined": EXIT_UNDETERMINED}[verdict.status]
    return _emit(args, payload, code,
                 [f"status: {verdict.status}",
                  f"failure_reason: {verdict.failure_reason}"])


def cmd_radical_compute(args) -> int:
    g = _algebra_from_args(args)
    h = _subspace_from_args(args, g) if args.subspace else g.full_space()
    if not g.is_subalgebra(h):
        raise InputError("input subspace is not a subalgebra")
    rep = radicals.radical_report(g, h)
    payload = {"report": rep.as_dict()}
    code = EXIT_UNDETERMINED if rep.status == "undetermined" else EXIT_OK
    text = [f"rad dim {None if rep.rad is None else rep.rad.dim}",
            f"nil dim {None if rep.nil is None else rep.nil.dim}",
            f"rad_p dim {None if rep.rad_p is None else rep.rad_p.dim}",
            f"method {rep.method_used}, status {rep.status}"]
    return _emit(args, payload, code, text)


def cmd_prime_classify(args) -> int:
    label = args.type.upper()
    try:
        if label in rootdata.EXCEPTIONAL:
            rd = rootdata.build_rootdatum(label)
        elif label in rootdata.CLASSICAL:
            if args.n is None:
                raise InputError("classical types need --n")
            rd = rootdata.build_rootdatum(label, args.n)
        else:
            raise InputError(f"unknown type {args.type!r}")
        pc = rootdata.classify_prime(rd, args.p)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
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
    worst = EXIT_OK
    for res in results:
        print(res.line())
        if res.status == "fail":
            worst = max(worst, EXIT_CHECK_FAILED)
        elif res.status == "undetermined":
            worst = max(worst, EXIT_UNDETERMINED)
    return worst


# -- parser -------------------------------------------------------------------

def _add_common(sub, algebra=True, subspace=False):
    if algebra:
        sub.add_argument("--algebra", help="algebra JSON file")
        sub.add_argument("--family", choices=["gl", "sl", "pgl", "sp", "so"])
        sub.add_argument("--n", type=int)
        sub.add_argument("--p", type=int)
    if subspace:
        sub.add_argument("--subspace", required=True, help="subspace JSON file")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--text", action="store_true",
                     help="human-readable output instead of canonical JSON")


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

    alg = groups.add_parser("algebra").add_subparsers(dest="action", required=True)
    b = alg.add_parser("build")
    _add_common(b)
    b.add_argument("--out")
    b.set_defaults(fn=cmd_algebra_build)

    tw = groups.add_parser("tower").add_subparsers(dest="action", required=True)
    r = tw.add_parser("run")
    _add_common(r, subspace=True)
    r.set_defaults(fn=cmd_tower_run)

    ke = groups.add_parser("kempf").add_subparsers(dest="action", required=True)
    o = ke.add_parser("optimize")
    _add_common(o, subspace=True)
    o.set_defaults(fn=cmd_kempf_optimize)

    pb = groups.add_parser("parabolic").add_subparsers(dest="action", required=True)
    d = pb.add_parser("detect")
    _add_common(d, subspace=True)
    d.set_defaults(fn=cmd_parabolic_detect)

    ra = groups.add_parser("radical").add_subparsers(dest="action", required=True)
    c = ra.add_parser("compute")
    _add_common(c)
    c.add_argument("--subspace")
    c.set_defaults(fn=cmd_radical_compute)

    pr = groups.add_parser("prime").add_subparsers(dest="action", required=True)
    cl = pr.add_parser("classify")
    cl.add_argument("--type", required=True,
                    help="A/B/C/D (with --n) or E6/E7/E8/F4/G2")
    cl.add_argument("--n", type=int)
    cl.add_argument("--p", type=int, required=True)
    cl.add_argument("--seed", type=int, default=0)
    cl.add_argument("--text", action="store_true")
    cl.set_defaults(fn=cmd_prime_classify)

    hn = groups.add_parser("hn").add_subparsers(dest="action", required=True)
    ch = hn.add_parser("check")
    ch.add_argument("--filtration", required=True)
    ch.add_argument("--p", type=int)
    ch.add_argument("--dim-g", type=int)
    ch.add_argument("--seed", type=int, default=0)
    ch.add_argument("--text", action="store_true")
    ch.set_defaults(fn=cmd_hn_check)

    fx = groups.add_parser("fixtures").add_subparsers(dest="action", required=True)
    pp = fx.add_parser("paper")
    pp.add_argument("--out", required=True)
    pp.add_argument("--seed", type=int, default=0)
    pp.set_defaults(fn=cmd_fixtures_paper)

    su = groups.add_parser("suite").add_subparsers(dest="action", required=True)
    ru = su.add_parser("run")
    ru.add_argument("--criteria", help="comma-separated criterion ids")
    ru.add_argument("--seed", type=int, default=0)
    ru.set_defaults(fn=cmd_suite_run)

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
