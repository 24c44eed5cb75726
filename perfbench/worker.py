"""One sweep of one workload, in a fresh single-threaded interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace]
                                [--setup-only] [--spans FILE]

It times set-up (importing the engine and building every algebra the
workload uses), generates the cases from the seed, runs them one after
another in a closed loop with one caller, and prints one JSON object with
the timings and each case's answer.  `run.py` starts it and applies the
answer gate.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import traceback

import calib
import workloads

CASE_DEADLINE_S = 60.0
SWEEP_BUDGET_S = 75.0       # no case starts, and every case stops, after this;
                            # two sweeps of a traced run stay under 180 s


class CaseDeadline(BaseException):
    """Raised by the alarm when a case passes its deadline; derives from
    BaseException so that no `except Exception` in the engine swallows it."""


def _alarm(signum, frame):
    raise CaseDeadline()


def _describe(exc: BaseException) -> str:
    frames = traceback.extract_tb(exc.__traceback__)[-3:]
    chain = " -> ".join(f.name for f in frames)
    return f"{type(exc).__name__}: {exc} [{chain}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file that receives the traced spans")
    ap.add_argument("--no-probe", action="store_true",
                    help="no host-speed slices during set-up and the cases")
    args = ap.parse_args(argv)

    probe = calib.Probe()
    sampler = calib.Sampler(probe)
    if not args.no_probe:
        sampler.start()
    t0 = time.perf_counter()
    import morozov  # noqa: F401
    from morozov import kempf, parabolic, serialize, tower  # noqa: F401
    from morozov.liealg import build
    algebras = [build(*alg) for alg in workloads.algebras(args.workload)]
    setup_s = time.perf_counter() - t0 - sampler.busy_s
    sampler.stop()
    setup_probe_s = sampler.slices + probe.slices()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_probe_s": setup_probe_s}))
        return 0

    cases = workloads.generate(args.workload, args.seed)
    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()

    signal.signal(signal.SIGALRM, _alarm)
    records = []
    probe_s = probe.slices()
    sampler = calib.Sampler(probe)
    if not args.no_probe:
        sampler.start()
    start = time.perf_counter()
    stop_at = start + SWEEP_BUDGET_S
    for case in cases:
        rec = {key: case[key] for key in ("id", "role", "expect") if key in case}
        c0 = time.perf_counter()
        busy0 = sampler.busy_s
        remaining = min(CASE_DEADLINE_S, stop_at - c0)
        if remaining <= 0:
            rec.update(time_s=0.0, error="deadline: workload budget spent")
            records.append(rec)
            continue
        if tracer:
            tracer.begin_case(case["id"])
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            try:
                _, answer = workloads.run_case(args.workload, case, args.seed)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            rec["answer"] = answer
        except CaseDeadline:
            rec["error"] = f"deadline: case passed {remaining:.0f} s"
        except Exception as exc:  # record the failure, keep running the sweep
            rec["error"] = _describe(exc)
        rec["time_s"] = time.perf_counter() - c0 - (sampler.busy_s - busy0)
        if tracer:
            tracer.end_case()
        records.append(rec)
    wall_s = time.perf_counter() - start - sampler.busy_s
    sampler.stop()
    probe_s += sampler.slices + probe.slices()

    out = {"setup_s": setup_s, "setup_probe_s": setup_probe_s,
           "wall_s": wall_s, "probe_s": probe_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "cases": records}
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.metrics(sum(len(g._memo) for g in algebras))
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "case"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
