"""The engine benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --write-golden

Run from the root of a source checkout.  Each sweep (the workload's whole
case list, run once) happens in a fresh single-threaded interpreter
(`worker.py`), so no memo in `g._memo` survives from one sweep to the next.

With `--trace 0` the benchmark runs set-up alone in two fresh interpreters,
then --seconds // NOMINAL_SWEEP_S[workload] sweeps, at least one.  Every
time is scaled by the host-speed probe timed with it (`calib.py`) and read
in seconds at the probe's reference speed.  wall_s is the median over the
sweeps.  case_p50_s and case_tail_s are Harrell-Davis estimates over every
run of every case that did not fail, case_tail_s at the highest percentile
with at least 10 of those runs beyond it.  setup_s is the median over all
set-ups; peak_rss_mb and decided_frac are medians over the sweeps.

With `--trace 1` it runs one untraced and one traced sweep of the same
cases and reports the per-layer metrics of the traced one, with the
tracing overhead.  Every answer passes the answer gate (`workloads.py`)
and, where the case has one, the golden answer in `golden/`.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
# Seconds per sweep, set-up and process start included, on a 2-core x86-64
# machine with Python 3.11 in the host's slow phases.  The sweep count
# depends on --seconds alone, so that every run pools the same number of
# case runs and its percentiles sit at the same ranks: 4 sweeps of each
# workload and 3 of detect-general at 30 s.
NOMINAL_SWEEP_S = {"tower-std": 7.0, "tower-seeded": 7.0,
                   "detect-general": 9.0, "kempf-opt": 7.0}
WORKER_TIMEOUT_S = 90.0      # a sweep stops itself after 75 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "case_p50_s": "s",
              "case_tail_s": "s", "decided_frac": "ratio",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest order statistic with at
    least 10 cases beyond it (the smallest case when there are fewer)."""
    return max(0, n - 11)


def tail(times: list) -> tuple:
    """(value, percentile, cases beyond) of the case-time tail."""
    ordered = sorted(times)
    k = tail_index(len(ordered))
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def _incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b), by its continued
    fraction (modified Lentz)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _incomplete_beta(b, a, 1.0 - x)
    tiny = 1e-300
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    c, d, f = 1.0, 0.0, 1.0
    for i in range(10_000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(c * d - 1.0) < 1e-12:
            break
    return front * (f - 1.0)


def hd_quantile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics, weighted by a beta density centred on rank q (n + 1).  Case
    times cluster by algebra with gaps between the clusters; a single order
    statistic jumps across a gap when a few runs move, this estimate
    does not."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [_incomplete_beta(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered))


def _worker(workload, seed, *flags):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker passed {WORKER_TIMEOUT_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_golden(workload: str) -> dict:
    with open(HERE / "golden" / f"{workload}.json") as fh:
        return json.load(fh)["cases"]


def gate(workload: str, sweep: dict, golden: dict) -> list:
    """Classify each case: failed (raised, passed its deadline, or gave an
    answer contradicting its construction or its golden answer), wrong
    (the last two), decided."""
    out = []
    for rec in sweep["cases"]:
        row = {"id": rec["id"], "time_s": rec["time_s"], "wrong": [],
               "decided": False, "fields": None, "error": rec.get("error")}
        if row["error"] is None:
            answer = rec["answer"]
            row["fields"] = workloads.decided_fields(workload, answer)
            row["wrong"] = workloads.construction_errors(workload, rec, answer)
            if rec["id"] in golden:
                row["wrong"] += workloads.golden_errors(golden[rec["id"]],
                                                        row["fields"])
            row["decided"] = workloads.is_decided(workload, answer)
        row["failed"] = row["error"] is not None or bool(row["wrong"])
        out.append(row)
    return out


def summarize(sweep: dict, rows: list) -> dict:
    n = len(rows)
    return {"decided_frac": sum(r["decided"] for r in rows) / n,
            "failed_frac": sum(r["failed"] for r in rows) / n,
            "peak_rss_mb": sweep["peak_rss_mb"]}


def report_cases(rows: list) -> None:
    for r in rows:
        if r["error"] is not None:
            print(f"  failed {r['id']}: {r['error']}")
        for why in r["wrong"]:
            print(f"  wrong  {r['id']}: {why}")


def same_answers(a: list, b: list) -> bool:
    return [(r["id"], r["fields"], r["error"] is None) for r in a] == \
           [(r["id"], r["fields"], r["error"] is None) for r in b]


def run_plain(workload, seed, seconds, golden):
    t0 = time.perf_counter()
    setups = [_worker(workload, seed, "--setup-only") for _ in range(SETUP_PROBES)]
    count = max(1, int(seconds // NOMINAL_SWEEP_S[workload]))
    sweeps, rows = [], []
    for _ in range(count):
        sweeps.append(_worker(workload, seed))
        rows.append(gate(workload, sweeps[-1], golden))
    # The host's speed drifts by a third over minutes, so every time is
    # scaled by the probe slices taken with it (`calib.py`) and reported as
    # seconds at reference speed.  wall_s and setup_s are medians over the
    # sweeps; the case percentiles are Harrell-Davis estimates over every
    # run of every case that did not fail (failures are counted apart).
    scales = [calib.scale(s["probe_s"]) for s in sweeps]
    summaries = [summarize(s, r) for s, r in zip(sweeps, rows)]
    case_s = [r["time_s"] * f for sweep_rows, f in zip(rows, scales)
              for r in sweep_rows if not r["failed"]]
    if not case_s:
        raise BenchError("no case completed")
    metrics = {name: statistics.median(s[name] for s in summaries)
               for name in ("decided_frac", "failed_frac", "peak_rss_mb")}
    metrics["wall_s"] = statistics.median(s["wall_s"] * f
                                          for s, f in zip(sweeps, scales))
    metrics["setup_s"] = statistics.median(
        r["setup_s"] * calib.scale(r["setup_probe_s"]) for r in setups + sweeps)
    _, pct, beyond = tail(case_s)
    metrics["case_p50_s"] = hd_quantile(case_s, 0.5)
    metrics["case_tail_s"] = hd_quantile(case_s, pct / 100)
    print(f"workload {workload}  seed {seed}  {count} sweeps of {len(rows[0])} "
          f"cases  closed loop, 1 caller  run {time.perf_counter() - t0:.1f} s")
    raw = " ".join(f"{s['wall_s']:.2f}" for s in sweeps)
    print(f"  raw sweep times {raw} s; scaled by "
          + " ".join(f"{f:.2f}" for f in scales))
    for name, unit in {**END_TO_END, "failed_frac": "ratio"}.items():
        print(f"  {name:<14} {metrics[name]:.6g} {unit}")
    print(f"  case_p50_s and case_tail_s (p{pct:.1f}, {beyond} beyond it) are "
          f"taken over {len(case_s)} case runs that did not fail; times are "
          f"seconds at reference speed")
    report_cases(rows[0])
    correct = all(not r["wrong"] for sweep_rows in rows for r in sweep_rows) \
        and all(same_answers(rows[0], other) for other in rows[1:])
    attempted = sum(len(sweep_rows) for sweep_rows in rows)
    failed = sum(r["failed"] for sweep_rows in rows for r in sweep_rows)
    return correct, attempted, failed, {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in END_TO_END.items()}


def run_traced(workload, seed, golden):
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-seed{seed}.json"
    # No probe slices here: they would land inside the traced layers' timers.
    plain = _worker(workload, seed, "--no-probe")
    traced = _worker(workload, seed, "--no-probe", "--trace", "--spans",
                     str(spans))
    plain_rows = gate(workload, plain, golden)
    traced_rows = gate(workload, traced, golden)
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    print(f"workload {workload}  seed {seed}  traced wall {traced['wall_s']:.3f} s  "
          f"untraced wall {plain['wall_s']:.3f} s  spans -> {spans.relative_to(ROOT)}")
    for name, unit in layertrace.METRICS.items():
        print(f"  {name:<32} {layers[name]:.6g} {unit}")
    report_cases(traced_rows)
    identical = same_answers(plain_rows, traced_rows)
    if not identical:
        print("  traced and untraced answers differ")
    correct = identical and all(not r["wrong"] for r in plain_rows + traced_rows)
    rows = plain_rows + traced_rows
    return correct, len(rows), sum(r["failed"] for r in rows), {
        name: {"value": layers[name], "unit": unit}
        for name, unit in layertrace.METRICS.items()}


def write_golden(workload):
    sweep = _worker(workload, workloads.DEFAULT_SEED)
    rows = gate(workload, sweep, {})
    cases = {r["id"]: r["fields"] for r in rows
             if not r["failed"] and r["fields"]}
    path = HERE / "golden" / f"{workload}.json"
    lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(cases.items())]
    with open(path, "w") as fh:
        fh.write(f'{{"workload": {json.dumps(workload)}, '
                 f'"seed": {workloads.DEFAULT_SEED}, "cases": {{\n')
        fh.write(",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(cases)} decided answers to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record the decided answers of the default seed")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "morozov" / "__init__.py").is_file():
        print(f"no engine source at {ROOT / 'src' / 'morozov'}", file=sys.stderr)
        return 2
    try:
        if args.write_golden:
            write_golden(args.workload)
            return 0
        golden = load_golden(args.workload)
        if args.trace:
            correct, attempted, failed, metrics = run_traced(
                args.workload, args.seed, golden)
        else:
            correct, attempted, failed, metrics = run_plain(
                args.workload, args.seed, args.seconds, golden)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
