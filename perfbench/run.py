"""rlab benchmark: end-to-end metrics per workload, per-layer costs when traced.

    python3 perfbench/run.py                                  # all workloads
    python3 perfbench/run.py --workload int-averages --seed 7 --seconds 35
    python3 perfbench/run.py --workload small-calls --trace 1 # per-layer costs

Each repetition is a fresh interpreter (worker.py) that runs the workload's
whole op list once with empty rlab caches, as every rlab CLI invocation does.
Repetitions repeat until the next one would overrun --seconds; metrics are
medians over them.  With --trace 1 the run alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("int-averages", "exact-rational", "small-calls")
DEFAULT_SEED = 20170919
REP_TIMEOUT_S = 150

UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s",
         "peak_rss_mb": "MB"}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class RepError(RuntimeError):
    pass


def run_rep(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)] + (["--trace"] if trace else [])
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepError(f"{workload} repetition exceeded {REP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RepError(f"{workload} repetition exited {proc.returncode}:\n"
                       + proc.stderr[-2000:])
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["setup_s"] = rep["t_ready"] - t_spawn
    rep["rep_s"] = time.monotonic() - t_spawn
    return rep


def tail_percentile(n_ops: int) -> float:
    """Highest listed percentile with at least ten ops beyond it."""
    for p in TAIL_PERCENTILES:
        if n_ops * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def per_op_medians(reps: list, key: str) -> list:
    return [statistics.median(lat) for lat in zip(*(r[key] for r in reps))]


def timings(reps: list, key: str, setup) -> dict:
    """Timings of the typical cold run: each op's latency is its median over
    the repetitions, and the sum and percentiles are taken over those
    medians.  Per-op medians drop slow stretches that a median of
    whole-repetition times would keep."""
    per_op = per_op_medians(reps, key)
    return {"wall_s": sum(per_op),
            "op_p50_ms": 1e3 * percentile(per_op, 50.0),
            "op_tail_ms": 1e3 * percentile(per_op, tail_percentile(len(per_op))),
            "setup_s": statistics.median(setup(r) for r in reps)}


def end_to_end(reps: list) -> dict:
    """The end-to-end metrics, timed at reference speed (see worker.py)."""
    metrics = timings(reps, "scaled_latencies", lambda r: r["setup_s"] * r["setup_scale"])
    metrics["peak_rss_mb"] = statistics.median(r["rss_kb"] / 1024.0 for r in reps)
    return metrics


def raw_times(reps: list) -> dict:
    """The same timings as measured, without the drift rescaling."""
    return timings(reps, "latencies", lambda r: r["setup_s"])


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".elems", ".terms", ".den_bits_max",
                          ".hit_ratio", ".bytes_computed"))


def schedule(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Repetitions until the next would overrun the budget (at least one of
    each kind); traced runs alternate untraced and traced repetitions."""
    kinds = [False, True] if trace else [False]
    reps = []
    t0 = time.monotonic()
    longest = {}
    while True:
        kind = kinds[len(reps) % len(kinds)]
        rep = run_rep(workload, seed, kind)
        rep["traced"] = kind
        reps.append(rep)
        longest[kind] = max(longest.get(kind, 0.0), rep["rep_s"])
        nxt = kinds[len(reps) % len(kinds)]
        if len(reps) >= len(kinds) and \
                time.monotonic() - t0 + longest.get(nxt, 0.0) > seconds:
            return reps


def check_reps(reps: list) -> list:
    """Problems that make the run incorrect beyond failed ops."""
    problems = []
    if len({r["digest"] for r in reps}) > 1:
        problems.append("repetitions (traced or not) disagree on output digests")
    traced = [r for r in reps if r["traced"]]
    counts = [{k: v for k, v in r["layers"].items() if is_count(k)} for r in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("count metrics differ between traced repetitions")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reps = schedule(workload, seed, seconds, trace)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if trace:
        med = statistics.median
        metrics = {k: (traced[0]["layers"][k] if is_count(k)
                       else med(r["layers"][k] for r in traced))
                   for k in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (raw_times(traced)["wall_s"]
                                       - raw_times(plain)["wall_s"])
    else:
        metrics = end_to_end(plain)
    attempted = sum(r["ops"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    return {"workload": workload, "reps": reps, "metrics": metrics,
            "raw": raw_times(traced if trace else plain),
            "attempted": attempted, "failed": len(failures), "failures": failures,
            "problems": check_reps(reps), "tail_p": tail_percentile(reps[0]["ops"])}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".elems_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".hit_ratio"):
        return "ratio"
    if name.endswith(".bytes_computed"):
        return "bytes"
    return "count"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def report(res: dict, seed: int, trace: bool):
    rep0 = res["reps"][0]
    plain = [r for r in res["reps"] if not r["traced"]]
    print(f"== {res['workload']}  seed {seed}  ops/rep {rep0['ops']}  "
          f"reps {len(plain)} untraced + {len(res['reps']) - len(plain)} traced  "
          f"reference {'checked' if rep0['reference_checked'] else 'not available for this seed'}")
    print(f"   output digest {rep0['digest'][:16]}  "
          f"(per-op digests in .perfbench_out/digests-{res['workload']}-{seed}.json)")
    for name, value in res["metrics"].items():
        print(f"   {name:44s} {value:16.6g} {unit_of(name)}")
    label = "traced" if trace else "as measured"
    print(f"   {label}, without rescaling: " + ", ".join(
        f"{k} {v:.6g} {unit_of(k)}" for k, v in res["raw"].items()))
    if trace:
        wall = res["raw"]["wall_s"]
        print("   layer self time as a share of traced wall_s: " + ", ".join(
            f"{k[:-7]} {v / wall:.1%}" for k, v in res["metrics"].items()
            if k.count(".") == 1 and k.endswith(".self_s")))
    else:
        print(f"   op_tail_ms is the p{res['tail_p']:g} op latency over {rep0['ops']} ops "
              f"per repetition")
    print(f"   fail_rate {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.6g}")
    for op_id, reason in res["failures"][:20]:
        print(f"   FAILED {op_id}: {reason}")
    for problem in res["problems"]:
        print(f"   INCORRECT: {problem}")
    if trace and rep0.get("untraced_names"):
        print(f"   not in the library, reported as zero: {', '.join(rep0['untraced_names'])}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="measuring budget per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rlab" / "__init__.py").is_file():
        print(f"perfbench: no rlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    try:
        results = [measure(w, args.seed, args.seconds, trace) for w in names]
    except RepError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    rep0 = results[0]["reps"][0]
    print(f"perfbench: nproc {os.cpu_count()}, cpu {cpu_model()}, python "
          f"{platform.python_version()}, numpy {rep0['numpy']}, rlab backend "
          f"{rep0['backend']}, seed {args.seed}, ops per workload "
          + ", ".join(f"{r['workload']}={r['reps'][0]['ops']}" for r in results))
    for res in results:
        report(res, args.seed, trace)

    OUT.mkdir(exist_ok=True)
    for res in results:
        record = {k: v for k, v in res.items() if k != "reps"}
        record["reps"] = [{k: v for k, v in r.items() if k != "latencies"}
                          for r in res["reps"]]
        record.update(seed=args.seed, seconds=args.seconds, trace=trace,
                      nproc=os.cpu_count(), cpu=cpu_model(),
                      python=platform.python_version())
        path = OUT / f"run-{res['workload']}-{args.seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(record, indent=1))

    def named(res, name):
        return name if len(results) == 1 else f"{res['workload']}.{name}"
    print(json.dumps({
        "correct": all(r["failed"] == 0 and not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {named(r, k): {"value": v, "unit": unit_of(k)}
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
