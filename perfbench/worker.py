"""One cold repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload small-calls --seed 20170919 [--trace]

Imports rlab from the checkout's `src/`, builds the seeded op list (set-up),
then runs every op once in a closed loop of one caller.  Each op's timer
covers its library calls only; its check and digest run after the timer
stops.  Prints one JSON line with the timings, failures and digests; run.py
aggregates the lines of several repetitions into the benchmark's metrics.
"""

import os

# one thread per BLAS/OpenMP pool, so no pool competes for the cores; set
# before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

# On a shared virtual machine, speed drifts by tens of percent within seconds.
# A fixed pure-Python probe, run between ops every PROBE_EVERY_S, measures
# that drift.  Each op's latency is also reported rescaled by the median of
# the PROBE_WINDOW probes centred on it, to the speed at which the probe takes
# REFERENCE_PROBE_S (its typical time on the 2-vCPU Xeon this benchmark was
# defined on).  Probe time is never part of an op's latency.
PROBE_EVERY_S = 0.1
PROBE_WINDOW = 5
REFERENCE_PROBE_S = 0.0025


def probe():
    """Fraction arithmetic and an int loop: the interpreter-bound mix of the
    library's exact paths.  Library code never runs here."""
    s = Fraction(0)
    for d in range(1, 300):
        s += Fraction(1, d)
    x = 0
    for i in range(12000):
        x += i * i
    return s, x


def probe_s() -> float:
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


def encode(x, out: list):
    """Canonical bytes of an exact output.

    Ints and Fractions encode by value as p/q (so 3 and Fraction(3) agree),
    int64 arrays by shape and bytes, strings and bools as verdicts.  Floats
    are refused: they are checked against their criterion's bound instead.
    """
    if isinstance(x, (bool, np.bool_)):
        out.append(b"T" if x else b"F")
    elif isinstance(x, (int, np.integer)):
        out.append(b"%d/1;" % int(x))
    elif isinstance(x, Fraction):
        out.append(b"%d/%d;" % (x.numerator, x.denominator))
    elif isinstance(x, str):
        out.append(b"s%d:%s" % (len(x), x.encode()))
    elif x is None:
        out.append(b"N")
    elif isinstance(x, np.ndarray) and x.dtype == np.int64:
        out.append(b"a%r:" % (x.shape,) + np.ascontiguousarray(x, dtype="<i8").tobytes())
    elif isinstance(x, (list, tuple)):
        out.append(b"[")
        for item in x:
            encode(item, out)
        out.append(b"]")
    else:
        raise TypeError(f"no exact encoding for {type(x).__name__}")


def digest(payload) -> str:
    parts = []
    encode(payload, parts)
    return hashlib.sha256(b"".join(parts)).hexdigest()[:16]


def load_reference(path, workload, seed):
    """Reference digests for this workload, or None when they cover another seed."""
    if path is None:
        path = REFERENCE / f"{workload}.json"
    if not Path(path).is_file():
        return None
    ref = json.loads(Path(path).read_text())
    return ref["digests"] if ref["seed"] == seed else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true", help="record spans per layer")
    ap.add_argument("--ops", default=None, help="run only op ids matching this regex")
    ap.add_argument("--reference", default=None,
                    help="reference digest file (default: reference/<workload>.json)")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "rlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rlab sources under {src}")
    sys.path.insert(0, str(src))
    import rlab

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads

    ops = workloads.build(args.workload, args.seed)
    if args.ops:
        ops = [op for op in ops if re.search(args.ops, op.id)]
    reference = load_reference(args.reference, args.workload, args.seed)
    t_ready = time.monotonic()

    clock = time.perf_counter
    probes = [probe_s() for _ in range(PROBE_WINDOW)]
    setup_scale = REFERENCE_PROBE_S / statistics.median(probes)
    last_probe = clock()
    latencies, probed_at, failures, digests = [], [], [], {}
    for op in ops:
        if clock() - last_probe >= PROBE_EVERY_S:
            probes.append(probe_s())
            last_probe = clock()
        probed_at.append(len(probes) - 1)
        call = tracer.wrap("op", op.call) if tracer else op.call
        t0 = clock()
        try:
            out = call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, failure = None, f"raised {exc!r}"
        else:
            failure = None
        latencies.append(clock() - t0)
        if failure:
            failures.append([op.id, failure])
            continue
        try:
            payload, ok = op.check(out)
            digests[op.id] = digest(payload)
        except Exception as exc:
            failures.append([op.id, f"check raised {exc!r}"])
            continue
        if not ok:
            failures.append([op.id, "check failed"])
        elif reference is not None and reference.get(op.id) != digests[op.id]:
            failures.append([op.id, "digest differs from reference"])

    probes += [probe_s() for _ in range(PROBE_WINDOW // 2)]
    half = PROBE_WINDOW // 2
    scaled = [lat * REFERENCE_PROBE_S / statistics.median(probes[max(0, i - half): i + half + 1])
              for lat, i in zip(latencies, probed_at)]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}"
    (OUT / f"digests-{stem}.json").write_text(json.dumps(
        {"seed": args.seed, "digests": digests}, indent=0, sort_keys=True))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(ops),
        "t_ready": t_ready,
        "wall_s": sum(latencies),
        "latencies": latencies,
        "scaled_latencies": scaled,
        "setup_scale": setup_scale,
        "failures": failures,
        "digest": hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest(),
        "reference_checked": reference is not None,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "backend": rlab.BACKEND,
        "numpy": np.__version__,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        result["untraced_names"] = tracer.missing
        tracer.save(OUT / f"spans-{stem}.npz")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
