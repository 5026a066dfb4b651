"""rlab command line: identities, transforms, expansions, shift experiments.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
configuration error.  Data lands as CSV (default) or JSON with rationals as
"p/q" strings.
"""

import argparse
import json
import sys

from .arith import ArithmeticFunction, ConfigError, Spec, function_from_spec
from .emit import Table, emit, format_cell, write
from .expansions import (ZeroCloudElement, dk_expansion, evaluate_partial,
                         standard_finite_expansion, wintner_delange_reconstruct)
from .experiments import (ExperimentConfig, UnknownExperimentError,
                          experiment_names, run_experiment)
from .finite import (FiniteExpansion, TruncatedDivisorSum, fre_to_tds,
                     high_coefficient_check, low_coefficient_report, tds_to_fre)
from .rational import format_rational, parse_rational
from .ramanujan import RamanujanSumTable, csum, csum_divisor_form, csum_trig_form
from .shift import (cc_coefficients, correlate, cut_correlation, qrc,
                    shift_expansion_check, short_average, weak_reef_check)
from .transforms import (carmichael_estimate, condition_check, eratosthenes,
                         vanishing_tail_search, wintner_coefficient)


def _read_object(path: str) -> Spec:
    """The JSON object in the file at `path`; any other JSON value, and a
    missing key read from it, is a ConfigError."""
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected a JSON object, "
                          f"got {type(spec).__name__}")
    return Spec(spec)


def _load_function(path: str) -> ArithmeticFunction:
    return function_from_spec(_read_object(path))


def _load_tds(path: str) -> TruncatedDivisorSum:
    spec = _read_object(path)
    q = spec.integer("range")
    fp = spec.typed("fprime", list, dict)
    if isinstance(fp, dict):
        return function_from_spec({"kind": "tds", "range": q, "fprime": fp}).tds
    return TruncatedDivisorSum(q, [parse_rational(v) for v in fp])


def _load_fre(path: str) -> FiniteExpansion:
    spec = _read_object(path)
    return FiniteExpansion(spec.integer("range"),
                           [parse_rational(v) for v in spec.typed("fhat", list)])


def _whole(text: str, what: str) -> int:
    """text read as an integer; anything else is a ConfigError naming `what`."""
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{what} must be an integer, got {text!r}") from None


def _load_coeffs(arg: str):
    """A FiniteExpansion from a {"support": S, "entries": {q: fhat(q)}} file
    (missing q <= S are zero), a zero family as its ZeroCloudElement, or the
    K-divisor family as a callable q -> fhat(q)."""
    if arg.startswith("builtin:"):
        name = arg.split(":", 1)[1]
        if name == "zero-ram":
            return ZeroCloudElement(1, 0)
        if name == "zero-har":
            return ZeroCloudElement(0, 1)
        raise ConfigError(f"unknown builtin coefficient family {name!r}")
    if arg.startswith("dK:"):
        return dk_expansion(_whole(arg.split(":", 1)[1], f"--coeffs {arg}: K"))
    spec = _read_object(arg)
    support = spec.integer("support")
    entries = {_whole(q, f"{arg}: entries key"): parse_rational(v)
               for q, v in spec.typed("entries", dict).items()}
    outside = sorted(q for q in entries if not 1 <= q <= support)
    if outside:
        raise ConfigError(f"coefficient index q={outside[0]} outside 1..{support}")
    return FiniteExpansion(support, [entries.get(q, 0) for q in range(1, support + 1)])


def _grid_value(tok: str):
    """One grid token as a number, an int else a float: `limits.check_grid`,
    which every grid reader runs, reads 1e3 as 1000 and refuses 2.5."""
    try:
        return int(tok)
    except ValueError:
        return float(tok)


def _grid(arg: str) -> list:
    return [_grid_value(tok) for tok in arg.split(",")]


def _decay(arg: str) -> tuple:
    """A --decay hint "C,s", for |fprime(d)| <= C d^-s."""
    try:
        c, s = map(float, arg.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected C,s, got {arg!r}") from None
    return c, s


def _emit_or_print(table: Table, args) -> None:
    if args.out:
        path = emit(table, args.out, args.format)
        print(f"wrote {path}")
    else:
        write(table, sys.stdout, args.format)
        if args.format == "json":
            print()     # the table's own bytes end without a newline


# ---------------------------------------------------------------------------
# command handlers (each returns the process exit code)
# ---------------------------------------------------------------------------

def _cmd_csum(args) -> int:
    if args.mode == "table":
        if args.qmax is None or args.nmax is None:
            raise ConfigError("csum table needs --qmax and --nmax")
        tab = RamanujanSumTable.build(args.qmax, args.nmax)
        t = Table(["q", "n", "c_q_n"])
        for q in range(1, args.qmax + 1):
            for n in range(0, args.nmax + 1):
                t.add(q, n, int(tab.values[q, n]))
        _emit_or_print(t, args)
        return 0
    if args.q is None or args.n is None:
        raise ConfigError("csum needs --q and --n")
    if args.form == "divisor":
        print(csum_divisor_form(args.q, args.n))
    elif args.form == "trig":
        print(format(csum_trig_form(args.q, args.n), ".17g"))
    else:
        print(csum(args.q, args.n))
    return 0


def _cmd_transform(args) -> int:
    f = _load_function(args.f)
    tr = eratosthenes(f, args.bound)
    t = Table(["d", "fprime"], list(enumerate(tr.tolist(), start=1)))
    _emit_or_print(t, args)
    return 0


def _cmd_wintner(args) -> int:
    f = _load_function(args.fprime)
    partial, tail = wintner_coefficient(f, args.q, args.cut, decay_hint=args.decay)
    print(f"partial = {format_cell(partial)}")
    print(f"tail_bound = {format_cell(tail) if tail is not None else 'unknown (no decay hint)'}")
    return 0


def _cmd_carmichael(args) -> int:
    f = _load_function(args.f)
    est = carmichael_estimate(f, args.q, _grid(args.grid), tol=args.tol)
    t = Table(["x", "estimate"])
    for x, e in zip(est.grid, est.estimates):
        t.add(x, e)
    _emit_or_print(t, args)
    print(f"verdict = {est.verdict}")
    return 0


def _cmd_check(args) -> int:
    f = _load_function(args.f)
    source = eratosthenes(f, args.cut) if args.cond in ("WA", "DH", "SD") else f
    rep = condition_check(args.cond, source, args.cut)
    for cut, val in rep.trend:
        print(f"cut {cut}: {val:.6g}")
    print(f"verdict = {rep.verdict}")
    return 0


def _cmd_conjecture1(args) -> int:
    rep = vanishing_tail_search(args.family, args.Q, args.D,
                                trials=args.trials, seed=args.seed)
    print(f"family={rep.family} Q={rep.q_cut} D={rep.depth} verdict={rep.verdict}")
    if rep.nullspace_dim is not None:
        print(f"nullspace dimension: {rep.nullspace_dim}")
    for vec in rep.candidates + rep.faults:
        print("candidate fprime:", [format_cell(v) for v in vec])
    return 0 if rep.verdict == "no-counterexample" else 1


def _cmd_expand(args) -> int:
    if args.expand_cmd == "eval":
        seq = _load_coeffs(args.coeffs)
        val = evaluate_partial(seq, args.n, args.cut)
        print(format_cell(val))
    elif args.expand_cmd == "wd":
        f = _load_function(args.f)
        rec = wintner_delange_reconstruct(f, args.n, args.cut)
        print(f"reconstruction = {format_cell(rec.value)}")
        print(f"reference F(n) = {format_cell(rec.reference)}")
        print(f"gap = {format_cell(rec.gap)}")
    else:  # sfre
        f = _load_function(args.f)
        s = standard_finite_expansion(f, args.n)
        t = Table(["l", "coefficient"])
        for l, c in enumerate(s.coefficients, start=1):
            t.add(l, c)
        _emit_or_print(t, args)
        print(f"reconstruction = {format_cell(s.reconstruction)}")
    return 0


def _cmd_fre(args) -> int:
    if args.fre_cmd == "to-fre":
        t = _load_tds(args.tds)
        e = tds_to_fre(t)
        print(json.dumps({"range": e.range,
                          "fhat": [format_rational(v) for v in e.fhat]}))
    elif args.fre_cmd == "to-tds":
        e = _load_fre(args.fre)
        t = fre_to_tds(e)
        print(json.dumps({"range": t.range,
                          "fprime": [format_rational(v) for v in t.fprime]}))
    elif args.fre_cmd == "high":
        f = _load_function(args.f)
        rep = high_coefficient_check(f, args.Q)
        print(f"checked {len(rep.checked)} coefficients, "
              f"violations: {len(rep.violations)}")
        return 0 if rep.ok else 1
    else:  # low
        f = _load_function(args.f)
        rep = low_coefficient_report(f, args.Q, args.Q0, decay_hint=args.decay)
        t = Table(["q", "coeff_at_cut", "deep_partial", "tail_bound", "rel_diff"])
        for row in rep.rows:
            t.add(*[v if v is not None else "" for v in row])
        _emit_or_print(t, args)
        print(f"verdict = {rep.verdict}")
    return 0


def _cmd_shift(args) -> int:
    f = _load_function(args.f)
    g = _load_function(args.g)
    if args.shift_cmd == "corr":
        corr = correlate(f, g, args.N, args.amax)
        t = Table(["a", "C"])
        for a in range(1, args.amax + 1):
            t.add(a, corr.value(a))
        _emit_or_print(t, args)
        return 0
    cut = cut_correlation(f, g, args.N, args.amax)
    if args.shift_cmd == "qrc":
        t = Table(["q", "coefficient"])
        for q, v in enumerate(qrc(cut, args.Q).fhat, start=1):
            t.add(q, v)
        _emit_or_print(t, args)
        return 0
    if args.shift_cmd == "check12":
        lhs, rhs, equal = shift_expansion_check(cut, args.a)
        print(f"lhs = {format_cell(lhs)}")
        print(f"rhs = {format_cell(rhs)}")
        print(f"equal = {equal}")
        return 0 if equal else 1
    if args.shift_cmd == "cc":
        table = cc_coefficients(cut, args.lmax)
        t = Table(["l", "coefficient"])
        for l, v in enumerate(table, start=1):
            t.add(l, v)
        _emit_or_print(t, args)
        return 0
    if args.shift_cmd == "reef":
        rep = weak_reef_check(cut, args.a, _grid(args.lgrid))
        print(f"lhs = {format_cell(rep.lhs)}; tail = {format_cell(rep.tail)}; "
              f"tail_free = {rep.tail_free}")
        for x, rhs, res in rep.rows:
            print(f"x = {x}: rhs = {format_cell(rhs)}, residual = {format_cell(res)}")
        print(f"exact = {rep.exact_reef}")
        return 0
    # avg
    rep = short_average(cut, args.A, _grid(args.lgrid) if args.lgrid else None)
    print(f"lhs = {format_cell(rep.lhs)}")
    print(f"rhs = {format_cell(rep.rhs)}")
    print(f"residual = {format_cell(rep.residual)}")
    return 0


_CONFIG_KEYS = ("name", "params", "seed", "out", "format", "cap_x", "cap_d")


def _cmd_experiment(args) -> int:
    # the global flags and --name are the defaults; a config file overrides them
    raw = {"name": args.name, "seed": args.seed, "out": args.out,
           "format": args.format, "cap_x": args.cap_x, "cap_d": args.cap_d}
    if args.config:
        spec = _read_object(args.config)
        if "name" not in spec:
            raise ConfigError("experiment config needs a 'name'")
        unknown = sorted(set(spec) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; accepted: "
                              f"{', '.join(_CONFIG_KEYS)}; experiment knobs "
                              f"go under params (e.g. params.tol)")
        raw.update(spec)
    elif not args.name:
        raise ConfigError("experiment run needs --config or --name")
    raw["fmt"] = raw.pop("format")
    record = run_experiment(ExperimentConfig(**raw))
    print(f"experiment {record.name} [{record.config_hash}] "
          f"({record.elapsed:.2f}s)")
    print("  params: " + " ".join(f"{k}={json.dumps(v, separators=(',', ':'))}"
                                  for k, v in record.params.items()))
    failed = 0
    for o in record.outcomes:
        status = o["status"]
        if status == "fail":
            failed += 1
        detail = f"  ({o['detail']})" if o["detail"] else ""
        print(f"  {o['check']}: {status}{detail}")
    for path in record.artifacts:
        print(f"  artifact: {path}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rlab",
                                description="Ramanujan expansion laboratory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output file or directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--tol", type=float, default=1e-3,
                   help="convergence tolerance of `carmichael`; the "
                        "orthogonality and wintner-delange experiments take "
                        "theirs from params.tol")
    p.add_argument("--cap-x", type=int, default=10 ** 7, dest="cap_x")
    p.add_argument("--cap-d", type=int, default=10 ** 6, dest="cap_d")
    sub = p.add_subparsers(dest="cmd", required=True)

    cs = sub.add_parser("csum", help="Ramanujan sums c_q(n)")
    cs.add_argument("mode", nargs="?", choices=("table",), default=None)
    cs.add_argument("--q", type=int)
    cs.add_argument("--n", type=int)
    cs.add_argument("--form", choices=("closed", "divisor", "trig"),
                    default="closed")
    cs.add_argument("--qmax", type=int)
    cs.add_argument("--nmax", type=int)
    cs.set_defaults(fn=_cmd_csum)

    tr = sub.add_parser("transform", help="Eratosthenes transform table")
    tr.add_argument("--f", required=True)
    tr.add_argument("--bound", type=int, required=True)
    tr.set_defaults(fn=_cmd_transform)

    wi = sub.add_parser("wintner", help="Wintner coefficient partial")
    wi.add_argument("--fprime", required=True)
    wi.add_argument("--q", type=int, required=True)
    wi.add_argument("--cut", type=int, required=True)
    wi.add_argument("--decay", type=_decay, default=None,
                    help="C,s for |fprime(d)| <= C d^-s")
    wi.set_defaults(fn=_cmd_wintner)

    ca = sub.add_parser("carmichael", help="Carmichael coefficient estimate")
    ca.add_argument("--f", required=True)
    ca.add_argument("--q", type=int, required=True)
    ca.add_argument("--grid", required=True, help="e.g. 1e4,1e5,1e6")
    ca.set_defaults(fn=_cmd_carmichael)

    ch = sub.add_parser("check", help="summability/decay condition checks")
    ch.add_argument("--cond", choices=("WA", "DH", "DD7", "SD", "DI"),
                    required=True)
    ch.add_argument("--f", required=True,
                    help="function file: F for WA, DH and SD (checked on its "
                         "transform F') and for DI; for DD7 the coefficient "
                         "table fhat(1..cut), read as given")
    ch.add_argument("--cut", type=int, required=True)
    ch.set_defaults(fn=_cmd_check)

    cj = sub.add_parser("conjecture1", help="finite-depth inversion check of "
                        "Conjecture 1: partials above Q invert back to fprime on (Q, D]")
    cj.add_argument("--family", choices=("free", "completely-multiplicative",
                                         "nonnegative"), required=True)
    cj.add_argument("--Q", type=int, required=True)
    cj.add_argument("--D", type=int, required=True)
    cj.add_argument("--trials", type=int, default=50)
    cj.set_defaults(fn=_cmd_conjecture1)

    ex = sub.add_parser("expand", help="expansion evaluation")
    exs = ex.add_subparsers(dest="expand_cmd", required=True)
    ev = exs.add_parser("eval")
    ev.add_argument("--coeffs", required=True,
                    help="seq.json | builtin:zero-ram | builtin:zero-har | dK:K")
    ev.add_argument("--n", type=int, required=True)
    ev.add_argument("--cut", type=int, required=True)
    wd = exs.add_parser("wd")
    wd.add_argument("--f", required=True)
    wd.add_argument("--n", type=int, required=True)
    wd.add_argument("--cut", type=int, required=True)
    sf = exs.add_parser("sfre")
    sf.add_argument("--f", required=True)
    sf.add_argument("--n", type=int, required=True)
    ex.set_defaults(fn=_cmd_expand)

    fr = sub.add_parser("fre", help="finite expansion duality")
    frs = fr.add_subparsers(dest="fre_cmd", required=True)
    tf = frs.add_parser("to-fre")
    tf.add_argument("--tds", required=True)
    tt = frs.add_parser("to-tds")
    tt.add_argument("--fre", required=True)
    hi = frs.add_parser("high")
    hi.add_argument("--f", required=True)
    hi.add_argument("--Q", type=int, required=True)
    lo = frs.add_parser("low")
    lo.add_argument("--f", required=True)
    lo.add_argument("--Q", type=int, required=True)
    lo.add_argument("--Q0", type=int, required=True)
    lo.add_argument("--decay", type=_decay, default=None)
    fr.set_defaults(fn=_cmd_fre)

    sh = sub.add_parser("shift", help="shifted convolution sums")
    shs = sh.add_subparsers(dest="shift_cmd", required=True)
    for name in ("corr", "qrc", "check12", "cc", "reef", "avg"):
        sp = shs.add_parser(name)
        sp.add_argument("--f", required=True)
        sp.add_argument("--g", required=True)
        sp.add_argument("--N", type=int, required=True)
        sp.add_argument("--amax", type=int, default=64)
        if name == "qrc":
            sp.add_argument("--Q", type=int, required=True)
        if name == "check12":
            sp.add_argument("--a", type=int, required=True)
        if name == "cc":
            sp.add_argument("--lmax", type=int, required=True)
        if name == "reef":
            sp.add_argument("--a", type=int, required=True)
            sp.add_argument("--lgrid", default="1e3,1e4,1e5")
        if name == "avg":
            sp.add_argument("--A", type=int, required=True)
            sp.add_argument("--lgrid", default=None)
    sh.set_defaults(fn=_cmd_shift)

    ep = sub.add_parser("experiment", help="canned reproducible experiments")
    eps = ep.add_subparsers(dest="exp_cmd", required=True)
    er = eps.add_parser("run")
    er.add_argument("--config", default=None)
    er.add_argument("--name", default=None,
                    help=f"one of: {', '.join(experiment_names())}")
    ep.set_defaults(fn=_cmd_experiment)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, IndexError, UnknownExperimentError, OSError) as exc:
        # bad input is a usage error (2); a failed check is the handler's 1
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
