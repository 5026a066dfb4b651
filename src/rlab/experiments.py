"""Canned reproducible experiments spanning every module.

Each experiment is a named callable over an ExperimentConfig whose keyword
defaults declare its knobs (`resolve_params` checks `params` against them); it
returns per-check outcomes plus artifact tables.  A fixed seed fully
determines any randomized inputs, so identical configs reproduce identical
exact outcomes.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import hashlib
import inspect
import json
import math
import random
import time

import numpy as np

from . import kernels
from .arith import ArithmeticFunction, ConfigError, divisors, omega
from .emit import Table, emit
from .expansions import (ZeroCloudElement, divisor_power_coefficient, dk_local_series,
                         invert_pure_coefficients, lucht_evaluate,
                         standard_finite_expansion,
                         wintner_delange_reconstruct, wintner_delange_table)
from .finite import (TruncatedDivisorSum, fre_to_tds, high_coefficient_check,
                     low_coefficient_report, tds_to_fre)
from .ramanujan import (RamanujanSumTable, abs_csum_over_q_partial, csum,
                        csum_trig_row, orthogonality_estimate)
from .shift import (carmichael_vs_cc, cut_correlation, divisor_tail,
                    is_tail_free, shift_expansion_check, short_average,
                    weak_reef_check)
from .transforms import (carmichael_estimate, condition_check, cw_formula_check,
                         nonneg_carmichael_bound, vanishing_tail_search,
                         wintner_coefficient, wintner_partials)


class UnknownExperimentError(KeyError):
    """Experiment name not in the registry."""


class ResourceCapError(ValueError):
    """A grid or cut exceeds the configured hard caps."""


@dataclass
class ExperimentConfig:
    name: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out: str | None = None
    fmt: str = "csv"
    cap_x: int = 10 ** 7
    cap_d: int = 10 ** 6

    def __post_init__(self):
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError(f"seed must be an int, got {self.seed!r}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        for key in ("cap_x", "cap_d"):
            cap = getattr(self, key)
            if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
                raise ConfigError(f"{key} must be an int >= 1, got {cap!r}")

    def canonical(self) -> str:
        blob = {"name": self.name, "params": self.params, "seed": self.seed,
                "cap_x": self.cap_x, "cap_d": self.cap_d}
        return json.dumps(blob, sort_keys=True, default=str)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    def check_caps(self, x=None, d=None):
        if x is not None and x > self.cap_x:
            raise ResourceCapError(f"x={x} exceeds cap {self.cap_x}")
        if d is not None and d > self.cap_d:
            raise ResourceCapError(f"D={d} exceeds cap {self.cap_d}")


@dataclass
class RunRecord:
    name: str
    config_hash: str
    outcomes: list                  # dicts: {"check","status","detail"}
    elapsed: float
    artifacts: list = field(default_factory=list)
    params: dict = field(default_factory=dict)      # the resolved knobs

    @property
    def passed(self) -> bool:
        return all(o["status"] == "pass" or o["status"].startswith("at-cut")
                   for o in self.outcomes)


def _ok(check: str, good: bool, detail: str = "") -> dict:
    return {"check": check, "status": "pass" if good else "fail",
            "detail": detail}


def _at_cut(check: str, verdict: str, detail: str = "") -> dict:
    return {"check": check, "status": f"at-cut:{verdict}", "detail": detail}


def _rand_table(rng: random.Random, length: int) -> list:
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(length)]


_REGISTRY = {}
_ACCEPTANCE = {}    # criterion number -> (label, experiment name)


def experiment(name, criterion=None):
    """Register fn as experiment `name`; `criterion=(number, label)` also
    makes it acceptance criterion `number`, run at its default params."""
    def reg(fn):
        _REGISTRY[name] = fn
        if criterion is not None:
            num, label = criterion
            _ACCEPTANCE[num] = (label, name)
        return fn
    return reg


def experiment_names() -> list:
    return sorted(_REGISTRY)


def criteria() -> dict:
    """{criterion number: (label, experiment name)}, in number order."""
    return dict(sorted(_ACCEPTANCE.items()))


def _expects(default) -> str:
    if isinstance(default, list):
        return f"a non-empty list, each entry {_expects(default[0])}"
    return {int: "an int >= 1", float: "a number > 0", str: "a string"}[type(default)]


def _valid(value, default) -> bool:
    if isinstance(default, list):
        return (isinstance(value, list) and len(value) > 0
                and all(_valid(v, default[0]) for v in value))
    if isinstance(default, str):
        return isinstance(value, str)
    kinds = int if isinstance(default, int) else (int, float)
    return (isinstance(value, kinds) and not isinstance(value, bool)
            and 0 < value < math.inf)


def resolve_params(name: str, params) -> dict:
    """Check `params` against the experiment's keyword defaults.

    Each value must fit its default's type (`_valid`); lists come fresh, so
    no body holds a shared default.  Unknown keys or bad values: ConfigError.
    """
    if name not in _REGISTRY:
        raise UnknownExperimentError(name)
    if not isinstance(params, dict):
        raise ConfigError("params must be a mapping")
    declared = {p.name: p.default for p in
                list(inspect.signature(_REGISTRY[name]).parameters.values())[1:]}
    unknown = sorted(set(params) - set(declared), key=str)
    if unknown:
        raise ConfigError(f"{name}: unknown params {unknown}; "
                          f"accepted: {', '.join(declared)}")
    resolved = {}
    for key, default in declared.items():
        value = params.get(key, default)
        if not _valid(value, default):
            raise ConfigError(f"{name}: params.{key} must be "
                              f"{_expects(default)}, got {value!r}")
        resolved[key] = list(value) if isinstance(value, list) else value
    return resolved


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    params = resolve_params(cfg.name, cfg.params)
    t0 = time.perf_counter()
    try:
        outcomes, tables = _REGISTRY[cfg.name](cfg, **params)
    except ResourceCapError:
        raise
    except (ValueError, IndexError) as exc:
        # bad knobs (empty/non-increasing grids, negative cuts, ...) are a
        # config problem, not a computation fault
        raise ConfigError(f"{cfg.name}: {exc}") from exc
    elapsed = time.perf_counter() - t0
    artifacts = []
    if cfg.out:
        for tag, table in tables.items():
            ext = "csv" if cfg.fmt == "csv" else "json"
            artifacts.append(emit(table, f"{cfg.out}/{cfg.name}-{tag}.{ext}", cfg.fmt))
    return RunRecord(cfg.name, cfg.digest(), outcomes, elapsed, artifacts, params)


# ---------------------------------------------------------------------------
# ramanujan-sum identities
# ---------------------------------------------------------------------------

@experiment("lemma1-grid", criterion=(1, "triple_agreement"))
def _lemma1(cfg, qmax=512, nmax=512):
    cfg.check_caps(x=(qmax + 1) * (nmax + 1))    # the int64 table's cells
    tab = RamanujanSumTable.build(qmax, nmax)
    bad_closed = bad_trig = 0
    worst = 0.0
    for q in range(1, qmax + 1):
        row = tab.values[q, : nmax + 1]
        closed = np.array([csum(q, n) for n in range(nmax + 1)], dtype=np.int64)
        if not np.array_equal(row, closed):
            bad_closed += 1
        trig = csum_trig_row(q, nmax)
        err = float(np.max(np.abs(trig - row)))
        worst = max(worst, err)
        if err >= 1e-6:
            bad_trig += 1
    out = [_ok("closed-equals-divisor-form", bad_closed == 0,
               f"{bad_closed} mismatching rows"),
           _ok("trig-within-1e-6", bad_trig == 0, f"max |err| = {worst:.3g}")]
    return out, {}


@experiment("eq2-grid", criterion=(2, "indicator_identities"))
def _eq2(cfg, qmax=512, nmax=512):
    cfg.check_caps(x=(qmax + 1) * (nmax + 1))    # the int64 table's cells
    tab = RamanujanSumTable.build(qmax, nmax)
    n = np.arange(nmax + 1)
    bad = 0
    for q in range(1, qmax + 1):
        total = np.zeros(nmax + 1, dtype=np.int64)
        for d in divisors(q):
            total += tab.values[d, n % d]
        expect = np.where(n % q == 0, q, 0)
        if not np.array_equal(total, expect):
            bad += 1
    return [_ok("divisor-sum-indicator", bad == 0, f"{bad} bad rows")], {}


@experiment("delange-bound", criterion=(3, "delange_bound"))
def _delange(cfg, dmax=300, nmax=300):
    cfg.check_caps(x=(dmax + 1) * (nmax + 1))    # the int64 table's cells
    tab = RamanujanSumTable.build(dmax, nmax)
    n = np.arange(nmax + 1)
    bad = []
    for d in range(1, dmax + 1):
        lhs = np.zeros(nmax + 1, dtype=np.int64)
        for l in divisors(d):
            lhs += np.abs(tab.values[l, n % l])
        rhs = n * 2 ** omega(d)
        viol = np.nonzero(lhs[1:] > rhs[1:])[0]
        if viol.size:
            bad.append((d, int(viol[0]) + 1))
    return [_ok("divisor-abs-bound", not bad, f"violations: {bad[:3]}")], {}


@experiment("orthogonality", criterion=(5, "orthogonality"))
def _orthogonality(cfg, qmax=20, nmax=10, x=10 ** 6, tol=1e-2):
    cfg.check_caps(x=x)
    grid = [x // 4, x // 2, x]
    worst = 0.0
    bad = []
    t = Table(["q", "l", "n", "estimate", "target"])
    for q in range(1, qmax + 1):
        for l in range(1, qmax + 1):
            for n in range(1, nmax + 1):
                est = orthogonality_estimate(q, l, n, grid, tol=tol)
                target = est.target
                gap = abs(est.final - target)
                worst = max(worst, gap)
                t.add(q, l, n, est.final, target)
                if gap >= tol:
                    bad.append((q, l, n, gap))
    return [_ok("orthogonality-at-x", not bad,
                f"worst gap {worst:.4g} over {qmax * qmax * nmax} triples")], \
        {"estimates": t}


@experiment("prop1-divergence", criterion=(4, "divergence_trend"))
def _prop1(cfg, nmax=10, cut_lo=10 ** 3, cut_hi=10 ** 5, margin=0.3):
    cfg.check_caps(d=cut_hi)
    bad = []
    t = Table(["n", "partial_lo", "partial_hi"])
    for n in range(1, nmax + 1):
        s_lo, s_hi = abs_csum_over_q_partial(n, [cut_lo, cut_hi])
        t.add(n, s_lo, s_hi)
        if not s_hi > s_lo + margin:
            bad.append(n)
    return [_ok("partials-grow", not bad, f"failing n: {bad}")], {"partials": t}


# ---------------------------------------------------------------------------
# transform / coefficient experiments
# ---------------------------------------------------------------------------

def _inverse_square_tds(cut: int) -> ArithmeticFunction:
    return ArithmeticFunction.from_tds(
        TruncatedDivisorSum(cut, [Fraction(1, d * d) for d in range(1, cut + 1)]))


@experiment("wintner-delange", criterion=(6, "reconstruction"))
def _wintner_delange(cfg, cut=10 ** 4, nmax=50, tol=1e-6):
    cfg.check_caps(d=cut)
    f = _inverse_square_tds(cut)
    table = wintner_delange_table(f, cut)
    worst = 0.0
    for n in range(1, nmax + 1):
        rec = wintner_delange_reconstruct(f, n, cut, table=table)
        worst = max(worst, rec.abs_gap)
    return [_ok("pointwise-reconstruction", worst < tol,
                f"max |gap| = {worst:.3g}")], {}


@experiment("standard-fre", criterion=(8, "standard_finite_expansion"))
def _standard_fre(cfg, trials=100, nmax=200):
    rng = random.Random(cfg.seed)
    bad = 0
    for _ in range(trials):
        f = ArithmeticFunction.table(_rand_table(rng, nmax), after="zero")
        points = {rng.randint(1, nmax) for _ in range(12)} | {1, nmax}
        if any(standard_finite_expansion(f, n).reconstruction != Fraction(f(n))
               for n in points):
            bad += 1
    return [_ok("exact-reconstruction", bad == 0,
                f"{bad}/{trials} tables failed at 12 random points and 1, {nmax}")], {}


@experiment("prop2-roundtrip", criterion=(9, "duality_roundtrip"))
def _prop2(cfg, trials=500, qmax=64, nmax=512):
    rng = random.Random(cfg.seed)
    # pointwise oracle on scaled numerators, independent of t.eval / e.eval:
    # tds(n) = sum_{d|n} fprime(d) and fre(n) = sum_q fhat(q) c_q(n), each one
    # matrix product, compared by cross-multiplying the two denominators.  The
    # t.d.s. numerators are small (|fprime| <= 9 over lcm(1..8) = 840), so
    # their product runs in int64 under the kernels' guard; fhat's are bignums
    n = np.arange(1, nmax + 1)
    divides = (n[None, :] % np.arange(1, qmax + 1)[:, None] == 0).astype(np.int64)
    ctab = kernels.csum_block(qmax, nmax)[1:, 1:]
    bad_round = bad_point = 0
    for _ in range(trials):
        q = rng.randint(1, qmax)
        t = TruncatedDivisorSum(q, _rand_table(rng, q))
        e = tds_to_fre(t)
        if fre_to_tds(e) != t or tds_to_fre(fre_to_tds(e)) != e:
            bad_round += 1
        tn, tden = t.scaled
        en, eden = e.scaled
        tn, rows = kernels.int_array(tn), divides[:q]
        if not kernels._int64_fits(q, tn, rows):
            tn, rows = tn.astype(object), rows.astype(object)
        tds_vals = (tn @ rows).astype(object)
        fre_vals = np.array(en, dtype=object) @ ctab[:q]
        if np.any(tds_vals * eden != fre_vals * tden):
            bad_point += 1
    return [_ok("roundtrip-exact", bad_round == 0, f"{bad_round} failures"),
            _ok("pointwise-every-n", bad_point == 0,
                f"{bad_point} instances fail at some n <= {nmax}")], {}


@experiment("property-H", criterion=(10, "high_coefficients"))
def _prop_h(cfg, trials=40, qmax=128):
    rng = random.Random(cfg.seed)
    bad = 0
    for _ in range(trials):
        q = rng.randint(2, qmax)
        f = ArithmeticFunction.table(_rand_table(rng, q), after="zero")
        if not high_coefficient_check(f, q).ok:
            bad += 1
    return [_ok("high-coefficients-exact", bad == 0, f"{bad}/{trials} failed")], {}


@experiment("property-L")
def _prop_l(cfg, cut=10 ** 4, q0=100):
    cfg.check_caps(d=4 * cut)
    f = _inverse_square_tds(4 * cut)
    rep = low_coefficient_report(f, cut, q0, decay_hint=(1.0, 2.0))
    t = Table(["q", "coeff_at_cut", "deep_partial", "tail_bound", "rel_diff"])
    for row in rep.rows:
        t.add(*row)
    return [_ok("low-coefficients-consistent", rep.verdict == "consistent",
                rep.verdict)], {"low": t}


@experiment("theorem4-roundtrip", criterion=(11, "pure_inversion_roundtrip"))
def _thm4(cfg, trials=60, support=64):
    rng = random.Random(cfg.seed)
    bad = 0
    for _ in range(trials):
        q = rng.randint(1, support)
        fhat = _rand_table(rng, q)
        inv = invert_pure_coefficients(fhat)
        if not inv.win_check:
            bad += 1
    return [_ok("coefficients-recovered", bad == 0, f"{bad}/{trials} failed")], {}


@experiment("lucht-identity", criterion=(12, "lucht_identity"))
def _lucht(cfg, trials=60, support=128, amax=64):
    rng = random.Random(cfg.seed)
    bad = 0
    for _ in range(trials):
        q = rng.randint(1, support)
        fhat = _rand_table(rng, q)
        a = rng.randint(1, amax)
        cut = rng.randint(1, support)
        lhs, rhs = lucht_evaluate(fhat, a, cut)
        if lhs != rhs:
            bad += 1
    return [_ok("resummation-exact", bad == 0, f"{bad}/{trials} failed")], {}


@experiment("dK-coefficients", criterion=(13, "divisor_coefficients"))
def _dk(cfg, nmax=100, kmax=4):
    if nmax < 2:
        raise ValueError(f"nmax={nmax} checks no n: the k = 1 formula starts at n = 2")
    worst_k1 = 0.0
    for n in range(2, nmax + 1):
        got = divisor_power_coefficient(n, 1).value
        want = -math.log(n) / n
        worst_k1 = max(worst_k1, abs(got - want) / abs(want))
    worst_series = 0.0
    for k in range(1, kmax + 1):
        for p in (2, 3, 5, 7, 11, 13):
            for l in range(1, 5):
                closed = float(dk_local_series(p, l, k))
                partial = sum(math.comb(k + lam - 1, k - 1) * p ** (l - lam)
                              for lam in range(l, l + 1000))
                worst_series = max(worst_series, abs(closed - partial) / abs(partial))
    return [_ok("k1-matches-log-over-n", worst_k1 < 1e-12, f"rel {worst_k1:.3g}"),
            _ok("series-closed-form", worst_series < 1e-10,
                f"rel {worst_series:.3g}")], {}


@experiment("zero-cloud-trend")
def _zero_cloud(cfg, nmax=10, x_lo=10 ** 2, x_hi=10 ** 6):
    if x_lo >= x_hi:
        raise ValueError(f"x_lo={x_lo} must be below x_hi={x_hi}")
    cfg.check_caps(d=x_hi)
    # each element builds its weights once, and each row c_q(n), q <= cut, is
    # built once for all three; a partial is `evaluate_partial`'s float64 dot
    pairs = ((1, 0), (0, 1), (1, 1))
    elements = [ZeroCloudElement(alpha, beta) for alpha, beta in pairs]
    partial = {}
    for n in range(1, nmax + 1):
        for cut in (x_lo, x_hi):
            row = kernels.csum_row(n, cut).astype(np.float64)[1:]
            for e in elements:
                partial[e, n, cut] = float(np.dot(row, e.float_weights(cut)[1:]))
    bad = []
    t = Table(["alpha", "beta", "n", "partial_lo", "partial_hi"])
    for (alpha, beta), e in zip(pairs, elements):
        for n in range(1, nmax + 1):
            lo, hi = partial[e, n, x_lo], partial[e, n, x_hi]
            t.add(alpha, beta, n, lo, hi)
            if not abs(hi) < abs(lo):
                bad.append((alpha, beta, n))
    return [_ok("partials-shrink", not bad, f"failing: {bad[:3]}")], {"trend": t}


@experiment("cw-formula", criterion=(17, "cw_ratio_bounded"))
def _cw(cfg, qmax=5,
        grid=[10 ** 3, 2 * 10 ** 3, 10 ** 4, 2 * 10 ** 4, 10 ** 5, 2 * 10 ** 5],
        functions=["one", "d_2", "id"]):
    cfg.check_caps(x=max(grid))
    out = []
    t = Table(["function", "q", "x", "ratio"])
    for name in functions:
        f = ArithmeticFunction.builtin(name)
        for q in range(1, qmax + 1):
            rep = cw_formula_check(f, q, grid)
            ratios = [r.ratio for r in rep.rows if r.ratio is not None]
            for r in rep.rows:
                t.add(name, q, r.x, r.ratio if r.ratio is not None else "skipped")
            # no ratio at all is no evidence of boundedness either
            growing = not ratios or (
                all(b > a for a, b in zip(ratios, ratios[1:])) and
                ratios[-1] > 2 * ratios[0])
            out.append(_ok(f"bounded-{name}-q{q}", not growing,
                           f"max ratio {rep.max_ratio:.3g} over {len(ratios)} ratios"))
    return out, {"ratios": t}


@experiment("lemma2", criterion=(18, "nonneg_mean_dominance"))
def _lemma2(cfg, qmax=10, grid=[10 ** 4, 10 ** 5, 10 ** 6]):
    cfg.check_caps(x=max(grid))
    f = ArithmeticFunction.builtin("indicator-squares")
    rep = nonneg_carmichael_bound(f, grid, qmax=qmax)
    return [_ok("mean-dominance-exact", rep.ok, f"{len(rep.rows)} inequalities")], {}


# why c19 passes at every finite depth, and what it leaves open
_CONJ1_WHY = ("F'(d)/d = sum_K mu(K) P(dK) reads only P above Q for d > Q, so this "
              "holds at every depth D; no finite depth decides the full series")


@experiment("conjecture1", criterion=(19, "vanishing_tail_search"))
def _conj1(cfg, q_lo=2, q_hi=8, depth=32, trials=40):
    if q_lo > q_hi:
        raise ValueError(f"q_lo={q_lo} must not exceed q_hi={q_hi}")
    out = []
    t = Table(["family", "q_cut", "depth", "nullspace_dim", "candidates", "faults"])
    for q_cut in range(q_lo, q_hi + 1):
        rep = vanishing_tail_search("free", q_cut, depth)
        t.add("free", q_cut, depth, rep.nullspace_dim, len(rep.candidates),
              len(rep.faults))
        out.append(_ok(f"free-q{q_cut}-trivial-nullspace",
                       rep.nullspace_dim == 0 and not rep.candidates,
                       f"dim {rep.nullspace_dim}: {rep.trials - len(rep.candidates)}/"
                       f"{rep.trials} unit vectors on ({q_cut}, {depth}] invert back; "
                       f"{_CONJ1_WHY}"))
    for family in ("completely-multiplicative", "nonnegative"):
        rep = vanishing_tail_search(family, q_lo, depth, trials=trials,
                                    seed=cfg.seed)
        t.add(family, q_lo, depth, "", len(rep.candidates), len(rep.faults))
        out.append(_ok(f"{family}-no-counterexample", not rep.faults,
                       f"{rep.verdict}: {rep.trials - len(rep.faults)}/{rep.trials} "
                       f"draws invert back on ({q_lo}, {depth}]; {_CONJ1_WHY}"))
    return out, {"search": t}


# ---------------------------------------------------------------------------
# shift experiments
# ---------------------------------------------------------------------------

def _even_indicator() -> ArithmeticFunction:
    return ArithmeticFunction.from_tds(TruncatedDivisorSum(2, [0, 1]))


def _rand_int_tds(rng: random.Random, q: int) -> ArithmeticFunction:
    vals = [rng.randint(-3, 3) for _ in range(q)]
    if not any(vals):
        vals[rng.randrange(q)] = 1
    return ArithmeticFunction.from_tds(TruncatedDivisorSum(q, vals))


@experiment("identity12", criterion=(14, "split_identity"))
def _identity12(cfg, trials=12):
    amax = 256
    rng = random.Random(cfg.seed)
    bad = []
    for i in range(trials):
        n = rng.randint(8, 64)
        qf, qg = rng.randint(1, 16), rng.randint(1, 16)
        f = ArithmeticFunction.from_tds(TruncatedDivisorSum(qf, _rand_table(rng, qf)))
        g = ArithmeticFunction.from_tds(TruncatedDivisorSum(qg, _rand_table(rng, qg)))
        cut = cut_correlation(f, g, n, amax)
        a = next((a for a in range(1, amax + 1)
                  if not shift_expansion_check(cut, a)[2]), None)
        if a is not None:
            bad.append((i, a))
    return [_ok("split-identity-exact", not bad,
                f"first failing (instance, a <= {amax}): {bad[:3]}")], {}


@experiment("cc", criterion=(15, "cc_vs_numerical"))
def _cc(cfg, x=10 ** 5):
    cfg.check_caps(x=x)
    rng = random.Random(cfg.seed)
    grid = [x // 4, x // 2, x]
    instances = [("even-indicator", _even_indicator(), _even_indicator(), 10)]
    for i in range(2):
        instances.append((f"random-{i}", _rand_int_tds(rng, rng.randint(2, 8)),
                          _rand_int_tds(rng, rng.randint(2, 8)), rng.randint(8, 16)))
    out = []
    for label, f, g, n in instances:
        cut = cut_correlation(f, g, n, n)
        tol = 1e-2 * n
        worst = 0.0
        for l in (1, 2, 3):
            est = carmichael_vs_cc(cut, l, grid, tol=tol)
            worst = max(worst, abs(est.final - est.target))
        out.append(_ok(f"cc-vs-average-{label}", worst < tol,
                       f"worst |gap| = {worst:.4g}, tol {tol}"))
    return out, {}


@experiment("reef", criterion=(16, "reef_exactness"))
def _reef(cfg, lgrid=[10 ** 3, 10 ** 4]):
    out = []
    # tail-free: even indicator against itself, even length
    f = _even_indicator()
    cut = cut_correlation(f, f, 10, 12)
    rep = weak_reef_check(cut, 6, lgrid)
    out.append(_ok("tail-free-exact", rep.tail_free and rep.exact_reef,
                   f"tail_free={rep.tail_free}, residuals={rep.residuals}"))
    # non-tail-free: delta_2 against multiples of 3; transform survives past N
    f2 = ArithmeticFunction.table([0, 1], after="zero")
    g2 = ArithmeticFunction.from_tds(TruncatedDivisorSum(3, [0, 0, 1]))
    cut2 = cut_correlation(f2, g2, 4, 64)
    # lhs - main == tail is the split identity at N = 4; a = 5 has a tail
    bad = [a for a in (5, 7, 10, 20, 25, 50) if not shift_expansion_check(cut2, a)[2]
           or (a == 5 and divisor_tail(cut2, a) == 0)]
    out.append(_ok("transform-mass-past-N", not is_tail_free(cut2, 64)))
    out.append(_ok("deviation-equals-tail", not bad, f"failing a: {bad}"))
    return out, {}


@experiment("weak-reef")
def _weak_reef(cfg, lgrid=[10 ** 3, 10 ** 4, 10 ** 5]):
    cfg.check_caps(x=max(lgrid))
    f = ArithmeticFunction.table([0, 1], after="zero")
    g = ArithmeticFunction.from_tds(TruncatedDivisorSum(3, [0, 0, 1]))
    cut = cut_correlation(f, g, 4, 64)
    rep = weak_reef_check(cut, 7, lgrid)
    res = rep.residuals
    return [_ok("residual-shrinks", res[-1] < res[0] or res[-1] == 0,
                f"residuals {res}")], {}


@experiment("short-average")
def _short_avg(cfg, lgrid=[10 ** 3, 10 ** 4]):
    out = []
    f = _even_indicator()
    cut = cut_correlation(f, f, 10, 10)
    rep = short_average(cut, 10, lgrid)
    out.append(_ok("tail-free-exact", rep.residual == 0,
                   f"lhs={rep.lhs}, rhs={rep.rhs}"))
    # generic: residual equals the summed weak-reef residuals on the same grid
    f2 = ArithmeticFunction.table([0, 1], after="zero")
    g2 = ArithmeticFunction.from_tds(TruncatedDivisorSum(3, [0, 0, 1]))
    cut2 = cut_correlation(f2, g2, 4, 16)
    rep2 = short_average(cut2, 4, lgrid)
    summed = sum(weak_reef_check(cut2, a, lgrid).rows[-1][2] for a in range(1, 5))
    out.append(_ok("residual-matches-pointwise", rep2.residual == summed,
                   f"avg residual {rep2.residual}, summed {summed}"))
    return out, {}


# ---------------------------------------------------------------------------
# concordance experiments
# ---------------------------------------------------------------------------

@experiment("concordance-thm8", criterion=(7, "coefficient_concordance"))
def _thm8(cfg, cut=10 ** 4, grid=[10 ** 6 // 4, 10 ** 6 // 2, 10 ** 6],
          log_grid=[10 ** 3, 10 ** 4, 10 ** 5]):
    # the log part allocates and loops over log_grid[-1] floats: cap it too
    cfg.check_caps(x=max(grid + log_grid), d=cut)
    out = []
    t = Table(["function", "q", "carmichael", "wintner_partial", "gap"])
    f = _inverse_square_tds(cut)
    sd = condition_check("SD", f.tds.fprime, cut)
    out.append(_at_cut("slow-decay-inverse-square", sd.verdict))
    worst = 0.0
    past_tail = []
    for q in range(1, 11):
        est = carmichael_estimate(f, q, grid)
        # |fprime(d)| = d^-2 bounds the Wintner tail past the cut
        win, tail = wintner_coefficient(f.tds.fprime, q, cut, decay_hint=(1.0, 2.0))
        gap = abs(est.final - float(win))
        worst = max(worst, gap)
        if not gap < 1e-3 + tail:
            past_tail.append(q)
        t.add("inverse-square", q, est.final, float(win), gap)
    out.append(_ok("concordance-inverse-square", worst < 1e-3, f"worst {worst:.3g}"))
    out.append(_ok("concordance-within-tail-bound", not past_tail,
                   f"q past 1e-3 + tail: {past_tail}"))
    # slow decay without summability: fprime(d) = 1/log(d+1)
    xmax = log_grid[-1]
    fp = 1.0 / np.log(np.arange(2, xmax + 2, dtype=np.float64))
    sd2 = condition_check("SD", list(fp[:cut]), cut)
    wa2 = condition_check("WA", list(fp[:cut]), cut)
    out.append(_at_cut("slow-decay-log", sd2.verdict))
    out.append(_at_cut("summability-log", wa2.verdict,
                       "expected violated: partials keep growing"))
    vals = np.zeros(xmax)
    for d in range(1, xmax + 1):       # F = fprime * 1, float scatter
        vals[d - 1:: d] += fp[d - 1]
    f_tab = ArithmeticFunction.table(vals, after="zero")
    gaps = []
    for x, win in zip(log_grid, wintner_partials(fp, 2, log_grid)):
        est = carmichael_estimate(f_tab, 2, [max(2, x // 2), x])
        gaps.append(abs(est.final - win))
        t.add("inv-log", 2, est.final, win, gaps[-1])
    out.append(_ok("concordance-log-trend", gaps[-1] < gaps[0],
                   f"gaps {['%.3g' % g for g in gaps]}"))
    return out, {"concordance": t}


@experiment("concordance-thm9")
def _thm9(cfg, x=10 ** 6, cut=10 ** 5):
    cfg.check_caps(x=x, d=cut)
    f = ArithmeticFunction.builtin("indicator-squares")
    out = []
    di = condition_check("DI", f, cut)
    out.append(_at_cut("bounded-average", di.verdict))
    worst = 0.0
    t = Table(["q", "carmichael", "wintner_partial"])
    # the transform of the square indicator is the Liouville function; its
    # Wintner partials vanish only PNT-slowly, so report them in float
    lam = ArithmeticFunction.builtin("lambda").eval_range(cut).astype(np.float64)
    wins = [wintner_coefficient(lam, q, cut)[0] for q in range(1, 6)]
    for q, win in enumerate(wins, start=1):
        est = carmichael_estimate(f, q, [x // 100, x // 10, x])
        t.add(q, est.final, win)
        worst = max(worst, abs(est.final))
    out.append(_ok("carmichael-vanishes", worst < 1e-2, f"max |est| {worst:.3g}"))
    out.append(_ok("wintner-partial-small", abs(wins[0]) < 0.3,
                   f"partial at {cut}: {wins[0]:.4g} (slow vanishing)"))
    return out, {"values": t}
