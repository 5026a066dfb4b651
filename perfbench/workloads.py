"""The benchmark's workloads: seeded op lists built from the acceptance criteria.

An op is one check instance.  `call` makes the library calls and is the only
part timed; `check` runs afterwards, evaluates any oracle the benchmark owns,
and returns (payload, ok): the exact outputs that go into the op's digest and
whether the criterion's own check or bound held.

Every call looks its library function up at call time (`tr.carmichael_estimate`
rather than a name bound at import), so a traced run sees the calls through
the wrappers it installs.  Sizes are set so that one cold pass over a
workload's op list takes a few seconds on a 2-core x86 machine; README.md
gives the scale of each criterion against its acceptance scale.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from rlab import expansions as ex
from rlab import finite as fi
from rlab import ramanujan as ra
from rlab import shift as sh
from rlab import transforms as tr
from rlab.arith import ArithmeticFunction as AF
from rlab.finite import TruncatedDivisorSum as TDS

@dataclass
class Op:
    id: str
    call: Callable[[], object]
    check: Callable[[object], tuple]


def rand_rational(rng, allow_zero=True) -> Fraction:
    num = rng.randint(-9, 9)
    while not allow_zero and num == 0:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 8))


def rand_table(rng, length: int) -> list:
    return [rand_rational(rng) for _ in range(length)]


def rand_int_tds(rng, q: int) -> AF:
    vals = [rng.randint(-3, 3) for _ in range(q)]
    if not any(vals):
        vals[0] = 1
    return AF.from_tds(TDS(q, vals))


def spread(lo: int, hi: int, k: int) -> list:
    """k sizes spread evenly over [lo, hi].

    Sizes drive the cost of an op.  Fixing them, while every value stays
    random, keeps a workload's total work the same on every seed.
    """
    return [lo + (i * (hi - lo + 1)) // k for i in range(k)]


def exact_estimate(est) -> tuple:
    """Digest payload of a LimitEstimate: its exact per-x values and verdict."""
    return (est.exact, est.verdict)


def inverse_square(cut: int) -> AF:
    return AF.from_tds(TDS(cut, [Fraction(1, d * d) for d in range(1, cut + 1)]))


def even_indicator() -> AF:
    return AF.from_tds(TDS(2, [0, 1]))


def _passes(payload) -> tuple:
    return payload, True


# ---------------------------------------------------------------------------
# int-averages: integer-valued functions through the int64 kernel paths
# ---------------------------------------------------------------------------

C17_GRID = [10 ** 3, 2 * 10 ** 3, 10 ** 4, 2 * 10 ** 4]
C18_GRID = [10 ** 4, 10 ** 5, 10 ** 6]
C15_X = 10 ** 5
DK_GRID = [10 ** 3, 10 ** 4, 10 ** 5]
SQ_GRID = [10 ** 4, 10 ** 5, 10 ** 6]
REEF_GRID = [10 ** 3, 10 ** 4, 10 ** 5]


def _cw_check(rep) -> tuple:
    ratios = [r.ratio for r in rep.rows if r.ratio is not None]
    growing = (all(b > a for a, b in zip(ratios, ratios[1:]))
               and ratios[-1] > 2 * ratios[0])
    verdict = "growing" if growing else "bounded"
    return ([r.x for r in rep.rows], verdict), not growing


def int_averages(rng) -> list:
    ops = []
    for name in ("one", "d_2", "id"):
        f = AF.builtin(name)
        for q in range(1, 6):
            ops.append(Op(f"c17/{name}/q{q}",
                          lambda f=f, q=q: tr.cw_formula_check(f, q, C17_GRID),
                          _cw_check))

    squares = AF.builtin("indicator-squares")
    ops.append(Op("c18", lambda: tr.nonneg_carmichael_bound(squares, C18_GRID, qmax=10),
                  lambda rep: ((rep.rows, rep.ok), rep.ok)))

    # c15: shift-coefficient formula against the average over shifts
    grid = [C15_X // 4, C15_X // 2, C15_X]
    instances = [(even_indicator(), even_indicator(), 10)]
    for q, n_len in zip(spread(2, 8, 2), spread(8, 16, 2)):
        instances.append((rand_int_tds(rng, q), rand_int_tds(rng, q), n_len))
    cuts = {}
    for i, (f, g, n_len) in enumerate(instances):
        def build(i=i, f=f, g=g, n_len=n_len):
            cuts[i] = sh.cut_correlation(f, g, n_len, n_len)
            return cuts[i]
        ops.append(Op(f"c15/i{i}/cut", build,
                      lambda cut: _passes((cut.base.values, cut.remainder))))
        for l in (1, 2, 3):
            def check(est, n_len=n_len):
                return exact_estimate(est), abs(est.final - est.target) < 1e-2 * n_len
            ops.append(Op(f"c15/i{i}/l{l}",
                          lambda i=i, l=l: sh.carmichael_vs_cc(cuts[i], l, grid),
                          check))

    for n in range(1, 11):
        def check(parts):
            lo, hi = parts
            return "grows" if hi - lo > 0.3 else "flat", hi - lo > 0.3
        ops.append(Op(f"c04/n{n}",
                      lambda n=n: ra.abs_csum_over_q_partial(n, [10 ** 3, 10 ** 5]),
                      check))

    d2 = AF.builtin("d_2")
    for q in (1, 2):
        ops.append(Op(f"carmichael/d_2/q{q}",
                      lambda q=q: tr.carmichael_estimate(d2, q, DK_GRID),
                      lambda est: _passes(exact_estimate(est))))
    for q in range(1, 6):
        ops.append(Op(f"carmichael/squares/q{q}",
                      lambda q=q: tr.carmichael_estimate(squares, q, SQ_GRID),
                      lambda est: _passes(exact_estimate(est))))

    ops.append(Op("correlate/d_2", lambda: sh.correlate(d2, d2, 4096, 4096).values,
                  _passes))

    def reef():
        g = AF.from_tds(TDS(3, [0, 0, 1]))
        return sh.weak_reef_check(sh.cut_correlation(even_indicator(), g, 4, 64),
                                  7, REEF_GRID)

    def reef_check(rep):
        res = rep.residuals
        shrinking = rep.exact_reef or res[-1] <= res[0]
        return (rep.lhs, rep.rows, rep.tail, rep.tail_free, rep.exact_reef), shrinking
    ops.append(Op("weak-reef", reef, reef_check))
    return ops


# ---------------------------------------------------------------------------
# exact-rational: rational inputs through the Fraction paths
# ---------------------------------------------------------------------------

C14_PAIRS = 4
C14_AMAX = 128
C07_CUT = 2000
C07_X = 200000
C06_CUT = 2500
C09_TRIALS = 250
C09_POINTS = 8


def exact_rational(rng) -> list:
    ops = []

    # c14: exact shift split identity at every shift a <= C14_AMAX
    cuts = {}
    sizes = zip(spread(8, 64, C14_PAIRS), spread(1, 16, C14_PAIRS),
                reversed(spread(1, 16, C14_PAIRS)))
    for i, (n_len, qf, qg) in enumerate(sizes):
        f = AF.from_tds(TDS(qf, rand_table(rng, qf)))
        g = AF.from_tds(TDS(qg, rand_table(rng, qg)))

        def build(i=i, f=f, g=g, n_len=n_len):
            cuts[i] = sh.cut_correlation(f, g, n_len, C14_AMAX)
            return cuts[i]
        ops.append(Op(f"c14/i{i}/cut", build,
                      lambda cut: _passes((cut.base.values, cut.remainder))))
        for a in range(1, C14_AMAX + 1):
            ops.append(Op(f"c14/i{i}/a{a}",
                          lambda i=i, a=a: sh.shift_expansion_check(cuts[i], a),
                          lambda r: ((r[0], r[1]), r[2])))

    # c07: average against series coefficient for the inverse-square t.d.s.
    inv7 = inverse_square(C07_CUT)
    for q in range(1, 11):
        def concord(q=q):
            est = tr.carmichael_estimate(inv7, q, [C07_X // 4, C07_X // 2, C07_X])
            win, tail = tr.wintner_coefficient(inv7.tds.fprime, q, C07_CUT,
                                               decay_hint=(1.0, 2.0))
            return est, win, tail

        def check(out):
            est, win, tail = out
            gap = abs(est.final - float(win))
            return (exact_estimate(est), win), gap < 1e-3 + tail
        ops.append(Op(f"c07/q{q}", concord, check))

    # c06: pointwise Wintner-Delange reconstruction
    inv6 = inverse_square(C06_CUT)
    table = {}

    def build_table():
        table[0] = ex.wintner_delange_table(inv6, C06_CUT)
        return table[0]
    ops.append(Op("c06/table", build_table, _passes))
    for n in range(1, 51):
        ops.append(Op(f"c06/n{n}",
                      lambda n=n: ex.wintner_delange_reconstruct(inv6, n, C06_CUT,
                                                                 table=table[0]),
                      lambda r: ((r.value, r.gap), r.abs_gap < 1e-6)))

    # c09 library half: tds <-> fre duality and evaluation on both sides
    for i, q in enumerate(spread(1, 64, C09_TRIALS)):
        t = TDS(q, rand_table(rng, q))
        points = sorted(rng.sample(range(1, 513), C09_POINTS))

        def duality(t=t, points=points):
            e = fi.tds_to_fre(t)
            back = fi.fre_to_tds(e)
            return e, back, [(t.eval(n), e.eval(n)) for n in points]

        def check(out, t=t, points=points):
            e, back, vals = out
            oracle = [sum((t.fprime[d - 1] for d in range(1, min(n, t.range) + 1)
                           if n % d == 0), Fraction(0)) for n in points]
            ok = back == t and all(a == b == o for (a, b), o in zip(vals, oracle))
            return (e.fhat, back.fprime, vals), ok
        ops.append(Op(f"c09/i{i}", duality, check))

    for i, support in enumerate(spread(1, 64, 60)):
        fhat = rand_table(rng, support)
        ops.append(Op(f"c11/i{i}", lambda fhat=fhat: ex.invert_pure_coefficients(fhat),
                      lambda r: ((r.fprime, r.win_check), r.win_check)))

    for i, support in enumerate(spread(1, 128, 60)):
        fhat = rand_table(rng, support)
        a, cut = rng.randint(1, 64), rng.randint(1, support)
        ops.append(Op(f"c12/i{i}",
                      lambda fhat=fhat, a=a, cut=cut: ex.lucht_evaluate(fhat, a, cut),
                      lambda r: (r, r[0] == r[1])))
    return ops


# ---------------------------------------------------------------------------
# small-calls: thousands of small exact calls that repeat work
# ---------------------------------------------------------------------------

C01_MAX = 512
C05_X = 10 ** 6
C08_TABLES = 30


def small_calls(rng) -> list:
    ops = []

    # c01: dense table, closed form and cosine sum agree for q, n <= 512
    tables = {}

    def build():
        tables[0] = ra.RamanujanSumTable.build(C01_MAX, C01_MAX)
        return tables[0].values
    ops.append(Op("c01/table", build, _passes))
    for q in range(1, C01_MAX + 1):
        def rows(q=q):
            closed = [ra.csum(q, n) for n in range(C01_MAX + 1)]
            return closed, ra.csum_trig_row(q, C01_MAX)

        def check(out, q=q):
            closed, trig = out
            row = tables[0].values[q, : C01_MAX + 1]
            ok = closed == row.tolist() and float(np.max(np.abs(trig - row))) < 1e-6
            return closed, ok
        ops.append(Op(f"c01/q{q}", rows, check))

    # c05: orthogonality of Ramanujan sums at x = 1e6
    grid = [C05_X // 4, C05_X // 2, C05_X]
    for q in range(1, 21):
        for l in range(1, 21):
            for n in range(1, 11):
                ops.append(Op(f"c05/q{q}/l{l}/n{n}",
                              lambda q=q, l=l, n=n: ra.orthogonality_estimate(q, l, n, grid),
                              lambda est: ((est.verdict, int(est.target)),
                                           abs(est.final - est.target) < 1e-2)))

    # c08: point-adapted finite expansion on random length-200 tables
    for i in range(C08_TABLES):
        f = AF.table(rand_table(rng, 200), after="zero")
        points = sorted({rng.randint(1, 200) for _ in range(12)} | {1, 200})
        for n in points:
            ops.append(Op(f"c08/t{i}/n{n}",
                          lambda f=f, n=n: ex.standard_finite_expansion(f, n),
                          lambda s, f=f, n=n: ((s.coefficients, s.reconstruction),
                                               s.reconstruction == Fraction(f(n)))))

    for i in range(40):
        q = rng.randint(2, 128)
        f = AF.table(rand_table(rng, q), after="zero")
        ops.append(Op(f"c10/i{i}", lambda f=f, q=q: fi.high_coefficient_check(f, q),
                      lambda r: ((r.checked, r.violations), r.ok)))

    # c13: K-divisor coefficients, closed forms against float references
    for n in range(2, 101):
        def check(c, n=n):
            want = -math.log(n) / n
            return c.rational, abs(c.value - want) / abs(want) < 1e-12
        ops.append(Op(f"c13/k1/n{n}", lambda n=n: ex.divisor_power_coefficient(n, 1),
                      check))
    for k in range(1, 5):
        for p in (2, 3, 5, 7, 11, 13):
            for l in range(1, 5):
                def check(closed, p=p, l=l, k=k):
                    partial = sum(math.comb(k + lam - 1, k - 1) * float(p) ** (l - lam)
                                  for lam in range(l, l + 1000))
                    return closed, abs(float(closed) - partial) / partial < 1e-10
                ops.append(Op(f"c13/k{k}/p{p}/l{l}",
                              lambda p=p, l=l, k=k: ex.dk_local_series(p, l, k),
                              check))

    # c19: vanishing-tail search (trials seeded from the workload seed)
    tail_seed = rng.randrange(2 ** 32)
    for q_cut in range(2, 9):
        ops.append(Op(f"c19/free/q{q_cut}",
                      lambda q_cut=q_cut: tr.vanishing_tail_search("free", q_cut, 32),
                      lambda r: ((r.nullspace_dim, r.candidates, r.verdict),
                                 r.nullspace_dim == 0 and not r.candidates)))
    for family in ("completely-multiplicative", "nonnegative"):
        ops.append(Op(f"c19/{family}",
                      lambda family=family: tr.vanishing_tail_search(
                          family, 2, 32, trials=40, seed=tail_seed),
                      lambda r: ((r.faults, r.verdict), not r.faults)))
    return ops


WORKLOADS = {
    "int-averages": int_averages,
    "exact-rational": exact_rational,
    "small-calls": small_calls,
}


def build(workload: str, seed: int) -> list:
    """The workload's op list; the same seed always gives the same inputs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
