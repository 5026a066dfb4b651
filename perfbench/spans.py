"""Span tracing from outside the library, for the benchmark's traced runs.

`Tracer.install` wraps each public function named in `LAYERS` and rebinds the
wrapper under every name that held the original in any loaded `rlab` module,
so calls from one module into another are seen too.  Methods are wrapped on
their class.  Each span records its name, start, end and parent span in flat
arrays kept in memory; `Tracer.layer_metrics` derives self time (duration
minus the time covered by child spans) and the per-layer metrics from them,
and `Tracer.save` writes the spans out once the run has ended.

Count metrics (calls, elements, terms, bits, hit ratios) depend only on the
inputs, so they repeat exactly from one traced run to the next.
"""

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# layer (= rlab module) -> wrapped public functions; "Class.method" wraps a method
LAYERS = {
    "kernels": ["mobius_transform_int", "divisor_scatter_int", "weighted_periodic_int",
                "correlate_int", "csum_row", "csum_block", "prime_sieve",
                "mobius_sieve", "totient_sieve", "omega_sieve", "liouville_sieve"],
    "rational": ["exact_sum"],
    "shift": ["correlate", "cut_correlation", "qrc", "shift_expansion_check",
              "carmichael_vs_cc", "l_estimate", "weak_reef_check",
              "Correlation.transform"],
    "finite": ["tds_to_fre", "fre_to_tds", "TruncatedDivisorSum.eval"],
    "expansions": ["wintner_delange_reconstruct", "standard_finite_expansion",
                   "lucht_evaluate", "invert_pure_coefficients"],
    "transforms": ["eratosthenes", "wintner_scaled_table", "wintner_coefficient",
                   "carmichael_estimate", "cw_formula_check"],
    "arith": ["factor", "ArithmeticFunction.eval_range"],
    "ramanujan": ["csum", "cross_sum", "csum_trig_row", "csum_period"],
}

# metric names that differ from the wrapped attribute
ALIASES = {"finite.TruncatedDivisorSum.eval": "finite.tds_eval",
           "arith.ArithmeticFunction.eval_range": "arith.eval_range"}

SIEVES = ["prime_sieve", "mobius_sieve", "totient_sieve", "omega_sieve",
          "liouville_sieve"]

INT_KERNELS = ["mobius_transform_int", "divisor_scatter_int", "weighted_periodic_int",
               "correlate_int"]


def _kernel_work(attr, args):
    """(elements, bytes) of one kernel call, computed from its array sizes:
    the arrays the kernel reads plus the array it writes, 8 bytes per int64."""
    if attr == "mobius_transform_int":       # c, mu (same length), output
        return args[0].shape[0], 3 * args[0].nbytes
    if attr == "divisor_scatter_int":        # w, output
        return args[0].shape[0], 2 * args[0].nbytes
    if attr == "weighted_periodic_int":      # w[:x], tab
        w, tab, x = args[:3]
        return int(x), 8 * int(x) + tab.nbytes
    if attr == "correlate_int":              # f, g, output of length amax
        f, g, amax = args[:3]
        return f.shape[0] * int(amax), f.nbytes + g.nbytes + 8 * int(amax)
    if attr == "csum_row":                   # output of length qmax + 1
        return None, 8 * (int(args[1]) + 1)
    if attr == "csum_block":                 # (qmax + 1) x (nmax + 1) output
        return None, 8 * (int(args[0]) + 1) * (int(args[1]) + 1)
    return None, None


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self.den_bits_max = 0
        self.caches = {}          # metric name -> lru_cache object, for cache_info()
        self.missing = []         # listed names the library no longer has

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span named `name`; after(args, kwargs) runs inside it."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs)
                return result
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
        return traced

    def _exact_sum(self, fn):
        counts = self.counts

        def counted(terms):
            terms = list(terms)
            result = fn(terms)
            counts["rational.exact_sum.terms"] += len(terms)
            self.den_bits_max = max(self.den_bits_max, result.denominator.bit_length())
            return result
        return counted

    def _kernel_after(self, attr, orig):
        counts = self.counts
        signature = inspect.signature(orig)

        def after(args, kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            elems, nbytes = _kernel_work(attr, list(bound.values()))
            if elems is not None:
                counts[f"kernels.{attr}.elems"] += elems
            if nbytes is not None:
                counts["kernels.bytes_computed"] += nbytes
        return after

    def install(self):
        """Wrap every listed function; rlab must already be imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rlab" or n.startswith("rlab."))]
        for layer, attrs in LAYERS.items():
            module = importlib.import_module(f"rlab.{layer}")
            for attr in attrs:
                name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                owner, _, meth = attr.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                orig = getattr(holder, meth, None) if holder is not None else None
                if orig is None:
                    self.missing.append(name)
                    continue
                if hasattr(orig, "cache_info"):
                    self.caches[name] = orig
                fn, after = orig, None
                if name == "rational.exact_sum":
                    fn = self._exact_sum(orig)
                elif layer == "kernels":
                    after = self._kernel_after(attr, orig)
                wrapped = self.wrap(name, fn, after)
                if owner:
                    setattr(holder, meth, wrapped)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)

    def _self_times(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        inner = parent >= 0
        covered = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        own = dur - covered
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        n = len(self.names)
        return np.bincount(ids, minlength=n), np.bincount(ids, weights=own, minlength=n)

    def layer_metrics(self) -> dict:
        """Per-function and per-layer metrics of everything traced so far."""
        calls, own = self._self_times()
        by_name = {name: (int(calls[i]), float(own[i])) for i, name in enumerate(self.names)}

        def fn(name):
            return by_name.get(name, (0, 0.0))

        out = {}
        for layer, attrs in LAYERS.items():
            total = 0.0
            for attr in attrs:
                name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                total += fn(name)[1]
                if attr in SIEVES:
                    continue
                out[f"{name}.calls"], out[f"{name}.self_s"] = fn(name)
            out[f"{layer}.self_s"] = total
        for attr in INT_KERNELS:
            elems = self.counts[f"kernels.{attr}.elems"]
            out[f"kernels.{attr}.elems"] = elems
            busy = out[f"kernels.{attr}.self_s"]
            out[f"kernels.{attr}.elems_per_s"] = elems / busy if busy > 0 else 0.0
        out["kernels.bytes_computed"] = self.counts["kernels.bytes_computed"]
        out["kernels.sieve.calls"] = sum(fn(f"kernels.{s}")[0] for s in SIEVES)
        out["kernels.sieve.self_s"] = sum(fn(f"kernels.{s}")[1] for s in SIEVES)
        out["kernels.sieve.hit_ratio"] = self._hit_ratio([f"kernels.{s}" for s in SIEVES])
        out["ramanujan.csum_period.hit_ratio"] = self._hit_ratio(["ramanujan.csum_period"])
        out["rational.exact_sum.terms"] = self.counts["rational.exact_sum.terms"]
        out["rational.exact_sum.den_bits_max"] = self.den_bits_max
        return out

    def _hit_ratio(self, names) -> float:
        hits = misses = 0
        for name in names:
            if name in self.caches:
                info = self.caches[name].cache_info()
                hits += info.hits
                misses += info.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
