"""Acceptance suite: every exit criterion at its stated scale and tolerance.

Criteria 01-19 are registry experiments run at their default params; each
declares its number and label on its `@experiment`, and `criteria()` reads
them back, so `rlab experiment run --name <name>` is the same check as the
criterion.  Each test prints one pass/fail line plus the record's outcome
lines (run with -s to watch them stream).
"""

from rlab.experiments import ExperimentConfig, criteria, run_experiment

SEED = 20170919


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {tag} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def _criterion(num, name):
    def test():
        rec = run_experiment(ExperimentConfig(name, seed=SEED))
        lines = [f"{o['check']}: {o['status']}"
                 + (f" ({o['detail']})" if o["detail"] else "")
                 for o in rec.outcomes]
        report(num, name, rec.passed, "; ".join(lines))
    return test


for _num, (_label, _name) in criteria().items():
    _test = _criterion(_num, _name)
    _test.__name__ = f"test_c{_num:02d}_{_label}"
    globals()[_test.__name__] = _test


def test_c20_determinism():
    ok = True
    for name, params in (("standard-fre", {"trials": 25}),
                         ("prop2-roundtrip", {"trials": 50}),
                         ("identity12", {"trials": 3}),
                         ("conjecture1", {"q_hi": 4, "trials": 10}),
                         ("prop1-divergence", {"nmax": 4})):
        a = run_experiment(ExperimentConfig(name=name, seed=SEED, params=params))
        b = run_experiment(ExperimentConfig(name=name, seed=SEED, params=params))
        if a.outcomes != b.outcomes or a.config_hash != b.config_hash:
            ok = False
    report(20, "fixed-seed reruns reproduce identical outcomes", ok)
