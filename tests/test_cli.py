"""Command-line surface: invocation shapes, file formats, exit codes.

`COMMANDS` is the home of argv -> exit-code checks: one command line, its
exit code and at most one expected piece of its output.  A new such check is
a row there, not a test of its own.
"""

import csv
import json
import re

import numpy as np
import pytest

from rlab import kernels
from rlab.cli import build_parser, main
from rlab.expansions import ZeroCloudElement, evaluate_partial

# the files the commands below read, written once into the directory they run in
INPUTS = {
    "rational-table": {"kind": "table", "values": ["3/2", 1, "-2/7", 0]},
    "int-table": {"kind": "table", "values": [1, 0, 2, -1], "after": "zero"},
    "tds": {"kind": "tds", "range": 4,
            "fprime": {"kind": "table", "values": [1, 0, "1/3", 2]}},
    "fprime": {"range": 3, "fprime": ["1/2", 0, "-2/3"]},
    "fhat": {"range": 3, "fhat": ["5/18", "0", "-2/9"]},
    "vonmangoldt": {"kind": "builtin", "name": "vonMangoldt"},
    "d2": {"kind": "builtin", "name": "d_2"},
    "lemma2-q20": {"name": "lemma2", "params": {"qmax": 20}},
    "no-range": {"fprime": ["1"], "fhat": ["1"]},
    "no-support": {"entries": {"1": "1"}},
    "no-values": {"kind": "table"},
    "list": [{"kind": "builtin", "name": "one"}],
    "int-values": {"kind": "table", "values": 5},
    "int-fprime": {"range": 2, "fprime": 5},
    "int-fhat": {"range": 2, "fhat": 5},
    "list-entries": {"support": 2, "entries": ["1"]},
    "half-range": {"range": 2.5, "fprime": ["1", "2"]},
    "list-range": {"range": [2], "fprime": ["1"]},
    "bool-range": {"range": True, "fprime": ["1"]},
    "float-range": {"range": 2.0, "fprime": ["1", "2"]},
    "half-support": {"support": 1.5, "entries": {"1": "1"}},
    "half-key": {"support": 2, "entries": {"1.5": "1"}},
    "one": {"kind": "builtin", "name": "one"},
    "half-table": {"kind": "table", "values": ["1/2", 2, 3]},
    "seq": {"support": 2, "entries": {"1": "3/2", "2": "1/2"}},
    "even-tds": {"kind": "tds", "range": 2,
                 "fprime": {"kind": "table", "values": [0, 1], "after": "zero"}},
    "lucht-trials-5": {"name": "lucht-identity", "params": {"trials": 5}, "seed": 11},
    "lucht-top-level-tol": {"name": "lucht-identity", "tol": 1e-9, "params": {"trials": 2}},
    "reef-lgrid": {"name": "reef", "params": {"lgrid": [100, 1000]}},
    "reef-lgrid-0": {"name": "reef", "params": {"lgrid": [0]}},
    "lemma1-parms": {"name": "lemma1-grid", "parms": {"qmax": 3}},
}

# (argv, exit code, want): want, if given, is a substring of stdout, or of
# stderr for a usage error (exit 2); "\n...\n" matches a whole line
COMMANDS = [
    ("csum", 2, "csum needs --q and --n"),
    # 2^61 - 1, which factor proves prime by its one early test
    ("csum --q 2305843009213693951 --n 1", 0, "\n-1\n"),
    ("--out tr transform --f rational-table.json --bound 6", 0, None),
    ("--out tr transform --f tds.json --bound 6", 0, None),
    # the cosine row's value, not numpy's pairwise -1.0
    ("csum --form trig --q 7 --n 2", 0, "\n-1.0000000000000002\n"),
    # the whole printed block: coefficients as CSV rows, then the reconstruction
    ("expand sfre --f rational-table.json --n 3", 0,
     "\nl,coefficient\r\n1,55/84\r\n2,-1/4\r\n3,-25/42\r\nreconstruction = -2/7\n"),
    ("expand sfre --f rational-table.json --n 7", 0,
     "\nl,coefficient\r\n1,3/140\r\n2,-31/84\r\n3,-13/28\r\n4,-1/4\r\n5,-3/10\r\n"
     "6,11/84\r\n7,-3/14\r\nreconstruction = 0\n"),
    # the row c_q(12) is Hoelder's formula at cut 8 and the divisor scatter at 600
    ("expand wd --f tds.json --n 12 --cut 8", 0, "\ngap = 0\n"),
    ("expand wd --f tds.json --n 12 --cut 600", 0, "\ngap = 0\n"),
    ("expand eval --coeffs builtin:zero-ram --n 6 --cut 100000", 0, None),
    ("expand eval --coeffs seq.json --n 2 --cut 2", 0, "\n2\n"),
    ("fre to-fre --tds fprime.json", 0, '\n{"range": 3, "fhat": ["5/18", "0", "-2/9"]}\n'),
    ("fre to-tds --fre fhat.json", 0, '\n{"range": 3, "fprime": ["1/2", "0", "-2/3"]}\n'),
    ("fre low --f tds.json --Q 4 --Q0 2 --decay 1,2", 0, None),
    ("fre high --f d2.json --Q 10", 0, "violations: 0"),
    ("check --cond WA --f int-table.json --cut 100", 0, None),
    # the float prefix-sum route; vonMangoldt has no polynomial decay to hint
    ("wintner --fprime vonmangoldt.json --q 2 --cut 1000", 0, None),
    # a non-increasing grid is bad input: usage error, not a failed check
    ("carmichael --f one.json --q 1 --grid 1e3,1e2", 2, None),
    ("carmichael --f one.json --q 1 --grid 2.5,1000", 2, "2.5"),
    ("conjecture1 --family free --Q 2 --D 8", 0, "no-counterexample"),
    ("conjecture1 --family free --Q 2 --D 32", 0, None),
    *[(f"shift {cmd} --f {f} --g {f} --N 8 {opts}", 0, None)
      for f in ("int-table.json", "tds.json")
      for cmd, opts in (("cc", "--lmax 10"), ("reef", "--a 6 --lgrid 100,1000"),
                        ("avg", "--A 8 --lgrid 100,1000"))],
    ("shift reef --f even-tds.json --g even-tds.json --N 10 --amax 12 --a 6 "
     "--lgrid 100,1000", 0, "exact = True"),
    ("--seed 20170919 experiment run --name lemma1-grid", 0, None),
    # coefficients past Python's 4300-digit int-to-str limit, written to CSV
    ("--out out experiment run --name property-L", 0,
     "\n  artifact: out/property-L-low.csv\n"),
    ("experiment run --name standard-fre", 0, None),
    ("--out wd experiment run --name prop2-roundtrip", 0, None),
    # moduli 1..10 share one fold of the weights; to 20 each takes its own
    ("experiment run --name lemma2", 0, None),
    ("experiment run --config lemma2-q20.json", 0, None),
    ("experiment run --name cc", 0, None),
    ("experiment run --name weak-reef", 0, None),
    ("experiment run --name identity12", 0, None),
    ("experiment run --config lucht-trials-5.json", 0, None),
    ("experiment run --config reef-lgrid.json", 0, "\n  params: lgrid=[100,1000]\n"),
    ("experiment run --name short-average", 0, None),
    ("experiment run --name nope", 2, "nope"),
    ("--cap-x 100 experiment run --name orthogonality", 2, "exceeds cap"),
    ("experiment run --config lucht-top-level-tol.json", 2, "params.tol"),
    ("experiment run --config reef-lgrid-0.json", 2, ">= 1"),
    ("experiment run --config lemma1-parms.json", 2, "'parms'"),
    # a malformed or unreadable input file
    ("fre to-tds --fre no-range.json", 2, "'range'"),
    ("fre to-fre --tds no-range.json", 2, "'range'"),
    ("expand eval --coeffs no-support.json --n 1 --cut 2", 2, "'support'"),
    ("transform --f no-values.json --bound 6", 2, "'values'"),
    ("transform --f list.json --bound 6", 2, "expected a JSON object"),
    ("transform --f int-values.json --bound 6", 2, "'values'"),
    ("fre to-fre --tds int-fprime.json", 2, "'fprime'"),
    ("fre to-tds --fre int-fhat.json", 2, "'fhat'"),
    ("expand eval --coeffs list-entries.json --n 1 --cut 2", 2, "'entries'"),
    # a range or support is an int or an integral float, as a grid value is
    ("fre to-fre --tds half-range.json", 2, "'range' must be an integer, got 2.5"),
    ("fre to-fre --tds list-range.json", 2, "'range'"),
    ("fre to-fre --tds bool-range.json", 2, "'range' must be an integer, got True"),
    ("fre to-fre --tds float-range.json", 0, '\n{"range": 2, "fhat": ["2", "1"]}\n'),
    ("expand eval --coeffs half-support.json --n 1 --cut 2", 2, "'support'"),
    # a coefficient index that is not an integer names its key and file, or its option
    ("expand eval --coeffs half-key.json --n 1 --cut 2", 2,
     "half-key.json: entries key must be an integer, got '1.5'"),
    ("expand eval --coeffs dK:x --n 1 --cut 2", 2, "--coeffs dK:x: K must be an integer"),
    # a class multiplicity of the cosine row could reach 2**26 past this q
    ("csum --form trig --q 67108865 --n 1", 2, "q <= 2**26"),
    ("transform --f . --bound 6", 2, "Is a directory"),
    # a negative bound would read a table from its end
    ("transform --f half-table.json --bound -2", 2, "bound >= 0 required, got -2"),
    ("transform --f d2.json --bound -1", 2, "bound >= 0 required, got -1"),
]


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    for name, spec in INPUTS.items():
        (path / f"{name}.json").write_text(json.dumps(spec))
    return path


@pytest.mark.parametrize("argv, code, want", COMMANDS,
                         ids=[argv.replace(" ", "_") for argv, _, _ in COMMANDS])
def test_command(inputs_dir, monkeypatch, capsys, argv, code, want):
    monkeypatch.chdir(inputs_dir)
    assert main(argv.split()) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert err.startswith("error:")
    if want is not None:
        assert want in "\n" + (err if code == 2 else out)


@pytest.fixture
def fn_file(tmp_path):
    def write(spec, name="fn.json"):
        p = tmp_path / name
        p.write_text(json.dumps(spec))
        return str(p)
    return write


def test_csum_forms(capsys):
    assert main(["csum", "--q", "6", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "-2"
    assert main(["csum", "--q", "6", "--n", "3", "--form", "divisor"]) == 0
    assert capsys.readouterr().out.strip() == "-2"
    assert main(["csum", "--q", "1", "--n", "7", "--form", "trig"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0, abs=1e-9)


def test_csum_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["--out", str(out), "csum", "table", "--qmax", "6", "--nmax", "6"])
    assert code == 0
    capsys.readouterr()
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["q", "n", "c_q_n"]
    assert len(rows) == 1 + 6 * 7
    got = {(int(q), int(n)): int(c) for q, n, c in rows[1:]}
    assert got[(6, 3)] == -2 and got[(5, 0)] == 4


def test_csum_past_the_deterministic_prime_range(capsys):
    # psi_12 fools Miller-Rabin to the bases 2..37: mu(psi_12) = +1
    assert main(["csum", "--q", "318665857834031151167461", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    # 2^89 - 1 lies above psi_13, so its primality cannot be proven: usage error
    assert main(["csum", "--q", str(2 ** 89 - 1), "--n", "1"]) == 2
    assert str(2 ** 89 - 1) in capsys.readouterr().err


def test_transform_command(fn_file, capsys):
    path = fn_file({"kind": "builtin", "name": "id"})
    assert main(["transform", "--f", path, "--bound", "6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "d,fprime"
    assert out[1] == "1,1" and out[2] == "2,1" and out[5] == "5,4"


def test_wintner_command(fn_file, capsys):
    path = fn_file({"kind": "table", "values": [1, 0, 0, 0], "after": "zero"})
    assert main(["wintner", "--fprime", path, "--q", "1", "--cut", "4"]) == 0
    out = capsys.readouterr().out
    assert "partial = 1" in out
    assert "unknown" in out   # no decay hint given


def test_carmichael_command(fn_file, capsys):
    path = fn_file({"kind": "builtin", "name": "one"})
    assert main(["carmichael", "--f", path, "--q", "1",
                 "--grid", "1e2,1e3"]) == 0
    out = capsys.readouterr().out
    assert "1" in out and "verdict" in out


@pytest.mark.parametrize("grid", ["2.5,1000", "100,1e3,2500.5", "inf,1000", "1e2,x"])
def test_carmichael_non_integral_grid_is_usage_error(fn_file, capsys, grid):
    # a grid value is refused, not truncated (2.5 once ran as 2)
    path = fn_file({"kind": "builtin", "name": "one"})
    assert main(["carmichael", "--f", path, "--q", "1", "--grid", grid]) == 2
    assert "error:" in capsys.readouterr().err


def test_carmichael_integral_float_grid_values_pass(fn_file, capsys):
    path = fn_file({"kind": "builtin", "name": "one"})
    assert main(["carmichael", "--f", path, "--q", "1", "--grid", "1e2,1000,1.5e3"]) == 0
    assert [r.split(",")[0] for r in capsys.readouterr().out.splitlines()[1:4]] == \
        ["100", "1000", "1500"]


@pytest.mark.parametrize("cmd", [["wintner", "--fprime", "{f}", "--q", "2", "--cut", "10"],
                                 ["fre", "low", "--f", "{f}", "--Q", "4", "--Q0", "2"]])
@pytest.mark.parametrize("decay", ["2", "1,x", "1,2,3"])
def test_malformed_decay_is_usage_error_naming_it(fn_file, capsys, cmd, decay):
    path = fn_file({"kind": "builtin", "name": "one"})
    with pytest.raises(SystemExit) as exc:
        main([a.format(f=path) for a in cmd] + ["--decay", decay])
    assert exc.value.code == 2
    assert "--decay" in capsys.readouterr().err


def test_decay_hint_is_parsed_once(fn_file, capsys):
    path = fn_file({"kind": "builtin", "name": "one"})
    args = build_parser().parse_args(["wintner", "--fprime", path, "--q", "2",
                                      "--cut", "10", "--decay", "1,2"])
    assert args.decay == (1.0, 2.0)
    assert main(["wintner", "--fprime", path, "--q", "2", "--cut", "10",
                 "--decay", "1,2"]) == 0
    assert "unknown" not in capsys.readouterr().out


@pytest.mark.parametrize("cmd", [["wintner", "--fprime", "{f}", "--q", "2", "--cut", "100"],
                                 ["fre", "low", "--f", "{f}", "--Q", "20", "--Q0", "3"]])
@pytest.mark.parametrize("decay", ["1,0", "1,-1", "-1,2"])
def test_decay_hint_that_bounds_nothing_is_usage_error(fn_file, capsys, cmd, decay):
    # d_2's transform never decays; a hint with s <= 0 or C < 0 bounds no tail
    path = fn_file({"kind": "builtin", "name": "d_2"})
    assert main([a.format(f=path) for a in cmd] + [f"--decay={decay}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: decay hint") and captured.err.count("\n") == 1


def test_expand_wd_of_a_float_function_is_usage_error(fn_file, capsys):
    path = fn_file({"kind": "builtin", "name": "vonMangoldt"})
    assert main(["expand", "wd", "--f", path, "--n", "6", "--cut", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exact function" in err and err.count("\n") == 1


def test_csum_bad_modulus_is_usage_error(capsys):
    assert main(["csum", "--q", "0", "--n", "3"]) == 2
    assert "modulus" in capsys.readouterr().err


def test_csum_closed_and_divisor_forms_agree_on_a_composite_modulus(capsys):
    for n in ("5", "7", "360360", "-720720"):
        assert main(["csum", "--q", "720720", "--n", n]) == 0
        closed = capsys.readouterr().out
        assert main(["csum", "--q", "720720", "--n", n, "--form", "divisor"]) == 0
        assert capsys.readouterr().out == closed


def test_shift_avg_rejects_a_below_one(fn_file, capsys):
    f = fn_file({"kind": "table", "values": [1, 0, 2, -1], "after": "zero"})
    assert main(["shift", "avg", "--f", f, "--g", f, "--N", "8", "--A", "-5"]) == 2
    err = capsys.readouterr().err
    assert "A=-5" in err


def test_check_command(fn_file, capsys):
    # the transform of d_2 is the constant one, whose mean never decays
    path = fn_file({"kind": "builtin", "name": "d_2"})
    assert main(["check", "--cond", "SD", "--f", path, "--cut", "1000"]) == 0
    assert "violated-at-cut" in capsys.readouterr().out
    one = fn_file({"kind": "builtin", "name": "one"}, "one.json")
    assert main(["check", "--cond", "SD", "--f", one, "--cut", "1000"]) == 0
    assert "satisfied-at-cut" in capsys.readouterr().out


def test_check_dd7_reads_the_coefficient_table(fn_file, capsys):
    # DD7 sums 2^omega(q) |fhat(q)| over the table as given: 1 + 2 * 1/2;
    # a cut below one full decade has no trend to judge
    path = fn_file({"kind": "table", "values": [1, "1/2"]})
    assert main(["check", "--cond", "DD7", "--f", path, "--cut", "2"]) == 0
    assert capsys.readouterr().out == "cut 2: 2\nverdict = undetermined\n"


def test_fre_roundtrip_via_files(tmp_path, capsys):
    tds = tmp_path / "t.json"
    tds.write_text(json.dumps({"range": 2, "fprime": ["1", "1"]}))
    assert main(["fre", "to-fre", "--tds", str(tds)]) == 0
    fhat = json.loads(capsys.readouterr().out)
    assert fhat == {"range": 2, "fhat": ["3/2", "1/2"]}
    fre = tmp_path / "e.json"
    fre.write_text(json.dumps(fhat))
    assert main(["fre", "to-tds", "--fre", str(fre)]) == 0
    back = json.loads(capsys.readouterr().out)
    assert back == {"range": 2, "fprime": ["1", "1"]}


def test_expand_commands(fn_file, capsys):
    assert main(["expand", "eval", "--coeffs", "builtin:zero-ram",
                 "--n", "1", "--cut", "1000"]) == 0
    assert abs(float(capsys.readouterr().out)) < 0.1
    path = fn_file({"kind": "builtin", "name": "one"})
    assert main(["expand", "wd", "--f", path, "--n", "5", "--cut", "10"]) == 0
    out = capsys.readouterr().out
    assert "gap = 0" in out
    assert main(["expand", "sfre", "--f", path, "--n", "4"]) == 0
    assert "reconstruction = 1" in capsys.readouterr().out


@pytest.mark.parametrize("family, alpha, beta", [("zero-ram", 1, 0), ("zero-har", 0, 1)])
def test_expand_eval_zero_family_is_the_callable_route(family, alpha, beta, capsys):
    # the route the command took before: weights float(fhat(q)) of the
    # callable q -> alpha/q + beta/phi(q), one Fraction per q; the printed
    # value stays the same to the last bit
    cut = 10 ** 4
    fhat = ZeroCloudElement(alpha, beta).coefficient
    weights = np.array([float(fhat(q)) for q in range(1, cut + 1)])
    for n in range(1, 13):
        want = float(np.dot(kernels.csum_row(n, cut).astype(np.float64)[1:], weights))
        assert main(["expand", "eval", "--coeffs", f"builtin:{family}",
                     "--n", str(n), "--cut", str(cut)]) == 0
        assert capsys.readouterr().out == format(want, ".17g") + "\n"
        assert evaluate_partial(ZeroCloudElement(alpha, beta), n, cut) == want


def test_expand_sfre_bad_input_is_usage_error(fn_file, capsys):
    # a float-valued function has no exact expansion, and n < 1 has none at all
    path = fn_file({"kind": "builtin", "name": "vonMangoldt"})
    assert main(["expand", "sfre", "--f", path, "--n", "6"]) == 2
    assert "exact function" in capsys.readouterr().err
    path = fn_file({"kind": "builtin", "name": "one"})
    assert main(["expand", "sfre", "--f", path, "--n", "0"]) == 2
    captured = capsys.readouterr()
    assert "n >= 1" in captured.err and "reconstruction" not in captured.out


def test_transform_float_fprime_tds_is_usage_error(fn_file, capsys):
    path = fn_file({"kind": "tds", "range": 3,
                    "fprime": {"kind": "builtin", "name": "vonMangoldt"}})
    assert main(["transform", "--f", path, "--bound", "6"]) == 2
    assert "floats" in capsys.readouterr().err


def test_expand_eval_seq_file_key_outside_support_is_usage_error(tmp_path, capsys):
    # the file is refused when it loads, whatever the cut
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"support": 2, "entries": {"1": "1", "5": "2"}}))
    for cut in ("2", "5"):
        assert main(["expand", "eval", "--coeffs", str(seq), "--n", "1",
                     "--cut", cut]) == 2
        assert "q=5 outside 1..2" in capsys.readouterr().err
    seq.write_text(json.dumps({"support": 2, "entries": {"0": "1"}}))
    assert main(["expand", "eval", "--coeffs", str(seq), "--n", "1", "--cut", "2"]) == 2
    # keys left out inside the support are zero coefficients
    seq.write_text(json.dumps({"support": 3, "entries": {"2": "1/2"}}))
    assert main(["expand", "eval", "--coeffs", str(seq), "--n", "2", "--cut", "5"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_shift_commands(fn_file, capsys):
    f = fn_file({"kind": "builtin", "name": "one"}, "f.json")
    g = fn_file({"kind": "tds", "range": 2,
                 "fprime": {"kind": "table", "values": [0, 1], "after": "zero"}},
                "g.json")
    assert main(["shift", "corr", "--f", g, "--g", g, "--N", "10",
                 "--amax", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "a,C" and out[1] == "1,0" and out[2] == "2,5"
    assert main(["shift", "qrc", "--f", f, "--g", f, "--N", "6", "--amax", "8",
                 "--Q", "6"]) == 0
    capsys.readouterr()
    assert main(["shift", "check12", "--f", g, "--g", g, "--N", "10",
                 "--amax", "24", "--a", "20"]) == 0
    assert "equal = True" in capsys.readouterr().out
    assert main(["shift", "cc", "--f", g, "--g", g, "--N", "10",
                 "--amax", "10", "--lmax", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "2,5/2"
    for lmax in ("0", "-3"):
        assert main(["shift", "cc", "--f", g, "--g", g, "--N", "10",
                     "--amax", "10", "--lmax", lmax]) == 2
        assert f"lmax={lmax}" in capsys.readouterr().err
    assert main(["shift", "avg", "--f", g, "--g", g, "--N", "10",
                 "--amax", "10", "--A", "10", "--lgrid", "100,1000"]) == 0
    assert "residual = 0" in capsys.readouterr().out


def test_shift_reads_past_the_cached_depth(fn_file, capsys):
    # --a and --A past --amax deepen the shift cache instead of failing
    f = fn_file({"kind": "table", "values": [0, 1], "after": "zero"}, "f.json")
    g = fn_file({"kind": "tds", "range": 3,
                 "fprime": {"kind": "table", "values": [0, 0, 1], "after": "zero"}},
                "g.json")
    even = fn_file({"kind": "tds", "range": 2,
                    "fprime": {"kind": "table", "values": [0, 1], "after": "zero"}},
                   "even.json")
    assert main(["shift", "reef", "--f", f, "--g", g, "--N", "4", "--a", "100",
                 "--lgrid", "100,1000"]) == 0
    assert capsys.readouterr().out.startswith("lhs = 1;")
    assert main(["shift", "avg", "--f", even, "--g", even, "--N", "10",
                 "--amax", "4", "--A", "8", "--lgrid", "100,1000"]) == 0
    assert "residual = 0" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_table_follows_format(fn_file, tmp_path, capsys, fmt):
    # stdout carries the bytes --out writes, JSON with a closing newline
    mu = fn_file({"kind": "builtin", "name": "mu"})
    assert main(["--format", fmt, "transform", "--f", mu, "--bound", "4"]) == 0
    out = capsys.readouterr().out
    path = tmp_path / f"mu.{fmt}"
    assert main(["--format", fmt, "--out", str(path), "transform", "--f", mu,
                 "--bound", "4"]) == 0
    capsys.readouterr()
    text = path.read_bytes().decode()
    if fmt == "json":
        assert out == text + "\n"
        assert json.loads(out) == {"columns": ["d", "fprime"],
                                   "rows": [[1, 1], [2, -2], [3, -2], [4, 1]]}
    else:
        assert out == text == "d,fprime\r\n1,1\r\n2,-2\r\n3,-2\r\n4,1\r\n"


def test_experiment_config_rejects_an_unknown_format(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "lemma1-grid", "format": "xml",
                               "out": str(tmp_path / "out")}))
    assert main(["experiment", "run", "--config", str(cfg)]) == 2
    assert "format" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_experiment_run_by_name(capsys):
    assert main(["--seed", "3", "experiment", "run", "--name",
                 "theorem4-roundtrip"]) == 0
    out = capsys.readouterr().out
    assert "theorem4-roundtrip" in out and "pass" in out


def test_experiment_config_non_numeric_cut_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "wintner-delange", "params": {"cut": "abc"}}))
    assert main(["experiment", "run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_experiment_artifacts(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "prop1-divergence",
                               "params": {"nmax": 2}, "out": str(tmp_path),
                               "format": "json"}))
    assert main(["experiment", "run", "--config", str(cfg)]) == 0
    arts = list(tmp_path.glob("*.json"))
    arts = [a for a in arts if a.name != "cfg.json"]
    assert arts
    payload = json.loads(arts[0].read_text())
    assert payload["columns"] == ["n", "partial_lo", "partial_hi"]
    # per-column typing: n is an int, the partials are floats
    assert isinstance(payload["rows"][0][0], int)
    assert isinstance(payload["rows"][0][1], float)


@pytest.mark.parametrize("name", ["lemma1-grid", "eq2-grid", "delange-bound"])
def test_grid_experiments_check_their_table_against_cap_x(name, capsys):
    assert main(["--cap-x", "10", "--cap-d", "10", "experiment", "run",
                 "--name", name]) == 2
    assert "exceeds cap 10" in capsys.readouterr().err


def test_experiment_run_prints_resolved_params(capsys):
    assert main(["experiment", "run", "--name", "identity12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "  params: trials=12"


@pytest.mark.parametrize("name", ["identity12", "reef"])
def test_experiment_name_and_config_file_run_the_same(tmp_path, capsys, name):
    # --name and a config {"name": ...} build the same config: same hash,
    # params line and outcomes; only the elapsed time may differ
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": name}))
    runs = []
    for argv in (["--name", name], ["--config", str(cfg)]):
        assert main(["--seed", "5", "experiment", "run"] + argv) == 0
        lines = capsys.readouterr().out.splitlines()
        runs.append([re.sub(r"\([0-9.]+s\)$", "", lines[0])] + lines[1:])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("raw", [
    {"name": "lemma1-grid", "params": {"qmaxx": 3}},
    {"name": "lemma1-grid", "parms": {"qmax": 3}},
    {"name": "lemma1-grid", "params": {"qmax": "8"}},
    {"name": "lemma1-grid", "params": {"qmax": 1e6}},
    {"name": "identity12", "params": {"trials": 0}},
    {"name": "cw-formula", "params": {"functions": "one"}},
    {"name": "conjecture1", "params": {"q_lo": 5, "q_hi": 2}},
    {"name": "zero-cloud-trend", "params": {"x_lo": 1000, "x_hi": 1000}},
    {"name": "concordance-thm8", "cap_x": 10 ** 4,
     "params": {"cut": 10, "grid": [100, 200], "log_grid": [100, 10 ** 5]}},
    ["lemma1-grid"],
    {"name": "orthogonality", "cap_x": "abc"},
    {"name": "identity12", "seed": [1]},
    {"name": "identity12", "seed": True},
    {"name": "orthogonality", "cap_d": 0},
    {"name": "dK-coefficients", "params": {"nmax": 1}},
])
def test_experiment_config_bad_input_is_usage_error(tmp_path, capsys, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["experiment", "run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
