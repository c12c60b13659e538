import contextlib
import io
import json
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kakeya_lab as kl
from kakeya_lab import cli
from kakeya_lab.cli import fmt, main
from kakeya_lab.sumsets import instance_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_matrix(tmp_path, name, m):
    p = tmp_path / name
    p.write_text(json.dumps(m.to_json()))
    return str(p)


def test_solve_heights_square_zero(tmp_path, capsys):
    path = write_matrix(tmp_path, "C.json", kl.companion([0, 0]))
    code, out, _ = run(capsys, "solve-heights", "--matrix", path, "--mode", "nikodym3")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["heights"] == ["1/3", "2/3", "4/9"]
    assert doc["result"]["residual"] <= 1e-9


def test_solve_heights_no_solution_exit_code(tmp_path, capsys):
    path = write_matrix(tmp_path, "C.json", kl.companion([0, 0]))
    code, out, _ = run(capsys, "solve-heights", "--matrix", path, "--mode", "kakeya4")
    assert code == 1
    assert json.loads(out)["result"]["reason"] == "nilpotent_M"


def test_iterate_eps(tmp_path, capsys):
    out_path = tmp_path / "it.csv"
    code, out, _ = run(capsys, "iterate-eps", "--start", "1/6", "--steps", "50",
                       "--out", str(out_path))
    assert code == 0
    final = json.loads(out)["result"]["final"]
    assert abs(final - 0.32486) <= 1e-4
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "step,eps"
    assert len(lines) == 2 + 51


def test_csv_bodies_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "worstcase", "--n", "3", "--ks", "3,4,5", "--out", str(a))
    run(capsys, "worstcase", "--n", "3", "--ks", "3,4,5", "--out", str(b))
    body = lambda p: p.read_text().splitlines()[1:]
    assert body(a) == body(b)


def test_exponents(capsys):
    code, out, _ = run(capsys, "exponents", "--n", "3", "--k", "0", "--tr-adj-zero")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["p_max"] == "7/3"


def test_counterexample_line(tmp_path, capsys):
    path = write_matrix(tmp_path, "X.json", kl.RationalMatrix([[1, 1], [0, 1]]))
    code, out, _ = run(capsys, "counterexample", "--mode", "line", "--matrix", path, "--M", "5")
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["sizes"]["diff"] == 25 == doc["expected_diff"]
    assert doc["sizes"]["sum"] == 9 == doc["expected_sum"]


def test_counterexample_secular(capsys):
    code, out, _ = run(capsys, "counterexample", "--mode", "secular",
                       "--fracs", "1/1,2/1", "--M", "5")
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["predicted"] == doc["measured"] == [13, 9]


def test_sumset_command(tmp_path, capsys):
    A, B, G = kl.random_instance(5)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance_to_json(A, B, G)))
    xs = write_matrix(tmp_path, "I.json", kl.RationalMatrix.identity(2))
    code, out, _ = run(capsys, "sumset", "--instance", str(inst), "--xs", xs, "--eps", "1/6")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("size_A")
    holds = int(lines[2].split(",")[4])
    assert holds == 1


def test_locus_command(tmp_path, capsys):
    path = write_matrix(tmp_path, "C.json", kl.companion([0, 0]))
    code, out, _ = run(capsys, "locus", "--matrix", path, "--y0", "0,1", "--t0", "1/2",
                       "--trials", "150", "--seed", "4")
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["omega_one_param"] is True and doc["y_one_param"] is False


def test_locus_command_takes_t0_and_y0_exactly(capsys):
    # centres off the predicted line by about 1e-12, and centres exactly on one line
    for entries, on_line in (([[0, 1], ["1/1000000000000", 0]], False), ([[0, 1], [0, 0]], True)):
        matrix = json.dumps({"dim": 2, "entries": entries})
        code, out, _ = run(capsys, "locus", "--matrix", matrix, "--y0", "0,1", "--t0", "1/2", "--seed", "1")
        doc = json.loads(out)["result"]
        assert code == 0 and doc["omega_one_param"] is on_line
    assert doc["omega_offline_witness"] <= 1e-15


def test_usage_error_exit_code(capsys):
    assert main(["solve-heights"]) == 2  # missing --matrix
    assert main(["no-such-command"]) == 2


def test_bad_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve-heights", "--matrix", str(bad)]) == 2


def test_dimension_command(tmp_path, capsys):
    fam = kl.CurveFamily(n=3, C=kl.RationalMatrix.zero(2))
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps(fam.to_json()))
    from kakeya_lab.curves import tubes_to_json

    tubes = [kl.TubeSpec(params=kl.CurveParams(y=(0.2, 0.1), omega=(0.0, 0.0)), delta=0.25)]
    tubes_path = tmp_path / "tubes.json"
    tubes_path.write_text(json.dumps(tubes_to_json(tubes)))
    code, out, _ = run(capsys, "dimension", "--family", str(fam_path),
                       "--tubes", str(tubes_path), "--ks", "3,4,5")
    assert code == 0
    # stdout carries the CSV body followed by the JSON summary document
    slope = json.loads(out[out.index("\n{") :])["result"]["slope"]
    assert 0.7 <= slope <= 1.3  # a single tube is one-dimensional


def test_hairbrush_command(tmp_path, capsys):
    import math as _math

    fam = kl.CurveFamily(n=3, C=kl.RationalMatrix.zero(2))
    (tmp_path / "fam.json").write_text(json.dumps(fam.to_json()))
    from kakeya_lab.curves import tubes_to_json

    delta = 2.0**-6
    tubes = []
    for i in range(12):
        ang = 2 * _math.pi * i / 12
        tubes.append(kl.TubeSpec(params=kl.CurveParams(
            y=(0.4 * _math.cos(ang), 0.4 * _math.sin(ang)), omega=(0.0, 0.0)), delta=delta))
    (tmp_path / "tubes.json").write_text(json.dumps(tubes_to_json(tubes)))
    code, out, _ = run(capsys, "hairbrush", "--family", str(tmp_path / "fam.json"),
                       "--tubes", str(tmp_path / "tubes.json"), "--threshold", "6")
    assert code == 0
    doc = json.loads(out)["result"]
    assert len(doc["brushes"]) == 1 and len(doc["brushes"][0]) == 12


@pytest.mark.parametrize("threshold, message", [("0", "at least 1"), ("-3", "at least 1"),
                                                ("abc", "not an integer")])
def test_hairbrush_threshold_must_be_positive_int(tmp_path, capsys, threshold, message):
    code, _, err = run(capsys, "hairbrush", "--family", str(tmp_path / "fam.json"),
                       "--tubes", str(tmp_path / "tubes.json"), "--threshold", threshold)
    assert code == 2
    assert "--threshold" in err and message in err


def test_claim_check_command(tmp_path, capsys):
    import numpy as _np

    C = kl.companion([0, 0])
    fam = kl.CurveFamily(n=3, C=C)
    (tmp_path / "fam.json").write_text(json.dumps(fam.to_json()))
    from kakeya_lab.curves import tubes_to_json

    delta = 2.0**-8
    Cf = C.to_float()
    I = _np.eye(2)
    tj = 0.4
    yj = _np.array([0.9 * 2.0**-3, 0.0])
    th = 0.873  # ~50 degrees
    rot = _np.array([[_np.cos(th), -_np.sin(th)], [_np.sin(th), _np.cos(th)]])
    yi = rot @ yj
    mk = lambda y: kl.TubeSpec(params=kl.CurveParams(
        y=tuple(y), omega=tuple(tj * (I + tj * Cf) @ y)), delta=delta)
    triple = [kl.TubeSpec(params=kl.CurveParams(y=(0.0, 0.0), omega=(0.0, 0.0)), delta=delta),
              mk(yj), mk(yi)]
    (tmp_path / "triple.json").write_text(json.dumps(tubes_to_json(triple)))
    code, out, _ = run(capsys, "claim-check", "--family", str(tmp_path / "fam.json"),
                       "--tubes", str(tmp_path / "triple.json"),
                       "--k", "3", "--l", "3", "--m", "0")
    assert code == 0
    assert json.loads(out)["result"]["pass"] is True


@pytest.mark.parametrize("G", [[[0, 3]], [[-1, 0]]])
def test_sumset_bad_instance_exit_code(tmp_path, capsys, G):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"dim": 2, "A": [[0, 0]], "B": [[1, 1], [2, 2]], "G": G}))
    code, _, err = run(capsys, "sumset", "--instance", str(inst), "--eps", "1/6")
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("doc", [{"A": [[0, 0]], "B": [[1, 1]], "G": [[0, 0]]},
                                 {"dim": 2, "A": [[0, 0]], "B": [[1, 1]], "G": 5},
                                 {"dim": "2", "A": [[0, 0]], "B": [[1, 1]], "G": [[0, 0]]},
                                 [[0, 0]]])
def test_sumset_malformed_instance_exit_code(tmp_path, capsys, doc):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    code, _, err = run(capsys, "sumset", "--instance", str(inst), "--eps", "1/6")
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


GOOD_FAMILY = {"n": 3, "C": kl.RationalMatrix.zero(2).to_json()}
GOOD_TUBES = [{"y": [0.2, 0.1], "omega": [0.0, 0.0], "delta": 0.25}]


@pytest.mark.parametrize("command", [["dimension", "--ks", "3,4,5"], ["hairbrush", "--threshold", "1"]])
@pytest.mark.parametrize("family, tubes", [
    ({"n": 3}, GOOD_TUBES),
    ({"n": 3, "C": [[0, 0], [0, 0]]}, GOOD_TUBES),
    (GOOD_FAMILY, [{"y": [0.2, 0.1], "delta": 0.25}]),
    (GOOD_FAMILY, {"y": [0.2, 0.1]}),
])
def test_malformed_family_or_tubes_exit_code(tmp_path, capsys, command, family, tubes):
    (tmp_path / "fam.json").write_text(json.dumps(family))
    (tmp_path / "tubes.json").write_text(json.dumps(tubes))
    code, _, err = run(capsys, command[0], "--family", str(tmp_path / "fam.json"),
                       "--tubes", str(tmp_path / "tubes.json"), *command[1:])
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("ks", ["8", "5,6", "5,5,6", "6,5,7", "0,1,2", "11,12,13", "3,x,5"])
def test_ks_rejected_before_rasterizing(tmp_path, capsys, monkeypatch, ks):
    calls = []
    for name in ("rasterize", "union_volume"):
        monkeypatch.setattr(kl.raster, name, lambda *a: calls.append(a))
    (tmp_path / "fam.json").write_text(json.dumps(GOOD_FAMILY))
    (tmp_path / "tubes.json").write_text(json.dumps(GOOD_TUBES))
    for argv in (["worstcase", "--ks", ks],
                 ["dimension", "--family", str(tmp_path / "fam.json"), "--tubes", str(tmp_path / "tubes.json"),
                  "--ks", ks]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "--ks" in err
    assert calls == []


SWEEP_TUBES = GOOD_TUBES + [{"y": [-0.3, 0.2], "omega": [0.1, -0.1], "delta": 0.25},
                            {"y": [0.1, 0.4], "omega": [-0.2, 0.3], "delta": 0.25}]


@pytest.mark.parametrize("sweep", ["worstcase", "dimension"])
def test_sweep_bodies_match_cell_sets(tmp_path, capsys, sweep):
    # the sweeps count cells without building a CellSet; their CSV rows and fit are the cell sets'
    ks = [3, 4, 5]
    if sweep == "worstcase":
        argv = ["worstcase", "--n", "3"]
        specs = {k: kl.build_worstcase_kakeya(kl.companion([0, 0]), k) for k in ks}
    else:
        (tmp_path / "fam.json").write_text(json.dumps(GOOD_FAMILY))
        (tmp_path / "tubes.json").write_text(json.dumps(SWEEP_TUBES))
        argv = ["dimension", "--family", str(tmp_path / "fam.json"), "--tubes", str(tmp_path / "tubes.json")]
        family = kl.CurveFamily.from_json(GOOD_FAMILY)
        Y = [t["y"] for t in SWEEP_TUBES]
        W = [t["omega"] for t in SWEEP_TUBES]
        specs = {k: kl.TubeFamilySpec(family, Y=Y, W=W, delta=2.0**-k) for k in ks}
    cells = {k: kl.rasterize(spec, k) for k, spec in specs.items()}
    code, out, _ = run(capsys, *argv, "--ks", "3,4,5", "--out", str(tmp_path / "sweep.csv"))
    assert code == 0
    rows = [",".join(fmt(v) for v in (k, cs.cell_count, cs.volume(), -k, np.log2(cs.volume())))
            for k, cs in cells.items()]
    assert (tmp_path / "sweep.csv").read_text().splitlines()[1:] == \
        ["k,cell_count,volume,log2_delta,log2_volume", *rows]
    fit = kl.box_dimension({k: cs.volume() for k, cs in cells.items()}, n=3)
    result = json.loads(out)["result"]
    assert (result["slope"], result["fit_residual"]) == (fit.slope, fit.fit_residual)


@pytest.mark.parametrize("matrix", ['{"dim": 2}', "[[1, 0], [0, 1]]", '{"entries": 5}'])
def test_malformed_matrix_exit_code(capsys, matrix):
    code, _, err = run(capsys, "solve-heights", "--matrix", matrix)
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("mode, flag", [("line", "--matrix"), ("secular", "--fracs")])
def test_counterexample_mode_without_its_flag_is_a_usage_error(capsys, mode, flag):
    code, out, err = run(capsys, "counterexample", "--mode", mode, "--M", "3")
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == f"error: --mode {mode} needs {flag}\n"


@pytest.mark.parametrize("count", [1, 2, 4])
def test_claim_check_needs_three_tubes(tmp_path, capsys, count):
    (tmp_path / "fam.json").write_text(json.dumps(GOOD_FAMILY))
    (tmp_path / "tubes.json").write_text(json.dumps((SWEEP_TUBES * 2)[:count]))
    code, out, err = run(capsys, "claim-check", "--family", str(tmp_path / "fam.json"),
                         "--tubes", str(tmp_path / "tubes.json"), "--k", "3", "--l", "3", "--m", "0")
    assert code == 2 and out == "" and err.startswith("error:") and "three tubes" in err


HUGE = "1" + "0" * 400  # past the float range
SQUARE_ZERO = '{"dim": 2, "entries": [[0, 1], [0, 0]]}'
REPROS = [
    ["iterate-eps", "--start", "3/0"],
    ["iterate-eps", "--start", HUGE + "/1"],
    ["locus", "--matrix", SQUARE_ZERO, "--y0", "0,1", "--t0", "1/0"],
    ["locus", "--matrix", SQUARE_ZERO, "--y0", "1/0,1", "--t0", "1/2"],
    ["locus", "--matrix", SQUARE_ZERO, "--y0", "0,1", "--t0", "1e400"],
    ["sumset", "--instance", "INST", "--eps", "1/0"],
    ["sumset", "--instance", "INST", "--xs", '{"dim": 2, "entries": [[1, 0], [0, "2/0"]]}'],
    ["counterexample", "--mode", "secular", "--fracs", "1/0", "--M", "3"],
    ["solve-heights", "--matrix", '{"dim": 2, "entries": [["1/0", 0], [0, 1]]}'],
    ["claim-check", "--family", "FAM", "--tubes", "TUBES", "--k", "3", "--l", "3", "--m", "0", "--K", "nan"],
    ["claim-check", "--family", "FAM", "--tubes", "TUBES", "--k", HUGE, "--l", "3", "--m", "0"],
    # tubes finer than 2^-MAX_K: refused before their height samples are allocated
    ["claim-check", "--family", "FAM", "--tubes", "TUBES_1e-7", "--k", "2", "--l", "4", "--m", "0"],
    ["claim-check", "--family", "FAM", "--tubes", "TUBES_1e-300", "--k", "2", "--l", "4", "--m", "0"],
    # JSON's true and false are not numbers: a matrix entry, an instance dim, a G pair and a tube direction
    ["solve-heights", "--matrix", '{"entries": [[true, 0], [0, false]], "dim": 2}'],
    ["sumset", "--instance", "INST_DIM_TRUE"],
    ["sumset", "--instance", "INST_G_TRUE"],
    ["dimension", "--family", "FAM", "--tubes", "TUBES_Y_TRUE", "--ks", "3,4,5"],
    # nor is text: a tube coordinate or delta "0.2" was read as the number it spells
    ["dimension", "--family", "FAM", "--tubes", "TUBES_Y_TEXT", "--ks", "3,4,5"],
    ["dimension", "--family", "FAM", "--tubes", "TUBES_DELTA_TEXT", "--ks", "3,4,5"],
    # an exact tube coordinate past the float range
    ["hairbrush", "--family", "FAM", "--tubes", "TUBES_Y_HUGE", "--threshold", "1"],
    ["dimension", "--family", "FAM", "--tubes", "TUBES_Y_HUGE", "--ks", "2,3,4"],
    # a --n that disagrees with --matrix: the sweep ran n = 3 and recorded n = 5
    ["worstcase", "--n", "5", "--matrix", SQUARE_ZERO, "--ks", "2,3,4"],
]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Paths standing for these names in argv: a sumset instance, the square-zero family, a claim-check triple,
    files with a key missing or an entry past the float range, and files holding a boolean or text where a number
    belongs."""
    root = tmp_path_factory.mktemp("cli")
    docs = {"INST": instance_to_json(*kl.random_instance(5)), "FAM": {"n": 3, "C": json.loads(SQUARE_ZERO)},
            "TUBES": [{"y": y, "omega": w, "delta": 2.0**-8} for y, w in
                      (([0, 0], [0, 0]), ([0.1125, 0], [0.045, 0]), ([0.0723, 0.0862], [0.042712, 0.03448]))],
            **{name: [{"y": y, "omega": [0, 0], "delta": d} for y in ([0, 0], [0.2, 0], [0.2, 0.05])]
               for name, d in (("TUBES_1e-7", 1e-7), ("TUBES_1e-300", 1e-300))},
            "FAM_NO_C": {"n": 3}, "TUBES_NO_DELTA": [{"y": [0.2, 0.1], "omega": [0, 0]}],
            "INST_NO_G": {"dim": 2, "A": [[0, 0]], "B": [[1, 1]]},
            "INST_DIM_TRUE": {"dim": True, "A": [[0], [1]], "B": [[1]], "G": [[0, 0]]},
            "INST_G_TRUE": {"dim": 2, "A": [[0, 0], [1, 0]], "B": [[0, 1]], "G": [[True, False]]},
            "TUBES_Y_TRUE": [{"y": [True, 0], "omega": [0, 0], "delta": 0.25}],
            "TUBES_Y_TEXT": [{"y": ["0.2", 0.1], "omega": [0, 0], "delta": 0.25}],
            "TUBES_DELTA_TEXT": [{"y": [0.2, 0.1], "omega": [0, 0], "delta": "0.25"}],
            "TUBES_Y_HUGE": [{"y": [int(HUGE), 0], "omega": [0, 0], "delta": 0.25}],
            "MATRIX_PAST_FLOATS": {"dim": 2, "entries": [[int(HUGE), 1], [1, 0]]}}
    for name, doc in docs.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    return {name: str(root / f"{name}.json") for name in docs}


@pytest.mark.parametrize("argv", REPROS, ids=lambda argv: " ".join(a[:12] for a in argv))
def test_bad_numbers_are_usage_errors(capsys, cli_files, argv):
    # a zero denominator, a value past the float range or a non-finite float: one error line, exit 2
    code, out, err = run(capsys, *(cli_files.get(a, a) for a in argv))
    assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_worstcase_n_is_refused_before_the_companion_matrix(capsys, monkeypatch):
    # companion([0] * (n - 1)) builds an (n-1)^2 list before RationalMatrix refuses a dimension past MAX_DIM
    def companion(coeffs):
        raise AssertionError(f"companion built for n = {len(coeffs) + 1}")

    monkeypatch.setattr(cli, "companion", companion)
    for n in ("1000000", HUGE, "10", "1"):
        code, out, err = run(capsys, "worstcase", "--n", n, "--ks", "1,2,3")
        assert code == 2 and out == "" and err.startswith("error: argument --n: must lie in [2, 9]")


def test_worstcase_records_the_n_it_ran(tmp_path, capsys):
    # a 3x3 --matrix runs n = 4 (it recorded the default n = 3); an agreeing --n is taken, and no --matrix is n = 3
    matrix = json.dumps(kl.companion([0, 0, 0]).to_json())
    for argv, n in (([], 3), (["--matrix", matrix], 4), (["--n", "4", "--matrix", matrix], 4), (["--n", "4"], 4)):
        code, out, _ = run(capsys, "worstcase", *argv, "--ks", "2,3,4", "--out", str(tmp_path / "wc.csv"))
        config = json.loads((tmp_path / "wc.csv").read_text().split(" generated:")[0].removeprefix("# config: "))
        assert code == 0 and config["n"] == json.loads(out)["config"]["n"] == n


BUDGET = kl.raster.CELL_BUDGET
# per flag: the least and the largest value accepted (None: no upper bound), from what the command accepts
INT_BOUNDS = {
    ("worstcase", "--n"): (2, 9, ["--ks", "1,2,3"]),
    ("counterexample", "--M"): (1, 2**15, ["--mode", "line"]),
    ("hairbrush", "--threshold"): (1, None, ["--family", "f", "--tubes", "t"]),
    **{("claim-check", flag): (-1, 1074, ["--family", "f", "--tubes", "t", "--k", "0", "--l", "0", "--m", "0"])
       for flag in ("--k", "--l", "--m")},
    ("locus", "--trials"): (100, BUDGET // 50, ["--matrix", SQUARE_ZERO, "--y0", "0,1", "--t0", "1/2"]),
    ("iterate-eps", "--steps"): (0, BUDGET, ["--start", "1/6"]),
}


@pytest.mark.parametrize("command, flag", sorted(INT_BOUNDS))
def test_integer_flags_are_bounded_at_parse_time(command, flag):
    lo, hi, rest = INT_BOUNDS[command, flag]
    parse = lambda v: getattr(cli.build_parser().parse_args([command, *rest, flag, str(v)]), flag[2:])
    for v in (lo, hi) if hi is not None else (lo, int(HUGE)):
        assert parse(v) == v
    for v in (lo - 1, -int(HUGE)) + ((hi + 1, int(HUGE)) if hi is not None else ()):
        with pytest.raises(kl.PreconditionViolation, match=f"argument {flag}: must"):
            parse(v)


def test_long_inline_matrix_is_not_taken_for_a_path(tmp_path, capsys):
    # 295 characters without a "/": the file system refuses a name that long, so it must not be asked
    matrix = json.dumps({"dim": 8, "entries": [[10 + 8 * i + j for j in range(8)] for i in range(8)]})
    assert len(matrix) == 295
    code, out, err = run(capsys, "solve-heights", "--matrix", matrix)
    assert code == 1 and err == "" and json.loads(out)["result"]["reason"] == "unsupported_matrix_shape"
    path = write_matrix(tmp_path, "C.json", kl.RationalMatrix.from_json(json.loads(matrix)))
    code, out, err = run(capsys, "solve-heights", "--matrix", path)
    assert code == 1 and json.loads(out)["result"]["reason"] == "unsupported_matrix_shape"


def test_sumset_eps_with_a_huge_denominator(capsys, cli_files):
    # eps = 10^-400 is decided without raising a size to the power 10^400
    code, out, err = run(capsys, "sumset", "--instance", cli_files["INST"], "--eps", "1e-400")
    assert code == 0 and err == ""
    rep = kl.check_ratio(*kl.sumsets.load_instance(cli_files["INST"]), [], F(1, 10**400))
    assert out.splitlines()[2].split(",")[2:5] == [str(rep.size_diff), str(rep.max_side), str(int(rep.holds))]


def test_iterate_eps_start_keeps_its_float_parse(capsys):
    # text without a slash goes through float(), which keeps the sign of -0; p/q is rounded once from the rational
    for start, first in (("-0", "-0"), ("1/3", fmt(1 / 3))):
        code, out, _ = run(capsys, "iterate-eps", "--start", start, "--steps", "1")
        assert code == 0 and out.splitlines()[2] == f"0,{first}"
        assert json.loads(out[out.index("\n{"):])["config"]["start"] == start


# a small pool of hostile tokens: zero denominators, a huge numerator and huge bare integers, non-finite and empty
# values, wrong arity, JSON with missing keys or bad entries, and files whose JSON lacks a key
HOSTILE = ["1/0", "0/0", HUGE + "/1", HUGE, "-" + HUGE, "1e400", "nan", "inf", "-inf", "", "x", "1,2,3", "1", "0",
           "-1", ",",
           '{"dim": 2}', '{"entries": [[1, 0], [0, "2/0"]]}', '{"dim": 2, "entries": [["nan", 0], [0, 1]]}',
           "FAM_NO_C", "TUBES_NO_DELTA", "INST_NO_G", "MATRIX_PAST_FLOATS"]
# per command, each flag's good values (None leaves the flag out); --ks, --trials, --M and --steps stay tiny
GOOD = {
    "worstcase": {"--n": ["3"], "--matrix": [None, SQUARE_ZERO], "--ks": ["1,2,3"]},
    "dimension": {"--family": ["FAM"], "--tubes": ["TUBES"], "--ks": ["1,2,3"]},
    "sumset": {"--instance": ["INST"], "--xs": [None, '{"dim": 2, "entries": [[1, 0], [0, 1]]}'],
               "--eps": [None, "1/6"]},
    "counterexample": {"--mode": ["line", "secular"], "--matrix": [None, '{"dim": 2, "entries": [[1, 1], [0, 1]]}'],
                       "--M": ["3"], "--fracs": [None, "1/1,2/1"], "--v": [None, "1,1"], "--w": [None, "1,-1"]},
    "solve-heights": {"--matrix": [SQUARE_ZERO, '{"dim": 2, "entries": [[0, -10], [10, 0]]}'],
                      "--mode": [None, "kakeya4"]},
    "exponents": {"--n": ["3"], "--k": [None, "0"]},
    "hairbrush": {"--family": ["FAM"], "--tubes": ["TUBES"], "--threshold": ["1"]},
    "claim-check": {"--family": ["FAM"], "--tubes": ["TUBES"], "--k": ["3"], "--l": ["3"], "--m": ["0"],
                    "--K": [None, "16"]},
    "locus": {"--matrix": [SQUARE_ZERO], "--y0": ["0,1"], "--t0": ["1/2"], "--trials": ["100"],
              "--seed": [None, "1"]},
    "iterate-eps": {"--start": ["1/6"], "--steps": ["3"]},
}


@st.composite
def hostile_argv(draw):
    command = draw(st.sampled_from(sorted(GOOD)))
    argv = [command]
    for flag, good in GOOD[command].items():
        value = draw(st.one_of(st.sampled_from(good), st.sampled_from(HOSTILE)))  # good about half the time
        argv += [] if value is None else [flag, value]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=hostile_argv())
def test_hostile_argv_gets_an_exit_code_not_a_traceback(cli_files, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([cli_files.get(a, a) for a in argv])
    err = err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err
    assert code != 2 or err.startswith("error:")
    assert code != 1 or argv[0] in ("solve-heights", "claim-check")  # the commands with a no-solution outcome
