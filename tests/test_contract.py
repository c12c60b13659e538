"""The library's outputs, pinned against recorded files.

Both height solvers run on the acceptance matrices, every matrix of
``test_slices.py``, the small-imaginary-part cases and 300 seeded rational 2x2
matrices.  ``kind``, ``regime``, ``NoSolution`` reasons and details, and other
errors must match the record exactly.  Float heights, lam, mu and the t0 range
match within a relative 1e-9, and the exact residual stays at most 1e-9.

Every ``RatioReport`` and ``TrapeziumReport`` field of seeded random instances,
some of them scaled by 2^58, 2^59 or 2^99, is hashed (sha256 over canonical
JSON) per group and scale; ``contract_sumsets.json`` holds the digests.

``locus_dichotomy_test`` runs on the matrices of ``TestLocusDichotomy`` and
criterion 10, two near-degenerate repros and 20 seeded rational 2x2 matrices;
``locus_curve_params`` and ``locus_point`` run on float inputs.  Flags,
``samples`` and errors must match ``contract_locus.json`` exactly; residuals,
witnesses and float outputs match within a relative 1e-9, and two values both
at most 1e-15 in size (rounding noise of unit-size float data) match.

Hairbrush decompositions of the worst case at k = 3..5 and of seeded n = 3, 4
and 5 families, the union counts of the n = 5
two-block nets at k = 2..6, the worst case's union count and p' = 2 overlap
norm at k = 7 and the bodies of the ``exponents``, ``iterate-eps`` and
``counterexample`` commands are hashed per group; ``contract_digests.json``
holds the digests.  The bodies of every other command are kept as text in
``contract_cli.json``; they must match line by line, and a float printed in
full (the JSON documents print ``repr``) within a relative 1e-9, as fits and
float geometry may move in the last digits between platforms.

Running this file as a script re-records every file; a recorded float whose
new value passes the check above keeps its recorded value, so the re-record
shows only real changes.  A change to a recorded output is listed, record by
record, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import tempfile
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import kakeya_lab as kl
from conftest import reduced_ball_net
from kakeya_lab.cli import main
from kakeya_lab.sumsets import instance_to_json

RECORD = Path(__file__).with_name("contract_solvers.json")
SUMSET_RECORD = Path(__file__).with_name("contract_sumsets.json")
LOCUS_RECORD = Path(__file__).with_name("contract_locus.json")
DIGEST_RECORD = Path(__file__).with_name("contract_digests.json")
CLI_RECORD = Path(__file__).with_name("contract_cli.json")
REL = 1e-9


def _rotation(a, b):
    return [[a, -b], [b, a]]


def _blocks(*blocks):
    n = sum(len(b) for b in blocks)
    rows, r = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[r + i][r:r + len(b)] = row
        r += len(b)
    return rows


def _named_matrices():
    tiny = [F(1, 10**11), F(1, 10**9)]
    jordan_p = kl.RationalMatrix([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
    jordan = jordan_p * kl.RationalMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]) * jordan_p.inverse()
    named = {
        # acceptance criterion 06
        "square_zero_2": kl.companion([0, 0]).rows,
        "square_zero_5": [[0, 5], [0, 0]],
        "square_zero_-2/3": [[0, F(-2, 3)], [0, 0]],
        "square_zero_3x3": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        "square_zero_4x4": [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
        **{f"alpha_{a}": _rotation(F(a).limit_denominator(10), 1)
           for a in (1.5, 2.0, 2.5, 3.0, 4.0, -1.5, -2.0, -2.5, -3.0, -4.0)},
        "diag_2/5_2/5": [[F(2, 5), 0], [0, F(2, 5)]],
        "rot10": _rotation(0, 10),
        "diag_1/4_1/8": [[F(1, 4), 0], [0, F(1, 8)]],
        # the remaining matrices of test_slices.py
        "zero_2": [[0, 0], [0, 0]],
        "diag_3/5_0": [[F(3, 5), 0], [0, 0]],
        "diag_1/2_0": [[F(1, 2), 0], [0, 0]],
        "diag_1/4_0": [[F(1, 4), 0], [0, 0]],
        "rot_5/2_1": _rotation(F(5, 2), 1),
        "rot_1/4_1/8": _rotation(F(1, 4), F(1, 8)),
        **{f"diag_{h}_{k}": [[h, 0], [0, k]] for h, k in [
            (F(1, 4), F(-2, 5)), (F(2, 5), F(-1, 4)), (F(9, 20), F(-7, 20)),
            (F(-2, 5), F(3, 10)), (F(3, 10), F(-9, 20)), (F(1, 3), F(-5, 12))]},
        "diag_1/4_1/4_-2/5": _blocks([[F(1, 4)]], [[F(1, 4)]], [[F(-2, 5)]]),
        "rot_-3_1": _rotation(-3, 1),
        "rot_37_5/2": _rotation(37, F(5, 2)),
        "mixed_7/3": [[F(7, 3), -2], [-1, F(-8, 3)]],
        "diverging_probe": [[F(-3, 4), 0], [F(5, 4), F(7, 4)]],
        "rot_-2_1/2": _rotation(-2, F(1, 2)),
        "rot_13/10_1/10": _rotation(F(13, 10), F(1, 10)),
        "rot10_twice": _blocks(_rotation(0, 10), _rotation(0, 10)),
        "diag_-1e-9_1.6668e-9": [[F(-1, 10**9), 0], [0, F(16668, 10**13)]],
        "jordan_conjugated": jordan.rows,
        "rot_1e-9_1e-9": _rotation(F(1, 10**9), F(1, 10**9)),
        "diag_1/4_1/3_-1/2": _blocks([[F(1, 4)]], [[F(1, 3)]], [[F(-1, 2)]]),
        "rot1": _rotation(0, 1),
        "companion_3_5": kl.companion([3, 5]).rows,
        "companion_7/2": [[F(7, 2)]],
        "companion_2_-3_5": kl.companion([2, -3, 5]).rows,
        "blocks_3_5_2": [[3, 1, 0], [5, 0, 0], [0, 0, 2]],
        "square_zero_lower": [[0, 0], [1, 0]],
        "plain_1_2_3_4": [[1, 2], [3, 4]],
        "companion_blocks_2_2": [[3, 1, 0, 0], [5, 0, 0, 0], [0, 0, 2, 1], [0, 0, 7, 0]],
        "companion_1_2_3": kl.companion([1, 2, 3]).rows,
        "rot10_four_times": _blocks(*[_rotation(0, 10)] * 4),
    }
    # small imaginary parts: the spectra are not real
    for b in tiny:
        e = round(-math.log10(b))
        named[f"rot_0_1e-{e}"] = _rotation(0, b)
        named[f"rot_1/2_1e-{e}_plus_1/2"] = _blocks(_rotation(F(1, 2), b), [[F(1, 2)]])
        named[f"rot_1_1e-{e}"] = _rotation(1, b)
        named[f"rot_-1_1e-{e}"] = _rotation(-1, b)
    return named


def _seeded_matrices(count=300, seed=20261018):
    rng = random.Random(seed)
    out = {}
    for i in range(count):
        kind = ("diag", "rot", "random")[i % 3]
        if kind == "diag":
            m = [[F(rng.randint(-9, 9), rng.randint(1, 12)), 0], [0, F(rng.randint(-9, 9), rng.randint(1, 12))]]
        elif kind == "rot":
            m = _rotation(F(rng.randint(-40, 40), 10), F(rng.randint(1, 150), 10))
        else:
            m = [[F(rng.randint(-12, 12), rng.randint(1, 8)) for _ in range(2)] for _ in range(2)]
        out[f"seeded_{i:03d}_{kind}"] = m
    return out


def _outcome(solve, C) -> dict:
    try:
        return solve(C).to_json()
    except kl.NoSolution as e:
        return {"reason": e.reason, "detail": e.detail}
    except kl.KakeyaLabError as e:
        return {"error": type(e).__name__, "message": str(e)}


def _entries(rows):
    return kl.RationalMatrix(rows).to_json()["entries"]


def _record() -> list:
    cases = {**_named_matrices(), **_seeded_matrices()}
    out = []
    for name, rows in cases.items():
        C = kl.RationalMatrix(rows)
        out.append({
            "name": name,
            "entries": _entries(rows),
            "nikodym3": _outcome(kl.solve_nikodym_three_slice, C),
            "kakeya4": _outcome(kl.solve_kakeya_four_slice, C),
        })
    return out


def _close(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=REL, abs_tol=0.0)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(_close(g, w) for g, w in zip(got, want))
    return got == want


def _field_ok(key, got, want) -> bool:
    """The exact residual stays at most 1e-9; every other field is _close to the record."""
    return got <= 1e-9 if key == "residual" else _close(got, want)


RECORDS = json.loads(RECORD.read_text()) if RECORD.exists() else []


def test_record_covers_every_case():
    assert [r["name"] for r in RECORDS] == [*_named_matrices(), *_seeded_matrices()]
    assert len(RECORDS) > 300


@pytest.mark.parametrize("rec", RECORDS, ids=[r["name"] for r in RECORDS])
def test_solver_outputs_match_the_record(rec):
    C = kl.RationalMatrix(rec["entries"])
    for mode, solve in (("nikodym3", kl.solve_nikodym_three_slice), ("kakeya4", kl.solve_kakeya_four_slice)):
        got, want = _outcome(solve, C), rec[mode]
        assert got.keys() == want.keys(), (mode, got, want)
        for key, w in want.items():
            assert _field_ok(key, got[key], w), (mode, key, got[key], w)


# ----------------------------------------------------------------- sumsets

# the benchmark's trapezium matrices X (Y = X + I)
TRAPEZIUM_XS = ([[1, 1], [0, 1]], [[2, 1], [1, 1]], [[0, -1], [1, 0]], [[1, 0], [3, 1]])
# with box 12, 2^58 and 2^59 keep the rows in int64 but not their packed keys, and the 2I sums pass
# 2^63; 2^99 puts the rows themselves on Python ints
RATIO_SCALES = (0, 0, 0, 0, 0, 0, 58, 58, 59, 99)  # exponents of 2
TRAPEZIUM_SCALES = (0, 0, 0, 58, 99)


def _scaled(A, B, G, e: int):
    """The instance with every coordinate times 2^e, rebuilt through the public constructors."""
    if not e:
        return A, B, G
    up = lambda rows: (rows.astype(object) * 2**e).tolist()
    return (kl.LatticeSet(A.dim, up(A.rows)), kl.LatticeSet(B.dim, up(B.rows)),
            kl.Incidence(pairs=zip(map(tuple, up(G.a)), map(tuple, up(G.b)))))


def _sumset_records() -> dict:
    """{"<group> 2^<e>": [record, ...]}: every report field, in draw order, of instances scaled by 2^e."""
    I2, two = kl.RationalMatrix.identity(2), kl.RationalMatrix.diagonal([2, 2])
    groups = {}
    for i in range(300):
        seed, e = 50_000 + i, RATIO_SCALES[i % len(RATIO_SCALES)]
        inst = _scaled(*kl.random_instance(seed), e)
        for Xs, eps in (([I2], F(1, 6)), ([I2, two], F(1, 4))):
            r = kl.check_ratio(*inst, Xs, eps)
            groups.setdefault(f"ratio 2^{e}", []).append(
                [seed, str(eps), r.holds, r.achieved_exponent, r.size_A, r.size_B, list(r.sumset_sizes),
                 r.size_diff, r.max_side])
    rng = random.Random(20261019)
    for i in range(200):
        seed, box, max_size = rng.randrange(2**31), rng.randint(2, 6), rng.randint(2, 15)
        e = TRAPEZIUM_SCALES[i % len(TRAPEZIUM_SCALES)]
        X = kl.RationalMatrix(TRAPEZIUM_XS[i % len(TRAPEZIUM_XS)])
        r = kl.count_trapezia(*_scaled(*kl.random_instance(seed, 2, box, max_size), e), X, X + I2)
        groups.setdefault(f"trapezia 2^{e}", []).append(
            [seed, box, max_size, r.count, r.lower_bound, r.upper_bound, r.identity_verified, r.g_size,
             r.max_side, r.identities_checked])
    return groups


def _digests(groups: dict) -> dict:
    return {name: {"cases": len(recs), "sha256": hashlib.sha256(
        json.dumps(recs, sort_keys=True, separators=(",", ":")).encode()).hexdigest()}
        for name, recs in groups.items()}


def test_sumset_reports_match_the_record():
    want = json.loads(SUMSET_RECORD.read_text())
    got = _digests(_sumset_records())
    assert got == want, [name for name in want if got.get(name) != want[name]]


# ------------------------------------------------------------------- locus

WORST = [[0, 1], [0, 0]]
NOISE = 1e-15  # two floats both this small are rounding noise of unit-size data


def _locus_cases() -> dict:
    """{name: (C rows, y0, t0, trials, seed)}"""
    diag = [[F(1, 4), 0], [0, F(-1, 4)]]
    cases = {
        # TestLocusDichotomy, at 200 trials
        "square_zero_y0_0_1": (WORST, (0.0, 1.0), 0.5, 200, 3),
        "square_zero_y0_.7_.3": (WORST, (0.7, 0.3), -0.25, 200, 3),
        "square_zero_y0_.2_-.6": (WORST, (0.2, -0.6), 0.75, 200, 3),
        "scalar_1/4": ([[F(1, 4), 0], [0, F(1, 4)]], (1.0, 0.5), 0.25, 200, 3),
        "diag_1/4_-1/4": (diag, (1.0, 1.0), 0.5, 200, 3),
        "square_zero_3x3": ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], (0.3, 0.8, 0.4), 0.5, 200, 6),
        # criterion 10, at 200 trials
        "criterion_10_square_zero": (WORST, (0.0, 1.0), 0.5, 200, 10),
        "criterion_10_diag": (diag, (1.0, 1.0), 0.5, 200, 10),
        # off the predicted line by about 1e-12; and centres exactly on one line
        "repro_1e-12": ([[0, 1], [F(1, 10**12), 0]], (0, 1), F(1, 2), 200, 1),
        "repro_collinear": (WORST, (0, 1), F(1, 2), 200, 1),
    }
    rng = random.Random(20261019)
    for i in range(20):
        kind = ("square_zero", "scalar", "diag", "random", "near_square_zero")[i % 5]
        p, q = rng.randint(-3, 3), rng.randint(1, 3)
        r = F(rng.randint(1, 4), 8 * q * q)
        if kind == "square_zero":
            rows = [[r * p * q, r * q * q], [-r * p * p, -r * p * q]]
        elif kind == "scalar":
            rows = [[r, 0], [0, r]]
        elif kind == "diag":
            rows = [[r, 0], [0, F(rng.randint(-4, 4), 16)]]
        elif kind == "random":
            rows = [[F(rng.randint(-6, 6), rng.randint(6, 12)) for _ in range(2)] for _ in range(2)]
        else:
            rows = [[0, r], [F(1, 10 ** rng.randint(6, 14)), 0]]
        y0 = (F(rng.randint(-8, 8), 8), F(rng.randint(1, 8), 8))
        t0 = F(rng.randint(-7, 7), 8)
        cases[f"seeded_{i:02d}_{kind}"] = (rows, y0, t0, 100, rng.randrange(1000))
    return cases


def _locus_float_cases() -> dict:
    """{name: (C rows, y0, t0, u, s, t)}: float inputs, t None for locus_curve_params alone"""
    rot = [[F(1, 3), F(-2, 5)], [F(3, 7), F(1, 5)]]
    return {
        "square_zero": (WORST, (0.7, 0.3), 0.5, -0.25, 0.75, 0.125),
        "square_zero_decimal": (WORST, (0.2, -0.6), 0.1, 0.3, -0.7, 0.9),
        "scalar_1/4": ([[F(1, 4), 0], [0, F(1, 4)]], (1.0, 0.5), 0.25, -0.5, 0.6, -0.1),
        "diag_1/4_-1/4": ([[F(1, 4), 0], [0, F(-1, 4)]], (1.0, 1.0), 0.5, 0.2, -0.3, 0.0),
        "rational_rot": (rot, (0.3, -0.45), -0.6, 0.35, 0.8, 0.55),
        "rational_rot_t_u": (rot, (0.3, -0.45), -0.6, 0.35, 0.8, 0.35),
        "companion_3x3": (kl.companion([F(1, 3), F(-1, 5), F(2, 7)]).rows,
                          (0.1, 0.2, -0.3), 0.4, -0.9, 0.65, -0.8),
        "singular_identity": ([[1, 0], [0, 1]], (0.5, 0.5), 0.5, -0.25, -0.75, 0.5),
        "s_equals_u": (WORST, (0.5, 0.5), 0.5, 0.25, 0.25, None),
    }


def _error(e: Exception) -> dict:
    return {"error": type(e).__name__}


def _locus_records() -> dict:
    out = {"dichotomy": [], "float_inputs": []}
    for name, (rows, y0, t0, trials, seed) in _locus_cases().items():
        C = kl.RationalMatrix(rows)
        r = kl.locus_dichotomy_test(kl.CurveFamily(n=C.dim + 1, C=C), y0, t0, trials=trials, seed=seed)
        out["dichotomy"].append({"name": name, "omega_one_param": r.omega_one_param, "y_one_param": r.y_one_param,
                                 "max_line_residual": r.max_line_residual,
                                 "omega_offline_witness": r.omega_offline_witness, "samples": r.samples})
    for name, (rows, y0, t0, u, s, t) in _locus_float_cases().items():
        C = kl.RationalMatrix(rows)
        f = kl.CurveFamily(n=C.dim + 1, C=C)
        rec = {"name": name}
        try:
            y, omega = kl.locus_curve_params(f, y0, t0, u, s)
            rec.update(y=[float(v) for v in y], omega=[float(v) for v in omega])
        except Exception as e:
            rec["params"] = _error(e)
        if t is not None:
            try:
                rec["point"] = [float(v) for v in kl.locus_point(f, y0, t0, u, s, t)]
            except Exception as e:
                rec["point"] = _error(e)
        out["float_inputs"].append(rec)
    return out


def _near(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return (math.isclose(got, want, rel_tol=REL, abs_tol=0.0)
                or max(abs(got), abs(want)) <= NOISE)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(_near(g, w) for g, w in zip(got, want))
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(_near(got[k], w) for k, w in want.items())
    return type(got) is type(want) and got == want


LOCUS = json.loads(LOCUS_RECORD.read_text()) if LOCUS_RECORD.exists() else {"dichotomy": [], "float_inputs": []}


def test_locus_record_covers_every_case():
    assert [r["name"] for r in LOCUS["dichotomy"]] == list(_locus_cases())
    assert [r["name"] for r in LOCUS["float_inputs"]] == list(_locus_float_cases())


def test_locus_outputs_match_the_record():
    got = _locus_records()
    for part in ("dichotomy", "float_inputs"):
        bad = [w["name"] for g, w in zip(got[part], LOCUS[part]) if not _near(g, w)]
        assert not bad, (part, bad)


# ------------------------------------------- hairbrush, union counts, CLI bodies

HAIRBRUSH_FAMILIES = {
    3: [[F(1, 3), F(-2, 5)], [F(3, 7), F(1, 5)]],
    4: kl.companion([F(1, 3), F(-1, 5), F(2, 7)]).rows,
    5: [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
}


def _clustered(rng, family, count, deltas, hubs):
    """Tubes whose curves pass within a few deltas of one of the hub points (x, t)."""
    Cf, d = family.C.to_float(), family.n - 1
    tubes = []
    for i in range(count):
        x, t = hubs[i % len(hubs)]
        delta = deltas[i % len(deltas)]
        y = rng.uniform(-0.6, 0.6, d)
        om = x + rng.uniform(-3 * delta, 3 * delta, d) + t * y + t * t * (Cf @ y)
        tubes.append(kl.TubeSpec(params=kl.CurveParams(y=tuple(y), omega=tuple(om)), delta=delta))
    return tubes


def _hairbrush_records() -> list:
    out = []
    for k, N in ((3, 16), (4, 64), (5, 256)):
        dec = kl.hairbrush_decompose(kl.build_worstcase_kakeya(kl.companion([0, 0]), k), N)
        out.append([f"worst k={k} N={N}", dec.brushes, dec.bad, dec.centrals])
    for n, rows in HAIRBRUSH_FAMILIES.items():
        rng = np.random.default_rng(100 + n)
        fam = kl.CurveFamily(n=n, C=kl.RationalMatrix(rows))
        hubs = [(rng.uniform(-0.4, 0.4, n - 1), t) for t in (-0.5, 0.2, 0.6)]
        tubes = _clustered(rng, fam, 60, [2.0**-5, 2.0**-7, 2.0**-6], hubs)
        dec = kl.hairbrush_decompose(kl.TubeFamilySpec(family=fam, tubes=tubes), 4)
        out.append([f"n={n} self", dec.brushes, dec.bad, dec.centrals])
    return out


def _union_records() -> list:
    C = kl.RationalMatrix(HAIRBRUSH_FAMILIES[5])
    return [[k, *kl.union_volume(kl.build_worstcase_kakeya(C, k, directions=reduced_ball_net(k, {1, 3}, 4)), k)]
            for k in (2, 3, 4, 5)]


def _tube(y, omega, delta=0.25):
    return {"y": y, "omega": omega, "delta": delta}


# input files of the CLI runs, written to the runs' working directory so argv and the config echo stay fixed
CLI_FILES = {
    "fam.json": {"n": 3, "C": kl.RationalMatrix.zero(2).to_json()},
    "companion.json": {"n": 3, "C": kl.companion([0, 0]).to_json()},
    "tubes.json": [_tube([0.2, 0.1], [0.0, 0.0]), _tube([-0.3, 0.2], [0.1, -0.1]), _tube([0.1, 0.4], [-0.2, 0.3])],
    "brush.json": [_tube([x, y], [0.0, 0.0], 2.0**-6) for x, y in
                   ((0.4, 0), (0, 0.4), (-0.4, 0), (0, -0.4), (0.28, 0.28), (-0.28, 0.28), (0.28, -0.28),
                    (0.3, 0.1), (0.1, 0.3), (-0.3, 0.1), (0.5, 0.5), (-0.1, 0.2))],
    "triple.json": [_tube([0, 0], [0, 0], 2.0**-8), _tube([0.1125, 0], [0.045, 0], 2.0**-8),
                    _tube([0.0723, 0.0862], [0.042712, 0.03448], 2.0**-8)],
    "inst.json": instance_to_json(*kl.random_instance(5)),
}
SQUARE_ZERO = json.dumps(kl.companion([0, 0]).to_json())
ROTATION = '{"dim": 2, "entries": [[0, -10], [10, 0]]}'
REAL_PAIR = '{"dim": 2, "entries": [["1/4", 0], [0, "-2/5"]]}'

CLI_RUNS = {
    "exponents": [["exponents", "--n", str(n), "--k", str(k), *flags]
                  for n in (3, 4, 5) for k in range(n - 1)
                  for flags in ([[], ["--tr-adj-zero"], ["--det-zero"], ["--tr-adj-zero", "--det-zero"]]
                                if k == 0 else [[]])],
    "iterate-eps": [["iterate-eps", "--start", "1/6", "--steps", "50"],
                    ["iterate-eps", "--start", "0.3", "--steps", "20"]],
    "counterexample line": [
        ["counterexample", "--mode", "line", "--matrix", json.dumps(kl.RationalMatrix(X).to_json()), "--M", M]
        for X, M in (([[1, 1], [0, 1]], "5"), ([[2, 1], [1, 1]], "7"))],
    "counterexample secular": [["counterexample", "--mode", "secular", "--fracs", "1/1,2/1", "--M", "5"],
                               ["counterexample", "--mode", "secular", "--fracs", "1/2,2/1",
                                "--v", "1,1", "--w", "1,-1", "--M", "6"]],
}
# every other command, kept as text in contract_cli.json (see the module docstring)
CLI_BODY_RUNS = {
    "worstcase": [["worstcase", "--n", "3", "--ks", "3,4,5"], ["worstcase", "--n", "4", "--ks", "2,3,4"],
                  ["worstcase", "--matrix", json.dumps(kl.companion([0, F(1, 2)]).to_json()), "--ks", "2,3,4"]],
    "dimension": [["dimension", "--family", fam, "--tubes", "tubes.json", "--ks", "3,4,5"]
                  for fam in ("fam.json", "companion.json")],
    "hairbrush": [["hairbrush", "--family", "fam.json", "--tubes", tubes, "--threshold", threshold]
                  for tubes, threshold in (("brush.json", "6"), ("brush.json", "20"), ("tubes.json", "1"))],
    "claim-check": [["claim-check", "--family", "companion.json", "--tubes", "triple.json",
                     "--k", "3", "--l", "3", "--m", m, *K] for m in ("0", "1") for K in ([], ["--K", "0.25"])],
    "sumset": [["sumset", "--instance", "inst.json", *xs] for xs in
               ([], ["--xs", '{"dim": 2, "entries": [[1, 0], [0, 1]]}'],
                ["--xs", '{"dim": 2, "entries": [[2, 0], [0, 2]]};{"dim": 2, "entries": [[1, 1], [0, 1]]}',
                 "--eps", "1/4"])],
    "solve-heights": [["solve-heights", "--matrix", m, *mode] for m in (SQUARE_ZERO, ROTATION, REAL_PAIR)
                      for mode in ([], ["--mode", "kakeya4"])],
    "locus": [["locus", "--matrix", SQUARE_ZERO, "--y0", "0,1", "--t0", "1/2", "--trials", "150", "--seed", "4"],
              ["locus", "--matrix", '{"dim": 2, "entries": [[0, 1], ["1/1000000000000", 0]]}',
               "--y0", "0,1", "--t0", "1/2", "--seed", "1"]],
}


def _cli_body(argv) -> list:
    """[argv, exit code, stdout without its timestamped metadata line]"""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    lines = [ln for ln in buf.getvalue().splitlines() if not ln.startswith("# config:")]
    return [argv, code, lines]


def _cli_bodies(runs: dict) -> dict:
    """{"cli <command>": [_cli_body(argv), ...]}, run in a directory holding ``CLI_FILES``."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in CLI_FILES.items():
            Path(tmp, name).write_text(json.dumps(doc))
        os.chdir(tmp)
        try:
            return {f"cli {cmd}": [_cli_body(argv) for argv in argvs] for cmd, argvs in runs.items()}
        finally:
            os.chdir(cwd)


def _stamp_records() -> dict:
    """The worst-case union count and overlap norm at k = 7 and the n = 5 two-block union at k = 6."""
    worst = kl.build_worstcase_kakeya(kl.companion([0, 0]), 7)
    net = kl.build_worstcase_kakeya(kl.RationalMatrix(HAIRBRUSH_FAMILIES[5]), 6,
                                    directions=reduced_ball_net(6, {1, 3}, 4))
    return {"union worst case k=7": [[7, *kl.union_volume(worst, 7)]],
            "covering norm worst case k=7 p'=2": [[7, kl.covering_norm(worst, 2.0, 7)]],
            "union n=5 two blocks k=6": [[6, *kl.union_volume(net, 6)]]}


def _digest_groups() -> dict:
    return {"hairbrush": _hairbrush_records(), "union n=5 two blocks": _union_records(), **_stamp_records(),
            **_cli_bodies(CLI_RUNS)}


def test_hairbrush_union_and_cli_outputs_match_the_record():
    want = json.loads(DIGEST_RECORD.read_text())
    got = _digests(_digest_groups())
    assert got == want, [name for name in want if got.get(name) != want[name]]


FLOAT_TEXT = re.compile(r"(-?\d+\.\d*(?:e[-+]?\d+)?|-?\d+e[-+]?\d+)")


def _same_float(a: str, b: str) -> bool:
    """Float literals that match as ``_near`` matches floats when one of them is printed in full (15 or
    more significant digits, as ``repr`` prints most floats); two shorter ones, such as CSV fields of 12
    digits, must be the same text."""
    full = any(len(x.split("e")[0].lstrip("-").replace(".", "").lstrip("0")) >= 15 for x in (a, b))
    return a == b or full and _near(float(a), float(b))


def _same_line(got: str, want: str) -> bool:
    """The same text, but for float literals that ``_same_float`` matches."""
    g, w = FLOAT_TEXT.split(got), FLOAT_TEXT.split(want)
    return len(g) == len(w) and all(a == b if i % 2 == 0 else _same_float(a, b) for i, (a, b) in enumerate(zip(g, w)))


def test_cli_bodies_match_the_record():
    want = json.loads(CLI_RECORD.read_text())
    got = _cli_bodies(CLI_BODY_RUNS)
    assert got.keys() == want.keys()
    bad = [argv for name in want for (argv, code, lines), (_, want_code, want_lines) in zip(got[name], want[name])
           if code != want_code or len(lines) != len(want_lines)
           or not all(map(_same_line, lines, want_lines))]
    assert not bad and [len(r) for r in got.values()] == [len(r) for r in want.values()], bad


def _settled(new, old, same, key=None):
    """new, with each float that ``same(key, new, old)`` matches to its recorded value kept as recorded,
    and each line of text that ``_same_line`` matches too.

    Lists of named records are matched by name, other lists by position.
    """
    if isinstance(new, float) and isinstance(old, float):
        return old if same(key, new, old) else new
    if isinstance(new, str) and isinstance(old, str):
        return old if _same_line(new, old) else new
    if isinstance(new, dict) and isinstance(old, dict):
        return {k: _settled(v, old.get(k), same, k) for k, v in new.items()}
    if isinstance(new, list) and isinstance(old, list):
        if all(isinstance(r, dict) and "name" in r for r in new + old):
            by_name = {r["name"]: r for r in old}
            return [_settled(r, by_name.get(r["name"]), same) for r in new]
        if len(new) == len(old):
            return [_settled(n, o, same, key) for n, o in zip(new, old)]
    return new


def _rerecord(path: Path, new, same=lambda key, got, want: _near(got, want)):
    old = json.loads(path.read_text()) if path.exists() else None
    path.write_text(json.dumps(_settled(new, old, same), indent=1) + "\n")


if __name__ == "__main__":
    # a float that still passes its check keeps its recorded value, so a re-record shows only real changes
    _rerecord(RECORD, _record(), _field_ok)
    _rerecord(SUMSET_RECORD, _digests(_sumset_records()))
    _rerecord(LOCUS_RECORD, _locus_records())
    _rerecord(DIGEST_RECORD, _digests(_digest_groups()))
    _rerecord(CLI_RECORD, _cli_bodies(CLI_BODY_RUNS))
