"""The height solvers' and the sumset counts' outputs, pinned against recorded files.

Both solvers run on the acceptance matrices, every matrix of ``test_slices.py``,
the small-imaginary-part cases and 300 seeded rational 2x2 matrices.  ``kind``,
``regime``, ``NoSolution`` reasons and details, and other errors must match the
record exactly.  Float heights, lam, mu and the t0 range match within a
relative 1e-9, and the exact residual stays at most 1e-9.

Every ``RatioReport`` and ``TrapeziumReport`` field of seeded random instances,
some of them scaled by 2^58, 2^59 or 2^99, is hashed (sha256 over canonical
JSON) per group and scale; ``contract_sumsets.json`` holds the digests.

Running this file as a script re-records both files.  A change to a recorded
output is listed, record by record, in CHANGES.md.
"""

import hashlib
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import kakeya_lab as kl

RECORD = Path(__file__).with_name("contract_solvers.json")
SUMSET_RECORD = Path(__file__).with_name("contract_sumsets.json")
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
            if key == "residual":
                assert got[key] <= 1e-9, (mode, got)
            else:
                assert _close(got[key], w), (mode, key, got[key], w)


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


if __name__ == "__main__":
    RECORD.write_text(json.dumps(_record(), indent=1) + "\n")
    SUMSET_RECORD.write_text(json.dumps(_digests(_sumset_records()), indent=1) + "\n")
