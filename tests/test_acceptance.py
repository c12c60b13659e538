"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import time
from fractions import Fraction as F

import numpy as np

import kakeya_lab as kl
from kakeya_lab.sumsets import _discard_to_distinct_differences

from conftest import (
    crossing_tube_pair,
    float_T,
    float_X_of_lambda,
    reduced_ball_net,
)

WORST = kl.companion([0, 0])


def report(num: int, ok: bool, detail: str):
    print(f"\n[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_worstcase_dimension():
    start = time.monotonic()
    vols = {}
    residual = 0.0
    delta_min = 2.0**-8
    for k in (5, 6, 7, 8):
        spec = kl.build_worstcase_kakeya(WORST, k)
        vols[k] = kl.rasterize(spec, k).volume()
        pts = []
        step = max(1, len(spec.Y) // 64)  # only the sampled tubes are built
        for y, w in zip(spec.Y[::step].tolist(), spec.W[::step].tolist()):
            params = kl.CurveParams(y=tuple(y), omega=tuple(w))
            for t in np.linspace(-1, 1, 7):
                pts.append(kl.curve_point(spec.family, params, float(t)))
        residual = max(residual, kl.surface_residual(pts))
    fit = kl.box_dimension(lambda k: vols[k], [5, 6, 7, 8], n=3)
    elapsed = time.monotonic() - start
    ok = 1.8 <= fit.slope <= 2.2 and residual <= delta_min and elapsed <= 60.0
    report(1, ok, f"slope={fit.slope:.4f} in [1.8,2.2], surface residual={residual:.2e} "
                  f"<= delta, runtime={elapsed:.1f}s <= 60s")


def test_criterion_02_w_matrix_vanishing():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    ok = True
    for trial in range(20):
        l = trial % 5 + 1  # four blocks of each size 1..5
        cs = [F(int(rng.integers(-9, 10)), int(rng.integers(1, 8))) for _ in range(l)]
        C = kl.companion(cs)
        det = kl.direction_map_det(C, kl.w_matrix(C))
        ok &= all(det[i] == 0 for i in range(2 * l - 1))
        if l == 1:
            ok &= det[1] == -1 and det[2] == -cs[0]
        else:
            ok &= det[2 * l - 1] == cs[l - 2] and det[2 * l] == -cs[l - 1]
        checked += 1
    elapsed = time.monotonic() - start
    ok = ok and checked == 20 and elapsed <= 5.0
    report(2, ok, f"{checked} random companion blocks l in 1..5, exact coefficient "
                  f"pattern, runtime={elapsed:.2f}s <= 5s")


def test_criterion_03_counterexample_cardinalities():
    X = kl.RationalMatrix([[1, 1], [0, 1]])
    ok = True
    for M in range(2, 65):
        A, B, G = kl.gen_line_counterexample(X, M)
        ok &= kl.difference_set(A, B, G).size == M * M
        ok &= kl.x_sumset(A, B, G, X).size == 2 * M - 1
    rng = np.random.default_rng(7)
    for _ in range(10):
        nf = int(rng.integers(1, 4))
        fracs = []
        while len(fracs) < nf:
            f = F(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            fracs.append(f)
        prod = math.prod(abs(f.numerator * f.denominator) for f in fracs)
        M = int(rng.integers(prod + 1, 10 * prod + 1))
        A, B, G, predicted = kl.gen_secular_counterexample((1, 0), (0, 1), fracs, M)
        for f, expect in zip(fracs, predicted):
            Xj = kl.RationalMatrix([[0, 0], [f, 0]])
            ok &= kl.x_sumset(A, B, G, Xj).size == expect
        ok &= kl.difference_set(A, B, G).size == M * M
    report(3, ok, "line sizes M^2 / 2M-1 for M=2..64; secular sizes Q_j(M-1)+M "
                  "on 10 random fraction sets, exact")


def test_criterion_04_inequality_smoke():
    start = time.monotonic()
    I2 = kl.RationalMatrix.identity(2)
    two = kl.RationalMatrix.diagonal([2, 2])
    violations = 0
    for seed in range(10_000):
        A, B, G = kl.random_instance(seed)
        if not kl.check_ratio(A, B, G, [I2], F(1, 6)).holds:
            violations += 1
        if not kl.check_ratio(A, B, G, [I2, two], F(1, 4)).holds:
            violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed <= 120.0
    report(4, ok, f"exponents 11/6 and 7/4 on 10^4 seeded instances: "
                  f"{violations} violations, runtime={elapsed:.1f}s <= 120s")


def _einsum_quadruple_count(G: kl.Incidence, Y: kl.RationalMatrix) -> int:
    """The definitional ordered-quadruple count, contracted directly."""
    pairs = sorted(G.pairs)
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    L, YL = Y.integer_form()
    YL = np.array(YL, dtype=np.int64)
    key = L * a + b @ YL.T
    Ea = (a[:, None, :] == a[None, :, :]).all(-1).astype(np.int64)
    Ek = (key[:, None, :] == key[None, :, :]).all(-1).astype(np.int64)
    Eb = (b[:, None, :] == b[None, :, :]).all(-1).astype(np.int64)
    return int(np.einsum("pq,rs,pr,qs->", Ea, Ea, Ek, Eb))


def test_criterion_05_trapezium_bracketing():
    rng = np.random.default_rng(55)
    xs = [
        kl.RationalMatrix([[1, 1], [0, 1]]),
        kl.RationalMatrix([[2, 1], [1, 1]]),
        kl.RationalMatrix([[0, -1], [1, 0]]),
        kl.RationalMatrix([[1, 0], [3, 1]]),
    ]
    I2 = kl.RationalMatrix.identity(2)
    checked_small = 0
    ok = True
    for i in range(1000):
        X = xs[i % len(xs)]
        Y = X + I2
        A, B, G = kl.random_instance(int(rng.integers(0, 2**31)),
                                     box=int(rng.integers(2, 7)),
                                     max_size=int(rng.integers(2, 16)))
        rep = kl.count_trapezia(A, B, G, X, Y)
        ok &= rep.bracketed() and rep.identity_verified
        if rep.g_size <= 24:
            Gd = _discard_to_distinct_differences(G)
            ok &= rep.count == _einsum_quadruple_count(Gd, Y)
            checked_small += 1
    ok = ok and checked_small >= 200
    report(5, ok, f"1000 instances bracketed by [#G^4/M^4, M^3]; brute-force match on "
                  f"{checked_small} instances with #G <= 24; identity verified on all")


def test_criterion_06_height_solvers():
    ok = True
    details = []
    # (i) five matrices with C^2 = 0
    square_zero = [
        kl.companion([0, 0]),
        kl.RationalMatrix([[0, 5], [0, 0]]),
        kl.RationalMatrix([[0, F(-2, 3)], [0, 0]]),
        kl.RationalMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        kl.RationalMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]),
    ]
    for C in square_zero:
        sol = kl.solve_nikodym_three_slice(C)
        t0, t1, t2 = (float(h) for h in sol.heights)
        lam = (t0 - t2) / (t0 - t1)
        res = np.max(np.abs(float_X_of_lambda(C.to_float(), t0, t1, lam)
                            - float_T(C.to_float(), t0, t1)))
        ok &= res <= 1e-9 and sol.t0_range is not None
    details.append("5 square-zero matrices")
    # (ii) ten complex pairs in the symmetric-heights region
    alphas = [1.5, 2.0, 2.5, 3.0, 4.0, -1.5, -2.0, -2.5, -3.0, -4.0]
    for a in alphas:
        alpha = F(a).limit_denominator(10)
        C = kl.RationalMatrix([[alpha, -1], [1, alpha]])
        af = float(alpha)
        assert max(2 * abs(af) - af**2,
                   0.5 * (-1 - 2 * af**2 + math.sqrt(1 + 16 * af**2))) <= 1.0 <= 3 * af**2
        sol = kl.solve_nikodym_three_slice(C)
        t0, t1, t2 = (float(h) for h in sol.heights)
        lam = (t0 - t2) / (t0 - t1)
        res = np.max(np.abs(float_X_of_lambda(C.to_float(), t0, t1, lam)
                            - float_T(C.to_float(), t0, t1)))
        recip = 2 * af / (af * af + 1)
        ok &= res <= 1e-9
        ok &= abs(recip + (t0 + t1 + t2)) <= 1e-8
    details.append("10 complex pairs with residual<=1e-9 and reciprocal-sum to 1e-8")
    try:
        kl.solve_nikodym_three_slice(kl.RationalMatrix.diagonal([F(2, 5), F(2, 5)]))
        ok = False
    except kl.NoSolution:
        pass
    details.append("diag(2/5,2/5) refused")
    # four-slice
    sol = kl.solve_kakeya_four_slice(kl.RationalMatrix([[0, -10], [10, 0]]))
    ok &= sol.residual <= 1e-9
    for C, reason in [(WORST, "nilpotent_M"),
                      (kl.RationalMatrix.diagonal([F(1, 4), F(1, 8)]), "real_spectrum_blocked")]:
        try:
            kl.solve_kakeya_four_slice(C)
            ok = False
        except kl.NoSolution as e:
            ok &= e.reason == reason
    details.append("four-slice (0,10) residual<=1e-9 and reason codes")
    report(6, ok, "; ".join(details))


def test_criterion_07_quartic_identities():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(100):
        l = F(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
        m = F(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
        ok &= kl.quartic_q(0, l, m) == -4
        ok &= kl.quartic_q(1, l, F(-1)) == 0
        ok &= kl.quartic_q(1, l, m) == -(l + 1) * (m + 1)
    report(7, ok, "q(0,l,m)=-4, q(1,l,-1)=0, q(1,l,m)=-(l+1)(m+1) exactly on 100 "
                  "random rational pairs")


def test_criterion_08_iteration_and_bounds():
    e = 1 / 6
    for _ in range(50):
        e = kl.iterate_epsilon(e)
    ok = abs(e - 0.32486) <= 1e-4
    fp = kl.iteration_fixed_point()
    bound = kl.dimension_lower_bound(10, fp, True)
    ok &= abs(bound - 6.372) <= 1e-3
    ok &= kl.genfail_exponents(3, 0).p_max == F(5, 2)
    ok &= kl.genfail_exponents(3, 0, tr_adj_zero=True).p_max == F(7, 3)
    report(8, ok, f"50 iterations from 1/6 -> {e:.6f}; bound(10)={bound:.4f}; "
                  f"thresholds 5/2 and 7/3 exact")


def test_criterion_09_tube_intersections():
    start = time.monotonic()
    family = kl.CurveFamily(n=3, C=WORST)
    fitted = {}
    ok = True
    for k in (6, 8):
        delta = 2.0**-k
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(1000):
            t1, t2 = crossing_tube_pair(rng, family, delta, min_sep=8 * delta)
            diam, sep = kl.intersection_diameter(family, t1, t2)
            ok &= sep >= 8 * delta
            worst = max(worst, diam * sep / delta)
        fitted[k] = worst
    ratio = fitted[6] / fitted[8]
    elapsed = time.monotonic() - start
    ok = ok and 0.25 <= ratio <= 4.0 and elapsed <= 60.0
    report(9, ok, f"fitted K: k=6 {fitted[6]:.2f}, k=8 {fitted[8]:.2f} "
                  f"(ratio {ratio:.2f} within factor 4), runtime={elapsed:.1f}s <= 60s")


def test_criterion_10_locus_dichotomy():
    fam_sz = kl.CurveFamily(n=3, C=WORST)
    rep1 = kl.locus_dichotomy_test(fam_sz, (0.0, 1.0), 0.5, trials=1000, seed=10)
    fam_diag = kl.CurveFamily(n=3, C=kl.RationalMatrix.diagonal([F(1, 4), F(-1, 4)]))
    rep2 = kl.locus_dichotomy_test(fam_diag, (1.0, 1.0), 0.5, trials=1000, seed=10)
    ok = rep1.omega_one_param and rep1.max_line_residual <= 1e-9
    ok &= rep2.omega_offline_witness >= 0.01
    report(10, ok, f"square-zero centres on the predicted line (max residual "
                   f"{rep1.max_line_residual:.1e}); diag(1/4,-1/4) witness off every "
                   f"line by {rep2.omega_offline_witness:.3f} >= 0.01")


def test_criterion_11_slice_equivalence():
    C = WORST
    fam = kl.CurveFamily(n=3, C=C)
    W = kl.w_matrix(C)
    dirs = [(F(i, 4), F(j, 4)) for i in range(-2, 2) for j in range(-2, 2)]
    assert len(dirs) == 16
    t0, t1, lam = F(0), F(1), F(1, 2)
    A, B, G = kl.slices_from_construction(fam, dirs, W, t0, t1, F(1, 32))
    sum_size = kl.x_sumset(A, B, G, kl.x_of_lambda(C, t0, t1, lam)).size
    t_mid = (1 - lam) * t0 + lam * t1
    mids = set()
    for y in dirs:
        om = tuple(W.mat_vec([F(c) for c in y]))
        mids.add(kl.curve_point(fam, kl.CurveParams(y=y, omega=om), t_mid)[:-1])
    ok = sum_size == len(mids)
    report(11, ok, f"middle-slice cardinality {len(mids)} equals X(lambda)-sumset "
                   f"cardinality {sum_size}, exactly")


def test_criterion_12_rank_scaling():
    slopes = {}
    for r, zeros, ks in ((1, {1}, [3, 4, 5]), (2, {1, 3}, [4, 5, 6])):
        rows = [[0] * 4 for _ in range(4)]
        rows[0][1] = 1
        if r == 2:
            rows[2][3] = 1
        C = kl.RationalMatrix(rows)
        vols = {}
        for k in ks:
            spec = kl.build_worstcase_kakeya(C, k, directions=reduced_ball_net(k, zeros, 4))
            _, vols[k] = kl.union_volume(spec, k)
        slopes[r] = kl.box_dimension(lambda k: vols[k], ks, n=5).slope
    ok = slopes[1] <= 4.3 and slopes[2] <= 3.3
    report(12, ok, f"n=5 slopes: one block {slopes[1]:.3f} <= 4.3, "
                   f"two blocks {slopes[2]:.3f} <= 3.3")
