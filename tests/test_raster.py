import hashlib
import itertools
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kakeya_lab as kl
from kakeya_lab import raster

from conftest import hairbrush_oracle, meet_oracle, reduced_ball_net, stamp_oracle
from kakeya_lab.raster import _BLOCK_ROWS

ZERO2 = kl.RationalMatrix.zero(2)
WORST = kl.companion([0, 0])


def straight_family():
    return kl.CurveFamily(n=3, C=ZERO2)


class TestRasterize:
    def test_empty(self):
        spec = kl.TubeFamilySpec(family=straight_family(), tubes=())
        cs = kl.rasterize(spec, 5)
        assert cs.cell_count == 0 and cs.volume() == 0.0

    def test_single_straight_tube_volume(self):
        k = 6
        delta = 2.0**-k
        tube = kl.TubeSpec(params=kl.CurveParams(y=(0.25, 0.1), omega=(0.0, 0.0)), delta=delta)
        spec = kl.TubeFamilySpec(family=straight_family(), tubes=[tube])
        vol = kl.rasterize(spec, k).volume()
        # cross-section is roughly a delta-disc per height slice of length ~2
        rough = 2 * delta**2 * 2
        assert rough / 4 <= vol <= rough * 4

    def test_matches_brute_force_reference(self):
        k = 4
        delta = 2.0**-k
        R = 2**k
        y = np.array([0.3, -0.2])
        w = np.array([0.11, 0.07])
        C = kl.RationalMatrix([[F(1, 4), 0], [F(1, 8), F(-1, 8)]])
        fam = kl.CurveFamily(n=3, C=C)
        tube = kl.TubeSpec(params=kl.CurveParams(y=tuple(y), omega=tuple(w)), delta=delta)
        cs = kl.rasterize(kl.TubeFamilySpec(family=fam, tubes=[tube]), k)
        Cf = C.to_float()
        ref = set()
        for ib in range(-R - 1, R + 1):
            tc = (ib + 0.5) * delta
            if not -1 <= tc <= 1:
                continue
            c = w - tc * y - tc * tc * (Cf @ y)
            for j1 in range(-R - 1, R + 1):
                for j2 in range(-R - 1, R + 1):
                    ctr = np.array([(j1 + 0.5) * delta, (j2 + 0.5) * delta])
                    if np.sum((ctr - c) ** 2) < delta * delta:
                        ref.add((j1, j2, ib))
        assert set(cs.occupied) == ref

    def test_order_independent(self):
        k = 5
        delta = 2.0**-k
        rng = np.random.default_rng(0)
        tubes = [
            kl.TubeSpec(params=kl.CurveParams(y=tuple(rng.uniform(-0.5, 0.5, 2)),
                                              omega=tuple(rng.uniform(-0.5, 0.5, 2))),
                        delta=delta)
            for _ in range(12)
        ]
        fam = straight_family()
        a = kl.rasterize(kl.TubeFamilySpec(family=fam, tubes=tubes), k)
        b = kl.rasterize(kl.TubeFamilySpec(family=fam, tubes=tubes[::-1]), k)
        assert a.occupied == b.occupied

    def test_volume_monotone_and_subadditive(self):
        k = 5
        delta = 2.0**-k
        rng = np.random.default_rng(1)
        tubes = [
            kl.TubeSpec(params=kl.CurveParams(y=tuple(rng.uniform(-0.5, 0.5, 2)),
                                              omega=tuple(rng.uniform(-0.5, 0.5, 2))),
                        delta=delta)
            for _ in range(8)
        ]
        fam = straight_family()
        vol_all = kl.rasterize(kl.TubeFamilySpec(family=fam, tubes=tubes), k).volume()
        vol_half = kl.rasterize(kl.TubeFamilySpec(family=fam, tubes=tubes[:4]), k).volume()
        singles = sum(kl.rasterize(kl.TubeFamilySpec(family=fam, tubes=[t]), k).volume()
                      for t in tubes)
        assert vol_half <= vol_all <= singles

    def test_union_volume_agrees(self):
        k = 5
        spec = kl.build_worstcase_kakeya(WORST, k)
        cs = kl.rasterize(spec, k)
        count, vol = kl.union_volume(spec, k)
        assert count == cs.cell_count and abs(vol - cs.volume()) < 1e-15

    def test_resolution_guard(self):
        with pytest.raises(kl.ResolutionTooFine):
            kl.rasterize(kl.TubeFamilySpec(family=straight_family(), tubes=()), 13)

    @pytest.mark.parametrize("reduce", [kl.union_volume, lambda s, k: kl.covering_norm(s, 2.0, k)],
                             ids=["union_volume", "covering_norm"])
    def test_resolution_guard_in_every_reduction(self, reduce):
        # the kernel refuses k > MAX_K itself, as rasterize does: both answered one tube at 2^-13
        spec = kl.TubeFamilySpec(straight_family(), Y=[[0.1, 0.2]], W=[[0.0, 0.0]], delta=2.0**-13)
        with pytest.raises(kl.ResolutionTooFine, match="supported maximum"):
            reduce(spec, 13)

    def test_delta_mismatch(self):
        tube = kl.TubeSpec(params=kl.CurveParams(y=(0.0, 0.0), omega=(0.0, 0.0)), delta=0.25)
        with pytest.raises(ValueError):
            kl.rasterize(kl.TubeFamilySpec(family=straight_family(), tubes=[tube]), 5)


def three_tubes(n, k, seed=0):
    """Three random tubes of the nilpotent shift family in dimension n."""
    rng = np.random.default_rng(seed)
    d = n - 1
    tubes = [
        kl.TubeSpec(params=kl.CurveParams(y=tuple(rng.uniform(-0.5, 0.5, d) / math.sqrt(d)),
                                          omega=tuple(rng.uniform(-0.3, 0.3, d))),
                    delta=2.0**-k)
        for _ in range(3)
    ]
    return kl.TubeFamilySpec(family=kl.CurveFamily(n=n, C=kl.companion([0] * d)), tubes=tubes)


def assert_stamps_match_oracle(spec, k):
    """Cells, union count and covering norms at p' = 2 (bit for bit) and 1.5 agree with stamp_oracle."""
    want = stamp_oracle(spec, k)
    assert kl.rasterize(spec, k).occupied == frozenset(want)
    assert kl.union_volume(spec, k)[0] == len(want)
    for p in (2.0, 1.5):
        norm = ((2.0**-k) ** spec.family.n * sum(c**p for c in want.values())) ** (1 / p)
        got = kl.covering_norm(spec, p, k)
        assert got == norm if p == 2.0 else math.isclose(got, norm, rel_tol=1e-12)
    return want


class TestKeyRange:
    """Packed cell keys at the edges of int64, against the brute-force oracle."""

    @staticmethod
    def _assert_matches_oracle(spec, k, monkeypatch):
        """assert_stamps_match_oracle, returning the dedupe branches that ran: "counted"
        in place, or the key dtype ("int32" or "int64") that _distinct sorted."""
        ran, sorted_keys = set(), []
        distinct, stamp = raster._distinct, raster._stamp

        def distinct_spy(keys):
            sorted_keys.append(keys.dtype.name)
            return distinct(keys)

        def stamp_spy(spec, k):
            for block in stamp(spec, k):
                ran.add(sorted_keys.pop() if sorted_keys else "counted")
                yield block

        monkeypatch.setattr(raster, "_distinct", distinct_spy)
        monkeypatch.setattr(raster, "_stamp", stamp_spy)
        assert_stamps_match_oracle(spec, k)
        return ran

    @pytest.mark.parametrize("n,k", [(5, 11), (9, 6), (3, 12)])
    def test_matches_oracle(self, n, k, monkeypatch):
        assert self._assert_matches_oracle(three_tubes(n, k), k, monkeypatch) == {"int64"}

    def test_counted_worst_case_matches_oracle(self, monkeypatch):
        # 797 tubes: a block of 20 bands has 15,940 rows and a key space of 20 * 38^2 <= 4 * 15,940
        spec = kl.build_worstcase_kakeya(WORST, 4)
        assert self._assert_matches_oracle(spec, 4, monkeypatch) == {"counted"}

    @pytest.mark.parametrize("n", [3, 4])
    def test_gate_edge_matches_oracle(self, n, monkeypatch):
        # k = 1 (K = 10), the one band centred at t = 1/4: m tubes give m rows and a key space of
        # 10^(n-1), which is 2^(n-1) slots per row at m = 5^(n-1).  One tube fewer gives 2^(n-1)
        # slots more, the least excess a block can have: both sides are multiples of 2^(n-1).
        d, edge = n - 1, 5 ** (n - 1)
        rng = np.random.default_rng(n)
        family = kl.CurveFamily(n=n, C=kl.companion([0] * d))
        for m, branch in ((edge, "counted"), (edge - 1, "int32")):
            spec = kl.TubeFamilySpec(family, Y=rng.uniform(-0.6, 0.6, (m, d)), W=rng.uniform(-0.8, 0.8, (m, d)),
                                     delta=0.5, t_range=(0.0, 0.5))
            assert self._assert_matches_oracle(spec, 1, monkeypatch) == {branch}

    @pytest.mark.parametrize("bands, dtype", [(509, "int32"), (510, "int64")])
    def test_sorted_key_width_matches_oracle(self, bands, dtype, monkeypatch):
        # k = 10, one tube: one block of the given bands, a key space of bands * 2054^2,
        # 2^31 - 55,404 at 509 bands and 2^31 + 4,163,512 at 510
        assert (bands * 2054**2 < 2**31) == (dtype == "int32")
        tube = kl.TubeSpec(params=kl.CurveParams(y=(0.3, -0.2), omega=(0.1, 0.05)), delta=2.0**-10)
        spec = kl.TubeFamilySpec(straight_family(), [tube], t_range=(0.0, bands / 1024))
        assert self._assert_matches_oracle(spec, 10, monkeypatch) == {dtype}

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("u", [8.9, -9.1])
    def test_tube_one_cell_past_a_face(self, axis, u):
        # k = 3, box [-9, 8]: floor(u - 1/2) is 8 or -10, so one candidate per row lies outside
        omega = [0.1, -0.2]
        omega[axis] = u / 8
        tube = kl.TubeSpec(params=kl.CurveParams(y=(0.0, 0.0), omega=tuple(omega)), delta=2.0**-3)
        spec = kl.TubeFamilySpec(family=straight_family(), tubes=[tube])
        want = stamp_oracle(spec, 3)
        assert kl.rasterize(spec, 3).occupied == frozenset(want)
        assert kl.union_volume(spec, 3)[0] == len(want) > 0

    @pytest.mark.parametrize("n,k", [(6, 11), (7, 9), (8, 7), (9, 6)])
    def test_keys_past_int64_raise(self, n, k):
        # keys pack in base 2^(k+1) + 6: (2^(k+1) + 6)^(n-1) < 2^63 at k, not at k + 1
        assert kl.union_volume(three_tubes(n, k), k)[0] > 0
        spec = three_tubes(n, k + 1)
        for stamp in (kl.rasterize, kl.union_volume, lambda s, k: kl.covering_norm(s, 2.0, k)):
            with pytest.raises(kl.ResolutionTooFine):
                stamp(spec, k + 1)

    def test_per_band_budget_in_the_kernel(self, monkeypatch):
        # three tubes at n = 3 stamp 3 x 4 candidates per band: 12 fits, 11 does not, in all reductions
        spec = three_tubes(3, 3)
        monkeypatch.setattr(raster, "CELL_BUDGET", 12)
        with pytest.raises(kl.ResolutionTooFine):
            kl.rasterize(spec, 3)  # its total check over all bands fires first
        assert kl.union_volume(spec, 3)[0] > 0 and kl.covering_norm(spec, 2.0, 3) > 0
        monkeypatch.setattr(raster, "CELL_BUDGET", 11)
        for stamp in (kl.rasterize, kl.union_volume, lambda s, k: kl.covering_norm(s, 2.0, k)):
            with pytest.raises(kl.ResolutionTooFine, match="stamp budget"):
                stamp(spec, 3)


def symmetries(spec, k):
    """(paired tubes, flipped axes or None) that _stamp finds for spec at resolution k."""
    YR, WR = (np.multiply(a, 2.0**k, order="F") for a in (spec.Y, spec.W))
    bands = raster._band_indices(k, spec.t_range)
    _, paired, flip = raster._symmetries(spec.family.C, YR, WR, spec.family._cf @ YR.T, bands)
    return paired, flip


def symmetric_family(seed, k, half, d_symmetric, C=None):
    """A shuffled family of 2 * half + 1 tubes with non-dyadic y and omega: pairs (y, omega) and
    (-y, -omega), the zero tube, and with d_symmetric also the images (-D y, D omega) for
    D = (1, -1), under which C = [[0, a], [b, 0]] anticommutes."""
    rng = np.random.default_rng(seed)
    if C is None:
        C = kl.RationalMatrix([[0, F(int(rng.integers(1, 9)), 7)], [F(int(rng.integers(-9, 9)), 5), 0]])
    Y, W = rng.uniform(-0.5, 0.5, (half, 2)), rng.uniform(-1.2, 1.2, (half, 2))
    if d_symmetric:
        Y, W = Y[:half // 2], W[:half // 2]
        Y, W = np.vstack([Y, Y * [-1, 1]]), np.vstack([W, W * [1, -1]])
    Y, W = np.vstack([Y, -Y, [[0.0, 0.0]]]), np.vstack([W, -W, [[0.0, 0.0]]])
    perm = rng.permutation(len(Y))
    return kl.TubeFamilySpec(kl.CurveFamily(n=3, C=C), Y=Y[perm], W=W[perm], delta=2.0**-k)


def two_block_net(k):
    """The n = 5 companion-block family C = J + J (two nilpotent 2x2 blocks) on the net y_2 = y_4 = 0."""
    C = kl.RationalMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    return kl.build_worstcase_kakeya(C, k, directions=reduced_ball_net(k, {1, 3}, 4))


class TestStamping:
    """The stamping kernel's candidate window and its symmetric shortcuts, against stamp_oracle."""

    @pytest.mark.parametrize("u", [-1.5 - 2.0**-52, 1.5 + 2.0**-52])
    def test_window_holds_cells_at_just_under_one_cell(self, u):
        # u - 1/2 rounds to -2 at u = -1.5 - 2^-52, whose floor missed cell -3 (at distance 1 - 2^-52)
        spec = kl.TubeFamilySpec(straight_family(), Y=[[0.0, 0.0]], W=[[u / 8, 0.5 / 8]], delta=2.0**-3)
        want = assert_stamps_match_oracle(spec, 3)
        assert len(want) == 32 and {c[0] for c in want} == ({-3, -2} if u < 0 else {1, 2})

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("half", [10, 60])
    @pytest.mark.parametrize("d_symmetric", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_families_match_oracle(self, seed, d_symmetric, half, k):
        # 21 tubes sort their keys; 121 count them in place at k = 2 and 3
        spec = symmetric_family(seed, k, half, d_symmetric)
        assert symmetries(spec, k) == (half, [1] if d_symmetric else None)
        assert_stamps_match_oracle(spec, k)

    def test_symmetry_switch_off(self):
        k = 3
        spec = symmetric_family(7, k, 12, True)
        assert symmetries(spec, k) == (12, [1])
        W = spec.W.copy()
        W[0, 1] = np.nextafter(W[0, 1], 2.0)
        cases = {
            "one ulp": (kl.TubeFamilySpec(spec.family, Y=spec.Y, W=W, delta=spec.delta), (0, None)),
            "asymmetric t_range": (kl.TubeFamilySpec(spec.family, Y=spec.Y, W=spec.W, delta=spec.delta,
                                                     t_range=(-1.0, 0.7)), (12, None)),
            "nonzero diagonal": (symmetric_family(7, k, 12, True, kl.RationalMatrix([[0, 1], [F(1, 3), F(1, 9)]])),
                                 (12, None)),
            "duplicate tube": (kl.TubeFamilySpec(spec.family, Y=np.vstack([spec.Y, spec.Y[:1]]),
                                                 W=np.vstack([spec.W, spec.W[:1]]), delta=2.0**-k), (0, None)),
        }
        for name, (case, found) in cases.items():
            assert symmetries(case, k) == found, name
            assert_stamps_match_oracle(case, k)

    def test_two_block_net_finds_both_symmetries(self):
        k = 3
        spec = two_block_net(k)
        assert symmetries(spec, k) == (len(spec.Y) // 2, [1, 3])
        want = assert_stamps_match_oracle(spec, k)
        assert len(want) == 11_264

    @pytest.mark.parametrize("k, spec, flip", [(5, kl.build_worstcase_kakeya(WORST, 5), [1]),
                                               (3, two_block_net(3), [1, 3])],
                             ids=["n=3 worst case", "n=5 two-block net"])
    def test_band_reflected_blocks_are_stamped_once(self, k, spec, flip, monkeypatch):
        # every block the reductions see is a stamped one, bands b >= 0; they weight it for bands -1 - b
        seen, stamp = [], raster._stamp

        def stamp_spy(spec, k):
            for block in stamp(spec, k):
                seen.append((block[0], block[-1]))
                yield block

        monkeypatch.setattr(raster, "_stamp", stamp_spy)
        cells = kl.rasterize(spec, k).cells
        assert seen and all(b0 >= 0 and f == flip for b0, f in seen)
        assert kl.union_volume(spec, k)[0] == len(cells) and (cells[:, -1] < 0).sum() * 2 == len(cells)


@settings(max_examples=200, deadline=None)
@example([])
@given(st.lists(st.integers(0, 2**31 - 1) | st.integers(0, 40), max_size=40))
def test_distinct_matches_unique(values):
    want = np.unique(np.array(values, dtype=np.int64), return_counts=True)
    for dtype in (np.int32, np.int64):
        got = raster._distinct(np.array(values, dtype=dtype))
        for a, b in zip(got, want):
            assert a.dtype == np.int64 and np.array_equal(a, b)


class TestBoxDimension:
    @staticmethod
    def synthetic(builder_cells):
        return lambda k: kl.CellSet(n=3, k=k, occupied=builder_cells(k)).volume()

    def test_full_cube(self):
        def cells(k):
            r = 2**k
            return frozenset((i, j, h) for i in range(-r, r) for j in range(-r, r)
                             for h in range(-r, r)) if k <= 4 else frozenset()

        fit = kl.box_dimension(self.synthetic(cells), [2, 3, 4], n=3)
        assert abs(fit.slope - 3) < 1e-9

    def test_single_point(self):
        fit = kl.box_dimension(self.synthetic(lambda k: frozenset({(0, 0, 0)})), [3, 4, 5], n=3)
        assert abs(fit.slope - 0) < 1e-9

    def test_slab(self):
        def cells(k):
            r = 2**k
            return frozenset((0, j, h) for j in range(-r, r) for h in range(-r, r))

        fit = kl.box_dimension(self.synthetic(cells), [3, 4, 5], n=3)
        assert abs(fit.slope - 2) < 1e-9

    def test_needs_three_resolutions(self):
        with pytest.raises(ValueError):
            kl.box_dimension(self.synthetic(lambda k: frozenset({(0, 0, 0)})), [3, 4], n=3)

    def test_volume_builder_needs_n(self):
        with pytest.raises(TypeError):  # a volume does not say its ambient dimension
            kl.box_dimension(lambda k: 2.0**-k, [3, 4, 5])
        fit = kl.box_dimension(lambda k: 2.0**-k, [3, 4, 5], n=3)
        assert abs(fit.slope - 2) < 1e-9


class TestWorstCaseConstruction:
    def test_curves_lie_on_surface_exactly(self):
        spec = kl.build_worstcase_kakeya(WORST, 5)
        pts = []
        for tube in spec.tubes[::7]:
            for t in np.linspace(-1, 1, 7):
                pts.append(kl.curve_point(spec.family, tube.params, float(t)))
        assert kl.surface_residual(pts) <= 1e-12

    def test_full_height_range_for_vanishing_det(self):
        spec = kl.build_worstcase_kakeya(WORST, 5)
        assert spec.t_range == (-1.0, 1.0)

    def test_restricted_height_range_for_generic_block(self):
        C = kl.companion([3, 5])
        spec = kl.build_worstcase_kakeya(C, 6)
        cap = (2.0**-6) ** (1.0 / 3.0)
        assert abs(spec.t_range[1] - cap) < 1e-12

    def test_generic_block_volume_scaling(self):
        # measured |N_delta| <= K * delta^(1 + 1/3) with K stable across k
        C = kl.companion([F(1, 2), F(1, 3)])
        ratios = []
        for k in (5, 6, 7):
            spec = kl.build_worstcase_kakeya(C, k)
            vol = kl.rasterize(spec, k).volume()
            ratios.append(vol / (2.0**-k) ** (1 + 1 / 3))
        assert max(ratios) / min(ratios) < 4.0

    def test_not_companion_rejected(self):
        with pytest.raises(kl.NotCompanionForm):
            kl.build_worstcase_kakeya(kl.RationalMatrix([[0, 0], [1, 0]]), 5)

    def test_dimension_two_slope(self):
        vols = {}
        for k in (4, 5, 6):
            spec = kl.build_worstcase_kakeya(WORST, k)
            vols[k] = kl.rasterize(spec, k).volume()
        fit = kl.box_dimension(lambda k: vols[k], [4, 5, 6], n=3)
        assert 1.8 <= fit.slope <= 2.2
        # volume scales like delta itself (a surface neighbourhood), with a
        # stable constant across resolutions
        ratios = [vols[k] / 2.0**-k for k in (4, 5, 6)]
        assert all(1.0 <= r <= 16.0 for r in ratios)
        assert max(ratios) / min(ratios) < 2.0

    def test_rank_scaling_small(self):
        # n = 5 with two nilpotent 2x2 blocks: slope near 3
        rows = [[0] * 4 for _ in range(4)]
        rows[0][1] = 1
        rows[2][3] = 1
        C = kl.RationalMatrix(rows)
        vols = {}
        for k in (4, 5):
            dirs = reduced_ball_net(k, {1, 3}, 4)
            spec = kl.build_worstcase_kakeya(C, k, directions=dirs)
            _, vols[k] = kl.union_volume(spec, k)
        # even a two-point slope estimate should be close to 3
        slope = 5 - (math.log2(vols[4]) - math.log2(vols[5]))
        assert slope <= 3.4


class TestCoveringNorm:
    def test_single_tube_p2(self):
        k = 6
        tube = kl.TubeSpec(params=kl.CurveParams(y=(0.2, 0.0), omega=(0.1, 0.0)), delta=2.0**-k)
        spec = kl.TubeFamilySpec(family=straight_family(), tubes=[tube])
        vol = kl.rasterize(spec, k).volume()
        assert abs(kl.covering_norm(spec, 2.0, k) - math.sqrt(vol)) < 1e-12

    def test_disjoint_tubes(self):
        # offsets are multiples of delta so the tubes are exact grid translates
        k = 6
        tubes = [
            kl.TubeSpec(params=kl.CurveParams(y=(0.0, 0.0), omega=(x, 0.5)), delta=2.0**-k)
            for x in (-0.5, 0.0, 0.5)
        ]
        spec = kl.TubeFamilySpec(family=straight_family(), tubes=tubes)
        per = kl.rasterize(kl.TubeFamilySpec(family=straight_family(), tubes=tubes[:1]), k).volume()
        assert abs(kl.covering_norm(spec, 2.0, k) - math.sqrt(3 * per)) < 1e-10

    def test_identical_tubes_scalar_multiple(self):
        k = 6
        tube = kl.TubeSpec(params=kl.CurveParams(y=(0.2, 0.0), omega=(0.1, 0.0)), delta=2.0**-k)
        spec5 = kl.TubeFamilySpec(family=straight_family(), tubes=[tube] * 5)
        vol = kl.rasterize(kl.TubeFamilySpec(family=straight_family(), tubes=[tube]), k).volume()
        assert abs(kl.covering_norm(spec5, 2.0, k) - 5 * vol**0.5) < 1e-10

    def test_delta_mismatch(self):
        tube = kl.TubeSpec(params=kl.CurveParams(y=(0.0, 0.0), omega=(0.0, 0.0)), delta=0.25)
        with pytest.raises(ValueError):
            kl.covering_norm(kl.TubeFamilySpec(family=straight_family(), tubes=[tube]), 2.0, 5)

    def test_p1_is_total_mass(self):
        k = 5
        tubes = [
            kl.TubeSpec(params=kl.CurveParams(y=(0.1, 0.1), omega=(0.0, 0.0)), delta=2.0**-k),
            kl.TubeSpec(params=kl.CurveParams(y=(-0.2, 0.0), omega=(0.3, 0.1)), delta=2.0**-k),
        ]
        spec = kl.TubeFamilySpec(family=straight_family(), tubes=tubes)
        total = sum(kl.rasterize(kl.TubeFamilySpec(family=straight_family(), tubes=[t]), k).volume()
                    for t in tubes)
        assert abs(kl.covering_norm(spec, 1.0, k) - total) < 1e-12


class TestHairbrushDecompose:
    def _bush(self, count, delta):
        tubes = []
        for i in range(count):
            ang = 2 * math.pi * i / count
            y = (0.4 * math.cos(ang), 0.4 * math.sin(ang))
            tubes.append(kl.TubeSpec(params=kl.CurveParams(y=y, omega=(0.0, 0.0)), delta=delta))
        return tubes

    def test_all_through_one_point(self):
        delta = 2.0**-6
        tubes = self._bush(16, delta)
        spec = kl.TubeFamilySpec(family=straight_family(), tubes=tubes)
        dec = kl.hairbrush_decompose(spec, 10)
        assert len(dec.brushes) == 1 and len(dec.brushes[0]) == 16 and not dec.bad

    def test_pairwise_disjoint(self):
        delta = 2.0**-6
        tubes = [
            kl.TubeSpec(params=kl.CurveParams(y=(0.0, 0.0), omega=(-0.9 + 0.12 * i, 0.8)), delta=delta)
            for i in range(12)
        ]
        spec = kl.TubeFamilySpec(family=straight_family(), tubes=tubes)
        dec = kl.hairbrush_decompose(spec, 2)
        assert not dec.brushes and len(dec.bad) == 12

    def test_bush_plus_disjoint(self):
        delta = 2.0**-6
        tubes = self._bush(32, delta)
        for i in range(32):
            tubes.append(kl.TubeSpec(params=kl.CurveParams(y=(0.0, 0.0), omega=(-0.95 + i * 0.05, 0.8)),
                                     delta=delta))
        spec = kl.TubeFamilySpec(family=straight_family(), tubes=tubes)
        dec = kl.hairbrush_decompose(spec, 8)
        assert len(dec.brushes) == 1
        assert len(dec.brushes[0]) >= 32
        assert len(dec.bad) == 32

    @pytest.mark.parametrize("N", [0, -1])
    def test_threshold_below_one_raises(self, N):
        spec = kl.TubeFamilySpec(family=straight_family(), tubes=self._bush(2, 2.0**-6))
        with pytest.raises(kl.PreconditionViolation):
            kl.hairbrush_decompose(spec, N)

    def test_finer_than_max_k_is_refused_before_any_height(self, monkeypatch):
        # at delta = 2^-13 two tubes would take 2^14 + 1 meet heights, and finer deltas ever more
        spec = kl.TubeFamilySpec(family=straight_family(), tubes=self._bush(2, 2.0**-13))

        def centres(*args):
            raise AssertionError("heights were sampled")

        monkeypatch.setattr(raster, "_centres", centres)
        with pytest.raises(kl.ResolutionTooFine, match="2\\^-12"):
            kl.hairbrush_decompose(spec, 1)

    @staticmethod
    def _clustered(rng, family, count, deltas, hubs):
        """Tubes whose curves pass through one of the hub points (x, t), plus a
        random offset of up to a few deltas, cycling through the given deltas."""
        Cf = family.C.to_float()
        d = family.n - 1
        tubes = []
        for i in range(count):
            x, t = hubs[i % len(hubs)]
            delta = deltas[i % len(deltas)]
            y = rng.uniform(-0.6, 0.6, d)
            p = np.asarray(x) + rng.uniform(-3 * delta, 3 * delta, d)
            om = p + t * y + t * t * (Cf @ y)
            tubes.append(kl.TubeSpec(params=kl.CurveParams(y=tuple(y), omega=tuple(om)), delta=delta))
        return tubes

    def _oracle_case(self, name):
        rng = np.random.default_rng(7)
        if name == "worst-k3":
            return kl.build_worstcase_kakeya(WORST, 3), 8
        if name == "nondyadic-mixed-candidates":  # 60 tubes and 12 more at other deltas, through the same hubs
            fam = kl.CurveFamily(n=3, C=kl.RationalMatrix([[F(1, 3), F(-2, 5)], [F(3, 7), F(1, 5)]]))
            hubs = [((0.1, -0.2), 0.3), ((-0.3, 0.25), -0.4), ((0.4, 0.4), 0.6)]
            tubes = self._clustered(rng, fam, 60, [2.0**-5, 2.0**-8, 2.0**-6], hubs)
            tubes += self._clustered(rng, fam, 12, [2.0**-7, 2.0**-5], hubs)
            return kl.TubeFamilySpec(family=fam, tubes=tubes, t_range=(-0.5, 0.75)), 4
        fam = kl.CurveFamily(n=4, C=kl.companion([F(1, 3), F(-1, 5), F(2, 7)]))
        hubs = [((0.1, -0.2, 0.05), 0.2), ((-0.3, 0.25, -0.1), -0.5)]
        tubes = self._clustered(rng, fam, 50, [2.0**-5, 2.0**-6], hubs)
        return kl.TubeFamilySpec(family=fam, tubes=tubes), 5

    @staticmethod
    def _meet_bits(spec):
        """The packed meets of hairbrush_decompose, unpacked to a (tubes, tubes) bool array."""
        return np.unpackbits(raster._meets(spec), axis=1, count=len(spec.Y)).astype(bool)

    @pytest.mark.parametrize("name", ["worst-k3", "nondyadic-mixed-candidates", "n4"])
    def test_matches_oracle(self, name):
        spec, N = self._oracle_case(name)
        assert np.array_equal(self._meet_bits(spec), meet_oracle(spec))
        dec = kl.hairbrush_decompose(spec, N)
        assert dec.brushes, "the case should produce at least one brush"
        assert (dec.brushes, dec.bad, dec.centrals) == hairbrush_oracle(spec, N)

    @pytest.mark.parametrize("name", ["worst-k4", "mixed-delta"])
    def test_symmetric_packed_path_matches_candidates_and_oracle(self, name):
        # only half the meets are computed and the rest mirrored; several blocks, several row
        # chunks and a tube count that is not a multiple of 8 exercise the mirror and the packed tail
        if name == "worst-k4":  # the k=4 worst case over 1001 directions of the k=5 net
            spec, N = kl.build_worstcase_kakeya(WORST, 4, kl.ball_lattice_directions(2, 5)[:1001]), 8
        else:
            fam = kl.CurveFamily(n=3, C=kl.RationalMatrix([[F(1, 3), F(-2, 5)], [F(3, 7), F(1, 5)]]))
            hubs = [((0.1, -0.2), 0.3), ((-0.3, 0.25), -0.4), ((0.4, 0.4), 0.6)]
            tubes = self._clustered(np.random.default_rng(5), fam, 250, [2.0**-5, 2.0**-8, 2.0**-6], hubs)
            spec, N = kl.TubeFamilySpec(family=fam, tubes=tubes), 4
        m = len(spec.Y)
        per_block = _BLOCK_ROWS // len(raster._meet_heights(spec)[1])  # tubes per block, at most
        assert m % 8 and m > per_block and m > _BLOCK_ROWS // (per_block - 7)  # blocks and chunks
        bits, oracle = self._meet_bits(spec), meet_oracle(spec)
        assert np.array_equal(bits, oracle) and np.array_equal(bits, bits.T)
        dec = kl.hairbrush_decompose(spec, N)
        assert dec.brushes
        assert (dec.brushes, dec.bad, dec.centrals) == hairbrush_oracle(spec, N, meets=oracle)

    def test_parallel_pairs_at_the_reach(self):
        # parallel curves (equal y) at reach * (1 + j 2^-52) apart: L = 0, and the rounding of the
        # centres moves their distance by a few ulps from height to height, so some pairs come
        # within reach only at a fine height; only the rounding margin keeps the coarse pass
        # from deciding them
        fam = kl.CurveFamily(n=3, C=kl.RationalMatrix([[F(1, 3), F(-2, 5)], [F(3, 7), F(1, 5)]]))
        delta, reach = 2.0**-6, 2.0**-5
        rng = np.random.default_rng(1)
        tubes = []
        for _ in range(100):
            y, w, ang = rng.uniform(-0.7, 0.7, 2), rng.uniform(-0.5, 0.5, 2), rng.uniform(0, 2 * np.pi)
            apart = reach * (1 + int(rng.integers(-30, 30)) * 2.0**-52)
            for omega in (w, w + apart * np.array([np.cos(ang), np.sin(ang)])):
                tubes.append(kl.TubeSpec(params=kl.CurveParams(y=tuple(y), omega=tuple(omega)), delta=delta))
        spec = kl.TubeFamilySpec(family=fam, tubes=tubes)
        ts, idx = raster._meet_heights(spec)
        oracle = meet_oracle(spec)
        paths = raster._centres(fam, spec.Y, spec.W, ts)
        sq = ((paths[:, 0::2] - paths[:, 1::2]) ** 2).sum(axis=0)
        assert ((np.sqrt(sq.min(axis=1)) <= reach) & (np.sqrt(sq[:, idx].min(axis=1)) > reach)).any()
        assert np.array_equal(self._meet_bits(spec), oracle)

    @pytest.mark.parametrize("t_range", [(-1.0, 1.0), (-0.5, 0.75)])
    def test_coarse_pass_edges(self, t_range):
        # straight tubes (C = 0) at delta = 2^-6, reach 2^-5, placed around the coarse samples:
        # tube 0 sits at the origin; tubes 1 and 2 cross at a height strictly between two samples
        # and are out of reach at every sample; tube 3 passes tube 0 at 5/4 reach at a sample,
        # inside the Lipschitz slack, and never meets it; tube 4 is exactly at reach from tube 0
        # at a sample and tube 5 one float further.
        delta, reach = 2.0**-6, 2.0**-5
        probe = kl.TubeFamilySpec(family=straight_family(), t_range=t_range,
                                  tubes=[kl.TubeSpec(params=kl.CurveParams(y=(0.0, 0.0), omega=(0.0, 0.0)),
                                                     delta=delta)])
        ts, idx = raster._meet_heights(probe)
        gaps = np.diff(idx)
        assert gaps[0] > 2 and gaps[-1] != gaps[0]  # (H - 1) is not a multiple of the stride
        t_fine, t_s = ts[(idx[1] + idx[2]) // 2], ts[idx[2]]
        params = [((0.0, 0.0), (0.0, 0.0)),
                  ((0.9, 0.0), (0.9 * t_fine, 0.0)), ((-0.9, 0.0), (-0.9 * t_fine, 0.0)),
                  ((0.9, 0.0), (0.9 * t_s, 1.25 * reach)),
                  ((0.5, 0.0), (0.5 * t_s, reach)), ((0.5, 0.0), (0.5 * t_s, np.nextafter(reach, 1.0)))]
        tubes = [kl.TubeSpec(params=kl.CurveParams(y=y, omega=w), delta=delta) for y, w in params]
        spec = kl.TubeFamilySpec(family=straight_family(), tubes=tubes, t_range=t_range)
        paths = [np.asarray(w) - ts[:, None] * np.asarray(y) for y, w in params]

        def dist(a, b):
            return np.sqrt(((paths[a] - paths[b]) ** 2).sum(axis=1))

        assert dist(1, 2).min() == 0.0 and (dist(1, 2)[idx] > reach).all()
        lipschitz_slack = 0.9 * np.diff(ts[idx]).max() / 2
        assert reach < dist(0, 3)[idx].min() <= reach + lipschitz_slack and dist(0, 3).min() > reach
        assert dist(0, 4)[idx].min() == reach and dist(0, 5).min() > reach
        bits = self._meet_bits(spec)
        assert np.array_equal(bits, meet_oracle(spec))
        assert bits[1, 2] and bits[0, 4] and not bits[0, 3] and not bits[0, 5]


class TestSurfaceResidual:
    def test_exact_construction(self):
        # centres (0, -y1) put every curve on the product surface exactly
        fam = kl.CurveFamily(n=3, C=WORST)
        pts = []
        for y in [(0.3, 0.7), (-0.5, 0.2), (0.9, -0.4)]:
            p = kl.CurveParams(y=y, omega=(0.0, -y[0]))
            for t in np.linspace(-1, 1, 9):
                pts.append(kl.curve_point(fam, p, float(t)))
        assert kl.surface_residual(pts) <= 1e-15

    def test_generic_points_off_surface(self):
        rng = np.random.default_rng(2)
        pts = [tuple(rng.uniform(-1, 1, 3)) for _ in range(200)]
        assert kl.surface_residual(pts) > 0.01

    def test_empty(self):
        assert kl.surface_residual([]) == 0.0

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            kl.surface_residual([(1.0, 2.0)])


def test_cellset_json_roundtrip():
    cs = kl.CellSet(n=3, k=4, occupied=frozenset({(0, 1, 2), (-3, 0, 5)}))
    assert kl.CellSet.from_json(cs.to_json()) == cs


class TestCellSet:
    def test_rows_sorted_and_distinct(self):
        cs = kl.CellSet(n=3, k=4, occupied=[(0, 1, 2), (-3, 0, 5), (0, 1, 2), (0, -1, 7)])
        assert cs.cells.tolist() == [[-3, 0, 5], [0, -1, 7], [0, 1, 2]]
        assert cs.cell_count == 3 and cs.volume() == 3 * 2.0**-12

    @pytest.mark.parametrize("cells", [{(1, 2), (1, 2, 3, 4)}, {(1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12)}])
    def test_wrong_cell_length_raises(self, cells):
        with pytest.raises(ValueError):
            kl.CellSet(n=3, k=4, occupied=cells)

    def test_occupied_roundtrip_equal_and_hash(self):
        cs = kl.rasterize(kl.build_worstcase_kakeya(WORST, 4), 4)
        again = kl.CellSet(n=cs.n, k=cs.k, occupied=cs.occupied)
        assert again == cs and hash(again) == hash(cs)
        assert kl.CellSet(n=cs.n, k=cs.k + 1, occupied=cs.occupied) != cs

    def test_to_json_digest_pinned(self):
        # sha256 over the compact to_json() of the n = 3 worst case at k = 3..6,
        # recorded from the frozenset-backed CellSet before the switch to rows
        h = hashlib.sha256()
        for k in range(3, 7):
            cs = kl.rasterize(kl.build_worstcase_kakeya(WORST, k), k)
            h.update(json.dumps(cs.to_json(), separators=(",", ":")).encode())
        assert h.hexdigest() == "84fdecacfe0adbb1c6880a6cfe8c069680acdbaf95de1fc5ef2350aaa7971bcb"


class TestColumnarSpec:
    def test_directions_of_wrong_length_raise(self):
        with pytest.raises(ValueError):
            kl.build_worstcase_kakeya(WORST, 3, directions=[(0.0, 0.25, 0.5), (0.5, 0.0, 0.25)])

    def test_arrays_and_tubes_agree(self):
        k = 4
        fam = kl.CurveFamily(n=3, C=kl.RationalMatrix([[F(1, 3), F(-2, 5)], [F(3, 7), F(1, 5)]]))
        rng = np.random.default_rng(3)
        Y, W = rng.uniform(-0.5, 0.5, (40, 2)), rng.uniform(-0.3, 0.3, (40, 2))
        by_arrays = kl.TubeFamilySpec(fam, t_range=(-0.75, 0.5), Y=Y, W=W, delta=2.0**-k)
        tubes = [kl.TubeSpec(params=kl.CurveParams(y=tuple(y), omega=tuple(w)), delta=2.0**-k)
                 for y, w in zip(Y, W)]
        by_tubes = kl.TubeFamilySpec(fam, tubes, (-0.75, 0.5))
        assert by_arrays.tubes == tuple(tubes)
        assert kl.rasterize(by_arrays, k) == kl.rasterize(by_tubes, k)
        assert kl.union_volume(by_arrays, k) == kl.union_volume(by_tubes, k)
        assert kl.covering_norm(by_arrays, 2.0, k) == kl.covering_norm(by_tubes, 2.0, k)
        assert kl.hairbrush_decompose(by_arrays, 3) == kl.hairbrush_decompose(by_tubes, 3)

    def test_array_shapes_checked(self):
        fam = straight_family()
        with pytest.raises(ValueError):
            kl.TubeFamilySpec(fam, Y=np.zeros((4, 3)), W=np.zeros((4, 3)), delta=0.25)
        with pytest.raises(ValueError):
            kl.TubeFamilySpec(fam, Y=np.zeros((4, 2)), W=np.zeros((3, 2)), delta=0.25)
        with pytest.raises(ValueError):
            kl.TubeFamilySpec(fam, Y=np.zeros((4, 2)), W=np.zeros((4, 2)), delta=[0.25, 0.5])
        with pytest.raises(ValueError):
            kl.TubeFamilySpec(fam, Y=np.zeros((4, 2)), W=np.zeros((4, 2)), delta=1.0)

    @pytest.mark.parametrize("bad", ["nan direction", "inf centre", "nan delta", "inf delta"])
    @pytest.mark.parametrize("op", ["rasterize", "union_volume", "hairbrush_decompose"])
    def test_non_finite_tubes_raise(self, op, bad):
        # such a tube would otherwise stamp no cells and meet no tube, silently
        k = 4
        Y, W, delta = np.full((3, 2), 0.25), np.zeros((3, 2)), np.full(3, 2.0**-k)
        arr = {"direction": Y, "centre": W, "delta": delta}[bad.split()[1]]
        arr.flat[1] = np.nan if bad.startswith("nan") else np.inf
        run = {"rasterize": lambda spec: kl.rasterize(spec, k),
               "union_volume": lambda spec: kl.union_volume(spec, k),
               "hairbrush_decompose": lambda spec: kl.hairbrush_decompose(spec, 1)}[op]
        with pytest.raises(ValueError):
            run(kl.TubeFamilySpec(straight_family(), Y=Y, W=W, delta=delta))
        if "delta" not in bad:
            tubes = [kl.TubeSpec(params=kl.CurveParams(y=tuple(y), omega=tuple(w)), delta=2.0**-k)
                     for y, w in zip(Y.tolist(), W.tolist())]
            with pytest.raises(ValueError):
                run(kl.TubeFamilySpec(straight_family(), tubes))


def _worst4():
    return kl.build_worstcase_kakeya(kl.companion([0, 0]), 4)


ZERO_FAMILY = kl.CurveFamily(n=3, C=kl.RationalMatrix.zero(2))
ONE_TUBE = [kl.TubeSpec(params=kl.CurveParams(y=(0.2, 0.1), omega=(0.0, 0.0)), delta=0.25)]


@pytest.mark.parametrize("call, error, match", [
    (lambda: kl.covering_norm(_worst4(), 0.5, 4), ValueError, "at least 1"),
    # the L^inf norm is the largest overlap count, not the 1.0 that (sum count^p')^(1/p') gives in floats
    (lambda: kl.covering_norm(_worst4(), math.inf, 4), ValueError, "finite"),
    (lambda: kl.covering_norm(_worst4(), math.nan, 4), ValueError, "finite"),
    (lambda: kl.box_dimension(lambda k: kl.CellSet(3, k, [] if k == 4 else [(0, 0, 0)]).volume(), [3, 4, 5], n=3),
     ValueError, "k=4"),
    (lambda: kl.box_dimension(lambda k: math.nan if k == 4 else 0.5, [3, 4, 5], n=3), ValueError, "k=4"),
    (lambda: kl.box_dimension(lambda k: math.inf, [3, 4, 5], n=3), ValueError, "k=3"),
    (lambda: kl.build_worstcase_kakeya(kl.companion([0, 0, 0]), 7), kl.ResolutionTooFine, "explicit directions"),
    (lambda: kl.TubeFamilySpec(ZERO_FAMILY, ONE_TUBE, t_range=(-1.5, 1.0)), ValueError, "t_range"),
    (lambda: kl.TubeFamilySpec(ZERO_FAMILY, ONE_TUBE, t_range=(0.5, 0.5)), ValueError, "t_range"),
    (lambda: kl.TubeFamilySpec(ZERO_FAMILY, ONE_TUBE, Y=[[0.2, 0.1]], W=[[0.0, 0.0]], delta=0.25),
     ValueError, "either tubes or"),
    (lambda: kl.TubeFamilySpec(ZERO_FAMILY), ValueError, "either tubes or"),
    (lambda: kl.hairbrush_decompose(kl.TubeFamilySpec(ZERO_FAMILY, []), 1), ValueError, "at least one tube"),
    # one ulp off 2^-12: a 1e-15 slack (about 18,000 ulps at k = 12) stamped it at 2^-12
    (lambda: kl.union_volume(kl.TubeFamilySpec(ZERO_FAMILY, Y=[[0.2, 0.1]], W=[[0.0, 0.0]],
                                               delta=2.0**-12 * (1 + 2.0**-52)), 12), ValueError, "2\\^-k"),
], ids=["p'<1", "p'=inf", "p'=nan", "empty at k", "nan volume", "inf volume", "net too large",
        "t_range outside", "t_range empty", "tubes and arrays", "neither", "no candidates", "delta 1 ulp off"])
def test_raster_typed_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("dim, k", [(2, 2), (3, 3), (2, 5)])
def test_ball_lattice_is_decided_exactly(dim, k):
    # checked against exact rationals; the points on the unit sphere, such as (1, 0), are in
    grid = itertools.product(range(-2**k, 2**k + 1), repeat=dim)
    want = {tuple(g * 2.0**-k for g in p) for p in grid if sum(F(g, 2**k) ** 2 for g in p) <= 1}
    got = kl.ball_lattice_directions(dim, k)
    assert len(got) == len(set(got)) and set(got) == want
