"""Named constructions: exact sizes, structure, and measure values."""

from fractions import Fraction
from math import comb

import pytest

from extremal.core import (
    SetFamily,
    comb0,
    enumerate_ksubsets,
    is_initial,
    mask_of,
    prefix_mask,
)
from extremal.constructions import (
    CONSTRUCTION_IDS,
    brace_daykin,
    build,
    disjoint_blocks,
    example_1_7,
    example_1_8,
    example_3_10,
    fano,
    frankl_family,
    full_star,
    g_value,
    param_names,
    projective_plane,
    threshold_family,
    triangle_family,
)
from extremal.measures import (
    is_cross_t_intersecting,
    is_r_wise_t_intersecting,
    is_t_intersecting,
    rho,
    transversal_number,
)


class TestStar:
    def test_small(self):
        assert full_star(4, 2, 1).sets() == [(1, 2), (1, 3), (1, 4)]
        assert len(full_star(8, 3, 2)) == comb(6, 1)
        assert rho(full_star(9, 4, 1)) == 1


class TestFrankl:
    def test_size_and_measures(self):
        f = frankl_family(6, 3, 1)
        assert len(f) == 10
        assert is_t_intersecting(f, 1)
        assert transversal_number(f, 1) == 2

    def test_ekr_equality_point(self):
        # size exceeds the star below the threshold, equals it exactly there
        assert len(frankl_family(6, 3, 1)) == comb(5, 2)
        for n in (8, 9, 10):
            a = frankl_family(n, 4, 1)
            star = comb0(n - 1, 3)
            if n < 8:
                assert len(a) > star
            elif n == 8:  # (k-t+1)(t+1) = 8
                assert len(a) == star
            else:
                assert len(a) < star
        assert len(frankl_family(7, 4, 1)) > comb0(6, 3)


class TestTriangle:
    def test_sizes(self):
        assert len(triangle_family(6, 3)) == 10
        assert len(triangle_family(10, 4)) == 3 * comb(7, 2) + comb(7, 1) == 70

    def test_initial(self):
        assert is_initial(triangle_family(6, 3))
        assert is_initial(triangle_family(8, 3))

    def test_rho_near_two_thirds(self):
        f = triangle_family(30, 3)
        r = rho(f)
        assert r == Fraction(55, 82)
        assert abs(r - Fraction(2, 3)) < Fraction(1, 100)

    def test_rank_inequality_for_large_n(self):
        # strict gap used for the triangle threshold once n >= 6k
        for (n, k) in [(18, 3), (24, 4)]:
            t_size = len(triangle_family(n, k))
            assert 2 * comb0(n - 2, k - 2) + 4 * comb0(n - 3, k - 3) < t_size


class TestThreshold:
    def test_cross_pair(self):
        a = threshold_family(6, 3, 3, 2)
        assert is_cross_t_intersecting(a, a, 1)
        assert is_initial(a)

    def test_degenerate_levels(self):
        assert len(threshold_family(6, 3, 3, 4)) == 0
        assert len(threshold_family(6, 3, 3, 0)) == comb(6, 3)


class TestExample17:
    def test_sizes_equal(self):
        left, right = example_1_7(10, 4)
        assert len(left) == len(right) == 65
        assert is_cross_t_intersecting(left, right, 1)

    def test_bound_comparison_reported_not_asserted(self):
        left, _ = example_1_7(10, 4)
        # 2C(n-2,k-2) + 2C(n-3,k-3) - 5C(n-4,k-4); the displayed ">" is equality here
        assert 2 * comb0(8, 2) + 2 * comb0(7, 1) - 5 * comb0(6, 0) == len(left) == 65

    def test_rho_below_threshold(self):
        left, right = example_1_7(10, 4)
        cap = Fraction(1, 2) + Fraction(10 - 4, 2 * (10 - 2) * 2)
        thr = Fraction(1, 2) + Fraction(4 - 2, 2 * (10 - 2))
        assert rho(left) == rho(right) < thr


class TestExample18:
    def test_sizes(self):
        fa, gb = example_1_8(10, 4)
        assert len(fa) == 2 * comb(8, 2) - comb(6, 0) == 55
        assert len(gb) == 4 * comb(6, 2) + 4 * comb(6, 1) + comb(6, 0) == 85

    @pytest.mark.parametrize("n", range(4, 11))
    def test_side_closed_forms(self, n):
        for k in range(2, n + 1):
            fa, gb = example_1_8(n, k)
            assert len(fa) == 2 * comb0(n - 2, k - 2) - comb0(n - 4, k - 4)
            assert len(gb) == 4 * comb0(n - 4, k - 2) + 4 * comb0(n - 4, k - 3) + comb0(n - 4, k - 4)

    def test_cross_and_rho(self):
        fa, gb = example_1_8(10, 4)
        assert is_cross_t_intersecting(fa, gb, 1)
        thr = Fraction(1, 2) + Fraction(4 - 2, 2 * (10 - 2))
        assert rho(fa) < thr and rho(gb) < thr


class TestExample310:
    def test_g_values(self):
        assert g_value(6, 2) == 6
        g_fam, f_fam = example_3_10(6, 2)
        assert len(g_fam) == 3 and len(f_fam) == 3

    def test_pair_properties(self):
        g_fam, f_fam = example_3_10(8, 3)
        assert is_initial(g_fam) and is_initial(f_fam)
        assert is_cross_t_intersecting(g_fam, f_fam, 1)
        assert len(g_fam) + len(f_fam) == g_value(8, 3)

    def test_rho_of_small_side(self):
        g_fam, _ = example_3_10(8, 3)
        assert rho(g_fam) == Fraction(3, 4)  # k/(k+1) at k=3


class TestBraceDaykin:
    def test_sizes(self):
        assert sum(len(s) for s in brace_daykin(4, 3)) == 5
        assert sum(len(s) for s in brace_daykin(6, 3)) == 20

    def test_r_wise_slices(self):
        for s in brace_daykin(7, 3):
            assert is_r_wise_t_intersecting(s, 3, 1)

    def test_nontrivial_whole_family(self):
        members = [m for s in brace_daykin(6, 3) for m in s.members]
        acc = (1 << 6) - 1
        for m in members:
            acc &= m
        assert acc == 0


def reference_brace_daykin(n, r):
    """The loop `brace_daykin` had before it shifted the outside bits into place."""
    window = list(range(1, r + 2))
    cores = [mask_of(set(window) - {i}) for i in window] + [mask_of(window)]
    outside = [i for i in range(r + 2, n + 1)]
    by_size = {}
    for core in cores:
        for bits in range(1 << len(outside)):
            m = core
            bb = bits
            while bb:
                low = bb & -bb
                m |= 1 << (outside[low.bit_length() - 1] - 1)
                bb ^= low
            by_size.setdefault(m.bit_count(), []).append(m)
    return tuple(SetFamily(n, s, ms) for s, ms in sorted(by_size.items()))


class TestBraceDaykinOracle:
    @pytest.mark.parametrize("n", range(4, 13))
    def test_matches_reference(self, n):
        for r in range(3, n):
            got, want = brace_daykin(n, r), reference_brace_daykin(n, r)
            assert [(s.n, s.k, s.members) for s in got] == [(s.n, s.k, s.members) for s in want]


class TestPlanes:
    def test_fano(self):
        f = fano()
        assert f.n == 7 and f.k == 3 and len(f) == 7
        assert rho(f) == Fraction(3, 7)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
    def test_axioms(self, q):
        f = projective_plane(q)
        assert len(f) == q * q + q + 1
        assert rho(f) == Fraction(q + 1, q * q + q + 1)
        for i, a in enumerate(f.members):
            for b in f.members[i + 1 :]:
                assert (a & b).bit_count() == 1

    def test_order_eight_rejected(self):
        # _gf_ops has no GF(8); the ground set of 73 points is no limit
        with pytest.raises(ValueError, match="supported orders are 2,3,4,5,7"):
            projective_plane(8)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            projective_plane(6)


class TestBlocks:
    def test_small(self):
        p, r = disjoint_blocks(2, 2)
        assert p.sets() == [(1, 2), (3, 4)]
        assert sorted(r.sets()) == [(1, 3), (1, 4), (2, 3), (2, 4)]
        assert rho(p) == Fraction(1, 2) and rho(r) == Fraction(1, 2)

    def test_shapes_and_rho(self):
        p, r = disjoint_blocks(3, 2)
        assert len(p) == 2 and len(r) == 9
        assert rho(p) == Fraction(1, 2) and rho(r) == Fraction(1, 3)
        assert is_cross_t_intersecting(p, r, 1)

    def test_ground_beyond_63_elements(self):
        p, r = disjoint_blocks(32, 2)
        assert p.n == r.n == 64 and len(p) == 2 and len(r) == 1024
        assert is_cross_t_intersecting(p, r, 1)


class TestBuildRegistry:
    def test_single_and_pair(self):
        nf = build("triangle", (6, 3))
        assert nf.total_size() == 10
        nf = build("ex_1_8", (10, 4))
        assert [len(f) for _, f in nf.families] == [55, 85]
        nf = build("fano", ())
        assert nf.total_size() == 7

    def test_unknown(self):
        with pytest.raises(ValueError):
            build("nope", ())

    def test_wrong_parameter_count(self):
        with pytest.raises(ValueError, match=r"^star takes 3 parameters \(n, k, t\), got 2$"):
            build("star", (4, 2))
        with pytest.raises(ValueError, match=r"^fano takes 0 parameters, got 1$"):
            build("fano", (3,))


# small parameters for every id of the table
SMALL_PARAMS = {
    "star": (7, 3, 2),
    "frankl": (8, 4, 1),
    "triangle": (7, 3),
    "threshold": (7, 3, 4, 2),
    "ex_1_7": (8, 3),
    "ex_1_8": (8, 4),
    "ex_3_10": (7, 3),
    "brace_daykin": (7, 3),
    "blocks": (2, 3),
    "plane": (3,),
    "fano": (),
    "full": (6, 3),
}


class TestTable:
    def test_every_id_has_small_parameters(self):
        assert tuple(SMALL_PARAMS) == CONSTRUCTION_IDS
        for cid, params in SMALL_PARAMS.items():
            assert len(params) == len(param_names(cid)), cid

    @pytest.mark.parametrize("cid", CONSTRUCTION_IDS)
    def test_total_matches_closed_form(self, cid):
        nf = build(cid, SMALL_PARAMS[cid])
        assert nf.id == cid and nf.params == SMALL_PARAMS[cid]
        assert nf.total_size() > 0
        if cid != "ex_1_7":  # the one id without a closed form
            assert nf.total_size() == nf.predicted_size

    def test_brace_daykin_slots_by_uniformity(self):
        nf = build("brace_daykin", (7, 3))
        assert [label for label, _ in nf.families] == [f"s{f.k}" for _, f in nf.families]
        assert [f.k for _, f in nf.families] == [3, 4, 5, 6, 7]

    def test_shared_builds(self):
        assert full_star(7, 3, 1) is full_star(7, 3, 1)
        assert brace_daykin(6, 3) is brace_daykin(6, 3)


# ---------------------------------------------------------------------------
# The filters the threshold-family constructions had before they called
# `threshold_family`, as oracles.
# ---------------------------------------------------------------------------


def reference_frankl(n, k, t):
    win = prefix_mask(t + 2)
    return [m for m in enumerate_ksubsets(n, k) if (m & win).bit_count() >= t + 1]


def reference_triangle(n, k):
    win = prefix_mask(3)
    return [m for m in enumerate_ksubsets(n, k) if (m & win).bit_count() >= 2]


def reference_ex_3_10(n, k):
    win = prefix_mask(k + 1)
    g_members = [m for m in enumerate_ksubsets(n, k) if m & win == m]
    f_members = [m for m in enumerate_ksubsets(n, k) if (m & win).bit_count() >= 2]
    return g_members, f_members


class TestThresholdOracles:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_frankl(self, n):
        for k in range(n):
            for t in range(1, k):
                got = frankl_family(n, k, t)
                assert list(got.members) == reference_frankl(n, k, t), (n, k, t)
                assert len(got) == (t + 2) * comb0(n - t - 2, k - t - 1) + comb0(n - t - 2, k - t - 2)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_triangle(self, n):
        for k in range(2, n + 1):
            assert list(triangle_family(n, k).members) == reference_triangle(n, k), (n, k)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_ex_3_10(self, n):
        for k in range(1, n):
            g_fam, f_fam = example_3_10(n, k)
            g_ref, f_ref = reference_ex_3_10(n, k)
            assert list(g_fam.members) == g_ref and list(f_fam.members) == f_ref, (n, k)
            assert len(g_fam) + len(f_fam) == g_value(n, k)
