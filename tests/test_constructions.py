"""Named constructions: exact sizes, structure, and measure values."""

from fractions import Fraction
from math import comb

import pytest

from extremal.core import CapacityError, SetFamily, comb0, is_initial
from extremal.constructions import (
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
        with pytest.raises(CapacityError):
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

    def test_ground_beyond_capacity(self):
        with pytest.raises(CapacityError):
            disjoint_blocks(32, 2)


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
