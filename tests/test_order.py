"""Lex machinery and shadows: segments, Kruskal-Katona floor, shadow bounds."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from extremal.core import SetFamily, elems_of, enumerate_ksubsets, mask_of
from extremal.constructions import fano, full_star
from extremal.measures import is_cross_t_intersecting, is_t_intersecting
from extremal.order import (
    hilton_transfer,
    improved_shadow_applicable,
    katona_bound_holds,
    katona_shadow_ratio,
    kk_min_shadow,
    lex_masks,
    lex_segment,
    shadow,
)
from extremal.verify.registry import Instance, check_statement


def reference_lex_leq(a, b):
    """Lex order on equal-size sets, reflexive: a first when the least element of a ^ b is in a."""
    diff = a ^ b
    return not diff or bool(a & (diff & -diff))


def reference_unrank_lex(ground_elems, k, r):
    """The r-th (0-based) k-subset of the ground in lex order, by ranking."""
    out = []
    pos = 0
    need = k
    while need:
        cnt = comb(len(ground_elems) - pos - 1, need - 1)
        if r < cnt:
            out.append(ground_elems[pos])
            need -= 1
        else:
            r -= cnt
        pos += 1
    return mask_of(out)


def cross_shadow_verdict(a, b, t, l1, l2):
    return check_statement("CROSS_SHADOW", Instance((a, b), {"t": t, "l1": l1, "l2": l2})).verdict


def fam(n, k, *sets):
    return SetFamily.from_sets(n, k, sets)


def rand_family(rng, n, k, density=0.4):
    return SetFamily(n, k, [m for m in enumerate_ksubsets(n, k) if rng.random() < density])


class TestLexOrder:
    """The lex order that TestLexSegment uses as its oracle."""

    def test_examples(self):
        assert reference_lex_leq(mask_of((1, 2, 9)), mask_of((1, 3, 4)))
        assert not reference_lex_leq(mask_of((2, 3)), mask_of((1, 9)))
        m = mask_of((2, 5))
        assert reference_lex_leq(m, m)

    def test_total_order(self):
        masks = enumerate_ksubsets(6, 3)
        for a in masks:
            for b in masks:
                assert reference_lex_leq(a, b) or reference_lex_leq(b, a)
                if a != b:
                    assert reference_lex_leq(a, b) != reference_lex_leq(b, a)


class TestLexSegment:
    def test_basic(self):
        assert lex_segment((1, 2, 3, 4), 2, 3).sets() == [(1, 2), (1, 3), (1, 4)]
        assert len(lex_segment((1, 2, 3, 4), 2, 0)) == 0

    def test_against_sorted_enumeration(self):
        # oracle: sort the full enumeration by the lex comparator
        import functools

        ground = tuple(range(1, 7))
        full = enumerate_ksubsets(6, 3)
        ordered = sorted(full, key=functools.cmp_to_key(lambda a, b: -1 if reference_lex_leq(a, b) and a != b else (0 if a == b else 1)))
        seg = lex_masks(ground, 3, 11)
        assert seg == ordered[:11]
        assert elems_of(seg[-1]) == (2, 3, 4)

    def test_unrank_agrees_with_stream(self):
        for ground, k in [(tuple(range(1, 8)), 3), ((2, 3, 5, 8, 13), 2), ((4, 9), 0),
                          ((1, 2, 3), 3), ((), 0)]:
            size = comb(len(ground), k)
            masks = lex_masks(ground, k, size)
            assert masks == [reference_unrank_lex(ground, k, r) for r in range(size)]
            for m in range(size + 1):
                assert lex_masks(ground, k, m) == masks[:m]

    def test_range_validation(self):
        with pytest.raises(ValueError):
            lex_segment((1, 2, 3), 2, 4)


class TestShadow:
    def test_examples(self):
        assert shadow(fam(3, 3, (1, 2, 3)), 1).sets() == [(1, 2), (1, 3), (2, 3)]
        assert shadow(SetFamily(3, 2, enumerate_ksubsets(3, 2)), 1).sets() == [(1,), (2,), (3,)]
        assert len(shadow(fano(), 1)) == 21

    def test_zeroth_shadow_identity(self):
        f = fam(6, 3, (1, 2, 4), (2, 3, 5))
        assert shadow(f, 0) == f

    def test_composition(self):
        rng = random.Random(1)
        for _ in range(30):
            f = rand_family(rng, 7, 3, 0.3)
            assert shadow(shadow(f, 1), 1) == shadow(f, 2)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            shadow(fam(5, 2, (1, 2)), 3)


class TestKKMin:
    def test_small_values(self):
        # colex prefix of size 4 at (6,3) is all triples of [4]
        assert kk_min_shadow(6, 3, 4, 1) == 6
        assert kk_min_shadow(6, 3, 1, 1) == comb(3, 2)
        assert kk_min_shadow(6, 3, comb(6, 3), 1) == comb(6, 2)
        assert kk_min_shadow(6, 3, 0, 1) == 0

    def test_true_minimum_by_exhaustion(self):
        # oracle: minimum over every family of each size at (5,3)
        masks = enumerate_ksubsets(5, 3)
        best = {m: None for m in range(len(masks) + 1)}
        for bits in range(1 << len(masks)):
            members = [masks[i] for i in range(len(masks)) if bits >> i & 1]
            f = SetFamily(5, 3, members)
            size = len(shadow(f, 1))
            prev = best[len(members)]
            best[len(members)] = size if prev is None else min(prev, size)
        for m, true_min in best.items():
            assert kk_min_shadow(5, 3, m, 1) == true_min

    def test_every_family_respects_floor(self):
        rng = random.Random(2)
        for _ in range(100):
            f = rand_family(rng, 8, 3, rng.random())
            assert len(shadow(f, 1)) >= kk_min_shadow(8, 3, len(f), 1)


class TestHilton:
    def test_tiny_example(self):
        a = fam(4, 2, (1, 2), (1, 3))
        b = fam(4, 2, (1, 2), (1, 4))
        assert hilton_transfer(a, b)

    def test_empty(self):
        assert hilton_transfer(SetFamily(4, 2, []), SetFamily(4, 2, []))

    def test_lex_cache_is_bounded(self):
        from extremal.order import lex_cross_intersecting

        maxsize = lex_cross_intersecting.cache_info().maxsize
        assert maxsize is not None and maxsize > 0

    def test_precondition(self):
        with pytest.raises(ValueError):
            hilton_transfer(fam(5, 2, (1, 2)), fam(5, 2, (3, 4)))
        with pytest.raises(ValueError):
            hilton_transfer(fam(3, 2, (1, 2)), fam(3, 2, (1, 2)))

    def test_exhaustive_small(self):
        # all cross-intersecting pairs over C([5],2); dual-based pruning
        masks = enumerate_ksubsets(5, 2)
        meet_rows = []
        for a in masks:
            row = 0
            for j, b in enumerate(masks):
                if a & b:
                    row |= 1 << j
            meet_rows.append(row)
        checked = 0
        for abits in range(1 << 10):
            dual = (1 << 10) - 1
            aa = abits
            while aa:
                low = aa & -aa
                dual &= meet_rows[low.bit_length() - 1]
                aa ^= low
            a_fam = SetFamily(5, 2, [masks[i] for i in range(10) if abits >> i & 1])
            sub = dual
            while True:
                b_fam = SetFamily(5, 2, [masks[i] for i in range(10) if sub >> i & 1])
                assert hilton_transfer(a_fam, b_fam)
                checked += 1
                if sub == 0:
                    break
                sub = (sub - 1) & dual
        assert checked == 6212


class TestKatonaBounds:
    def test_ratio_values(self):
        assert katona_shadow_ratio(2, 1, 1) == 1
        assert katona_shadow_ratio(3, 1, 1) == 1
        assert katona_shadow_ratio(3, 2, 1) == Fraction(3, 2)

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            katona_shadow_ratio(3, 1, 2)

    def test_bound_on_random_intersecting(self):
        rng = random.Random(3)
        star = full_star(7, 3, 1)
        for _ in range(50):
            members = [m for m in star.members if rng.random() < 0.6]
            if not members:
                continue
            f = SetFamily(7, 3, members)
            assert katona_bound_holds(f, 1, 1)

    def test_improved_shadow(self):
        ok, bound = improved_shadow_applicable(SetFamily(10, 4, []), 2, 1)
        assert bound == Fraction(3, 2)
        assert not ok
        # threshold C(6,4)*(3/2) = 22.5, so 23 members apply and 22 do not
        star = full_star(10, 4, 2)
        f23 = SetFamily(10, 4, star.members[:23])
        f22 = SetFamily(10, 4, star.members[:22])
        assert improved_shadow_applicable(f23, 2, 1)[0]
        assert not improved_shadow_applicable(f22, 2, 1)[0]

    def test_cross_shadow_dichotomy(self):
        tri = SetFamily(3, 2, enumerate_ksubsets(3, 2))
        assert cross_shadow_verdict(tri, tri, 1, 1, 1) == "pass"
        s = full_star(6, 3, 2)
        assert cross_shadow_verdict(s, s, 2, 1, 1) == "pass"
        assert cross_shadow_verdict(SetFamily(6, 3, []), s, 2, 1, 1) == "vacuous"

    def test_cross_shadow_sampled(self):
        rng = random.Random(4)
        masks = enumerate_ksubsets(7, 3)
        for _ in range(50):
            a = SetFamily(7, 3, [m for m in masks if rng.random() < 0.2])
            if not a.members:
                continue
            dual = [c for c in masks if all(c & m for m in a.members)]
            b = SetFamily(7, 3, [c for c in dual if rng.random() < 0.5])
            if not b.members:
                continue
            assert is_cross_t_intersecting(a, b, 1)
            assert cross_shadow_verdict(a, b, 1, 1, 1) == "pass"
