"""Core bitmask families: enumeration, restrictions, orders, file format."""

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from extremal.core import (
    CapacityError,
    SetFamily,
    avoid,
    dumps_family,
    elems_of,
    enumerate_ksubsets,
    is_initial,
    link,
    loads_family,
    mask_of,
    meet,
    trace,
)
from extremal.constructions import fano, frankl_family, full_star


def reference_shift_order_leq(p, q):
    """Coordinatewise domination of the sorted element lists of two equal-size sets."""
    return all(a <= b for a, b in zip(elems_of(p), elems_of(q)))


def fam(n, k, *sets):
    return SetFamily.from_sets(n, k, sets)


def rand_family(rng, n, k, density=0.4):
    return SetFamily(n, k, [m for m in enumerate_ksubsets(n, k) if rng.random() < density])


class TestEnumerate:
    def test_pairs_of_three(self):
        assert [elems_of(m) for m in enumerate_ksubsets(3, 2)] == [(1, 2), (1, 3), (2, 3)]

    def test_empty_set_only(self):
        assert enumerate_ksubsets(4, 0) == (0,)

    def test_count_six_choose_three(self):
        # oracle: direct binomial
        assert len(enumerate_ksubsets(6, 3)) == 20
        assert len(set(enumerate_ksubsets(6, 3))) == 20

    def test_ascending_canonical_order(self):
        masks = enumerate_ksubsets(7, 3)
        assert list(masks) == sorted(masks)

    def test_capacity_error(self):
        for _ in range(2):
            with pytest.raises(CapacityError):
                enumerate_ksubsets(64, 2)

    def test_k_range_error(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                enumerate_ksubsets(5, 6)
            with pytest.raises(ValueError):
                enumerate_ksubsets(5, -1)

    def test_built_once_per_n_k(self):
        masks = enumerate_ksubsets(6, 3)
        assert isinstance(masks, tuple)
        assert enumerate_ksubsets(6, 3) is masks

    def test_nothing_built_at_import(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = (
            "import extremal, extremal.cli, extremal.verify.recipes;"
            "print(extremal.core.enumerate_ksubsets.cache_info().currsize)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "0"


class TestRestrictions:
    def test_link_basic(self):
        f = fam(6, 3, (1, 2, 3), (1, 4, 5))
        assert link(f, (1,)).sets() == [(2, 3), (4, 5)]

    def test_link_absent_element(self):
        assert len(link(fam(6, 3, (1, 2, 3)), (4,))) == 0

    def test_link_frankl_at_one(self):
        # oracle: enumerate members of the construction and filter by hand
        f = frankl_family(6, 3, 1)
        by_hand = sum(1 for m in f.members if m & 1)
        assert by_hand == 7
        assert len(link(f, (1,))) == 7

    def test_avoid(self):
        f = fam(5, 2, (1, 2), (3, 4))
        assert avoid(f, (1,)).sets() == [(3, 4)]
        assert avoid(f, 0) == f
        assert len(avoid(fano(), (1,))) == 4

    def test_trace(self):
        f = fam(4, 3, (1, 2, 3), (2, 3, 4))
        assert trace(f, (2,), (1, 2)).sets() == [(3, 4)]
        with pytest.raises(ValueError):
            trace(f, (3,), (1, 2))

    def test_trace_degenerations(self):
        rng = random.Random(5)
        for _ in range(40):
            f = rand_family(rng, 7, 3)
            e = mask_of([x for x in range(1, 8) if rng.random() < 0.4])
            assert trace(f, e, e) == link(f, e)
            assert trace(f, 0, e) == avoid(f, e)

    def test_meet(self):
        f = fam(5, 2, (1, 2), (3, 4))
        assert len(meet(f, (1, 3))) == 2
        assert len(meet(fam(5, 2, (1, 2)), (3, 4))) == 0
        assert len(meet(fano(), (1, 2))) == 5

    def test_link_complement_count(self):
        rng = random.Random(9)
        for _ in range(30):
            f = rand_family(rng, 7, 3)
            e = mask_of(rng.sample(range(1, 8), 2))
            without = sum(1 for m in f.members if m & e != e)
            assert len(link(f, e)) + without == len(f)

    def test_trace_partition(self):
        rng = random.Random(11)
        for _ in range(30):
            f = rand_family(rng, 7, 3)
            e = mask_of([x for x in range(1, 8) if rng.random() < 0.5])
            total, sub = 0, e
            while True:
                total += len(trace(f, sub, e))
                if sub == 0:
                    break
                sub = (sub - 1) & e
            assert total == len(f)


class TestShiftOrder:
    """The shifting order that TestInitial uses as its oracle."""

    def test_examples(self):
        assert reference_shift_order_leq(mask_of((1, 2, 4)), mask_of((2, 3, 4)))
        assert not reference_shift_order_leq(mask_of((1, 5)), mask_of((2, 3)))
        m = mask_of((2, 4))
        assert reference_shift_order_leq(m, m)

    def test_partial_order_axioms_exhaustive(self):
        # all pairs at k <= 3, n <= 7
        for n, k in [(5, 2), (6, 3), (7, 3)]:
            masks = enumerate_ksubsets(n, k)
            for a in masks:
                assert reference_shift_order_leq(a, a)
            for a, b in combinations(masks, 2):
                ab, ba = reference_shift_order_leq(a, b), reference_shift_order_leq(b, a)
                assert not (ab and ba)  # antisymmetry on distinct sets
            for a in masks:
                for b in masks:
                    if not reference_shift_order_leq(a, b):
                        continue
                    for c in masks:
                        if reference_shift_order_leq(b, c):
                            assert reference_shift_order_leq(a, c)


class TestInitial:
    def test_examples(self):
        assert is_initial(fam(4, 2, (1, 2), (1, 3)))
        assert not is_initial(fam(4, 2, (2, 3)))
        assert is_initial(full_star(6, 3, 1))

    def test_against_predecessor_oracle(self):
        # oracle: downward closure checked against all coordinatewise-smaller sets
        rng = random.Random(3)
        masks = enumerate_ksubsets(6, 3)
        for _ in range(60):
            f = rand_family(rng, 6, 3, 0.35)
            have = set(f.members)
            oracle = all(
                p in have
                for g in f.members
                for p in masks
                if reference_shift_order_leq(p, g)
            )
            assert is_initial(f) == oracle

    def test_initial_degree_monotone(self):
        from extremal.measures import degree

        rng = random.Random(7)
        for _ in range(60):
            f = rand_family(rng, 6, 3, 0.35)
            if not is_initial(f) or not f.members:
                continue
            degs = [degree(f, i) for i in range(1, 7)]
            assert all(degs[i] >= degs[i + 1] for i in range(5))


class TestFamilyValidation:
    def test_duplicate_and_range(self):
        with pytest.raises(ValueError):
            mask_of((1, 1))
        with pytest.raises(CapacityError):
            mask_of((64,))
        with pytest.raises(ValueError):
            SetFamily(5, 2, [mask_of((1, 2, 3))])
        with pytest.raises(ValueError):
            SetFamily(4, 2, [mask_of((3, 5))])

    def test_empty_family_is_legal(self):
        f = SetFamily(6, 3, [])
        assert len(f) == 0
        assert len(avoid(f, (1,))) == 0


class TestTextFormat:
    def test_round_trip(self):
        f = fam(6, 3, (1, 2, 5), (2, 3, 4))
        assert loads_family(dumps_family(f)) == f

    def test_comments_and_blanks(self):
        text = "# a family\n\n6 3\n1,2,5  # member\n\n2,3,4\n"
        f = loads_family(text)
        assert f.n == 6 and f.k == 3 and len(f) == 2

    def test_header_required(self):
        with pytest.raises(ValueError):
            loads_family("1,2,3\n")

    def test_empty_family_file(self):
        f = loads_family("5 2\n")
        assert len(f) == 0 and f.n == 5 and f.k == 2
