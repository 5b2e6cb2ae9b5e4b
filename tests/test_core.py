"""Core bitmask families: enumeration, restrictions, orders, file format."""

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from extremal.core import (
    SetFamily,
    avoid,
    columns,
    dumps_family,
    elems_of,
    enumerate_ksubsets,
    is_initial,
    link,
    loads_family,
    mask_of,
    meet,
    prefix_mask,
    trace,
)
from extremal.constructions import fano, frankl_family, full_star


def reference_shift_order_leq(p, q):
    """Coordinatewise domination of the sorted element lists of two equal-size sets."""
    return all(a <= b for a, b in zip(elems_of(p), elems_of(q)))


def reference_unit_predecessors(mask):
    """The old generator: each element y >= 2 of `mask` with y-1 absent, moved to y-1."""
    m = mask
    while m:
        low = m & -m
        m ^= low
        if low > 1 and not mask & (low >> 1):
            yield (mask ^ low) | (low >> 1)


def reference_is_initial(f, upto=None):
    """The old `is_initial` loop: every unit predecessor that moves an element y <= upto is in f."""
    upto = f.n if upto is None else upto
    limit = 1 << max(upto, 0)
    have = set(f.members)
    return all(
        pred in have or mem ^ pred >= limit
        for mem in f.members
        for pred in reference_unit_predecessors(mem)
    )


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

    def test_ground_beyond_63_elements(self):
        masks = enumerate_ksubsets(64, 2)
        assert len(masks) == 2016 and masks[-1] == (1 << 63) | (1 << 62)

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


def validated_trace(f, e0m, em):
    """`trace` built through SetFamily's validation, as it was before it trusted its members."""
    t = e0m.bit_count()
    if t > f.k:
        return SetFamily(f.n, 0, ())
    return SetFamily(f.n, f.k - t, (m & ~em for m in f.members if m & em == e0m))


def small_sets(n, most):
    """Every subset of [n] with at most `most` elements, as a mask."""
    return [m for size in range(most + 1) for m in enumerate_ksubsets(n, size)]


class TestTrustedRestrictions:
    """`link` and `trace` skip validation: their members are distinct and sorted anyway."""

    def check(self, f):
        for em in small_sets(f.n, 3):
            assert link(f, em).members == validated_trace(f, em, em).members
            e0m = em
            while True:
                got, want = trace(f, e0m, em), validated_trace(f, e0m, em)
                assert (got.n, got.k, got.members) == (want.n, want.k, want.members)
                if e0m == 0:
                    break
                e0m = (e0m - 1) & em

    def test_every_family_5_2(self):
        masks = enumerate_ksubsets(5, 2)
        for bits in range(1 << len(masks)):
            self.check(SetFamily(5, 2, [m for i, m in enumerate(masks) if bits >> i & 1]))

    def test_seeded_8_3(self):
        rng = random.Random(18)
        for density in (0.1, 0.3, 0.6, 0.9):
            for _ in range(5):
                self.check(rand_family(rng, 8, 3, density))


class TestRestrictionFilters:
    """`link`, `avoid`, `trace` and `meet` against comprehension filters, E larger than k included."""

    @staticmethod
    def parts(f):
        return (f.n, f.k, f.members)

    @staticmethod
    def traced(f, e0, e):
        if e0.bit_count() > f.k:
            return (f.n, 0, ())
        return (f.n, f.k - e0.bit_count(), tuple(m & ~e for m in f.members if m & e == e0))

    def check(self, f, e0, e):
        assert self.parts(trace(f, e0, e)) == self.traced(f, e0, e)
        assert self.parts(link(f, e)) == self.traced(f, e, e)
        assert self.parts(avoid(f, e)) == (f.n, f.k, tuple(m for m in f.members if not m & e))
        assert self.parts(meet(f, e)) == (f.n, f.k, tuple(m for m in f.members if m & e))

    def test_seeded_families(self):
        rng = random.Random(24)
        for _ in range(300):
            n = rng.randint(2, 8)
            f = rand_family(rng, n, rng.randint(0, n), rng.random())
            e = rng.randrange(1 << n)
            e0 = e & rng.randrange(1 << n)
            self.check(f, e0, e)

    def test_e_larger_than_k(self):
        rng = random.Random(25)
        for n in range(3, 9):
            f = rand_family(rng, n, 2)
            e = prefix_mask(3)
            for e0 in (0, 1, 3, 7):
                self.check(f, e0, e)
            assert len(link(f, e)) == 0 and link(f, e).k == 0
            assert avoid(f, e).k == 2


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

    def test_bit_rule_matches_reference_on_small_spaces(self):
        # every family with C(n,k) <= 12, every upto in -1..n and the default
        families = 0
        for n in range(2, 13):
            for k in range(n + 1):
                masks = enumerate_ksubsets(n, k)
                if len(masks) > 12:
                    continue
                for bits in range(1 << len(masks)):
                    members = [m for i, m in enumerate(masks) if bits >> i & 1]
                    f = SetFamily(n, k, members, _trusted=True)
                    want = [reference_is_initial(f, upto) for upto in range(-1, n + 1)]
                    # the partial answers before and after the cached one on [n]
                    assert [is_initial(f, upto) for upto in range(-1, n)] == want[:-1]
                    assert is_initial(f) == want[-1] and f._initial is want[-1]
                    assert is_initial(f, n) == want[-1]
                    assert [is_initial(f, upto) for upto in range(-1, n)] == want[:-1]
                    assert is_initial(SetFamily(n, k, members, _trusted=True), n) == want[-1]
                    families += 1
        assert families == 18_528

    def test_cached_answer_does_not_leak_into_upto(self):
        # {1,3} lacks its predecessor {1,2}, which moves 3 -> 2: initial on [2], not on [4]
        f = fam(4, 2, (1, 3))
        assert is_initial(f, 2) and f._initial is None
        assert not is_initial(f)
        assert f._initial is False
        assert is_initial(f, 2)
        assert not is_initial(f, 4)
        # a cached True on [n] is not read for a smaller upto either
        g = fam(4, 2, (1, 2), (1, 3))
        assert is_initial(g) and g._initial is True
        assert is_initial(g, 1) and is_initial(g, -1) and is_initial(g, 4)
        with pytest.raises(ValueError):
            is_initial(g, 5)

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
        with pytest.raises(ValueError):
            mask_of((2, 5, 2))
        with pytest.raises(ValueError):
            mask_of((0, 1))
        assert mask_of((64,)) == 1 << 63
        with pytest.raises(ValueError):
            SetFamily(5, 2, [mask_of((1, 2, 3))])
        with pytest.raises(ValueError):
            SetFamily(4, 2, [mask_of((3, 5))])

    def test_empty_family_is_legal(self):
        f = SetFamily(6, 3, [])
        assert len(f) == 0
        assert len(avoid(f, (1,))) == 0


class TestColumns:
    def test_transpose_of_members(self):
        rng = random.Random(5)
        for n, k, density in ((6, 3, 0.4), (9, 4, 0.6), (12, 2, 0.9), (5, 2, 0.0)):
            f = rand_family(rng, n, k, density)
            want = [
                sum(1 << p for p, m in enumerate(f.members) if m >> e & 1) for e in range(n)
            ]
            assert columns(f.members, n) == want
            assert sum(c.bit_count() for c in columns(f.members, n)) == k * len(f)

    def test_transpose_across_blocks(self):
        # 1,140 positions: a full block of 1,024 and a partial one
        masks = enumerate_ksubsets(20, 3)
        want = [sum(1 << p for p, m in enumerate(masks) if m >> e & 1) for e in range(20)]
        assert len(masks) == 1140 and columns(masks, 20) == want


class TestHash:
    def test_hash_is_the_tuple_hash_computed_once(self):
        f = rand_family(random.Random(6), 9, 4, 0.5)
        assert f._hash is None
        assert hash(f) == hash((f.n, f.k, f.members))
        assert hash(f) == hash(SetFamily(9, 4, f.members)) and f._hash == hash(f)
        # later calls read the slot rather than hashing the members again
        f._hash = 12345
        assert hash(f) == 12345


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

    def test_element_above_n_refused_before_packing(self):
        # packed first, the element 10**8 would cost a 12.5 MB mask; a typo costs no memory
        with pytest.raises(ValueError, match=r"set \(3, 100000000\) has an element above n=5"):
            loads_family("5 2\n1,2\n3,100000000\n")
        assert loads_family("64 1\n64\n").members == (1 << 63,)
