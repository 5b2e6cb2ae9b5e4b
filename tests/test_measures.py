"""Scalar invariants: degrees, rho, transversals, matchings, intersection levels."""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

from extremal.core import SetFamily, enumerate_ksubsets, link, mask_of
from extremal.constructions import fano, frankl_family, full_star, projective_plane
from extremal.measures import (
    _min_intersection_over,
    _minimal,
    addable_r_wise,
    addable_t_intersecting,
    degree,
    degree_vector,
    grow,
    is_cross_t_intersecting,
    is_nontrivial_masks,
    is_pseudo_t_intersecting,
    is_r_wise_t_intersecting,
    is_r_wise_t_intersecting_masks,
    is_saturated,
    is_t_intersecting,
    matching_number,
    max_pair_degree,
    measure_profile,
    rho,
    t_level,
    transversal_number,
)
from extremal.shifting import And
from extremal.verify.harness import gen_slices, initial_families


def fam(n, k, *sets):
    return SetFamily.from_sets(n, k, sets)


def rand_family(rng, n, k, density=0.4):
    return SetFamily(n, k, [m for m in enumerate_ksubsets(n, k) if rng.random() < density])


# brute-force oracles, kept independent of the implementations they check


def reference_is_star(f, t=1):
    """Nonempty, with at least t elements common to every member."""
    common = (1 << f.n) - 1
    for m in f.members:
        common &= m
    return bool(f.members) and common.bit_count() >= t


def oracle_transversal(f, t):
    for size in range(0, f.n + 1):
        for cand in combinations(range(1, f.n + 1), size):
            cm = mask_of(cand)
            if all((m & cm).bit_count() >= t for m in f.members):
                return size
    raise AssertionError("no transversal found")


def oracle_matching(f):
    best = 0
    ms = f.members
    for size in range(1, len(ms) + 1):
        found = False
        for combo in combinations(ms, size):
            union = 0
            ok = True
            for m in combo:
                if union & m:
                    ok = False
                    break
                union |= m
            if ok:
                found = True
                break
        if found:
            best = size
        else:
            break
    return best


def oracle_t_level(f, j):
    if not f.members:
        return f.k
    jj = min(j, len(f.members))
    best = f.k
    for combo in combinations(f.members, jj):
        inter = combo[0]
        for m in combo[1:]:
            inter &= m
        best = min(best, inter.bit_count())
    return best


class TestDegreesAndRho:
    def test_degree_examples(self):
        assert degree(fano(), 1) == 3
        assert degree(full_star(6, 3, 1), 1) == 10
        assert degree(fam(4, 2, (1, 2)), 3) == 0

    def test_rho_star_is_one(self):
        assert rho(full_star(7, 3, 1)) == 1
        assert rho(full_star(8, 3, 2)) == 1

    def test_rho_projective_planes(self):
        for q in (2, 3, 4, 5, 7):
            f = projective_plane(q)
            assert rho(f) == Fraction(q + 1, q * q + q + 1)

    def test_rho_frankl(self):
        assert rho(frankl_family(6, 3, 1)) == Fraction(7, 10)

    def test_rho_one_iff_star(self):
        rng = random.Random(2)
        for _ in range(100):
            f = rand_family(rng, 6, 3, 0.3)
            if f.members:
                assert (rho(f) == 1) == reference_is_star(f)

    def test_rho_empty_convention(self):
        assert rho(SetFamily(6, 3, [])) == 0

    def test_cached_rho_equals_uncached_every_family_5_2(self):
        for f in all_families(5, 2):
            top = max(sum(m >> i & 1 for m in f.members) for i in range(f.n))
            uncached = Fraction(top, len(f)) if f.members else Fraction(0)
            assert rho(f) == uncached
            assert f._rho == uncached and rho(f) == uncached


    @pytest.mark.parametrize("n,k", [(7, 3), (8, 3)])
    def test_rho_of_initial_reads_element_one(self, n, k):
        for members in initial_families(n, k):
            f = SetFamily(n, k, members, _trusted=True)
            f._initial = True
            want = Fraction(max(degree_vector(f)), len(f)) if members else Fraction(0)
            assert rho(f) == want

    def test_rho_of_marked_shift_outputs(self):
        from extremal.shifting import ALWAYS, RhoAtMost, shift_ad_extremis

        rng = random.Random(19)
        marked = 0
        for run in range(120):
            n = rng.randint(4, 8)
            k = rng.randint(2, min(4, n - 2))
            f = rand_family(rng, n, k, rng.choice((0.1, 0.3, 0.6)))
            guard = And((RhoAtMost(0, Fraction(2, 3)),))
            prop = guard if run % 2 and guard.holds((f,)) else ALWAYS
            g = shift_ad_extremis((f,), prop)[0][0]
            if g._initial:
                marked += 1
                want = Fraction(max(degree_vector(g)), len(g)) if g.members else Fraction(0)
                assert rho(g) == want
        assert marked > 60


class TestTransversal:
    def test_examples(self):
        assert transversal_number(frankl_family(6, 3, 1), 1) == 2
        assert transversal_number(full_star(8, 3, 2), 2) == 2
        assert transversal_number(fano(), 1) == 3
        # tau_1 = q + 1, and tau_{q+1} is the point count q^2 + q + 1
        for q, taus in ((2, [3, 6, 7]), (3, [4, 9, 12, 13]), (4, [5, 12, 15, 20, 21])):
            f = projective_plane(q)
            assert [transversal_number(f, t) for t in range(1, f.k + 1)] == taus

    def test_tau_t_iff_t_star(self):
        rng = random.Random(4)
        for _ in range(60):
            f = rand_family(rng, 7, 3, 0.25)
            if not f.members:
                continue
            assert (transversal_number(f, 1) == 1) == reference_is_star(f, 1)

    def test_against_brute_force(self):
        rng = random.Random(6)
        for n in range(2, 9):
            for k in range(1, min(n, 4) + 1):
                for _ in range(40):
                    f = rand_family(rng, n, k, 0.3)
                    if not f.members:
                        continue
                    for t in range(1, k + 1):
                        assert transversal_number(f, t) == oracle_transversal(f, t)

    def test_validation(self):
        assert transversal_number(SetFamily(6, 3, []), 1) == 0
        with pytest.raises(ValueError):
            transversal_number(fam(6, 3, (1, 2, 3)), 4)


class TestMatching:
    def test_examples(self):
        assert matching_number(fam(4, 2, (1, 2), (3, 4))) == 2
        assert matching_number(fam(6, 2, (1, 2), (3, 4), (5, 6))) == 3
        assert matching_number(fano()) == 1
        assert matching_number(SetFamily(6, 3, [])) == 0

    def test_intersecting_iff_nu_one(self):
        rng = random.Random(8)
        for _ in range(80):
            f = rand_family(rng, 7, 3, 0.2)
            if not f.members:
                continue
            assert (matching_number(f) == 1) == is_t_intersecting(f, 1)

    def test_against_brute_force(self):
        rng = random.Random(10)
        for _ in range(40):
            f = rand_family(rng, 8, 3, 0.2)
            assert matching_number(f) == oracle_matching(f)

    def test_every_family_5_2(self):
        masks = enumerate_ksubsets(5, 2)
        for bits in range(1 << len(masks)):
            f = SetFamily(5, 2, [m for i, m in enumerate(masks) if bits >> i & 1], _trusted=True)
            assert matching_number(f) == oracle_matching(f)

    def test_every_initial_family_7_3(self):
        # most reach floor(7/3) = 2 early, where the bound exit ends the search
        families = initial_families(7, 3)
        assert len(families) == 352
        for members in families:
            f = SetFamily(7, 3, members, _trusted=True)
            assert matching_number(f) == oracle_matching(f)


class TestMatchingSmallSpaces:
    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in range(2, 11) for k in range(n + 1) if comb(n, k) <= 10]
    )
    def test_every_family(self, n, k):
        # k = 0 included: {∅} holds one empty member, a matching of size 1
        for f in all_families(n, k):
            assert matching_number(f) == oracle_matching(f), f


class TestIntersectingPredicates:
    def test_t_intersecting_examples(self):
        assert is_t_intersecting(SetFamily(3, 2, enumerate_ksubsets(3, 2)), 1)
        assert not is_t_intersecting(fam(6, 3, (1, 2, 3), (1, 4, 5)), 2)
        assert is_t_intersecting(frankl_family(6, 3, 1), 1)

    def test_t_above_k(self):
        assert not is_t_intersecting(fam(6, 3, (1, 2, 3)), 4)
        assert is_t_intersecting(SetFamily(6, 3, []), 4)

    def test_cross_examples(self):
        from extremal.constructions import example_1_7

        left, right = example_1_7(8, 3)
        assert is_cross_t_intersecting(left, right, 1)
        assert is_cross_t_intersecting(SetFamily(6, 3, []), rand_family(random.Random(0), 6, 3), 1)
        assert not is_cross_t_intersecting(fam(5, 2, (1, 2)), fam(5, 2, (3, 4)), 1)

    def test_cross_ground_mismatch(self):
        with pytest.raises(ValueError):
            is_cross_t_intersecting(fam(5, 2, (1, 2)), fam(6, 2, (1, 2)), 1)

    def test_r_wise(self):
        from extremal.constructions import brace_daykin

        slices = brace_daykin(6, 3)
        four = next(s for s in slices if s.k == 4)
        assert is_r_wise_t_intersecting(four, 3, 1)
        assert not is_r_wise_t_intersecting(fam(4, 2, (1, 2), (1, 3), (2, 3)), 3, 1)
        assert is_r_wise_t_intersecting(full_star(7, 3, 1), 5, 1)
        with pytest.raises(ValueError):
            is_r_wise_t_intersecting(fano(), 1, 1)

    def test_common_part_exit_matches_definitions(self):
        # the predicates answer True from one AND pass when all members share t points;
        # every family with C(n, k) <= 10 (n >= 2, as SetFamily requires), against the definitions
        grid = [(n, k) for n in range(2, 11) for k in range(n + 1) if comb(n, k) <= 10]
        checked = 0
        for n, k in grid:
            for f in all_families(n, k):
                ms = f.members
                for t in range(k + 2):
                    pairwise = all((a & b).bit_count() >= t for a, b in combinations(ms, 2))
                    assert is_t_intersecting(f, t) == (pairwise and (not ms or t <= k)), (f, t)
                    for r in (2, 3):
                        r_wise = all(
                            _and_all(c).bit_count() >= t
                            for c in combinations_with_replacement(ms, r)
                        )
                        assert is_r_wise_t_intersecting_masks(ms, r, t) == r_wise, (f, r, t)
                    checked += 1
        assert checked > 20_000

    def test_r_wise_against_brute_force(self):
        rng = random.Random(12)
        for _ in range(40):
            f = rand_family(rng, 7, 3, 0.25)
            for r in (2, 3, 4):
                for t in (1, 2):
                    expected = (
                        not f.members
                        or (f.k >= t and oracle_t_level(f, r) >= t)
                    )
                    assert is_r_wise_t_intersecting(f, r, t) == expected


class TestTLevels:
    def test_examples(self):
        assert t_level(SetFamily(3, 2, enumerate_ksubsets(3, 2)), 2) == 1
        assert t_level(fano(), 2) == 1
        assert t_level(fano(), 3) == 0
        assert t_level(SetFamily(6, 3, []), 2) == 3

    def test_star_levels_stay_equal(self):
        f = full_star(7, 3, 2)
        assert t_level(f, 2) == t_level(f, 3) == 2

    def test_nonincreasing_in_j(self):
        rng = random.Random(14)
        for _ in range(40):
            f = rand_family(rng, 7, 3, 0.3)
            levels = [t_level(f, j) for j in (2, 3, 4)]
            assert levels == sorted(levels, reverse=True)

    def test_against_brute_force(self):
        rng = random.Random(16)
        for _ in range(40):
            f = rand_family(rng, 7, 3, 0.3)
            if not f.members:
                continue
            for j in (2, 3, 4):
                assert t_level(f, j) == oracle_t_level(f, j)


class TestPseudo:
    def test_examples(self):
        assert is_pseudo_t_intersecting(fam(6, 3, (1, 5, 6)), 1)
        assert not is_pseudo_t_intersecting(fam(6, 3, (2, 4, 6)), 1)

    def test_shifted_t_intersecting_is_pseudo(self):
        from extremal.shifting import shift_ad_extremis
        from extremal.shifting import ALWAYS

        base = SetFamily(5, 3, enumerate_ksubsets(5, 3))  # C([2k-t],k) at k=3,t=1
        shifted, _ = shift_ad_extremis((base,), ALWAYS)
        assert is_t_intersecting(shifted[0], 1)
        assert is_pseudo_t_intersecting(shifted[0], 1)

    def test_shifted_random_t_intersecting_is_pseudo(self):
        from extremal.shifting import ALWAYS, shift_ad_extremis

        rng = random.Random(18)
        hits = 0
        for _ in range(60):
            f = rand_family(rng, 8, 3, 0.15)
            shifted, _ = shift_ad_extremis((f,), ALWAYS)
            g = shifted[0]
            if g.members and is_t_intersecting(g, 1):
                hits += 1
                assert is_pseudo_t_intersecting(g, 1)
        assert hits > 5


class TestSaturate:
    def test_star_already_maximal(self):
        assert is_saturated(full_star(8, 3, 2), addable_t_intersecting(2))

    def test_fano_already_maximal(self):
        assert is_saturated(fano(), addable_t_intersecting(1))


# Copies of the member-mask and saturation checks that the registry and the
# harness carried before they called the definitions above; kept as oracles.


def oracle_rwise_nonuniform(members, r, t):
    for combo in combinations_with_replacement(sorted(set(members)), r):
        inter = combo[0]
        for m in combo[1:]:
            inter &= m
        if inter.bit_count() < t:
            return False
    return True


def oracle_nontrivial_nonuniform(members, n):
    if not members:
        return False
    acc = (1 << n) - 1
    for m in members:
        acc &= m
    return acc == 0


def oracle_saturated_t_intersecting(f, t):
    if not f.members:
        return False
    have = set(f.members)
    for cand in enumerate_ksubsets(f.n, f.k):
        if cand in have:
            continue
        if all((cand & m).bit_count() >= t for m in f.members):
            return False
    return True


def oracle_saturated_r_wise(f, r):
    if not f.members:
        return False
    have = set(f.members)
    for cand in enumerate_ksubsets(f.n, f.k):
        if cand in have:
            continue
        trial = SetFamily(f.n, f.k, sorted(have | {cand}), _trusted=True)
        if is_r_wise_t_intersecting(trial, r, 1):
            return False
    return True


def oracle_saturate_random(f, ok_add, rng):
    members = set(f.members)
    cands = list(enumerate_ksubsets(f.n, f.k))
    rng.shuffle(cands)
    changed = True
    while changed:
        changed = False
        for cand in cands:
            if cand not in members and ok_add(members, cand):
                members.add(cand)
                changed = True
    return SetFamily(f.n, f.k, sorted(members), _trusted=True)


def all_families(n, k):
    masks = enumerate_ksubsets(n, k)
    for bits in range(1 << len(masks)):
        yield SetFamily(n, k, [m for i, m in enumerate(masks) if bits >> i & 1], _trusted=True)


class TestMergedDefinitionOracles:
    def test_mask_versions_on_all_families_5_2(self):
        for f in all_families(5, 2):
            assert is_nontrivial_masks(f.members) == oracle_nontrivial_nonuniform(f.members, 5)
            for r in (2, 3, 4):
                for t in (1, 2, 3):
                    got = is_r_wise_t_intersecting_masks(f.members, r, t)
                    assert got == oracle_rwise_nonuniform(f.members, r, t)
                    assert got == is_r_wise_t_intersecting(f, r, t)

    # the masks carry no ground set: an element is common whatever bound the caller has in mind
    def test_nontrivial_masks_by_definition(self):
        def definition(members):
            union = 0
            for m in members:
                union |= m
            points = [b for b in range(union.bit_length()) if union >> b & 1]
            return bool(members) and not any(all(m >> b & 1 for m in members) for b in points)

        assert not is_nontrivial_masks([0b100])
        assert not is_nontrivial_masks([0b100, 0b110])
        cases = [[], [0], [0b100], [0b100, 0b110], [0b1, 0b10], [0b11, 0b101, 0b110],
                 [0b111, 0b1_0000_0001], [1 << 70, 1 << 70 | 1], [1 << 70, 0b1]]
        rng = random.Random(32)
        cases += [[rng.randrange(1 << rng.randint(1, 12)) for _ in range(rng.randint(1, 6))]
                  for _ in range(400)]
        for members in cases:
            assert is_nontrivial_masks(members) == definition(members), members

    def test_mask_versions_on_mixed_sizes(self):
        rng = random.Random(31)
        for _ in range(400):
            n = rng.randint(3, 8)
            members = sorted({rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 7))})
            assert is_nontrivial_masks(members) == oracle_nontrivial_nonuniform(members, n)
            for r in (2, 3, 5):
                for t in (1, 2):
                    assert is_r_wise_t_intersecting_masks(members, r, t) == (
                        oracle_rwise_nonuniform(members, r, t)
                    )

    def test_saturation_on_all_families_5_2(self):
        for f in all_families(5, 2):
            for t in (1, 2):
                assert is_saturated(f, addable_t_intersecting(t)) == (
                    oracle_saturated_t_intersecting(f, t)
                )
            for r in (2, 3):
                assert is_saturated(f, addable_r_wise(r)) == oracle_saturated_r_wise(f, r)

    def test_saturation_on_samples_6_3(self):
        rng = random.Random(32)
        for _ in range(60):
            f = rand_family(rng, 6, 3, 0.3)
            for t in (1, 2):
                assert is_saturated(f, addable_t_intersecting(t)) == (
                    oracle_saturated_t_intersecting(f, t)
                )
            assert is_saturated(f, addable_r_wise(3)) == oracle_saturated_r_wise(f, 3)

    def test_grow_matches_shuffled_saturation(self):
        def ok_t(t):
            return lambda members, cand: all((cand & m).bit_count() >= t for m in members)

        def ok_rwise(members, cand):
            trial = SetFamily(7, 3, sorted(members | {cand}), _trusted=True)
            return is_r_wise_t_intersecting(trial, 3, 1)

        for seed in range(40):
            base = SetFamily(7, 3, full_star(7, 3, 1).members[: seed % 7], _trusted=True)
            for addable, ok_add in (
                (addable_t_intersecting(1), ok_t(1)),
                (addable_t_intersecting(2), ok_t(2)),
                (addable_r_wise(3), ok_rwise),
            ):
                cands = list(enumerate_ksubsets(7, 3))
                random.Random(seed).shuffle(cands)
                got = grow(base, addable, cands)
                assert got == oracle_saturate_random(base, ok_add, random.Random(seed))


class TestProfile:
    def test_profile_fano(self):
        prof = measure_profile(fano())
        d = prof.to_json_dict()
        assert d["rho"] == "3/7"
        assert d["tau"]["1"] == 3
        assert d["nu"] == 1
        assert d["t_levels"]["2"] == 1

    def test_tau_at_least_t(self):
        rng = random.Random(20)
        for _ in range(30):
            f = rand_family(rng, 6, 3, 0.4)
            if not f.members:
                continue
            prof = measure_profile(f)
            assert all(v >= t for t, v in prof.tau.items())

    def test_t_levels_match_t_level_and_oracle(self):
        fams = [*all_families(5, 2), *seeded_families(random.Random(21), 7, 3, 40)]
        for f in fams:
            levels = measure_profile(f).t_levels
            assert levels == {j: t_level(f, j) for j in range(2, 5)}, f
            assert levels == {j: oracle_t_level(f, j) for j in range(2, 5)}, f


# The addability callables, the grow loop and the saturation check as they
# were before the rules kept their intersection levels across calls; kept as
# oracles.  The t-intersecting rule counts the candidate among the members,
# since a t-intersecting family meets itself in >= t points.


def reference_min_intersection_over(members, j):
    j = min(j, len(members))
    cur = set(members)
    for _ in range(j - 1):
        cur = {s & m for s in cur for m in members}
    return min(m.bit_count() for m in cur)


def reference_addable_t(t):
    return lambda members, cand: all((cand & m).bit_count() >= t for m in (*members, cand))


def reference_addable_r_wise(r):
    return lambda members, cand: reference_min_intersection_over((*members, cand), r) >= 1


def reference_grow(f, ok_add, cands):
    members = set(f.members)
    changed = True
    while changed:
        changed = False
        for cand in cands:
            if cand not in members and ok_add(members, cand):
                members.add(cand)
                changed = True
    return SetFamily(f.n, f.k, sorted(members), _trusted=True)


def reference_is_saturated(f, ok_add):
    have = set(f.members)
    return bool(have) and not any(
        cand not in have and ok_add(have, cand) for cand in enumerate_ksubsets(f.n, f.k)
    )


def _and_all(masks):
    out = masks[0]
    for m in masks[1:]:
        out &= m
    return out


def reference_levels(members, j):
    members = sorted(set(members))
    return [
        {_and_all(combo) for size in range(1, i + 1) for combo in combinations(members, size)}
        for i in range(1, j + 1)
    ]


def reference_minimal(masks):
    """The masks of which no other given mask is a proper subset."""
    masks = set(masks)
    return {m for m in masks if not any(s != m and s & m == s for s in masks)}


RULES = [("r-wise", r, addable_r_wise(r), reference_addable_r_wise(r)) for r in (2, 3, 4)] + [
    ("t", t, addable_t_intersecting(t), reference_addable_t(t)) for t in (1, 2, 3)
]


def seeded_families(rng, n, k, count):
    """Random, small, star-based and grown-then-thinned families, intersecting or not."""
    masks = enumerate_ksubsets(n, k)
    star = full_star(n, k, 1).members
    out = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            members = [m for m in masks if rng.random() < 0.3]
        elif kind == 1:
            members = rng.sample(masks, rng.randint(1, 4))
        elif kind == 2:
            members = [m for m in star if rng.random() < 0.5]
        else:
            rule = RULES[rng.randrange(len(RULES))][2]
            seed = SetFamily(n, k, rng.sample(star, 2), _trusted=True)
            cands = list(masks)
            rng.shuffle(cands)
            members = [m for m in grow(seed, rule, cands).members if rng.random() < 0.8]
        out.append(SetFamily(n, k, sorted(set(members)), _trusted=True))
    return out


def check_min_intersection_over(members, j, want):
    """`_min_intersection_over` is `want`, and below each stop exactly when `want` is."""
    assert _min_intersection_over(members, j) == want
    for stop in range(0, 4):
        got = _min_intersection_over(members, j, stop_below=stop)
        if want >= stop:
            assert got == want
        else:
            assert want <= got < stop


class TestIntersectionClosure:
    def test_min_intersection_over_all_families_5_2(self):
        for f in all_families(5, 2):
            if not f.members:
                continue
            for j in range(2, 6):
                check_min_intersection_over(f.members, j, oracle_t_level(f, j))

    def test_minimal_matches_brute_force(self):
        rng = random.Random(93)
        for _ in range(400):
            n = rng.randint(1, 9)
            masks = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(rng.randint(1, 30))]
            masks += rng.choices(masks, k=rng.randint(0, 5)) + [0] * (rng.random() < 0.1)
            got = _minimal(masks)
            assert len(got) == len(set(got))
            assert set(got) == reference_minimal(masks), masks
            assert [m.bit_count() for m in got] == sorted(m.bit_count() for m in got)
        assert _minimal([]) == []

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    @pytest.mark.parametrize("r", [3, 4])
    def test_min_intersection_over_brace_daykin_slices(self, n, r):
        rng = random.Random(94 + 10 * n + r)
        for keep in (0.3, 0.6, 0.9, 1.0):
            for _ in range(3):
                members = [m for f in gen_slices(rng, {"mode": "bd-sub", "n": n, "r": r,
                                                       "keep": keep}) for m in f.members]
                for j in range(2, 5):
                    want = reference_min_intersection_over(members, j)
                    check_min_intersection_over(members, j, want)

    def _check_family(self, f, rng):
        cands = list(enumerate_ksubsets(f.n, f.k))
        rng.shuffle(cands)
        for kind, x, rule, ok_add in RULES:
            grown = grow(f, rule, cands)
            assert grown == reference_grow(f, ok_add, cands), (kind, x, f)
            for g in (f, grown):
                assert is_saturated(g, rule) == reference_is_saturated(g, ok_add), (kind, x, g)

    def test_saturation_and_grow_all_families_5_2(self):
        rng = random.Random(90)
        for f in all_families(5, 2):
            self._check_family(f, rng)

    @pytest.mark.parametrize("n,k", [(6, 3), (7, 3)])
    def test_saturation_and_grow_seeded(self, n, k):
        rng = random.Random(91 + n)
        fams = seeded_families(rng, n, k, 40)
        assert any(not is_t_intersecting(f, 1) for f in fams)
        assert any(is_saturated(f, addable_r_wise(3)) for f in fams if f.members)
        for f in fams:
            self._check_family(f, rng)

    @pytest.mark.parametrize("n,k", [(6, 3), (7, 3)])
    def test_levels_follow_adds(self, n, k):
        # the levels keep only the minimal masks of each level of the oracle
        def want(members):
            return [reference_minimal(level) for level in reference_levels(members, r - 1)]

        rng = random.Random(92 + n)
        for f in seeded_families(rng, n, k, 12):
            for r in (2, 3, 4):
                tester = addable_r_wise(r)(f.members)
                assert tester.levels == want(f.members)
                members = list(f.members)
                for cand in rng.sample(enumerate_ksubsets(n, k), 4):
                    tester.add(cand)
                    members.append(cand)
                    assert tester.levels == want(members)

    def test_whole_family_rule_only_for_r_wise(self):
        f = fam(5, 2, (1, 2), (3, 4))
        assert not is_saturated(f, addable_t_intersecting(1))
        assert grow(f, addable_t_intersecting(1), enumerate_ksubsets(5, 2)) == fam(
            5, 2, (1, 2), (1, 3), (2, 3), (3, 4)
        )
        assert is_saturated(f, addable_r_wise(2))
        assert grow(f, addable_r_wise(2), enumerate_ksubsets(5, 2)) == f

    def test_candidate_meets_itself(self):
        empty = SetFamily(5, 2, ())
        assert grow(empty, addable_t_intersecting(3), enumerate_ksubsets(5, 2)) == empty
        assert len(grow(empty, addable_t_intersecting(2), enumerate_ksubsets(5, 2))) == 1

    def test_r_below_two_rejected(self):
        with pytest.raises(ValueError):
            addable_r_wise(1)


def reference_max_pair_degree(f):
    """The largest link of a 2-set, one scan of the family per pair."""
    best = 0
    for p in enumerate_ksubsets(f.n, 2):
        best = max(best, len(link(f, p)))
    return best


class TestMaxPairDegree:
    @pytest.mark.parametrize("n, k", [(5, 2), (5, 3), (4, 1)])
    def test_all_families(self, n, k):
        for f in all_families(n, k):
            assert max_pair_degree(f) == reference_max_pair_degree(f), f

    @pytest.mark.parametrize("n, k, seed", [(8, 3, 31), (10, 4, 32), (10, 3, 33)])
    def test_seeded_families(self, n, k, seed):
        for f in seeded_families(random.Random(seed), n, k, 300):
            assert max_pair_degree(f) == reference_max_pair_degree(f), f
