"""Compressions, weight, guarded fixpoints, and resistant pairs."""

import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from extremal import shifting
from extremal.cli import parse_property_spec
from extremal.core import SetFamily, enumerate_ksubsets, is_initial
from extremal.measures import (
    degree_vector,
    is_cross_t_intersecting,
    is_t_intersecting,
    matching_number,
    rho,
)
from extremal.shifting import (
    ALWAYS,
    And,
    CrossTIntersecting,
    MatchingAtMost,
    NonTrivial,
    PropertyAtom,
    RhoAtMost,
    TIntersecting,
    degree_cap,
    shift,
    shift_ad_extremis,
    weight,
)


def fam(n, k, *sets):
    return SetFamily.from_sets(n, k, sets)


def rand_family(rng, n, k, density=0.4):
    return SetFamily(n, k, [m for m in enumerate_ksubsets(n, k) if rng.random() < density])


def shift_resistant_pairs(families, prop):
    """Oracle for a fixpoint's resistant pairs: each pair i < j, in lex order, whose
    simultaneous shift moves some slot but breaks `prop`."""
    fams = tuple(families)
    n = fams[0].n
    out = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            shifted = tuple(shift(f, i, j) for f in fams)
            if shifted != fams and not prop.holds(shifted):
                out.append((i, j))
    return out


def fixed_by_shifts(f, upto):
    """Oracle for `is_initial(f, upto)`: every (i,j)-shift with j <= upto fixes f."""
    return all(shift(f, i, j) == f for i in range(1, upto) for j in range(i + 1, upto + 1))


class TestShift:
    def test_examples(self):
        assert shift(fam(4, 2, (2, 3)), 1, 2).sets() == [(1, 3)]
        blocked = fam(4, 2, (1, 3), (2, 3))
        assert shift(blocked, 1, 2) == blocked
        assert shift(fam(4, 2, (1, 2), (3, 4)), 1, 3).sets() == [(1, 2), (1, 4)]

    def test_size_always_preserved(self):
        rng = random.Random(1)
        for _ in range(100):
            f = rand_family(rng, 7, 3, 0.3)
            i, j = sorted(rng.sample(range(1, 8), 2))
            assert len(shift(f, i, j)) == len(f)

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            shift(fam(4, 2, (1, 2)), 2, 2)
        with pytest.raises(ValueError):
            shift(fam(4, 2, (1, 2)), 3, 1)

    def test_preserves_t_intersecting(self):
        rng = random.Random(2)
        hits = 0
        for _ in range(200):
            f = rand_family(rng, 7, 3, 0.15)
            for t in (1, 2):
                if not is_t_intersecting(f, t):
                    continue
                hits += 1
                i, j = sorted(rng.sample(range(1, 8), 2))
                assert is_t_intersecting(shift(f, i, j), t)
        assert hits > 30

    def test_preserves_cross_under_simultaneous(self):
        rng = random.Random(3)
        masks = enumerate_ksubsets(7, 3)
        hits = 0
        for _ in range(100):
            a = SetFamily(7, 3, [m for m in masks if rng.random() < 0.15])
            if not a.members:
                continue
            dual = [c for c in masks if all(c & m for m in a.members)]
            b = SetFamily(7, 3, [c for c in dual if rng.random() < 0.5])
            i, j = sorted(rng.sample(range(1, 8), 2))
            assert is_cross_t_intersecting(shift(a, i, j), shift(b, i, j), 1)
            hits += 1
        assert hits > 50

    def test_matching_never_increases(self):
        rng = random.Random(4)
        for _ in range(100):
            f = rand_family(rng, 8, 3, 0.2)
            i, j = sorted(rng.sample(range(1, 9), 2))
            assert matching_number(shift(f, i, j)) <= matching_number(f)


class TestWeight:
    def test_examples(self):
        assert weight(fam(4, 2, (1, 2), (3, 4))) == 10
        assert weight(SetFamily(4, 2, [])) == 0
        assert weight(shift(fam(4, 2, (2, 3)), 1, 2)) == 4
        assert weight(fam(4, 2, (2, 3))) == 5

    def test_strict_decrease_on_change(self):
        rng = random.Random(6)
        for _ in range(200):
            f = rand_family(rng, 7, 3, 0.3)
            i, j = sorted(rng.sample(range(1, 8), 2))
            g = shift(f, i, j)
            if g == f:
                assert weight(g) == weight(f)
            else:
                assert weight(g) < weight(f)


class TestTraceWeights:
    """Each step's weights are weight() of the tuple before it, and the final ones of the output."""

    def test_random_tuples(self):
        rng = random.Random(24)
        for _ in range(150):
            n = rng.randint(2, 7)
            k = rng.randint(1, n)
            fams = tuple(rand_family(rng, n, k, rng.random()) for _ in range(rng.randint(1, 3)))
            if rng.random() < 0.5 or not fams[0].members:
                prop = ALWAYS
            else:
                prop = And((RhoAtMost(0, max(rho(fams[0]), Fraction(1, 2))),))
            out, trace = shift_ad_extremis(fams, prop)
            cur = fams
            for (i, j), ws in trace.steps:
                assert ws == tuple(weight(f) for f in cur)
                cur = tuple(shift(f, i, j) for f in cur)
            assert cur == out
            assert trace.final_weights == tuple(weight(f) for f in out)


class TestShiftedPredicates:
    def test_examples(self):
        assert is_initial(fam(4, 2, (1, 2)))
        assert not is_initial(fam(4, 2, (2, 3)))

    def test_shifted_implies_initial_exhaustive(self):
        for n, k in ((4, 2), (5, 2)):
            masks = enumerate_ksubsets(n, k)
            agree = 0
            for bits in range(1 << len(masks)):
                f = SetFamily(n, k, [masks[i] for i in range(len(masks)) if bits >> i & 1])
                for upto in range(n + 1):
                    assert is_initial(f, upto) == fixed_by_shifts(f, upto)
                assert is_initial(f) == is_initial(f, n)
                agree += 1
            assert agree == 1 << len(masks)

    def test_initial_on_shifted_samples(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(6, 9)
            f = rand_family(rng, n, 3, 0.3)
            upto = rng.randint(2, n)
            out = shift_ad_extremis((f,), ALWAYS, upto=upto)[0][0]
            for m in range(n + 1):
                assert is_initial(out, m) == fixed_by_shifts(out, m)
                assert is_initial(f, m) == fixed_by_shifts(f, m)
            assert is_initial(out, upto)

    def test_is_initial_on(self):
        f = fam(4, 2, (2, 3), (1, 4))
        assert not is_initial(f, 2)
        assert is_initial(fam(4, 2, (1, 2)), 4)
        with pytest.raises(ValueError):
            is_initial(f, 5)


class TestAdExtremis:
    def test_unconstrained_run(self):
        out, trace = shift_ad_extremis((fam(4, 2, (2, 3)),), ALWAYS)
        assert out[0].sets() == [(1, 2)]
        assert [w[0] for _, w in trace.steps] == [5, 4]
        assert trace.final_weights == (3,)
        assert trace.resistant_pairs == []
        assert is_initial(out[0])

    def test_rho_guard_blocks_everything(self):
        f = fam(4, 2, (1, 2), (3, 4))
        out, trace = shift_ad_extremis((f,), And((RhoAtMost(0, Fraction(1, 2)),)))
        assert out[0] == f
        assert (1, 3) in trace.resistant_pairs
        g = shift(f, 1, 3)
        assert rho(g) == 1

    def test_cross_pairs_fully_shift(self):
        rng = random.Random(7)
        masks = enumerate_ksubsets(7, 3)
        prop = And((CrossTIntersecting(0, 1, 1),))
        ran = 0
        for _ in range(30):
            a = SetFamily(7, 3, [m for m in masks if rng.random() < 0.15])
            if not a.members:
                continue
            dual = [c for c in masks if all(c & m for m in a.members)]
            b = SetFamily(7, 3, [c for c in dual if rng.random() < 0.5])
            out, trace = shift_ad_extremis((a, b), prop)
            assert is_cross_t_intersecting(out[0], out[1], 1)
            assert is_initial(out[0]) and is_initial(out[1])
            assert trace.resistant_pairs == []
            assert len(out[0]) == len(a) and len(out[1]) == len(b)
            ran += 1
        assert ran > 15

    def test_definition_fixpoint_reverified(self):
        rng = random.Random(8)
        for _ in range(30):
            f = rand_family(rng, 6, 3, 0.3)
            prop = And((MatchingAtMost(0, 1),)) if matching_number(f) <= 1 else ALWAYS
            out, trace = shift_ad_extremis((f,), prop)
            for (i, j) in trace.resistant_pairs:
                shifted = tuple(shift(x, i, j) for x in out)
                assert shifted != out and not prop.holds(shifted)
            assert shift_resistant_pairs(out, prop) == trace.resistant_pairs

    def test_weight_monotone_along_steps(self):
        rng = random.Random(9)
        f = rand_family(rng, 7, 3, 0.4)
        _, trace = shift_ad_extremis((f,), ALWAYS)
        totals = [sum(w) for _, w in trace.steps] + [sum(trace.final_weights)]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_property_must_hold_on_input(self):
        with pytest.raises(ValueError):
            shift_ad_extremis((fam(4, 2, (1, 2), (3, 4)),), And((MatchingAtMost(0, 1),)))

    def test_nontrivial_guard(self):
        tri = fam(5, 2, (1, 2), (1, 3), (2, 3))
        out, trace = shift_ad_extremis((tri,), And((NonTrivial(0),)))
        assert out[0] == tri  # any effective shift would create a star

    def test_trace_json_shape(self):
        f = fam(4, 2, (1, 2), (3, 4))
        _, trace = shift_ad_extremis((f,), And((RhoAtMost(0, Fraction(1, 2)),)))
        payload = json.loads(trace.to_json())
        assert set(payload) >= {"steps", "resistant", "final_weights", "blame"}
        assert [1, 3] in payload["resistant"]
        assert payload["blame"]["1,3"] == [True]

    def test_resistant_pairs_have_heavy_degree_sums(self):
        # under a degree-ratio cap 1/d, a resistant pair must satisfy
        # deg(i)+deg(j) > |F|/d (the shift only ever raises deg(i))
        from extremal.measures import degree

        rng = random.Random(10)
        seen = 0
        for _ in range(60):
            n, k = rng.choice(((6, 2), (6, 3), (8, 2)))
            blocks = list(range(1, n + 1))
            rng.shuffle(blocks)
            members = [blocks[i : i + k] for i in range(0, n - k + 1, k)]
            f = SetFamily.from_sets(n, k, members)
            d = len(members)  # rho(f) = 1/d exactly
            assert rho(f) == Fraction(1, d)
            prop = And((RhoAtMost(0, Fraction(1, d)),))
            out, trace = shift_ad_extremis((f,), prop)
            g = out[0]
            for (i, j) in trace.resistant_pairs:
                seen += 1
                assert (degree(g, i) + degree(g, j)) * d > len(g)
        assert seen > 50

    def test_initial_away_from_resistant_pairs(self):
        # the output is stable under every pair not touching a resistant index,
        # hence initial on any prefix clear of resistant pairs
        rng = random.Random(11)
        for _ in range(50):
            f = rand_family(rng, 6, 3, 0.3)
            prop = And((MatchingAtMost(0, 1),)) if matching_number(f) <= 1 else ALWAYS
            out, trace = shift_ad_extremis((f,), prop)
            touched = {x for pair in trace.resistant_pairs for x in pair}
            m = min(touched) - 1 if touched else f.n
            if m >= 2:
                assert is_initial(out[0], m)


@pytest.fixture
def pair_log(monkeypatch):
    """One list per pass of `shift_ad_extremis`: the pairs it examined."""
    passes = []
    pairs = shifting._pairs

    def counted(n):
        passes.append([])
        for pair in pairs(n):
            passes[-1].append(pair)
            yield pair

    monkeypatch.setattr(shifting, "_pairs", counted)
    return passes


class TestClosureExit:
    def test_pass_after_a_blocked_pair_still_runs(self, pair_log):
        # pass 1 blocks (1,2), which would make a star, then applies (3,4); the
        # triangle it leaves is closed, but the blocked pair needs pass 2, which
        # finds (1,2) no longer moves anything
        f = fam(5, 2, (1, 2), (2, 3), (1, 4))
        prop = And((NonTrivial(0),))
        trace = assert_same_as_two_loop((f,), prop)
        assert trace.steps == [((3, 4), (13,))]
        assert trace.resistant_pairs == [] and trace.resistant_blame == {}
        assert [len(p) for p in pair_log] == [10, 10]

    def test_initial_input_examines_no_pair(self, pair_log):
        f = fam(6, 3, (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5))
        assert is_initial(f)
        for prop in (ALWAYS, And((RhoAtMost(0, Fraction(4, 5)),)), And((NonTrivial(0),))):
            out, trace = shift_ad_extremis((f,), prop)
            assert out == (f,)
            assert trace.steps == [] and trace.resistant_pairs == []
            assert trace.final_weights == (weight(f),)
        assert pair_log == []

    def test_unguarded_shift_takes_one_pass(self, pair_log):
        f = rand_family(random.Random(3), 8, 3, 0.3)
        assert not is_initial(f)
        out, trace = shift_ad_extremis((f,), ALWAYS)
        assert is_initial(out[0])
        assert len(trace.steps) == 14
        # the pass that only confirmed the fixpoint is gone
        assert [len(p) for p in pair_log] == [28]
        assert trace.resistant_pairs == []


class TestInitialMark:
    """A run with no resistant pair over all of [n] marks its outputs initial."""

    def test_mark_equals_fresh_is_initial(self):
        rng = random.Random(18)
        guards = ("none", "rho<=1/2", "intersecting&rho<=2/3", "nontrivial", "none")
        marked, unmarked = 0, [0, 0]
        for run in range(200):
            n = rng.randint(4, 8)
            k = rng.randint(2, min(4, n - 2))
            if run % 4 == 3:
                a = rand_family(rng, n, k, 0.3)
                dual = [c for c in enumerate_ksubsets(n, k) if all(c & m for m in a.members)]
                fams = (a, SetFamily(n, k, [c for c in dual if rng.random() < 0.5]))
                spec = rng.choice(("none", "cross(0,1)", "cross(0,1)&rho<=2/3"))
            else:
                fams = (rand_family(rng, n, k, rng.choice((0.1, 0.3, 0.6))),)
                # unguarded, or the first guard that the family satisfies
                spec = next(g for g in guards[run % 4 != 2:] if parse_property_spec(g).holds(fams))
            prop = parse_property_spec(spec, slots=len(fams))
            if not prop.holds(fams):
                prop = ALWAYS
            upto = rng.choice((None, None, n - 1))
            out, trace = shift_ad_extremis(fams, prop, upto=upto)
            fresh = [is_initial(SetFamily(n, k, f.members)) for f in out]
            flags = [f._initial for f in out]
            if upto is None and not trace.resistant_pairs:
                assert flags == [True] * len(out) == fresh
                marked += 1
            else:
                # a resistant pair moves some slot, so that slot is not initial
                assert flags == [None] * len(out)
                assert upto is not None or not all(fresh)
                assert [is_initial(f) for f in out] == fresh
                unmarked[upto is None] += 1
        assert marked > 50 and min(unmarked) > 10


# ---------------------------------------------------------------------------
# The single shift loop against the two implementations it replaced.
# ---------------------------------------------------------------------------


def two_loop_ad_extremis(families, prop):
    """Shift to a fixpoint, then find resistant pairs in a separate full pass."""
    fams = tuple(families)
    n = fams[0].n
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    steps = []
    changed = True
    while changed:
        changed = False
        for i, j in pairs:
            shifted = tuple(shift(f, i, j) for f in fams)
            if all(s == f for s, f in zip(shifted, fams)):
                continue
            if prop.holds(shifted):
                steps.append(((i, j), tuple(weight(f) for f in fams)))
                fams = shifted
                changed = True
    final_weights = tuple(weight(f) for f in fams)
    resistant, blame = [], {}
    for i, j in pairs:
        shifted = tuple(shift(f, i, j) for f in fams)
        moved = tuple(s != f for s, f in zip(shifted, fams))
        if any(moved) and not prop.holds(shifted):
            resistant.append((i, j))
            blame[(i, j)] = moved
    return fams, steps, final_weights, resistant, blame


def unguarded_prefix_shift(fams, m):
    """Apply every (i,j)-shift with j <= m until none moves the tuple."""
    changed = True
    while changed:
        changed = False
        for i in range(1, m):
            for j in range(i + 1, m + 1):
                shifted = tuple(shift(f, i, j) for f in fams)
                if shifted != fams:
                    fams = shifted
                    changed = True
    return fams


def assert_same_as_two_loop(fams, prop):
    out, trace = shift_ad_extremis(fams, prop)
    want_out, steps, final_weights, resistant, blame = two_loop_ad_extremis(fams, prop)
    assert out == want_out
    assert trace.steps == steps and trace.steps_truncated == 0
    assert trace.final_weights == final_weights
    assert trace.resistant_pairs == resistant
    assert trace.resistant_blame == blame
    return trace


class TestSingleLoopOracle:
    def test_all_families_5_2(self):
        masks = enumerate_ksubsets(5, 2)
        guards = (
            ALWAYS,
            And((MatchingAtMost(0, 1),)),
            And((RhoAtMost(0, Fraction(1, 2)),)),
            And((NonTrivial(0),)),
        )
        runs = {g: 0 for g in guards}
        resistant = 0
        for bits in range(1 << len(masks)):
            f = SetFamily(5, 2, [masks[i] for i in range(len(masks)) if bits >> i & 1])
            for prop in guards:
                if prop.holds((f,)):
                    runs[prop] += 1
                    resistant += bool(assert_same_as_two_loop((f,), prop).resistant_pairs)
        assert runs[ALWAYS] == 1 << 10
        assert min(runs.values()) > 50
        assert resistant > 100

    def test_cross_pairs_7_3(self):
        rng = random.Random(12)
        masks = enumerate_ksubsets(7, 3)
        prop = And((
            CrossTIntersecting(0, 1, 1),
            RhoAtMost(0, Fraction(2, 3)),
            RhoAtMost(1, Fraction(2, 3)),
        ))
        ran = blocked = 0
        while ran < 40:
            a = SetFamily(7, 3, [m for m in masks if rng.random() < 0.2])
            dual = [c for c in masks if all(c & m for m in a.members)]
            b = SetFamily(7, 3, [c for c in dual if rng.random() < 0.5])
            if not (a.members and b.members and prop.holds((a, b))):
                continue
            blocked += bool(assert_same_as_two_loop((a, b), prop).resistant_pairs)
            ran += 1
        assert blocked > 10

    def test_upto_matches_prefix_shift(self):
        rng = random.Random(13)
        masks = enumerate_ksubsets(8, 3)
        for _ in range(40):
            a = SetFamily(8, 3, [m for m in masks if rng.random() < 0.3])
            b = SetFamily(8, 3, [m for m in masks if rng.random() < 0.3])
            for upto in (0, 1, 2, 5, 8):
                out, trace = shift_ad_extremis((a, b), ALWAYS, upto=upto)
                assert out == unguarded_prefix_shift((a, b), upto)
                assert all(j <= upto for (_, j), _ in trace.steps)
                if upto < 2:
                    assert out == (a, b) and trace.steps == []
                else:
                    assert all(is_initial(f, upto) for f in out)
        assert shift_ad_extremis((a, b), ALWAYS, upto=8) == shift_ad_extremis((a, b), ALWAYS)

    def test_upto_bounds_resistant_pairs(self):
        rng = random.Random(14)
        for _ in range(30):
            f = rand_family(rng, 7, 3, 0.2)
            prop = And((RhoAtMost(0, Fraction(1, 2)),))
            if not prop.holds((f,)):
                continue
            out, trace = shift_ad_extremis((f,), prop, upto=5)
            want = [(i, j) for i, j in shift_resistant_pairs(out, prop) if j <= 5]
            assert trace.resistant_pairs == want

    @pytest.mark.parametrize("upto", [-1, 3.0, 5])
    def test_upto_above_n_raises(self, upto):
        # n = 4: below 0, not an int, above n
        with pytest.raises(ValueError, match=r"upto must be an int in \[0, n=4\]"):
            shift_ad_extremis((fam(4, 2, (2, 3)),), ALWAYS, upto=upto)


# ---------------------------------------------------------------------------
# The incremental engine against the loop it replaced, which rebuilt every
# slot, its weight and the whole guard for every pair.
# ---------------------------------------------------------------------------


def reference_ad_extremis(families, prop, upto=None):
    fams = tuple(families)
    n = fams[0].n
    if upto is None:
        upto = n
    trace = shifting.ShiftTrace()
    changed = True
    while changed:
        changed = False
        blocked = {}
        for i in range(1, upto):
            for j in range(i + 1, upto + 1):
                shifted = tuple(shift(f, i, j) for f in fams)
                if all(s == f for s, f in zip(shifted, fams)):
                    continue
                if prop.holds(shifted):
                    trace.steps.append(((i, j), tuple(weight(f) for f in fams)))
                    fams = shifted
                    changed = True
                else:
                    blocked[(i, j)] = tuple(s != f for s, f in zip(shifted, fams))
    trace.final_weights = tuple(weight(f) for f in fams)
    trace.resistant_blame = blocked
    return fams, trace


def assert_same_as_reference(fams, prop, upto=None):
    out, trace = shift_ad_extremis(fams, prop, upto=upto)
    want_out, want_trace = reference_ad_extremis(fams, prop, upto=upto)
    assert out == want_out
    assert trace.to_json() == want_trace.to_json()
    return trace


SHIPPED_ATOMS = {TIntersecting, CrossTIntersecting, RhoAtMost, MatchingAtMost, NonTrivial}


class TestIncrementalEngine:
    def test_every_family_5_2_every_upto(self):
        masks = enumerate_ksubsets(5, 2)
        specs = (
            "none",
            "rho<=1/2",
            "nu<=1",
            "nontrivial",
            "intersecting&rho<=1/2",
            "intersecting&rho<=2/3",
            "t-intersecting(2)",
        )
        runs = dict.fromkeys(specs, 0)
        steps = blocked = 0
        for bits in range(1 << len(masks)):
            f = SetFamily(5, 2, [masks[i] for i in range(len(masks)) if bits >> i & 1])
            for spec in specs:
                prop = parse_property_spec(spec)
                if not prop.holds((f,)):
                    continue
                runs[spec] += 1
                for upto in range(6):
                    trace = assert_same_as_reference((f,), prop, upto)
                    steps += bool(trace.steps)
                    blocked += bool(trace.resistant_pairs)
        # intersecting 2-sets form a star or a triangle (rho 2/3); 2-intersecting
        # ones have at most one member
        assert runs == {
            "none": 1 << 10,
            "rho<=1/2": 334,
            "nu<=1": 76,
            "nontrivial": 958,
            "intersecting&rho<=1/2": 1,
            "intersecting&rho<=2/3": 11,
            "t-intersecting(2)": 11,
        }
        assert steps > 1000 and blocked > 500

    @pytest.mark.parametrize("n, k, seed", [(6, 3, 15), (7, 3, 16)])
    def test_cross_pairs_rho_both_slots(self, n, k, seed):
        rng = random.Random(seed)
        masks = enumerate_ksubsets(n, k)
        prop = parse_property_spec("cross(0,1)&rho<=2/3", slots=2)
        # the engine rechecks only the slots whose cap is below |F|: here slot 1
        # alone, and no slot under rho <= 1, a cap that never binds
        slot_1_only = And((CrossTIntersecting(0, 1, 1), RhoAtMost(1, Fraction(2, 3))))
        never_binds = parse_property_spec("rho<=1", slots=2)
        guards = (prop, slot_1_only, never_binds)
        ran = 0
        blocked = dict.fromkeys(guards, 0)
        while ran < 40:
            a = SetFamily(n, k, [m for m in masks if rng.random() < 0.25])
            dual = [c for c in masks if all(c & m for m in a.members)]
            b = SetFamily(n, k, [c for c in dual if rng.random() < 0.5])
            if not (a.members and b.members and prop.holds((a, b))):
                continue
            for guard in guards:
                for upto in (None, 3, n - 1):
                    trace = assert_same_as_reference((a, b), guard, upto)
                blocked[guard] += bool(trace.resistant_pairs)
            ran += 1
        assert blocked[prop] > 5 and blocked[slot_1_only] > 0 and blocked[never_binds] == 0

    def test_atom_without_shift_rule_raises(self):
        class Anything(PropertyAtom):
            def holds(self, families):
                return True

        f = fam(4, 2, (2, 3))
        for prop in (Anything(), And((Anything(),)), And((RhoAtMost(0, Fraction(1)), Anything()))):
            with pytest.raises(TypeError, match="Anything"):
                shift_ad_extremis((f,), prop)
            with pytest.raises(TypeError, match="Anything"):
                degree_cap(prop, 0)

    def test_atom_naming_a_missing_slot_raises(self):
        f = fam(4, 2, (2, 3))
        for atom in (RhoAtMost(1, Fraction(1, 2)), CrossTIntersecting(0, 2, 1), NonTrivial(-1)):
            with pytest.raises(ValueError, match=type(atom).__name__ + r".* the 1 slot\(s\)"):
                shift_ad_extremis((f,), And((atom,)))
        with pytest.raises(ValueError, match=r"CrossTIntersecting.* the 2 slot\(s\)"):
            shift_ad_extremis((f, f), And((RhoAtMost(0, Fraction(1)), CrossTIntersecting(1, 2, 1))))

    @pytest.mark.parametrize("n", [5, 6])
    def test_degree_cap_matches_guards_on_every_family(self, n):
        guards = [
            And((RhoAtMost(0, c), *extra))
            for c in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(-1, 2))
            for extra in ((), (NonTrivial(0),))
        ]
        caps = [degree_cap(prop, 0) for prop in guards]
        masks = enumerate_ksubsets(n, 2)
        held = 0
        for bits in range(1 << len(masks)):
            f = SetFamily(n, 2, [m for i, m in enumerate(masks) if bits >> i & 1], _trusted=True)
            top = max(degree_vector(f), default=0)
            for prop, cap in zip(guards, caps):
                holds = prop.holds((f,))
                assert (top <= cap(len(f))) == holds, (prop, f)
                held += holds
        # the empty family satisfies each rho cap and fails each non-triviality guard
        assert 0 < held < len(guards) << len(masks)

    def test_every_shipped_atom_accepted(self):
        shipped = {
            cls
            for cls in vars(shifting).values()
            if isinstance(cls, type) and issubclass(cls, PropertyAtom)
        }
        assert shipped - {PropertyAtom, And} == SHIPPED_ATOMS
        tri = fam(6, 3, (1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6), (2, 3, 4))
        atoms = (
            TIntersecting(0, 1),
            CrossTIntersecting(0, 1, 1),
            RhoAtMost(1, Fraction(3, 5)),
            MatchingAtMost(0, 1),
            NonTrivial(1),
        )
        assert {type(a) for a in atoms} == SHIPPED_ATOMS
        for prop in (*atoms, And(atoms)):
            out, trace = shift_ad_extremis((tri, tri), prop)
            assert shift_resistant_pairs(out, prop) == trace.resistant_pairs
            assert_same_as_reference((tri, tri), prop)


class TestEngineOnWiderShapes:
    """Three slots, and slots whose positions span several 30-bit digits."""

    GUARDS = ("none", "rho<=1/2", "cross(0,1)&rho<=2/3")

    def draw(self, rng, n, k, slots, density, kind):
        """Random slots; "spread" redraws each until its rho is at most 1/2, and "cross"
        puts three sets in slot 0 and most of their dual in slot 1."""
        masks = enumerate_ksubsets(n, k)
        out = []
        for _ in range(slots):
            f = SetFamily(n, k, [m for m in masks if rng.random() < density])
            while kind == "spread" and not (f and rho(f) <= Fraction(1, 2)):
                f = SetFamily(n, k, [m for m in masks if rng.random() < density])
            out.append(f)
        if kind == "cross":
            out[0] = SetFamily(n, k, rng.sample(masks, 3))
            dual = [c for c in masks if all(c & m for m in out[0].members)]
            out[1] = SetFamily(n, k, [c for c in dual if rng.random() < 0.9])
        return tuple(out)

    def run_guards(self, fams, ran):
        n, slots = fams[0].n, len(fams)
        for spec in self.GUARDS[: 2 if slots == 1 else 3]:
            prop = parse_property_spec(spec, slots=slots)
            if prop.holds(fams):
                ran[spec] += 1
                for upto in (None, 3, n - 1):
                    trace = assert_same_as_reference(fams, prop, upto)
                    ran["steps"] += len(trace.steps)
                    ran["blocked"] += len(trace.resistant_pairs)

    @pytest.mark.parametrize("n, k", [(7, 3), (8, 2), (8, 3)])
    def test_three_slots(self, n, k):
        rng = random.Random(n * 10 + k)
        ran = dict.fromkeys((*self.GUARDS, "steps", "blocked"), 0)
        for kind in ("random", "spread", "cross") * 8:
            density = rng.choice((0.2, 0.3, 0.45))
            self.run_guards(self.draw(rng, n, k, 3, density, kind), ran)
        assert ran["none"] == 24 and ran["rho<=1/2"] >= 8, ran
        assert ran["cross(0,1)&rho<=2/3"] >= 3, ran
        assert ran["steps"] > 0 and ran["blocked"] > 0, ran

    @pytest.mark.parametrize("n, k", [(9, 4), (10, 3)])
    def test_more_than_sixty_members(self, n, k):
        rng = random.Random(n * 10 + k)
        ran = dict.fromkeys((*self.GUARDS, "steps", "blocked"), 0)
        draws = [(1, 0.6, "random"), (1, 0.7, "spread"), (2, 0.6, "spread")]
        if n == 9:
            # at (10,3) the dual of three sets with rho <= 2/3 has fewer than 60 members
            draws += [(2, 0, "cross")] * 6
        for slots, density, kind in draws:
            fams = self.draw(rng, n, k, slots, density, kind)
            assert max(map(len, fams)) > 60
            self.run_guards(fams, ran)
        assert ran["none"] == len(draws) and ran["rho<=1/2"] >= 2, ran
        assert ran["cross(0,1)&rho<=2/3"] >= (2 if n == 9 else 0), ran
        assert ran["steps"] > 0 and (ran["blocked"] > 0 or n == 10), ran


class TestEnginePaths:
    """Up to `MASK_SET_MAX_N` the engine keeps bit sets over all masks, above it positions."""

    GUARDS = ("none", "rho<=1/2", "cross(0,1)&rho<=2/3")

    def draw(self, rng, n, shape):
        """Seeded slots of a few shapes: one slot; a cross pair with l != k (B from A's
        dual); a pair whose second slot has k = 0; three slots."""
        if shape == "single":
            return (rand_family(rng, n, 3, 12 / comb(n, 3)),)
        if shape == "cross-l2":
            # three 3-sets on six random points (all five at n = 5), redrawn until both
            # slots have rho <= 2/3
            while True:
                six = rng.sample([1 << e for e in range(n)], min(n, 6))
                triples = sorted(x | y | z for x, y, z in combinations(six, 3))
                a = SetFamily(n, 3, rng.sample(triples, 3))
                dual = [c for c in enumerate_ksubsets(n, 2) if all(c & m for m in a.members)]
                b = SetFamily(n, 2, [c for c in dual if rng.random() < 0.6])
                if len(b) > 1 and max(rho(a), rho(b)) <= Fraction(2, 3):
                    return a, b
        if shape == "k0":
            return rand_family(rng, n, 2, 8 / comb(n, 2)), SetFamily(n, 0, [0])
        return tuple(rand_family(rng, n, rng.choice((2, 3)), 0.15) for _ in range(3))

    def guarded(self, fams):
        for spec in self.GUARDS[: 2 if len(fams) == 1 else 3]:
            prop = parse_property_spec(spec, slots=len(fams))
            if prop.holds(fams):
                yield spec, prop

    @pytest.mark.parametrize("above", [1, 2])
    def test_positions_above_threshold_match_reference(self, above, monkeypatch):
        n = shifting.MASK_SET_MAX_N + above

        def refuse(*args):
            raise AssertionError("bit sets over masks used above MASK_SET_MAX_N")

        monkeypatch.setattr(shifting, "_by_mask_sets", refuse)
        rng = random.Random(above)
        ran = dict.fromkeys((*self.GUARDS, "steps", "blocked"), 0)
        for shape in ("single", "cross-l2", "k0"):
            fams = self.draw(rng, n, shape)
            for spec, prop in self.guarded(fams):
                for upto in (None, 3, n - 1):
                    trace = assert_same_as_reference(fams, prop, upto)
                    ran["steps"] += bool(trace.steps)
                    ran["blocked"] += bool(trace.resistant_pairs)
                ran[spec] += 1
        assert all(ran.values()), ran

    def test_mask_sets_match_positions(self, monkeypatch):
        rng = random.Random(31)
        ran = dict.fromkeys(self.GUARDS, 0)
        steps = blocked = 0
        for n in range(5, shifting.MASK_SET_MAX_N + 1):
            for shape in ("single", "cross-l2", "k0", "three") * 2:
                fams = self.draw(rng, n, shape)
                for spec, prop in self.guarded(fams):
                    for upto in (None, 3, n - 1):
                        runs = []
                        for top in (shifting.MASK_SET_MAX_N, -1):  # -1: positions at every n
                            monkeypatch.setattr(shifting, "MASK_SET_MAX_N", top)
                            out, trace = shift_ad_extremis(fams, prop, upto)
                            runs.append((out, [f._initial for f in out], trace.to_json()))
                        monkeypatch.undo()
                        assert runs[0] == runs[1], (n, shape, spec, upto)
                        steps += bool(trace.steps)
                        blocked += bool(trace.resistant_pairs)
                    ran[spec] += 1
        assert min(ran.values()) >= 15 and steps > 100 and blocked > 30, (ran, steps, blocked)
