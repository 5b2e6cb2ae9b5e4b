"""Registry checkers, sweeps, sampler determinism, witnesses, and search."""

import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from extremal.cli import parse_property_spec
from extremal.core import SetFamily, comb0, enumerate_ksubsets
from extremal.constructions import example_1_7, fano, full_star, triangle_family
from extremal.measures import is_cross_t_intersecting, is_t_intersecting, rho
from extremal.order import shadow
from extremal.shifting import (
    And,
    CrossTIntersecting,
    MatchingAtMost,
    NonTrivial,
    RhoAtMost,
    TIntersecting,
    degree_cap,
)
from extremal.verify import (
    REGISTRY,
    BudgetError,
    Instance,
    check_fact_3_13,
    check_identity_2_3,
    check_identity_3_2,
    check_statement,
    exhaustive_sweep,
    initial_families,
    instance_from_witness,
    make_instance,
    recheck_witness,
    run_recipe,
    sample_sweep,
    search_max,
)
from extremal.verify.recipes import RECIPES, recipe_for, suite_config
from extremal.verify.registry import binom_half, binom_n_minus_i


def fam(n, k, *sets):
    return SetFamily.from_sets(n, k, sets)


def reference_check_binomials(n, k, i, t):
    """Both binomial inequalities over their stated ranges; None outside a range."""
    return {"n_minus_i": binom_n_minus_i(n, k, i), "half": binom_half(n, k, t)}


class TestIdentities:
    def test_2_3_examples(self):
        assert check_identity_2_3(SetFamily(4, 3, []), (1, 2))
        assert check_identity_2_3(fam(4, 3, (1, 2, 3)), (1, 2))

    def test_3_2_examples(self):
        assert check_identity_3_2(fam(4, 2, (1, 2)), 1, 2)
        assert check_identity_3_2(SetFamily(4, 2, []), 1, 2)

    def test_random_sweeps(self):
        rng = random.Random(0)
        masks = enumerate_ksubsets(8, 3)
        for _ in range(200):
            f = SetFamily(8, 3, [m for m in masks if rng.random() < 0.5])
            e = [x for x in range(1, 9) if rng.random() < 0.5]
            assert check_identity_2_3(f, e)
            x, y = rng.sample(range(1, 9), 2)
            assert check_identity_3_2(f, x, y)


class TestNumericChecks:
    def test_fact_3_13(self):
        assert check_fact_3_13(1, 2, 1, 2)
        assert check_fact_3_13(1, 4, 3, 4)
        with pytest.raises(ValueError):
            check_fact_3_13(3, 2, 1, 2)

    def test_fact_3_13_grid(self):
        for a in range(1, 8):
            for big_a in range(a, 8):
                for b in range(1, 8):
                    for big_b in range(b, 8):
                        assert check_fact_3_13(a, big_a, b, big_b)

    def test_binomials(self):
        out = reference_check_binomials(10, 3, 2, 2)
        assert out["n_minus_i"] is True
        out = reference_check_binomials(12, 5, 1, 2)
        assert out["half"] is True
        # boundary n = ik+1
        out = reference_check_binomials(7, 3, 2, 2)
        assert out["n_minus_i"] is True


class TestCheckStatement:
    def test_prop_1_3_fano(self):
        rep = check_statement("PROP_1_3", Instance((fano(),), {"t": 1}))
        assert rep.verdict == "pass"

    def test_ekr_equality_case(self):
        rep = check_statement("EKR_1_1", Instance((full_star(8, 3, 1),), {"t": 1}))
        assert rep.verdict == "pass"

    def test_vacuous_when_hypothesis_fails(self):
        f = fam(6, 3, (1, 2, 3), (4, 5, 6))
        rep = check_statement("PROP_1_3", Instance((f,), {"t": 1}))
        assert rep.verdict == "vacuous"

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            check_statement("NOPE", Instance())

    def test_does_not_describe_instances(self, monkeypatch):
        def refuse(self):
            raise AssertionError("check_statement built a descriptor")

        monkeypatch.setattr(Instance, "descriptor", refuse)
        f = fam(6, 3, (1, 2, 3), (4, 5, 6))
        assert check_statement("PROP_1_3", Instance((f,), {"t": 1})).verdict == "vacuous"
        assert check_statement("PROP_1_3", Instance((fano(),), {"t": 1})).verdict == "pass"

    def test_witness_round_trip(self):
        inst = Instance((fano(), full_star(7, 3, 1)), {"t": 1, "eps": Fraction(1, 58)})
        w = inst.to_witness("TOKUSHIGE")
        back = instance_from_witness(w)
        assert back.families == inst.families
        assert back.params == inst.params

    def test_fail_witness_recheckable(self):
        # registry statements never fail, so use a doctored statement clone
        from extremal.verify import registry as reg

        sid = "EKR_1_1"
        bad = fam(6, 3, (1, 2, 3), (1, 2, 4), (1, 2, 5))
        # a too-small fake bound would flag a "failure"; simulate via direct witness
        inst = Instance((bad,), {"t": 2})
        rep = check_statement(sid, inst)
        assert rep.verdict in ("pass", "vacuous")
        w = inst.to_witness(sid)
        again = recheck_witness(w)
        assert again.verdict == rep.verdict

    def test_thm_1_5_size_bound_is_strict(self):
        # at (24,3) and d = 2 the bound 2^d * d^(2d+1) * C(n-d-1, k-d-1) is 4 * 32 * 1 = 128
        star = full_star(24, 3, 1)

        def verdict(size):
            inst = Instance((SetFamily(24, 3, star.members[:size]),), {"d": 2})
            return check_statement("THM_1_5", inst).verdict

        assert verdict(128) == "vacuous"
        assert verdict(129) == "pass"

    def test_39k_cross_theorems_at_117_3(self):
        # n = 39k is the least ground set the three cross theorems admit at k = 3
        tri = triangle_family(117, 3)
        assert len(tri) == 343 and rho(tri) == Fraction(229, 343)
        for sid in ("THM_1_6", "LEM_3_3", "THM_1_9"):
            assert check_statement(sid, Instance((tri, tri))).verdict == "pass", sid
        # Example 1.7 misses THM_1_6 only by its size conjunct, 232 < 2*C(115,1) + 4 = 234,
        # and breaks the conclusion 117/232 > 1/2 + 1/230: the size bound is sharp within 2
        left, right = example_1_7(117, 3)
        assert len(left) == len(right) == 232
        assert rho(left) == rho(right) == Fraction(117, 232) < Fraction(58, 115)
        assert is_cross_t_intersecting(left, right, 1)
        example = Instance((left, right))
        assert check_statement("THM_1_6", example).verdict == "vacuous"
        assert not REGISTRY["THM_1_6"].conclusion(example)


class TestIntParams:
    """The params the registry reads as integers are rejected, naming the key, unless ints."""

    @pytest.mark.parametrize("sid, params, key", [
        ("EKR_1_1", {"t": [1]}, "t"),
        ("EKR_1_1", {"t": "1/2"}, "t"),
        ("EKR_1_1", {"t": Fraction(1, 2)}, "t"),
        ("PROP_1_3", {"t": "1/2"}, "t"),
        ("KATONA", {"t": 1, "l": "1/2"}, "l"),
        ("THM_1_5", {"d": True}, "d"),
        ("IDENTITY_3_2", {"x": 1, "y": [2]}, "y"),
    ])
    def test_exhaustive_rejects(self, sid, params, key):
        with pytest.raises(ValueError, match=f"parameter '{key}' must be an int"):
            exhaustive_sweep(sid, {"n": 4, "k": 2, "params": params})

    def test_grid_space_rejects(self):
        grid = {"n": [4, 8], "k": [3, 5], "t": "1/2", "space": "grid"}
        with pytest.raises(ValueError, match="parameter 't' must be an int, got '1/2'"):
            exhaustive_sweep("BINOM_1_13", grid)

    def test_sample_rejects(self):
        inst_spec = recipe_for("EKR_1_1")["instance"]
        inst_spec["params"] = {**inst_spec.get("params", {}), "t": "1/2"}
        with pytest.raises(ValueError, match="parameter 't' must be an int, got '1/2'"):
            sample_sweep("EKR_1_1", inst_spec, 1, 0)

    def test_witness_rejects(self):
        witness = Instance((fano(),), {"t": 1}).to_witness("PROP_1_3")
        witness["params"]["t"] = [1]
        with pytest.raises(ValueError, match=r"parameter 't' must be an int, got \[1\]"):
            instance_from_witness(witness)

    def test_other_params_keep_their_forms(self):
        inst = instance_from_witness({"id": "X", "families": [],
                                      "params": {"eps": "1/58", "E": [1, 2], "M": 3}})
        assert inst.params == {"eps": Fraction(1, 58), "E": [1, 2], "M": 3}


class TestSweeps:
    def test_sample_determinism(self):
        recipe = RECIPES["EKR_1_1"]
        a = sample_sweep("EKR_1_1", recipe["instance"], 100, 42)
        b = sample_sweep("EKR_1_1", recipe["instance"], 100, 42)
        assert json.dumps(a["result"], sort_keys=True) == json.dumps(b["result"], sort_keys=True)
        c = sample_sweep("EKR_1_1", recipe["instance"], 100, 43)
        assert json.dumps(c["result"], sort_keys=True) != json.dumps(a["result"], sort_keys=True)

    def test_rerun_report(self):
        recipe = RECIPES["KATONA"]
        rep = sample_sweep("KATONA", recipe["instance"], 150, 7)
        again = run_recipe(rep["config"])
        assert json.dumps(rep["result"], sort_keys=True) == json.dumps(again["result"], sort_keys=True)

    def test_exhaustive_rerun(self):
        rep = exhaustive_sweep("KATONA", {"n": 5, "k": 2, "space": "families",
                                          "params": {"t": 1, "l": 1}})
        again = run_recipe(rep["config"])
        assert json.dumps(rep["result"], sort_keys=True) == json.dumps(again["result"], sort_keys=True)

    def test_budget_refusal(self):
        with pytest.raises(BudgetError) as err:
            exhaustive_sweep("KATONA", {"n": 7, "k": 3, "space": "families",
                                        "params": {"t": 1, "l": 1}}, budget=1000)
        assert "upper bound" not in str(err.value)  # 2**35 families is exact

    # the two sweeps and the search resolve a budget by one rule, and name a refused value
    @pytest.mark.parametrize("budget", [True, False, "1e8", [10**8], 0, -1, 2.5,
                                        float("inf"), float("nan")])
    def test_one_budget_rule(self, budget):
        prop = And((TIntersecting(0, 1),))
        calls = [
            lambda b: exhaustive_sweep("EKR_1_1", {"n": 4, "k": 2, "params": {"t": 1}}, budget=b),
            lambda b: sample_sweep("KATONA", RECIPES["KATONA"]["instance"], 2, 1, budget=b),
            lambda b: search_max(4, 2, prop, budget=b),
        ]
        for call in calls:
            with pytest.raises(ValueError) as err:
                call(budget)
            assert str(err.value) == f"budget must be at least 1 evaluation, got {budget!r}"

    def test_integral_float_budget_is_its_int(self):
        grid = {"n": 4, "k": 2, "params": {"t": 1}}
        rep = exhaustive_sweep("EKR_1_1", grid, budget=1e8)
        assert type(rep["config"]["budget"]) is int
        assert rep["config"] == exhaustive_sweep("EKR_1_1", grid, budget=10**8)["config"]
        assert exhaustive_sweep("EKR_1_1", grid)["config"]["budget"] == 10**8
        prop = And((TIntersecting(0, 1), RhoAtMost(0, Fraction(1, 2))))
        assert search_max(7, 3, prop, budget=50.0) == search_max(7, 3, prop, budget=50)

    @pytest.mark.parametrize(
        "sid,grid",
        [
            ("EKR_1_1", {"n": 20, "k": 5, "space": "initial", "params": {"t": 1}}),
            ("PROP_3_15", {"n": 20, "k": 5, "space": "initial-pairs"}),
            ("PROP_3_15", {"n": 7, "k": 3, "space": "dual-pairs"}),
        ],
    )
    def test_budget_refusal_flags_upper_bound(self, sid, grid):
        # each space is refused from the exponent of its least size before anything is
        # listed, so its estimate is an upper bound, printed beside that lower bound
        with pytest.raises(BudgetError, match="upper bound"):
            exhaustive_sweep(sid, grid)

    def test_old_prefix_pair_mode_is_unknown(self):
        from extremal.verify.harness import gen_pair

        spec = {"mode": "cross-shifted-prefix",
                "base": {"mode": "uniform", "n": 9, "k": 3}}
        with pytest.raises(ValueError, match="unknown pair mode"):
            gen_pair(random.Random(1), spec)

    @pytest.mark.parametrize(
        "sid,grid",
        [
            ("LEM_3_7", {"n": 5, "k": 2, "space": "initial"}),
            ("LEM_3_7", {"n": 9, "k": 3, "space": "families"}),  # refused before 2**84 is sized
            ("FACT_3_1", {"n": 6, "k": 3, "space": "initial"}),
            ("EQ_2_1", {"n": 6, "k": 3, "space": "initial-pairs"}),
            ("MATCHING_COR", {"n": 6, "k": 3, "space": "dual-pairs"}),
            ("BD_5_1", {"n": 5, "k": 2}),
            ("BINOM_1_11", {"n": 5, "k": 2, "space": "families"}),
            ("KATONA", {"n": 4, "k": 2, "space": "grid", "params": {"t": 1, "l": 1}}),
        ],
    )
    def test_space_must_match_kind(self, sid, grid):
        with pytest.raises(ValueError, match=f"{sid} is a {REGISTRY[sid].kind} statement; "
                                             "the spaces it may sweep: "):
            exhaustive_sweep(sid, grid, budget=10)

    def test_kind_table_covers_registry_and_suite(self):
        from extremal.verify.harness import _KINDS

        assert {stmt.kind for stmt in REGISTRY.values()} == set(_KINDS)
        for entry in suite_config()["entries"]:
            if entry["mode"] == "exhaustive":
                stmt = REGISTRY[entry["id"]]
                spaces = _KINDS[stmt.kind][1]
                default = stmt.default_space or spaces[0]
                assert entry["grid"].get("space", default) in spaces

    def test_default_space_is_of_its_kind_and_not_restated(self):
        from extremal.verify.harness import _KINDS

        for stmt in REGISTRY.values():
            spaces = _KINDS[stmt.kind][1]
            # None resolves to the kind's first space; a named default must be another of them
            assert stmt.default_space is None or stmt.default_space in spaces[1:], stmt.id

    @pytest.mark.parametrize("threads", [0, 2, -3])
    def test_threads_other_than_one_refused(self, threads):
        recipe = dict(RECIPES["SUM_1_15"], id="SUM_1_15", mode="sample", count=5, seed=5)
        with pytest.raises(ValueError, match="serially"):
            run_recipe(recipe, threads=threads)
        with pytest.raises(ValueError, match="serially"):
            exhaustive_sweep("KATONA", {"n": 4, "k": 2, "params": {"t": 1, "l": 1}},
                             threads=threads)
        assert run_recipe(recipe, threads=1)["result"]["totals"]["fail"] == 0

    def test_recipe_overrides(self):
        recipe = recipe_for("EKR_1_1", overrides={"n": 9, "count_like": 3})
        assert recipe["instance"]["family"]["n"] == 9
        assert recipe["instance"]["params"]["count_like"] == 3

    def test_every_registry_id_has_recipe(self):
        assert set(RECIPES) == set(REGISTRY)


class TestSearch:
    def test_triangle_max(self):
        res = search_max(5, 2, And((TIntersecting(0, 1), RhoAtMost(0, Fraction(2, 3)))))
        assert res.max_size == 3
        assert res.complete
        union = 0
        for m in res.witness.members:
            union |= m
        assert len(res.witness) == 3 and union.bit_count() == 3

    def test_infeasible_property(self):
        res = search_max(5, 2, And((TIntersecting(0, 1), RhoAtMost(0, Fraction(1, 2)))))
        assert res.max_size == 0 and len(res.witness) == 0 and res.complete
        # no 2-set is 3-intersecting, and the empty witness is valid
        res = search_max(5, 2, And((TIntersecting(0, 3),)))
        assert res.max_size == 0 and len(res.witness) == 0 and res.complete

    def test_fano_scale(self):
        prop = And((TIntersecting(0, 1), RhoAtMost(0, Fraction(1, 2))))
        res = search_max(7, 3, prop)
        assert res.max_size >= 7
        assert prop.holds((res.witness,))
        assert isinstance(res.complete, bool)

    def test_budget_abort_flag(self):
        prop = And((TIntersecting(0, 1), RhoAtMost(0, Fraction(1, 2))))
        res = search_max(7, 3, prop, budget=50)
        assert not res.complete
        if res.max_size:
            assert prop.holds((res.witness,))

    def test_beats_catalog_constructions(self):
        # the exact optimum can never be below a catalog witness satisfying P
        prop = And((TIntersecting(0, 1), RhoAtMost(0, Fraction(1, 2))))
        res = search_max(7, 3, prop)
        assert prop.holds((fano(),))
        assert res.max_size >= len(fano())

    # a cross atom, and every atom on a slot other than 0, has no meaning for one family
    @pytest.mark.parametrize("atom", [
        CrossTIntersecting(0, 1, 1),
        MatchingAtMost(1, 1),
        NonTrivial(1),
        TIntersecting(1, 1),
        RhoAtMost(1, Fraction(1, 2)),
    ])
    def test_unsupported_atom(self, atom):
        with pytest.raises(ValueError):
            search_max(5, 2, And((atom,)))


class TestRegistryHygiene:
    def test_all_statements_have_descriptions(self):
        for sid, stmt in REGISTRY.items():
            assert stmt.description, sid
            assert stmt.kind in ("family", "pair", "slices", "numeric"), sid

    def test_lem_3_7_below_range_is_vacuous(self):
        a = fam(9, 3, (1, 2, 3))
        rep = check_statement("LEM_3_7", Instance((a, a), {}))
        assert rep.verdict == "vacuous"

    @pytest.mark.parametrize(
        "sid", sorted(sid for sid, stmt in REGISTRY.items() if stmt.kind == "pair")
    )
    def test_initial_cross_pairs_need_two_families(self, sid):
        # eps in range, so THM_1_10 gets past its eps bound to the families
        params = {"t": 1, "eps": Fraction(1, 100)}
        single = Instance((fam(6, 3, (1, 2, 3)),), params)
        assert check_statement(sid, single).verdict == "vacuous"
        # two families on different ground sets are not a pair either
        mixed = Instance((fam(6, 3, (1, 2, 3)), fam(7, 3, (1, 2, 3))), params)
        assert check_statement(sid, mixed).verdict == "vacuous"

    @pytest.mark.parametrize("sid, params", [
        ("HILTON", {}),
        ("CROSS_SHADOW", {"t": 1, "l1": 1, "l2": 1}),
    ])
    def test_cross_check_runs_once(self, monkeypatch, sid, params):
        # the hypothesis establishes cross-intersection; the conclusion must not redo it
        import extremal.order
        import extremal.verify.registry

        calls = []

        def counting(*args):
            calls.append(args)
            return is_cross_t_intersecting(*args)

        for module in (extremal.order, extremal.verify.registry):
            monkeypatch.setattr(module, "is_cross_t_intersecting", counting)
        pair = (fam(6, 3, (1, 2, 3), (1, 2, 4)), fam(6, 3, (1, 2, 5), (1, 3, 4)))
        assert check_statement(sid, Instance(pair, params)).verdict == "pass"
        assert len(calls) == 1

    def test_sampler_type_determinism(self):
        from extremal.verify.harness import _rng_for

        spec = RECIPES["KATONA"]["instance"]

        def stream(seed):
            return [make_instance(_rng_for(seed, idx), "KATONA", spec).descriptor()
                    for idx in range(20)]

        a = stream(9)
        assert a == stream(9)
        assert a != stream(10)


class TestFailPlumbing:
    """A deliberately false statement must fail loudly, deterministically,
    and with a witness that re-checks in isolation."""

    @pytest.fixture()
    def false_statement(self):
        from extremal.verify.registry import Statement

        sid = "_ALWAYS_FALSE_TEST"
        REGISTRY[sid] = Statement(
            sid, "family",
            hypothesis=lambda i: len(i.families[0]) >= 2,
            conclusion=lambda i: False,
            description="synthetic false statement for harness tests",
        )
        yield sid
        del REGISTRY[sid]

    def test_sample_halts_with_witness(self, false_statement):
        spec = {"family": {"mode": "uniform", "n": 6, "k": 3, "density": 0.5}, "params": {}}
        rep = sample_sweep(false_statement, spec, 50, 3)
        res = rep["result"]
        assert res["totals"]["fail"] == 1
        assert res["halted_on_fail"]
        assert res["totals"]["pass"] == 0
        assert len(res["witnesses"]) == 1
        again = recheck_witness(res["witnesses"][0])
        assert again.verdict == "FAIL"
        # deterministic halt point: rerun reproduces the identical result
        rerun = run_recipe(rep["config"])
        assert json.dumps(res, sort_keys=True) == json.dumps(rerun["result"], sort_keys=True)
        # two evaluations per instance consumed, the halting FAIL included
        assert res["budget_used"] == 2 * sum(res["totals"].values())

    def test_exhaustive_halts_with_witness(self, false_statement):
        rep = exhaustive_sweep(false_statement, {"n": 4, "k": 2, "space": "families",
                                                 "params": {}})
        res = rep["result"]
        assert res["totals"]["fail"] == 1 and res["halted_on_fail"]
        total_seen = sum(res["totals"].values())
        assert total_seen < 1 << 6  # halted before exhausting the space


# ---------------------------------------------------------------------------
# Oracles: the checks the registry wrote out inline before it called the
# library's definitions, copied verbatim from the lambdas they replaced.
# ---------------------------------------------------------------------------


def _f(i):
    return i.families[0]


def _g(i):
    return i.families[1]


def _oracle_katona_extras(i):
    f = _f(i)
    t, l = i.params["t"], i.params["l"]
    lhs = len(shadow(f, l)) * comb(2 * f.k - t, f.k)
    rhs = len(f) * comb(2 * f.k - t, f.k - l)
    if lhs != rhs:
        return {}
    out = {"equality": 1}
    union = 0
    for m in f.members:
        union |= m
    if len(f) == comb(2 * f.k - t, f.k) and union.bit_count() == 2 * f.k - t:
        out["equality_isomorph"] = 1
    return out


ORACLES = {
    "KATONA": (
        lambda i: len(_f(i)) > 0
        and 1 <= i.params["l"] <= i.params["t"] <= _f(i).k
        and _f(i).n >= 2 * _f(i).k - i.params["t"]
        and is_t_intersecting(_f(i), i.params["t"]),
        lambda i: len(shadow(_f(i), i.params["l"])) * comb(2 * _f(i).k - i.params["t"], _f(i).k)
        >= len(_f(i)) * comb(2 * _f(i).k - i.params["t"], _f(i).k - i.params["l"]),
        _oracle_katona_extras,
    ),
    "CROSS_SHADOW": (
        lambda i: len(i.families) == 2
        and _f(i).n == _g(i).n
        and len(_f(i)) > 0
        and len(_g(i)) > 0
        and 1 <= i.params["l1"] < _f(i).k
        and 1 <= i.params["l2"] < _g(i).k
        and 1 <= i.params["t"] <= min(_f(i).k, _g(i).k)
        and is_cross_t_intersecting(_f(i), _g(i), i.params["t"]),
        lambda i: (
            len(shadow(_f(i), i.params["l1"])) * comb(2 * _f(i).k - i.params["t"], _f(i).k)
            >= len(_f(i)) * comb(2 * _f(i).k - i.params["t"], _f(i).k - i.params["l1"])
        )
        or (
            len(shadow(_g(i), i.params["l2"])) * comb(2 * _g(i).k - i.params["t"], _g(i).k)
            >= len(_g(i)) * comb(2 * _g(i).k - i.params["t"], _g(i).k - i.params["l2"])
        ),
        None,
    ),
    "FK_IMPROVED": (
        lambda i: 1 <= i.params["l"] < i.params["t"] < _f(i).k
        and is_t_intersecting(_f(i), i.params["t"])
        and len(_f(i))
        >= comb(2 * _f(i).k - i.params["t"], _f(i).k)
        * (1 + Fraction(i.params["t"] + i.params["l"],
                        _f(i).k + i.params["t"] + 1 - i.params["l"])),
        lambda i: len(shadow(_f(i), i.params["l"]))
        * comb0(2 * (_f(i).k - 1) - i.params["t"], _f(i).k - 1)
        >= len(_f(i))
        * comb0(2 * (_f(i).k - 1) - i.params["t"], _f(i).k - 1 - i.params["l"]),
        None,
    ),
    "BINOM_1_11": (
        lambda i: i.params["n"] > i.params["i"] * i.params["k"]
        and min(i.params["n"], i.params["k"], i.params["i"]) >= 1,
        lambda i: comb0(i.params["n"] - i.params["i"], i.params["k"]) * i.params["n"]
        >= (i.params["n"] - i.params["i"] * i.params["k"]) * comb(i.params["n"], i.params["k"]),
        None,
    ),
    "BINOM_1_13": (
        lambda i: i.params["k"] > i.params["t"] >= 2
        and i.params["n"] >= 2 * (i.params["t"] - 1) * (i.params["k"] - i.params["t"]),
        lambda i: 2 * comb0(i.params["n"] - i.params["t"] - 2, i.params["k"] - i.params["t"] - 2)
        >= comb0(i.params["n"] - 3, i.params["k"] - i.params["t"] - 2),
        None,
    ),
}


def _oracle_check_binomials(n, k, i, t):
    out = {}
    if n > i * k and n >= 1 and k >= 1 and i >= 1:
        out["n_minus_i"] = comb0(n - i, k) * n >= (n - i * k) * comb(n, k)
    else:
        out["n_minus_i"] = None
    if k > t >= 2 and n >= 2 * (t - 1) * (k - t):
        out["half"] = 2 * comb0(n - t - 2, k - t - 2) >= comb0(n - 3, k - t - 2)
    else:
        out["half"] = None
    return out


def assert_as_oracle(sid, inst):
    """Same hypothesis, and where it holds the same verdict and extras as the oracle copy."""
    hyp, concl, extras = ORACLES[sid]
    stmt = REGISTRY[sid]
    held = hyp(inst)
    assert stmt.hypothesis(inst) == held, (sid, inst)
    rep = check_statement(sid, inst)
    if not held:
        assert rep.verdict == "vacuous"
        return rep.verdict
    assert rep.verdict == ("pass" if concl(inst) else "FAIL"), (sid, inst)
    assert rep.extras == (extras(inst) if extras else {}), (sid, inst)
    return rep.verdict


def all_families(n, k):
    masks = enumerate_ksubsets(n, k)
    for bits in range(1 << len(masks)):
        yield SetFamily(n, k, [m for i, m in enumerate(masks) if bits >> i & 1], _trusted=True)


def dual_of(a, l, t):
    return SetFamily(a.n, l, [c for c in enumerate_ksubsets(a.n, l)
                              if all((c & m).bit_count() >= t for m in a.members)])


class TestMergedDefinitionOracles:
    def test_katona_every_family_5_2(self):
        verdicts = set()
        for f in all_families(5, 2):
            for t in (1, 2):
                for l in range(1, t + 1):
                    verdicts.add(assert_as_oracle("KATONA", Instance((f,), {"t": t, "l": l})))
                    assert REGISTRY["KATONA"].extras(Instance((f,), {"t": t, "l": l})) == (
                        _oracle_katona_extras(Instance((f,), {"t": t, "l": l}))
                    )
        assert verdicts == {"pass", "vacuous"}

    def test_katona_samples_6_3(self):
        rng = random.Random(41)
        masks = enumerate_ksubsets(6, 3)
        seen_equality = 0
        for _ in range(300):
            f = SetFamily(6, 3, [m for m in masks if rng.random() < 0.15])
            for t in (1, 2, 3):
                for l in range(1, t + 1):
                    inst = Instance((f,), {"t": t, "l": l})
                    assert_as_oracle("KATONA", inst)
                    seen_equality += "equality" in REGISTRY["KATONA"].extras(inst)
        assert seen_equality

    def test_fk_improved_every_family(self):
        for n, k in ((5, 2), (5, 3)):
            for f in all_families(n, k):
                for t, l in ((2, 1), (3, 1), (3, 2)):
                    inst = Instance((f,), {"t": t, "l": l})
                    assert_as_oracle("FK_IMPROVED", inst)
                    if 1 <= l < t < k:
                        # the hypothesis never holds this small; compare the conclusion alone
                        assert REGISTRY["FK_IMPROVED"].conclusion(inst) == (
                            ORACLES["FK_IMPROVED"][1](inst)
                        )

    def test_fk_improved_samples(self):
        rng = random.Random(42)
        for n, k in ((7, 4), (8, 5)):
            masks = enumerate_ksubsets(n, k)
            for _ in range(60):
                f = SetFamily(n, k, [m for m in masks if rng.random() < 0.3])
                for t in range(2, k):
                    for l in range(1, t):
                        inst = Instance((f,), {"t": t, "l": l})
                        assert_as_oracle("FK_IMPROVED", inst)
                        assert REGISTRY["FK_IMPROVED"].conclusion(inst) == (
                            ORACLES["FK_IMPROVED"][1](inst)
                        )

    def test_cross_shadow_every_family_5_2(self):
        rng = random.Random(43)
        verdicts = set()
        for a in all_families(5, 2):
            full = dual_of(a, 2, 1)
            part = SetFamily(5, 2, [m for m in full.members if rng.random() < 0.5])
            for b in (full, part):
                inst = Instance((a, b), {"t": 1, "l1": 1, "l2": 1})
                verdicts.add(assert_as_oracle("CROSS_SHADOW", inst))
        assert verdicts == {"pass", "vacuous"}

    def test_cross_shadow_samples(self):
        rng = random.Random(44)
        for k, l in ((3, 3), (3, 2), (4, 3)):
            masks = enumerate_ksubsets(7, k)
            for _ in range(80):
                a = SetFamily(7, k, [m for m in masks if rng.random() < 0.12])
                t = rng.randint(1, min(k, l))
                full = dual_of(a, l, t)
                b = SetFamily(7, l, [m for m in full.members if rng.random() < 0.6])
                for l1 in range(1, k):
                    for l2 in range(1, l):
                        inst = Instance((a, b), {"t": t, "l1": l1, "l2": l2})
                        assert_as_oracle("CROSS_SHADOW", inst)

    def test_binomials_grids(self):
        verdicts = {"BINOM_1_11": set(), "BINOM_1_13": set()}
        for n in range(0, 35):
            for k in range(0, 10):
                for i in range(0, 6):
                    verdicts["BINOM_1_11"].add(
                        assert_as_oracle("BINOM_1_11", Instance((), {"n": n, "k": k, "i": i}))
                    )
                for t in range(0, 8):
                    verdicts["BINOM_1_13"].add(
                        assert_as_oracle("BINOM_1_13", Instance((), {"n": n, "k": k, "t": t}))
                    )
                for i in range(0, 6):
                    for t in range(0, 8):
                        assert reference_check_binomials(n, k, i, t) == _oracle_check_binomials(n, k, i, t)
        assert verdicts == {"BINOM_1_11": {"pass", "vacuous"}, "BINOM_1_13": {"pass", "vacuous"}}


# ---------------------------------------------------------------------------
# The one space function against a copy of the instance lister it replaced.
# ---------------------------------------------------------------------------


def _oracle_space_instances(space, grid, params):
    n, k = grid["n"], grid["k"]
    if space == "families":
        masks = enumerate_ksubsets(n, k)
        m_count = len(masks)
        for bits in range(1 << m_count):
            members = []
            bb = bits
            while bb:
                low = bb & -bb
                members.append(masks[low.bit_length() - 1])
                bb ^= low
            yield Instance((SetFamily(n, k, members, _trusted=True),), dict(params))
    elif space == "initial":
        for members in initial_families(n, k):
            yield Instance((SetFamily(n, k, members, _trusted=True),), dict(params))
    elif space == "initial-pairs":
        t = params.get("t", 1)
        l = grid.get("l", k)
        left = initial_families(n, k)
        right = initial_families(n, l) if l != k else left
        for a in left:
            fa = SetFamily(n, k, a, _trusted=True)
            for b in right:
                fb = SetFamily(n, l, b, _trusted=True)
                if is_cross_t_intersecting(fa, fb, t):
                    yield Instance((fa, fb), dict(params))
    elif space == "dual-pairs":
        t = params.get("t", 1)
        l = grid.get("l", k)
        a_masks = enumerate_ksubsets(n, k)
        b_masks = enumerate_ksubsets(n, l)
        compat = []
        for bm in b_masks:
            row = 0
            for i, am in enumerate(a_masks):
                if (am & bm).bit_count() >= t:
                    row |= 1 << i
            compat.append(row)
        m_count = len(a_masks)
        for abits in range(1 << m_count):
            a_members = []
            bb = abits
            while bb:
                low = bb & -bb
                a_members.append(a_masks[low.bit_length() - 1])
                bb ^= low
            fa = SetFamily(n, k, a_members, _trusted=True)
            dual = 0
            for bi in range(len(b_masks)):
                if not abits & ~compat[bi]:
                    dual |= 1 << bi
            sub = dual
            while True:
                b_members = []
                bb = sub
                while bb:
                    low = bb & -bb
                    b_members.append(b_masks[low.bit_length() - 1])
                    bb ^= low
                yield Instance((fa, SetFamily(n, l, b_members, _trusted=True)), dict(params))
                if sub == 0:
                    break
                sub = (sub - 1) & dual


SPACES = [
    ("families", {"n": 4, "k": 2}, {"t": 1}),
    ("initial", {"n": 6, "k": 3}, {}),
    ("initial-pairs", {"n": 5, "k": 2, "l": 2}, {}),
    ("dual-pairs", {"n": 4, "k": 2, "l": 2}, {"t": 1}),
    ("dual-pairs", {"n": 5, "k": 3, "l": 2}, {"t": 2}),
    ("dual-pairs", {"n": 4, "k": 1, "l": 2}, {"t": 0}),
]


class TestSpaces:
    # a space keeps its name as its id; a t other than 1 is added to it
    @pytest.mark.parametrize("space,grid,params", SPACES, ids=[
        s[0] + (f"-t{s[2]['t']}" if s[2].get("t", 1) != 1 else "") for s in SPACES
    ])
    def test_space_matches_oracle(self, space, grid, params):
        from extremal.verify.harness import _space

        count, stream = _space(space, grid, params, 10**8)
        got = list(stream)
        assert count == len(got)
        assert got == list(_oracle_space_instances(space, grid, params))

    @pytest.mark.parametrize(
        "sid,grid",
        [
            ("MATCHING_COR", {"n": 6, "k": 3, "space": "initial"}),
            ("PROP_3_15", {"n": 5, "k": 2, "l": 2, "space": "initial-pairs"}),
        ],
    )
    def test_initial_spaces_list_nothing_whole(self, monkeypatch, sid, grid):
        from extremal.verify import harness

        def refused(n, k):
            raise AssertionError("initial_families called")

        monkeypatch.setattr(harness, "initial_families", refused)
        rep = exhaustive_sweep(sid, grid)
        assert rep["result"]["totals"]["fail"] == 0 and rep["result"]["totals"]["pass"] > 0

    def test_initial_stream_memory_is_flat(self):
        import tracemalloc

        from extremal.verify.harness import _space

        def consume():
            count, stream = _space("initial", {"n": 8, "k": 4}, {}, 10**8)
            assert count == sum(1 for _ in stream) == 9_304

        consume()  # the caches of k-sets and the shifting order are not the stream's
        tracemalloc.start()
        try:
            consume()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 9,304 families listed whole took about 2.9 MB
        assert peak < 256 * 1024


    def test_initial_space_proves_no_family_initial(self, monkeypatch):
        from extremal import core

        def refused(*args):
            raise AssertionError("is_closed called")

        monkeypatch.setattr(core, "is_closed", refused)
        rep = exhaustive_sweep("MATCHING_COR", {"n": 6, "k": 3, "space": "initial"})
        assert rep["result"]["totals"]["fail"] == 0 and rep["result"]["totals"]["pass"] > 0

    def test_pair_sweep_computes_rho_once_per_family(self, monkeypatch):
        from extremal import measures

        calls = []
        original = measures.degree_vector

        def counted(fam):
            calls.append(fam)
            return original(fam)

        monkeypatch.setattr(measures, "degree_vector", counted)
        rep = exhaustive_sweep("PROP_3_2", {"n": 6, "k": 3, "space": "initial-pairs"})
        assert rep["result"]["totals"]["fail"] == 0 and rep["result"]["totals"]["pass"] > 0
        assert len(initial_families(6, 3)) == 66
        assert len(calls) <= 66
        assert len({id(f) for f in calls}) == len(calls)


def reference_initial_families(n, k):
    """The old downset lister: a k-set joins once every one of its unit predecessors is in."""

    def unit_predecessors(mask):
        m = mask
        while m:
            low = m & -m
            m ^= low
            if low > 1 and not mask & (low >> 1):
                yield (mask ^ low) | (low >> 1)

    masks = enumerate_ksubsets(n, k)
    index = {m: i for i, m in enumerate(masks)}
    preds = [tuple(index[p] for p in unit_predecessors(m)) for m in masks]
    out = []
    stack = [(0, 0)]
    while stack:
        i, chosen = stack.pop()
        if i == len(masks):
            out.append(tuple(m for j, m in enumerate(masks) if chosen >> j & 1))
            continue
        stack.append((i + 1, chosen))
        if all(chosen >> p & 1 for p in preds[i]):
            stack.append((i + 1, chosen | (1 << i)))
    out.sort()
    return out


class TestInitialFamilies:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_reference(self, n):
        for k in range(n + 1):
            assert initial_families(n, k) == reference_initial_families(n, k), (n, k)

    def test_matches_reference_at_9_3(self):
        got = initial_families(9, 3)
        assert len(got) == 21_760
        assert got == reference_initial_families(9, 3)

    @pytest.mark.parametrize("l", [2, 3])
    def test_pair_space_shares_family_objects(self, l):
        from extremal.verify.harness import _space

        count, stream = _space("initial-pairs", {"n": 5, "k": 2, "l": l}, {}, 10**8)
        pairs = [inst.families for inst in stream]
        assert count == len(pairs)
        # one object per family, so each is proven initial once per sweep
        lefts = {id(a) for a, _ in pairs}
        rights = {id(b) for _, b in pairs}
        assert len(lefts) == len(initial_families(5, 2))
        assert len(rights) == len(initial_families(5, l))
        assert (lefts == rights) == (l == 2)


PAIR_SHAPES = [
    (n, k, l, t)
    for n in range(2, 7)
    for k in range(1, n + 1)
    for l in (k - 1, k, k + 1)
    if 0 <= l <= n
    for t in (1, 2)
]


def reference_initial_pair_totals(sid, n, k, params):
    """Verdict totals over the full product of initial families, and its size."""
    fams = [SetFamily(n, k, a, _trusted=True) for a in initial_families(n, k)]
    totals = {"pass": 0, "vacuous": 0, "fail": 0}
    for fa in fams:
        for fb in fams:
            verdict = check_statement(sid, Instance((fa, fb), dict(params))).verdict
            totals["fail" if verdict == "FAIL" else verdict] += 1
    return totals, len(fams) ** 2


# the statements that sweep initial pairs: every default, and DICHOTOMY at t = 1 and 2
INITIAL_PAIR_SWEEPS = [
    (sid, {}) for sid in sorted(REGISTRY) if REGISTRY[sid].default_space == "initial-pairs"
] + [("DICHOTOMY", {"t": 1}), ("DICHOTOMY", {"t": 2})]


def reference_prop_3_13(i):
    """The old PROP_3_13 conclusion: every pair of members, every prefix, popcounts."""
    f, g = i.families
    prefixes = [(1 << q) - 1 for q in range(1, f.n + 1)]
    for a in f.members:
        for b in g.members:
            if not any(
                (a & w).bit_count() + (b & w).bit_count() >= q + 1
                for q, w in enumerate(prefixes, start=1)
            ):
                return False
    return True


class TestInitialPairSpace:
    """B ranges over the initial families inside A's t-dual, not over all initial families."""

    @pytest.mark.parametrize("n,k,l,t", PAIR_SHAPES)
    def test_equals_cross_filtered_product(self, n, k, l, t):
        from extremal.verify.harness import _space

        grid, params = {"n": n, "k": k, "l": l}, {"t": t}
        count, stream = _space("initial-pairs", grid, params, 10**8)
        got = list(stream)
        assert count == len(got)
        assert got == list(_oracle_space_instances("initial-pairs", grid, params))

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (6, 3)])
    @pytest.mark.parametrize("sid,params", INITIAL_PAIR_SWEEPS,
                             ids=[f"{sid}-t{p['t']}" if p else sid for sid, p in INITIAL_PAIR_SWEEPS])
    def test_totals_match_full_product(self, n, k, sid, params):
        rep = exhaustive_sweep(sid, {"n": n, "k": k, "space": "initial-pairs", "params": params})
        got = rep["result"]["totals"]
        want, product = reference_initial_pair_totals(sid, n, k, params)
        assert (got["pass"], got["fail"]) == (want["pass"], want["fail"])
        dropped = product - sum(got.values())
        assert dropped > 0
        assert got["vacuous"] == want["vacuous"] - dropped

    def test_prop_3_13_every_initial_pair_6_3(self):
        from extremal.verify.registry import _prop_3_13_concl

        fams = [SetFamily(6, 3, a, _trusted=True) for a in initial_families(6, 3)]
        verdicts = [
            _prop_3_13_concl(inst) == reference_prop_3_13(inst)
            for inst in (Instance((fa, fb), {}) for fa in fams for fb in fams)
        ]
        assert len(verdicts) == 4356 and all(verdicts)

    def test_prop_3_13_seeded_pairs(self):
        from extremal.verify.registry import _prop_3_13_concl

        rng = random.Random(18)
        held = 0
        for _ in range(600):
            n = rng.randint(2, 8)
            k, l = rng.randint(0, n), rng.randint(0, n)
            density = rng.choice((0.05, 0.2, 0.5))
            fa = SetFamily(n, k, [m for m in enumerate_ksubsets(n, k) if rng.random() < density])
            fb = SetFamily(n, l, [m for m in enumerate_ksubsets(n, l) if rng.random() < density])
            inst = Instance((fa, fb), {})
            want = reference_prop_3_13(inst)
            assert _prop_3_13_concl(inst) == want, (fa, fb)
            held += want
        assert 100 < held < 500

    @pytest.mark.parametrize("n,k,l,t", PAIR_SHAPES)
    def test_listed_pairs_are_cross_t_intersecting(self, n, k, l, t):
        from extremal.verify.harness import _space

        _, stream = _space("initial-pairs", {"n": n, "k": k, "l": l}, {"t": t}, 10**8)
        for inst in stream:
            assert inst.cross_t == t
            assert is_cross_t_intersecting(*inst.families, t)

    def test_dual_pairs_record_their_t(self):
        from extremal.verify.harness import _space

        for t in (0, 1, 2):
            _, stream = _space("dual-pairs", {"n": 5, "k": 2, "l": 3}, {"t": t}, 10**8)
            for inst in stream:
                assert inst.cross_t == t
                assert is_cross_t_intersecting(*inst.families, t)

    def test_sampled_pairs_record_their_t(self):
        from extremal.verify.harness import _rng_for

        entries = [e for e in suite_config()["entries"] if "pair" in e.get("instance", {})]
        modes = {e["instance"]["pair"]["mode"] for e in entries}
        assert modes == {"star-pair", "cross-dual", "cross-shifted", "lem37"}
        for entry in entries:
            for idx in range(5):
                inst = make_instance(_rng_for(entry["seed"], idx), entry["id"], entry["instance"])
                fa, fb = inst.families
                assert inst.cross_t >= 1, entry["id"]
                # the definition: every member of A meets every member of B in cross_t points
                assert all(
                    (a & b).bit_count() >= inst.cross_t for a in fa.members for b in fb.members
                ), entry["id"]

    def test_cross_record_outside_equality_and_witnesses(self):
        from extremal.verify.registry import _cross

        fa, fb = fam(4, 2, (1, 2)), fam(4, 2, (3, 4))
        trusted = Instance((fa, fb), {}, cross_t=1)
        plain = Instance((fa, fb), {})
        # the record answers for t up to its own, and nothing is recorded by default
        assert _cross(trusted, 1) and not _cross(trusted, 2) and not _cross(plain, 1)
        assert trusted == plain
        assert trusted.to_witness("G_THEOREM") == plain.to_witness("G_THEOREM")
        assert instance_from_witness(trusted.to_witness("G_THEOREM")).cross_t == 0

    def test_prop_3_13_counters_once_per_first_family_6_3(self):
        from extremal.verify.harness import _space
        from extremal.verify.registry import _prefix_rows, _prop_3_13_concl

        # t = 0 lists the full product, pairs that break the conclusion included
        _, stream = _space("initial-pairs", {"n": 6, "k": 3}, {"t": 0}, 10**8)
        _prefix_rows.cache_clear()
        verdicts = []
        for inst in stream:
            verdicts.append(reference_prop_3_13(inst))
            assert _prop_3_13_concl(inst) == verdicts[-1], inst.families
        assert len(verdicts) == 4356 and 0 < sum(verdicts) < 4356
        # the stream holds each of the 66 first families over consecutive pairs
        assert _prefix_rows.cache_info().misses == 66

    def test_counting_stops_at_the_budget(self):
        from extremal.verify.harness import _space

        count, _ = _space("initial", {"n": 9, "k": 3}, {}, 2 * 21_760)
        assert count == 21_760
        with pytest.raises(BudgetError, match="at least 43520 evaluations exceed budget 43519"):
            _space("initial", {"n": 9, "k": 3}, {}, 2 * 21_760 - 1)
        count, _ = _space("initial-pairs", {"n": 6, "k": 3}, {}, 10**8)
        assert count == 1_796
        with pytest.raises(BudgetError, match="at least 3000 evaluations exceed budget 2999"):
            _space("initial-pairs", {"n": 6, "k": 3}, {}, 2999)

    @pytest.mark.parametrize("sid,space", [("EQ_2_1", "initial"), ("PROP_3_15", "initial-pairs")])
    def test_k_above_n_is_named_before_any_count(self, sid, space):
        # no k-set of [0]: the antichain bound is 0, and the lister names k and n
        with pytest.raises(ValueError, match=r"k=1 outside \[0, n=0\]"):
            exhaustive_sweep(sid, {"n": 0, "k": 1, "l": 0, "space": space})

    def test_dual_pairs_refused_before_any_row_is_built(self):
        from extremal.verify.harness import _cross_rows

        # every one of the 2**21 sets A of 2-sets of [7] pairs with B = {}
        _cross_rows.cache_clear()
        with pytest.raises(BudgetError, match=r"the space holds at least 2\*\*21 instances"):
            exhaustive_sweep("HILTON", {"n": 7, "k": 2, "l": 2, "space": "dual-pairs"}, budget=10)
        assert _cross_rows.cache_info().currsize == 0

    def test_dual_pairs_past_22_sets_are_counted(self):
        # 2**24 + 22 pairs of families of singletons of [23], which fit the default budget;
        # at this budget the walk stops after a few dozen of its 2**23 As
        with pytest.raises(BudgetError, match=r"budget 16777316 \(counting stopped there\)"):
            exhaustive_sweep("HILTON", {"n": 23, "k": 1, "l": 1, "space": "dual-pairs"},
                             budget=2**24 + 100)


def reference_dual_members(a_fam, l, t):
    """The l-sets that meet every member of `a_fam` in at least t points, member by member."""
    return [
        c
        for c in enumerate_ksubsets(a_fam.n, l)
        if all((c & m).bit_count() >= t for m in a_fam.members)
    ]


def reference_count(space, n, k, l, t, budget):
    """A space's count by a fresh `_count_within` walk over the reference listers."""
    from extremal.verify.harness import _count_within

    if space == "initial":
        walk = (1 for _ in reference_initial_families(n, k))
    elif space == "initial-pairs":
        right = reference_initial_families(n, l)
        walk = (1 for a in reference_initial_families(n, k) for b in right
                if all((x & y).bit_count() >= t for x in a for y in b))
    else:
        # the As in ascending bits, as the stream meets them, so a refusal stops at the same A
        masks = enumerate_ksubsets(n, k)
        walk = (
            1 << len(reference_dual_members(
                SetFamily(n, k, [x for i, x in enumerate(masks) if abits >> i & 1]), l, t))
            for abits in range(1 << len(masks))
        )
    return _count_within(walk, budget)


class TestCountCache:
    """A space's count is walked once per (space, n, k, l, t, budget); a refusal is not kept."""

    def test_cached_count_matches_a_fresh_walk(self):
        from extremal.verify.harness import _count_space

        # small enough that some pair grids of each space are refused mid-walk
        budget = 4_000
        _count_space.cache_clear()
        grids = counted = 0
        for space in ("initial", "initial-pairs", "dual-pairs"):
            for n in range(2, 7):
                for k in range(n + 1):
                    for l in range(n + 1) if space != "initial" else (k,):
                        for t in (0, 1, 2) if space != "initial" else (0,):
                            try:
                                want = reference_count(space, n, k, l, t, budget)
                            except BudgetError as err:
                                want = str(err)
                            for _ in ("cold", "warm"):
                                try:
                                    got = _count_space(space, n, k, l, t, budget)
                                except BudgetError as err:
                                    got = str(err)
                                assert got == want, (space, n, k, l, t)
                            grids += 1
                            counted += type(want) is int
        assert grids == 25 + 2 * 3 * 135 and 0 < counted < grids
        # every grid that fits the budget was counted once, and read back warm
        assert _count_space.cache_info().currsize == counted
        assert _count_space.cache_info().hits == counted

    def test_a_refusal_is_repeated_and_the_default_budget_still_sweeps(self, tmp_path, capsys):
        from extremal.cli import main

        args = ["verify", "--id", "EQ_2_1", "--exhaustive", "n=9,k=3,space=initial"]
        for _ in ("cold", "warm"):
            assert main(args + ["--budget", "43519"]) == 2
            err = capsys.readouterr().err
            assert "at least 43520 evaluations exceed budget 43519" in err
        out = tmp_path / "eq_2_1.json"
        assert main(args + ["--out", str(out)]) == 0
        totals = json.loads(out.read_text(encoding="utf-8"))["result"]["totals"]
        assert sum(totals.values()) == 21_760 and totals["fail"] == 0


class TestCrossRows:
    """The cross-pair samplers' B pool, read from the shared table, against the per-member loop."""

    def test_dual_matches_reference(self):
        from extremal.verify.harness import gen_pair

        # n = 1 is no ground set (SetFamily needs n >= 2)
        for n in range(2, 8):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    for t in range(0, min(k, l) + 2):
                        # density 0 and 1 give the empty and the full A; 0.5 a seeded random one
                        for density in (0.0, 1.0, 0.5):
                            base = {"mode": "uniform", "n": n, "k": k, "density": density}
                            spec = {"mode": "cross-dual", "base": base, "l": l, "t": t,
                                    "density_b": 1.0}
                            (a_fam, b_fam), t_drawn = gen_pair(
                                random.Random(n * 1000 + k * 100 + l), spec)
                            assert t_drawn == t
                            if density != 0.5:
                                assert len(a_fam) == density * comb(n, k)
                            assert list(b_fam.members) == reference_dual_members(a_fam, l, t)

    @pytest.mark.parametrize(
        "n, k, l, t", [(12, 4, 3, 2), (20, 3, 3, 1), (8, 3, 3, 0), (8, 2, 3, 4), (9, 3, 4, 3)]
    )
    def test_table_matches_popcount_table(self, n, k, l, t):
        from extremal.verify.harness import _cross_rows

        a_masks, b_masks = enumerate_ksubsets(n, k), enumerate_ksubsets(n, l)
        rows = _cross_rows(n, l, t)
        assert [rows[am] for am in a_masks] == [
            sum(1 << j for j, bm in enumerate(b_masks) if (am & bm).bit_count() >= t)
            for am in a_masks
        ]
        assert rows.everyone == (1 << len(b_masks)) - 1

    def test_a_draw_builds_one_table(self):
        from extremal.verify.harness import _cross_rows, gen_pair

        _cross_rows.cache_clear()
        spec = {"mode": "cross-dual", "base": {"mode": "uniform", "n": 7, "k": 3}, "l": 2}
        gen_pair(random.Random(1), spec)
        assert _cross_rows.cache_info().currsize == 1

    def test_a_search_builds_the_rows_it_reads(self):
        from extremal.verify.harness import _cross_rows

        _cross_rows.cache_clear()
        res = search_max(26, 4, And((TIntersecting(0, 2),)), budget=10)
        assert not res.complete
        assert len(_cross_rows(26, 4, 2)) <= 10

    def test_a_draw_builds_the_rows_of_a_only(self):
        from extremal.verify.harness import _cross_rows, gen_pair

        _cross_rows.cache_clear()
        base = {"mode": "star-perturbation", "n": 40, "k": 3, "keep": 0.1}
        spec = {"mode": "cross-dual", "base": base, "density_b": 1.0}
        (a_fam, b_fam), _ = gen_pair(random.Random(3), spec)
        # every member holds 1, so the pool never empties and each member's row is read
        assert set(_cross_rows(40, 3, 1)) == set(a_fam.members)
        assert list(b_fam.members) == reference_dual_members(a_fam, 3, 1)

    def test_triangle_pool_at_n_117(self):
        from extremal.verify.harness import _cross_rows, _decode, _dual

        _cross_rows.cache_clear()
        tri = triangle_family(117, 3)
        rows = _cross_rows(117, 3, 1)
        pool = _decode(_dual(tri.members, rows), enumerate_ksubsets(117, 3))
        # the triangle family is its own 1-dual among the 3-sets
        assert pool == list(tri.members) and len(pool) == 343
        assert len(rows) == 343


def reference_kk_sweep(n, k, l):
    """The KRUSKAL_KATONA fast path before meet in the middle: one 2^m-entry shadow table.

    Returns the totals, witnesses, budget use and halt flag of the result section;
    floors come from `harness.kk_min_shadow`, so a patched floor reaches both sweeps.
    """
    from itertools import combinations

    from extremal.core import elems_of
    from extremal.verify import harness

    masks = enumerate_ksubsets(n, k)
    m_count = len(masks)
    sub_index = {m: i for i, m in enumerate(enumerate_ksubsets(n, k - l))}
    shmasks = []
    for m in masks:
        sh = 0
        for drop in combinations(elems_of(m), l):
            d = m
            for e in drop:
                d ^= 1 << (e - 1)
            sh |= 1 << sub_index[d]
        shmasks.append(sh)
    kkmin = [harness.kk_min_shadow(n, k, size, l) for size in range(m_count + 1)]
    table = [0] * (1 << m_count)
    totals = {"pass": 1, "vacuous": 0, "fail": 0}  # the empty family passes
    witnesses = []
    for bits in range(1, 1 << m_count):
        low = bits & -bits
        sh = table[bits ^ low] | shmasks[low.bit_length() - 1]
        table[bits] = sh
        if sh.bit_count() >= kkmin[bits.bit_count()]:
            totals["pass"] += 1
        else:
            totals["fail"] += 1
            members = [masks[i] for i in range(m_count) if bits >> i & 1]
            inst = Instance((SetFamily(n, k, members, _trusted=True),), {"l": l})
            witnesses.append(inst.to_witness("KRUSKAL_KATONA"))
            break
    return {"totals": totals, "witnesses": witnesses,
            "budget_used": 2 * sum(totals.values()), "halted_on_fail": bool(witnesses)}


KK_KEYS = ("totals", "witnesses", "budget_used", "halted_on_fail")
# every (n,k) with 1 <= C(n,k) <= 15, so m = 1, odd m and the split of 15 bits into 7 + 8 all occur
KK_GRIDS = [(n, k) for n in range(2, 7) for k in range(n + 1) if comb(n, k) <= 15]


def kk_sweep(n, k, params):
    return exhaustive_sweep("KRUSKAL_KATONA", {"n": n, "k": k, "space": "families",
                                               "params": params})["result"]


class TestKruskalKatonaSweep:
    def test_grids_cover_small_and_odd_m(self):
        sizes = {comb(n, k) for n, k in KK_GRIDS}
        assert {1, 3, 5, 15} <= sizes

    @pytest.mark.parametrize("n,k", KK_GRIDS)
    def test_matches_table_sweep(self, n, k):
        for l in range(k + 1):
            res = kk_sweep(n, k, {"l": l})
            assert {key: res[key] for key in KK_KEYS} == reference_kk_sweep(n, k, l)

    @pytest.mark.parametrize("n,k,size", [(4, 2, 1), (4, 2, 3), (4, 2, 4), (4, 2, 6),
                                          (5, 2, 5), (5, 2, 9), (5, 3, 10), (3, 1, 2)])
    def test_forced_failure_matches_table_sweep(self, monkeypatch, n, k, size):
        from extremal.verify import harness

        original = harness.kk_min_shadow

        def raised(n_, k_, m, l):
            return original(n_, k_, m, l) + (m == size)

        monkeypatch.setattr(harness, "kk_min_shadow", raised)
        res = kk_sweep(n, k, {"l": 1})
        assert res["halted_on_fail"] and res["totals"]["fail"] == 1
        assert {key: res[key] for key in KK_KEYS} == reference_kk_sweep(n, k, 1)
        assert len(res["witnesses"][0]["families"][0]["members"]) == size

    @pytest.mark.parametrize("l", [-1, 3, 5])
    def test_l_outside_range_matches_generic_sweep(self, l):
        from extremal.verify.harness import _consume, _space

        res = kk_sweep(4, 2, {"l": l})
        generic = _consume("KRUSKAL_KATONA",
                           _space("families", {"n": 4, "k": 2}, {"l": l}, 10**8)[1],
                           {}, 10**8)["result"]
        assert {key: res[key] for key in KK_KEYS} == {key: generic[key] for key in KK_KEYS}
        assert res["totals"] == {"pass": 0, "vacuous": 64, "fail": 0}
        assert res["budget_used"] == 2 * 64

    @pytest.mark.parametrize("space", ["families", "initial"])
    @pytest.mark.parametrize("l", ["1/2", [1]])
    def test_non_int_l_rejected(self, space, l):
        with pytest.raises(ValueError, match="parameter 'l' must be an int"):
            exhaustive_sweep("KRUSKAL_KATONA", {"n": 4, "k": 2, "space": space,
                                                "params": {"l": l}})

    def test_memory_is_two_half_tables(self):
        import tracemalloc

        kk_sweep(6, 2, {"l": 1})  # the caches of k-sets and floors are not the sweep's
        tracemalloc.start()
        try:
            kk_sweep(6, 2, {"l": 1})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a 2^15-entry table alone takes 256 KB
        assert peak < 32 * 1024


def reference_search(n, k, prop):
    """search_max's branch and bound with every candidate tried at the root.

    Returns (max size, witness members, evaluations).
    """
    from extremal.measures import degree_vector, is_nontrivial, matching_number
    from extremal.shifting import MatchingAtMost, NonTrivial

    atoms = list(prop.atoms())
    t = max((a.t for a in atoms if isinstance(a, TIntersecting)), default=0)
    caps = [Fraction(a.c) for a in atoms if isinstance(a, RhoAtMost)]
    nu = min((a.s for a in atoms if isinstance(a, MatchingAtMost)), default=None)
    nontrivial = any(isinstance(a, NonTrivial) for a in atoms)
    best = []
    evals = 0

    def dfs(chosen, left):
        nonlocal best, evals
        evals += 1
        fam = SetFamily(n, k, chosen, _trusted=True)
        if len(chosen) > len(best) and prop.holds((fam,)):
            best = list(chosen)
        reach = len(chosen) + len(left)
        if reach <= len(best):
            return
        if caps and chosen and max(degree_vector(fam)) > min(caps) * reach:
            return
        if nu is not None and chosen and matching_number(fam) > nu:
            return
        if nontrivial and not is_nontrivial(SetFamily(n, k, chosen + left, _trusted=True)):
            return
        for idx, cand in enumerate(left):
            if len(chosen) + len(left) - idx <= len(best):
                break
            dfs(chosen + [cand], [c for c in left[idx + 1:] if (c & cand).bit_count() >= t])

    dfs([], list(enumerate_ksubsets(n, k)))
    return len(best), sorted(best), evals


class TestSearchRoot:
    # `pinned` is the exact node count: a change to the caps or to the order of
    # the prunes that visits other nodes fails here.  Explicit ids keep the
    # test names stable.
    @pytest.mark.parametrize("n,k,prop,pinned", [
        pytest.param(5, 2, And((TIntersecting(0, 1), RhoAtMost(0, Fraction(2, 3)))), 5,
                     id="5-2-prop0"),
        pytest.param(6, 2, And((TIntersecting(0, 1),)), 7, id="6-2-prop1"),
        pytest.param(6, 2, And((MatchingAtMost(0, 2), RhoAtMost(0, Fraction(1, 2)))), 562,
                     id="6-2-prop2"),
        pytest.param(6, 3, And((TIntersecting(0, 1), NonTrivial(0))), 177, id="6-3-prop3"),
        pytest.param(6, 3, And((TIntersecting(0, 2),)), 5, id="6-3-prop4"),
        pytest.param(7, 3, And((TIntersecting(0, 1), RhoAtMost(0, Fraction(1, 2)))), 1_369,
                     id="7-3-prop5"),
        pytest.param(7, 2, And((MatchingAtMost(0, 2), RhoAtMost(0, Fraction(1, 2)))), 4_327,
                     id="7-2-prop6"),
    ])
    def test_fixed_root_keeps_optimum_and_witness(self, n, k, prop, pinned):
        size, witness, evals = reference_search(n, k, prop)
        res = search_max(n, k, prop)
        assert res.complete
        assert (res.max_size, list(res.witness.members)) == (size, witness)
        assert res.evaluations < evals
        assert res.evaluations == pinned

    # t = 2, and non-triviality together with the degree cap
    @pytest.mark.parametrize("n,k,prop,size", [
        pytest.param(6, 3, And((TIntersecting(0, 2), RhoAtMost(0, Fraction(2, 3)))), 0,
                     id="6-3-t2-rho"),
        pytest.param(7, 4, And((TIntersecting(0, 2), RhoAtMost(0, Fraction(2, 3)))), 15,
                     id="7-4-t2-rho"),
        pytest.param(6, 3, And((TIntersecting(0, 1), NonTrivial(0), RhoAtMost(0, Fraction(1, 2)))),
                     10, id="6-3-nontrivial-rho"),
        pytest.param(7, 3, And((TIntersecting(0, 1), NonTrivial(0), RhoAtMost(0, Fraction(3, 5)))),
                     10, id="7-3-nontrivial-rho"),
        pytest.param(6, 2, And((NonTrivial(0), MatchingAtMost(0, 2), RhoAtMost(0, Fraction(1, 2)))),
                     10, id="6-2-nontrivial-nu-rho"),
    ])
    def test_twin_pruning_keeps_optimum_and_witness(self, n, k, prop, size):
        want = reference_search(n, k, prop)
        res = search_max(n, k, prop)
        assert res.complete and res.max_size == size
        assert (res.max_size, list(res.witness.members)) == want[:2]
        assert res.evaluations < want[2]

    def test_theorem_1_11_t2_optimum_8_4(self):
        # the t = 2 case of Theorem 1.11; the 15 4-sets of [6] attain it, each point in 10
        prop = And((TIntersecting(0, 2), RhoAtMost(0, Fraction(2, 3))))
        res = search_max(8, 4, prop)
        assert res.complete and res.max_size == 15
        assert list(res.witness.members) == list(enumerate_ksubsets(6, 4))

    # the search's degree rule needs each cap nondecreasing with cap(s + a) <= cap(s) + a
    @pytest.mark.parametrize("spec", ["intersecting", "nontrivial", "rho<=0", "rho<=-1/2",
                                      "rho<=1/3", "rho<=2/3&nontrivial", "rho<=3/2",
                                      "rho<=5/2&nontrivial", "nu<=2&rho<=1/2"])
    def test_degree_caps_grow_by_at_most_one_per_set(self, spec):
        cap = degree_cap(parse_property_spec(spec), 0)
        for s in range(40):
            for a in range(40):
                assert cap(s) <= cap(s + a) <= cap(s) + a, (s, a)

    # Theorem 1.5 at k = 3, d = 2: the per-element degree rule ends (9,3) and (10,3) in a
    # few thousand nodes; a cap test at size + remaining alone took 582,914 at (9,3)
    @pytest.mark.parametrize("n,budget", [(9, 20_000), (10, 40_000)])
    def test_rho_half_k3_completes_within_budget(self, n, budget):
        prop = And((TIntersecting(0, 1), RhoAtMost(0, Fraction(1, 2))))
        small = search_max(8, 3, prop)
        assert small.max_size == 10 and max(small.witness.members) < 1 << 6
        res = search_max(n, 3, prop, budget=budget)
        assert res.complete and res.max_size == 10
        assert res.witness.members == small.witness.members

    @pytest.mark.parametrize("spec", ["nontrivial", "nontrivial&rho<=3/5",
                                      "intersecting&rho<=1/2", "t-intersecting(2)&rho<=2/3",
                                      "nu<=2&rho<=1/2"])
    def test_grid_matches_reference(self, spec):
        prop = parse_property_spec(spec)
        for n in range(2, 8):
            for k in range(1, min(n, 3) + 1):
                size, witness, _ = reference_search(n, k, prop)
                if not size and not prop.holds((SetFamily(n, k, []),)):
                    with pytest.raises(ValueError, match="no family satisfies"):
                        search_max(n, k, prop)
                    continue
                res = search_max(n, k, prop)
                assert res.complete, (n, k)
                assert (res.max_size, list(res.witness.members)) == (size, witness), (n, k)

    def test_benchmark_search_items_reach_their_optimum(self, monkeypatch):
        # bench/workloads.py's search items: bench/inputs.json's specs against the optima
        # of bench/reference.json, checked by bench/oracles.py's definitions
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        items = workloads.search_items()
        assert [item.label for item in items] == [s["name"] for s in workloads.INPUTS["search"]]
        for item in items:
            assert item.check(item.call()), item.label

    # closed-form optima beyond reference_search's reach: Ahlswede-Khachatrian's complete
    # intersection theorem, max over r of |{F : |F ∩ [t+2r]| >= t+r}|, and Hilton-Milner
    @staticmethod
    def ahlswede_khachatrian(n, k, t):
        return max(
            sum(comb(t + 2 * r, i) * comb(n - t - 2 * r, k - i) for i in range(t + r, k + 1))
            for r in range((n - t) // 2 + 1)
        )

    @pytest.mark.parametrize("n,k,t", [(5, 2, 1), (6, 2, 1), (6, 3, 1), (7, 3, 1), (6, 3, 2),
                                       (7, 3, 2), (8, 3, 2), (7, 4, 2), (8, 4, 2), (8, 4, 3),
                                       (9, 4, 3)])
    def test_t_intersecting_optimum_is_ahlswede_khachatrian(self, n, k, t):
        res = search_max(n, k, And((TIntersecting(0, t),)))
        assert res.complete and res.max_size == self.ahlswede_khachatrian(n, k, t)
        assert is_t_intersecting(res.witness, t) and len(res.witness) == res.max_size

    @pytest.mark.parametrize("n,k", [(7, 3), (8, 3), (9, 3), (7, 2), (9, 2)])
    def test_nontrivial_optimum_is_hilton_milner(self, n, k):
        res = search_max(n, k, parse_property_spec("intersecting&nontrivial"))
        assert res.complete
        assert res.max_size == comb(n - 1, k - 1) - comb(n - k - 1, k - 1) + 1

    def test_incomplete_search_stays_below_closed_form(self):
        # EKR's C(8, 3) = 56 at (9,4); this budget stops the search well before it
        res = search_max(9, 4, And((TIntersecting(0, 1),)), budget=2_000)
        assert not res.complete
        assert 0 < res.max_size <= self.ahlswede_khachatrian(9, 4, 1) == comb(8, 3)

    def test_prune_counts_reported_and_repeatable(self):
        prop = And((TIntersecting(0, 1), RhoAtMost(0, Fraction(1, 2))))
        first, second = search_max(7, 3, prop), search_max(7, 3, prop)
        assert first.prunes["twin"] > 0 and first.prunes["degree_cap"] > 0
        assert first.prunes == second.prunes
        assert set(first.prunes) == {"bound", "degree_cap", "nu", "twin"}
        assert first.to_json_dict()["prunes"] == first.prunes


class TestSmallParameterSweeps:
    """Sweeps at k = 0, and pair sweeps whose spaces hold empty families, find no FAIL."""

    def test_matching_cor_sample_k0(self):
        rep = run_recipe(recipe_for("MATCHING_COR", {"k": 0}))
        assert rep["result"]["totals"]["fail"] == 0

    @pytest.mark.parametrize("sid, grid", [
        ("MATCHING_COR", {"n": 5, "k": 0, "space": "initial"}),
        ("EQ_2_1", {"n": 4, "k": 0, "space": "initial"}),
        ("THM_1_10", {"n": 4, "k": 1, "l": 1, "space": "initial-pairs",
                      "params": {"eps": "1/58"}}),
        ("THM_1_6", {"n": 4, "k": 0, "l": 0, "space": "dual-pairs"}),
        ("PROP_3_4", {"n": 5, "k": 1, "l": 1, "space": "initial-pairs"}),
    ])
    def test_exhaustive(self, sid, grid):
        assert exhaustive_sweep(sid, grid)["result"]["totals"]["fail"] == 0
