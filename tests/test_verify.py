"""Registry checkers, sweeps, sampler determinism, witnesses, and search."""

import json
import random
from fractions import Fraction

import pytest

from extremal.core import SetFamily, enumerate_ksubsets
from extremal.constructions import fano, full_star
from extremal.shifting import And, RhoAtMost, TIntersecting
from extremal.verify import (
    REGISTRY,
    BudgetError,
    Instance,
    check_binomials,
    check_fact_3_13,
    check_identity_2_3,
    check_identity_3_2,
    check_statement,
    exhaustive_sweep,
    instance_from_witness,
    recheck_witness,
    rerun_report,
    sample_sweep,
    search_max,
)
from extremal.verify.recipes import RECIPES, recipe_for


def fam(n, k, *sets):
    return SetFamily.from_sets(n, k, sets)


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
        out = check_binomials(10, 3, 2, 2)
        assert out["n_minus_i"] is True
        out = check_binomials(12, 5, 1, 2)
        assert out["half"] is True
        # boundary n = ik+1
        out = check_binomials(7, 3, 2, 2)
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
        again = rerun_report(rep)
        assert json.dumps(rep["result"], sort_keys=True) == json.dumps(again["result"], sort_keys=True)

    def test_exhaustive_rerun(self):
        rep = exhaustive_sweep("KATONA", {"n": 5, "k": 2, "space": "families",
                                          "params": {"t": 1, "l": 1}})
        again = rerun_report(rep)
        assert json.dumps(rep["result"], sort_keys=True) == json.dumps(again["result"], sort_keys=True)

    def test_budget_refusal(self):
        with pytest.raises(BudgetError) as err:
            exhaustive_sweep("KATONA", {"n": 7, "k": 3, "space": "families",
                                        "params": {"t": 1, "l": 1}}, budget=1000)
        assert "upper bound" not in str(err.value)  # 2**35 families is exact

    @pytest.mark.parametrize(
        "sid,grid",
        [
            ("EKR_1_1", {"n": 9, "k": 3, "space": "initial", "params": {"t": 1}}),
            ("PROP_3_15", {"n": 9, "k": 3, "space": "initial-pairs"}),
            ("PROP_3_15", {"n": 7, "k": 3, "space": "dual-pairs"}),
        ],
    )
    def test_budget_refusal_flags_upper_bound(self, sid, grid):
        # past the counting caps the estimate is 2**m or 4**m, not a count
        with pytest.raises(BudgetError, match="upper bound"):
            exhaustive_sweep(sid, grid)

    def test_old_prefix_pair_mode_is_unknown(self):
        from extremal.verify.harness import gen_pair

        spec = {"mode": "cross-shifted-prefix",
                "base": {"mode": "uniform", "n": 9, "k": 3}}
        with pytest.raises(ValueError, match="unknown pair mode"):
            gen_pair(random.Random(1), spec)

    def test_threads_match_serial(self):
        recipe = RECIPES["SUM_1_15"]
        serial = sample_sweep("SUM_1_15", recipe["instance"], 200, 5, threads=1)
        parallel = sample_sweep("SUM_1_15", recipe["instance"], 200, 5, threads=4)
        assert json.dumps(serial["result"], sort_keys=True) == json.dumps(
            parallel["result"], sort_keys=True
        )

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

    def test_unsupported_atom(self):
        from extremal.shifting import CrossTIntersecting

        with pytest.raises(ValueError):
            search_max(5, 2, And((CrossTIntersecting(0, 1, 1),)))


class TestRegistryHygiene:
    def test_all_statements_have_descriptions(self):
        for sid, stmt in REGISTRY.items():
            assert stmt.description, sid
            assert stmt.kind in ("family", "pair", "slices", "numeric"), sid

    def test_lem_3_7_below_range_is_vacuous(self):
        a = fam(9, 3, (1, 2, 3))
        rep = check_statement("LEM_3_7", Instance((a, a), {}))
        assert rep.verdict == "vacuous"

    def test_shipped_suite_matches_recipes(self):
        from pathlib import Path

        from extremal.verify.recipes import suite_config

        path = Path(__file__).resolve().parents[1] / "configs" / "registry_sweep.json"
        shipped = json.loads(path.read_text(encoding="utf-8"))
        assert shipped == suite_config()

    def test_budget_env_override(self, monkeypatch):
        from extremal.verify import default_budget

        monkeypatch.setenv("EXTREMAL_BUDGET", "12345")
        assert default_budget() == 12345
        monkeypatch.delenv("EXTREMAL_BUDGET")
        assert default_budget() == 10**8

    def test_sampler_type_determinism(self):
        from extremal.verify import Sampler

        spec = RECIPES["KATONA"]["instance"]
        a = [i.descriptor() for i in Sampler(9, spec).instances("KATONA", 20)]
        b = [i.descriptor() for i in Sampler(9, spec).instances("KATONA", 20)]
        assert a == b
        c = [i.descriptor() for i in Sampler(10, spec).instances("KATONA", 20)]
        assert a != c


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
        rerun = rerun_report(rep)
        assert json.dumps(res, sort_keys=True) == json.dumps(rerun["result"], sort_keys=True)
        threaded = rerun_report(rep, threads=4)
        assert json.dumps(res, sort_keys=True) == json.dumps(threaded["result"], sort_keys=True)

    def test_exhaustive_halts_with_witness(self, false_statement):
        rep = exhaustive_sweep(false_statement, {"n": 4, "k": 2, "space": "families",
                                                 "params": {}})
        res = rep["result"]
        assert res["totals"]["fail"] == 1 and res["halted_on_fail"]
        total_seen = sum(res["totals"].values())
        assert total_seen < 1 << 6  # halted before exhausting the space
