"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from extremal.core import SetFamily, avoid, enumerate_ksubsets, link, mask_of
from extremal.constructions import (
    brace_daykin,
    example_1_8,
    example_3_10,
    fano,
    g_value,
    triangle_family,
)
from extremal.measures import (
    is_cross_t_intersecting,
    is_t_intersecting,
    matching_number,
    rho,
)
from extremal.order import hilton_transfer, kk_min_shadow, shadow
from extremal.shifting import (
    ALWAYS,
    And,
    MatchingAtMost,
    RhoAtMost,
    TIntersecting,
    shift,
    shift_ad_extremis,
    weight,
)
from extremal.verify import (
    check_identity_2_3,
    check_identity_3_2,
    exhaustive_sweep,
    initial_families,
    run_recipe,
    run_suite,
    sample_sweep,
    search_max,
)
from extremal.verify.recipes import MUST_BE_NONVACUOUS, VACUOUS_ONLY, suite_config

# sha256 over json.dumps(result, sort_keys=True) of every shipped suite entry, in
# suite order; a change to any verdict, total, witness or extra changes it
SUITE_RESULT_SHA256 = "4cdd7a5e53995772d0f0db4260c34cc7cbd4272078180c40632e579da7e4e421"

# the first 16 hex digits of sha256 over json.dumps(result, sort_keys=True) of each
# entry, keyed "<index> <id> <mode>", so that a changed hash names the entries it moved
SUITE_ENTRY_SHA256 = {
    "00 BD_5_1 sample": "0cced0270a5c2dd2",
    "01 BINOM_1_11 sample": "ee0e16ce3cc83121",
    "02 BINOM_1_13 sample": "14c1d697fe19c930",
    "03 COR_1_6_1_7 sample": "972c7452ad9f7af3",
    "04 COR_4_4 sample": "bbfff3df2280b5dd",
    "05 CROSS_SHADOW sample": "a470c530bdb3c3f7",
    "06 DICHOTOMY sample": "e9db98728f959c74",
    "07 EKR_1_1 sample": "a95e09ea6af89fd8",
    "08 EQ_2_1 sample": "a575bde6772ea80e",
    "09 FACT_3_1 sample": "fb8193cecfaecd83",
    "10 FACT_3_13 sample": "18de48210c2ac7fa",
    "11 FK_IMPROVED sample": "7d795edf52645c39",
    "12 G_THEOREM sample": "3ad68000ad8755ae",
    "13 HILTON sample": "9bdacd7a3648b058",
    "14 IDENTITY_2_3 sample": "b4e4a379d9f1d7a1",
    "15 IDENTITY_3_2 sample": "ae1742dcd500b476",
    "16 KATONA sample": "9951daf62f06a9f3",
    "17 KATONA_PSEUDO sample": "9adedc4375d66665",
    "18 KRUSKAL_KATONA sample": "88fb660fcce31ca1",
    "19 LEM_3_3 sample": "5dde0780e898a6c4",
    "20 LEM_3_5 sample": "89caa5d08089bcba",
    "21 LEM_3_7 sample": "d5c7ea0f33094d8f",
    "22 LEM_3_8 sample": "5c422d461599fb0c",
    "23 LEM_4_6 sample": "6a7fde939fa25f53",
    "24 LEM_5_2 sample": "41e2e78d3c7c144f",
    "25 LEM_FW_1 sample": "41246264ad62c0a0",
    "26 LEM_FW_2 sample": "673ca2182abbef92",
    "27 MATCHING_COR sample": "99cc1be285e044d0",
    "28 PROP_1_2 sample": "98d45e5135924be9",
    "29 PROP_1_3 sample": "69473dcc4b6d229f",
    "30 PROP_3_13 sample": "1450b3876e1fb57d",
    "31 PROP_3_14 sample": "1af6a1f7d8803745",
    "32 PROP_3_15 sample": "2c4f4a72213c9f9c",
    "33 PROP_3_2 sample": "7f07c884f51d5ea3",
    "34 PROP_3_4 sample": "3a5ea92ada8bfaab",
    "35 PROP_4_1 sample": "4878714073d7d47f",
    "36 PROP_4_3 sample": "ec5deda6c3e66c4b",
    "37 PROP_5_3 sample": "4ab98899dc438be5",
    "38 RWISE_5_2 sample": "62d7853813bb77b3",
    "39 SUM_1_15 sample": "32463cad4dca8816",
    "40 THM_1_10 sample": "e1a0585648446a90",
    "41 THM_1_11 sample": "834601ae70fa9a6b",
    "42 THM_1_5 sample": "858fa42317760756",
    "43 THM_1_6 sample": "7f841ee623998699",
    "44 THM_1_9 sample": "fd646723aaed1f5c",
    "45 TOKUSHIGE sample": "d9e47e7677dfb8e2",
    "46 WALK_1_5 sample": "92472620290c023c",
    "47 PROP_1_3 exhaustive": "129663d2cf63eb74",
    "48 EKR_1_1 exhaustive": "449fe0b47f6b266a",
    "49 DICHOTOMY exhaustive": "701a380627a50e49",
    "50 KATONA exhaustive": "a00fdb211e1a59ed",
    "51 HILTON exhaustive": "a1679cac31a3f3f4",
    "52 KRUSKAL_KATONA exhaustive": "c49faa12a260f372",
    "53 EQ_2_1 exhaustive": "4fd543612c31bea6",
    "54 MATCHING_COR exhaustive": "e9919a8345237bf7",
    "55 PROP_3_15 exhaustive": "76de09b47b8f4d4d",
    "56 G_THEOREM exhaustive": "8f7777896792a431",
    "57 FACT_3_1 exhaustive": "6459945187321e6c",
    "58 IDENTITY_3_2 exhaustive": "67b8046a34fbfd2f",
    "59 BINOM_1_11 exhaustive": "dbab749d0fa5ed06",
    "60 BINOM_1_13 exhaustive": "21e5a15bed2bfea2",
    "61 FACT_3_13 exhaustive": "b8f195a13ed4051c",
}


def report_line(idx, name, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {idx:2d} [{status}] {name} ({elapsed:.1f}s)")
    assert ok, f"criterion {idx} failed: {name}"


def rand_members(rng, n, k, density):
    return [m for m in enumerate_ksubsets(n, k) if rng.random() < density]


def test_criterion_1_identity_suites():
    t0 = time.time()
    rng = random.Random(20250801)
    masks = enumerate_ksubsets(8, 3)
    failures = 0
    for _ in range(10_000):
        fam = SetFamily(8, 3, [m for m in masks if rng.random() < rng.choice((0.3, 0.5, 0.7))],
                        _trusted=True)
        e = [x for x in range(1, 9) if rng.random() < 0.5]
        if not check_identity_2_3(fam, e):
            failures += 1
        x, y = rng.sample(range(1, 9), 2)
        if not check_identity_3_2(fam, x, y):
            failures += 1
    small = enumerate_ksubsets(5, 2)
    for bits in range(1 << 10):
        fam = SetFamily(5, 2, [small[i] for i in range(10) if bits >> i & 1], _trusted=True)
        sub = (1 << 5) - 1
        while True:
            if not check_identity_2_3(fam, sub):
                failures += 1
            if sub == 0:
                break
            sub = (sub - 1) & ((1 << 5) - 1)
        for x in range(1, 6):
            for y in range(x + 1, 6):
                if not check_identity_3_2(fam, x, y):
                    failures += 1
    elapsed = time.time() - t0
    report_line(1, "identity suites (10^4 sampled + exhaustive 5,2)", failures == 0 and elapsed < 60, elapsed)


def test_criterion_2_hilton_exhaustive():
    t0 = time.time()
    masks = enumerate_ksubsets(5, 2)
    meet_rows = []
    for a in masks:
        row = 0
        for j, b in enumerate(masks):
            if a & b:
                row |= 1 << j
        meet_rows.append(row)
    checked = 0
    violations = 0
    for abits in range(1 << 10):
        dual = (1 << 10) - 1
        aa = abits
        while aa:
            low = aa & -aa
            dual &= meet_rows[low.bit_length() - 1]
            aa ^= low
        a_fam = SetFamily(5, 2, [masks[i] for i in range(10) if abits >> i & 1], _trusted=True)
        sub = dual
        while True:
            b_fam = SetFamily(5, 2, [masks[i] for i in range(10) if sub >> i & 1], _trusted=True)
            if not hilton_transfer(a_fam, b_fam):
                violations += 1
            checked += 1
            if sub == 0:
                break
            sub = (sub - 1) & dual
    elapsed = time.time() - t0
    ok = violations == 0 and checked == 6212 and elapsed < 120
    report_line(2, f"Hilton lex transfer on all {checked} cross-intersecting pairs", ok, elapsed)


def test_criterion_3_kruskal_katona_exhaustive():
    t0 = time.time()
    rep = exhaustive_sweep("KRUSKAL_KATONA", {"n": 6, "k": 3, "space": "families",
                                              "params": {"l": 1}})
    totals = rep["result"]["totals"]
    elapsed = time.time() - t0
    ok = totals["fail"] == 0 and totals["pass"] == 1 << 20 and elapsed < 300
    report_line(3, "Kruskal-Katona floor on all 2^20 families at (6,3)", ok, elapsed)


def test_criterion_4_katona_equality_census():
    t0 = time.time()
    rep = exhaustive_sweep("KATONA", {"n": 5, "k": 2, "space": "families",
                                      "params": {"t": 1, "l": 1}})
    res = rep["result"]
    ok = (
        res["totals"]["fail"] == 0
        and res["extras"].get("equality") == 10
        and res["extras"].get("equality_isomorph") == 10
    )
    elapsed = time.time() - t0
    report_line(4, "Katona shadow bound at (5,2): equality census = 10 triangles", ok, elapsed)


def test_criterion_5_construction_formulas():
    t0 = time.time()
    checks = [
        len(triangle_family(6, 3)) == 10,
        len(triangle_family(10, 4)) == 70,
        len(example_1_8(10, 4)[0]) == 55,
        len(example_1_8(10, 4)[1]) == 85,
        g_value(6, 2) == 6,
        sum(len(f) for f in example_3_10(6, 2)) == 6,
        sum(len(s) for s in brace_daykin(4, 3)) == 5,
        sum(len(s) for s in brace_daykin(6, 3)) == 20,
        rho(fano()) == Fraction(3, 7),
    ]
    elapsed = time.time() - t0
    report_line(5, "construction size formulas and Fano degree ratio", all(checks) and elapsed < 5, elapsed)


def test_criterion_6_shifting_contracts():
    t0 = time.time()
    rng = random.Random(777)
    failures = 0
    for trial in range(10_000):
        n = rng.randint(4, 10)
        k = rng.randint(2, min(4, n - 1))
        fam = SetFamily(n, k, rand_members(rng, n, k, rng.choice((0.1, 0.2, 0.35))),
                        _trusted=True)
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        shifted = shift(fam, i, j)
        if len(shifted) != len(fam):
            failures += 1
        if shifted == fam:
            if weight(shifted) != weight(fam):
                failures += 1
        elif not weight(shifted) < weight(fam):
            failures += 1
        for t in (1, 2):
            if is_t_intersecting(fam, t) and not is_t_intersecting(shifted, t):
                failures += 1
        if matching_number(shifted) > matching_number(fam):
            failures += 1
        if trial % 4 == 0 and fam.members:
            dual = [c for c in enumerate_ksubsets(n, k)
                    if all(c & m for m in fam.members)]
            other = SetFamily(n, k, [c for c in dual if rng.random() < 0.5], _trusted=True)
            if not is_cross_t_intersecting(shift(fam, i, j), shift(other, i, j), 1):
                failures += 1
        # guarded fixpoint, re-tested against the definition on every pair
        if rho(fam) <= Fraction(1, 2):
            prop = And((RhoAtMost(0, Fraction(1, 2)),))
        elif matching_number(fam) <= 2:
            prop = And((MatchingAtMost(0, 2),))
        else:
            prop = ALWAYS
        out, trace = shift_ad_extremis((fam,), prop)
        if len(out[0]) != len(fam) or not prop.holds(out):
            failures += 1
        for a in range(1, n):
            for b in range(a + 1, n + 1):
                moved = shift(out[0], a, b)
                if moved != out[0] and prop.holds((moved,)):
                    failures += 1
    elapsed = time.time() - t0
    report_line(6, "shifting contracts + ad-extremis fixpoint on 10^4 families",
                failures == 0 and elapsed < 300, elapsed)


def test_criterion_7_initial_families_at_6_3():
    t0 = time.time()
    failures = 0
    count = 0
    for members in initial_families(6, 3):
        fam = SetFamily(6, 3, members, _trusted=True)
        count += 1
        sh = shadow(avoid(fam, 1), 1)
        if not set(sh.members) <= set(link(fam, 1).members):
            failures += 1
        if fam.members and rho(fam) < Fraction(1, matching_number(fam) + 1):
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and count == 66
    report_line(7, f"shadow containment + matching bound on all {count} initial families (6,3)", ok, elapsed)


def test_criterion_8_prop_3_15_exhaustive():
    t0 = time.time()
    rep = exhaustive_sweep("PROP_3_15", {"n": 5, "k": 2, "l": 2, "space": "initial-pairs"})
    totals = rep["result"]["totals"]
    ok = totals["fail"] == 0 and totals["pass"] == 35
    elapsed = time.time() - t0
    report_line(8, "degree-ratio sum >= 1 on all nonempty initial cross pairs (5,2)", ok, elapsed)


def test_criterion_9_registry_soundness():
    t0 = time.time()
    reports = run_suite(suite_config())
    fails = [r["result"]["id"] for r in reports if r["result"]["totals"]["fail"]]
    nonvac = {}
    for r in reports:
        sid = r["result"]["id"]
        nonvac[sid] = nonvac.get(sid, 0) + r["result"]["totals"]["pass"]
    missing = [sid for sid in MUST_BE_NONVACUOUS if nonvac.get(sid, 0) == 0]
    from extremal.verify import REGISTRY

    swept = {r["result"]["id"] for r in reports}
    uncovered = set(REGISTRY) - swept
    for sid in VACUOUS_ONLY:
        total = sum(
            sum(r["result"]["totals"].values()) for r in reports if r["result"]["id"] == sid
        )
        print(f"    vacuous-only {sid}: all {total} instances vacuous "
              "(hypothesis unreachable at desk scale)")
    digest = hashlib.sha256()
    entry_digests = {}
    for idx, r in enumerate(reports):
        blob = json.dumps(r["result"], sort_keys=True).encode()
        digest.update(blob)
        key = f"{idx:02d} {r['result']['id']} {r['config']['mode']}"
        entry_digests[key] = hashlib.sha256(blob).hexdigest()[:16]
    reproduced = digest.hexdigest() == SUITE_RESULT_SHA256
    changed = sorted(
        key for key in entry_digests.keys() | SUITE_ENTRY_SHA256.keys()
        if entry_digests.get(key) != SUITE_ENTRY_SHA256.get(key)
    )
    elapsed = time.time() - t0
    ok = not fails and not missing and not uncovered and reproduced and not changed
    report_line(9, f"registry suite: {len(reports)} sweeps, fails={fails}, "
                   f"missing-nonvacuous={missing}, results reproduced={reproduced}, "
                   f"changed entries={changed}", ok, elapsed)


def test_criterion_10_extremal_search():
    t0 = time.time()
    res_small = search_max(5, 2, And((TIntersecting(0, 1), RhoAtMost(0, Fraction(2, 3)))))
    union = 0
    for m in res_small.witness.members:
        union |= m
    small_ok = (
        res_small.max_size == 3
        and res_small.complete
        and len(res_small.witness) == 3
        and union.bit_count() == 3
        and is_t_intersecting(res_small.witness, 1)
    )
    prop = And((TIntersecting(0, 1), RhoAtMost(0, Fraction(1, 2))))
    res_big = search_max(7, 3, prop)
    big_ok = (
        res_big.max_size >= 7
        and prop.holds((res_big.witness,))
        and isinstance(res_big.complete, bool)
        and prop.holds((fano(),))  # catalog witness justifies the lower bound
    )
    elapsed = time.time() - t0
    report_line(10, f"searches: (5,2)->3 triangle; (7,3)->{res_big.max_size} "
                    f"complete={res_big.complete}", small_ok and big_ok, elapsed)


def test_criterion_11_reproducibility():
    t0 = time.time()
    entries = {e["id"]: e for e in suite_config()["entries"] if e["mode"] == "sample"}
    ok = True
    for sid in ("EKR_1_1", "DICHOTOMY", "BD_5_1", "FACT_3_13"):
        recipe = entries[sid]
        rep = sample_sweep(sid, recipe["instance"], min(recipe["count"], 150), recipe["seed"])
        again = run_recipe(rep["config"])
        blob = json.dumps(rep["result"], sort_keys=True)
        ok = ok and blob == json.dumps(again["result"], sort_keys=True)
    rep = exhaustive_sweep("KATONA", {"n": 5, "k": 2, "space": "families",
                                      "params": {"t": 1, "l": 1}})
    again = run_recipe(rep["config"])
    ok = ok and json.dumps(rep["result"], sort_keys=True) == json.dumps(
        again["result"], sort_keys=True
    )
    elapsed = time.time() - t0
    report_line(11, "embedded configs reproduce totals and witnesses byte-for-byte", ok, elapsed)
