"""Instance samplers, exhaustive/sampled sweeps, and reproducible reports.

Reports embed their full run configuration; re-running an embedded config
reproduces the result section byte-for-byte (timings live in a separate
field).  Budgets are counted in predicate evaluations, not wall time.
"""

from __future__ import annotations

import json
import random
import time
from itertools import product
from math import comb
from operator import ge

from ..constructions import brace_daykin, full_star
from ..core import SetFamily, enumerate_ksubsets
from ..core import _unit_predecessors
from ..measures import (
    addable_r_wise,
    addable_t_intersecting,
    grow,
    meets_pseudo_window,
    pseudo_windows,
)
from ..order import kk_min_shadow, shadow
from ..shifting import ALWAYS, shift_ad_extremis
from .registry import (
    REGISTRY,
    Instance,
    check_statement,
    param_repr,
    parse_params,
)

DEFAULT_BUDGET = 10**8


class BudgetError(ValueError):
    """Raised when a sweep would exceed the evaluation budget."""


def _rng_for(seed: int, idx: int) -> random.Random:
    mix = ((seed & 0xFFFFFFFFFFFFFFFF) * 0x9E3779B97F4A7C15 + idx * 0xBF58476D1CE4E5B9) & (
        2**64 - 1
    )
    return random.Random(mix)


# ---------------------------------------------------------------------------
# family generators
# ---------------------------------------------------------------------------


def _need(spec, what: str, *keys) -> None:
    """Raise a ValueError naming the first of `keys` that the spec lacks."""
    if not isinstance(spec, dict):
        raise ValueError(f"{what} spec must be an object, got {spec!r}")
    for key in keys:
        if key not in spec:
            raise ValueError(f"{what} spec lacks {key!r}")


def _keep(rng: random.Random, masks, keep: float) -> list[int]:
    return [m for m in masks if rng.random() < keep]


def _grow_shuffled(fam: SetFamily, addable, rng: random.Random) -> SetFamily:
    cands = list(enumerate_ksubsets(fam.n, fam.k))
    rng.shuffle(cands)
    return grow(fam, addable, cands)


_FAMILY_MODES = (
    "uniform", "star-perturbation", "shifted", "shifted-star",
    "bdslice-sub", "pseudo-filter", "saturated-t", "saturated-rwise",
)


def gen_family(rng: random.Random, spec: dict) -> SetFamily:
    _need(spec, "family", "mode")
    mode = spec["mode"]
    if mode not in _FAMILY_MODES:
        raise ValueError(f"unknown family mode {mode!r}")
    _need(spec, "family", "n", "k")
    if mode in ("bdslice-sub", "saturated-rwise"):
        _need(spec, "family", "r")
    n, k = spec["n"], spec["k"]
    if mode == "uniform":
        members = _keep(rng, enumerate_ksubsets(n, k), spec.get("density", 0.5))
        return SetFamily(n, k, members, _trusted=True)
    if mode == "star-perturbation":
        t = spec.get("t", 1)
        star = full_star(n, k, t)
        members = set(_keep(rng, star.members, spec.get("keep", 0.8)))
        star_set = set(star.members)
        outside = [m for m in enumerate_ksubsets(n, k) if m not in star_set]
        add_prob = spec.get("add_prob", 1.0)
        for _ in range(spec.get("adds", 0)):
            if outside and rng.random() < add_prob:
                members.add(rng.choice(outside))
        return SetFamily(n, k, sorted(members), _trusted=True)
    if mode == "shifted":
        base = gen_family(rng, {"mode": "uniform", "n": n, "k": k, "density": spec.get("density", 0.5)})
        return shift_ad_extremis((base,), ALWAYS)[0][0]
    if mode == "shifted-star":
        base = gen_family(
            rng,
            {"mode": "star-perturbation", "n": n, "k": k, "t": spec.get("t", 1),
             "keep": spec.get("keep", 0.8), "adds": 0},
        )
        return shift_ad_extremis((base,), ALWAYS)[0][0]
    if mode == "bdslice-sub":
        slices = brace_daykin(n, spec["r"])
        chosen = next((s for s in slices if s.k == k), None)
        if chosen is None:
            raise ValueError(f"no Brace-Daykin slice of uniformity {k}")
        return SetFamily(n, k, _keep(rng, chosen.members, spec.get("keep", 0.9)), _trusted=True)
    if mode == "pseudo-filter":
        t = spec.get("t", 1)
        base = gen_family(rng, {"mode": "uniform", "n": n, "k": k, "density": spec.get("density", 0.5)})
        windows = pseudo_windows(n, k, t)
        members = [m for m in base.members if meets_pseudo_window(m, windows)]
        return SetFamily(n, k, members, _trusted=True)
    if mode == "saturated-t":
        t = spec.get("t", 1)
        seed_fam = gen_family(
            rng,
            {"mode": "star-perturbation", "n": n, "k": k, "t": t,
             "keep": spec.get("keep", 0.4), "adds": 0},
        )
        return _grow_shuffled(seed_fam, addable_t_intersecting(t), rng)
    # saturated-rwise
    r = spec["r"]
    seed_fam = gen_family(
        rng, {"mode": "bdslice-sub", "n": n, "k": k, "r": r, "keep": spec.get("keep", 0.5)}
    )
    return _grow_shuffled(seed_fam, addable_r_wise(r), rng)


def _dual_members(a_fam: SetFamily, l: int, t: int) -> list[int]:
    return [
        c
        for c in enumerate_ksubsets(a_fam.n, l)
        if all((c & m).bit_count() >= t for m in a_fam.members)
    ]


def gen_pair(rng: random.Random, spec: dict) -> tuple[SetFamily, SetFamily]:
    _need(spec, "pair", "mode")
    mode = spec["mode"]
    if mode in ("star-pair", "lem37"):
        _need(spec, "pair", "n", "k")
    elif mode in ("cross-dual", "cross-shifted"):
        _need(spec, "pair", "base")
    if mode == "star-pair":
        n, k, t = spec["n"], spec["k"], spec.get("t", 1)
        star = full_star(n, k, t)
        a = SetFamily(n, k, _keep(rng, star.members, spec.get("keep_a", 0.8)), _trusted=True)
        b = SetFamily(n, k, _keep(rng, star.members, spec.get("keep_b", 0.8)), _trusted=True)
        return a, b
    if mode in ("cross-dual", "cross-shifted"):
        a_fam = gen_family(rng, spec["base"])
        t = spec.get("t", 1)
        l = spec.get("l", a_fam.k)
        dual = _dual_members(a_fam, l, t)
        b_fam = SetFamily(
            a_fam.n, l, _keep(rng, dual, spec.get("density_b", 0.5)), _trusted=True
        )
        if mode == "cross-shifted":
            return shift_ad_extremis((a_fam, b_fam), ALWAYS)[0]
        return a_fam, b_fam
    if mode == "lem37":
        # cross pair with members anchored at the two top elements, initial on [n-8]
        n, k = spec["n"], spec["k"]
        low = n - 8
        anchored = []
        for top in (n - 1, n):
            bit = 1 << (top - 1)
            for rest in enumerate_ksubsets(low, k - 1):
                anchored.append(rest | bit)
        star = [m for m in enumerate_ksubsets(n, k) if m & 1]
        members = set(_keep(rng, anchored, spec.get("keep_anchor", 0.8)))
        members |= set(_keep(rng, star, spec.get("keep_star", 0.3)))
        a_fam = SetFamily(n, k, sorted(members), _trusted=True)
        dual = _dual_members(a_fam, k, 1)
        b_fam = SetFamily(n, k, _keep(rng, dual, spec.get("density_b", 0.6)), _trusted=True)
        return shift_ad_extremis((a_fam, b_fam), ALWAYS, upto=low)[0]
    raise ValueError(f"unknown pair mode {mode!r}")


def gen_slices(rng: random.Random, spec: dict) -> tuple[SetFamily, ...]:
    _need(spec, "slices", "mode")
    if spec["mode"] != "bd-sub":
        raise ValueError(f"unknown slices mode {spec['mode']!r}")
    _need(spec, "slices", "n", "r")
    slices = brace_daykin(spec["n"], spec["r"])
    keep = spec.get("keep", 0.9)
    out = []
    for s in slices:
        kept = _keep(rng, s.members, keep)
        if kept:
            out.append(SetFamily(s.n, s.k, kept, _trusted=True))
    if not out:
        out = [slices[0]]
    return tuple(out)


def _two_names(key: str) -> list[str]:
    names = key.split(",")
    if len(names) != 2:
        raise ValueError(f"a pair draw needs two comma-separated names, got {key!r}")
    return names


def _draw_params(rng: random.Random, draws: dict, n: int) -> dict:
    out = {}
    # in sorted key order, the order reports store, so a re-run draws what the run drew
    for key, kind in sorted(draws.items()):
        if kind == "subset":
            out[key] = [e for e in range(1, n + 1) if rng.random() < 0.5]
        elif kind == "pair":
            a, b = rng.sample(range(1, n + 1), 2)
            low, high = _two_names(key)
            out[low], out[high] = min(a, b), max(a, b)
        elif kind.startswith("int:"):
            lo, hi = map(int, kind.split(":", 1)[1].split(","))
            out[key] = rng.randint(lo, hi)
        elif kind.startswith("leq-pair:"):
            lo, hi = map(int, kind.split(":", 1)[1].split(","))
            a, b = rng.randint(lo, hi), rng.randint(lo, hi)
            low, high = _two_names(key)
            out[low], out[high] = min(a, b), max(a, b)
        else:
            raise ValueError(f"unknown draw kind {kind!r}")
    return out


def make_instance(rng: random.Random, sid: str, inst_spec: dict) -> Instance:
    stmt = REGISTRY[sid]
    _need(inst_spec, f"{sid} instance", *(() if stmt.kind == "numeric" else (stmt.kind,)))
    # params first, so that an inexact param is named before a generator reads its namesake
    params = parse_params(inst_spec.get("params", {}))
    if stmt.kind == "family":
        fams: tuple[SetFamily, ...] = (gen_family(rng, inst_spec["family"]),)
    elif stmt.kind == "pair":
        fams = gen_pair(rng, inst_spec["pair"])
    elif stmt.kind == "slices":
        fams = gen_slices(rng, inst_spec["slices"])
    else:
        fams = ()
    n = fams[0].n if fams else inst_spec.get("n", 8)
    params.update(_draw_params(rng, inst_spec.get("draw", {}), n))
    return Instance(fams, params)


# ---------------------------------------------------------------------------
# exhaustive instance spaces
# ---------------------------------------------------------------------------


def _decode(bits: int, masks) -> list[int]:
    """The masks[i] whose bit i is set in `bits`, in ascending i."""
    out = []
    while bits:
        low = bits & -bits
        out.append(masks[low.bit_length() - 1])
        bits ^= low
    return out


def initial_families(n: int, k: int):
    """All initial families as ascending member-mask tuples (downset enumeration)."""
    masks = enumerate_ksubsets(n, k)
    index = {m: i for i, m in enumerate(masks)}
    preds = [tuple(index[p] for p in _unit_predecessors(m)) for m in masks]
    m_count = len(masks)
    out = []
    stack = [(0, 0)]
    while stack:
        i, chosen = stack.pop()
        if i == m_count:
            out.append(tuple(_decode(chosen, masks)))
            continue
        stack.append((i + 1, chosen))
        if all(chosen >> p & 1 for p in preds[i]):
            stack.append((i + 1, chosen | (1 << i)))
    out.sort()
    return out


def _dual(abits: int, compat: list[int]) -> int:
    """The B-members t-compatible with every A-member in `abits`, as a bit set over rows."""
    return sum(1 << j for j, row in enumerate(compat) if not abits & ~row)


def _space(space: str, grid: dict, params: dict):
    """Instance count, whether it is exact, and the instance stream of one space.

    Each space is built once, when its count is exact.  Past the size caps the
    count is an upper bound and nothing is built unless the stream is consumed.
    """
    for key in ("n", "k"):
        if key not in grid:
            raise ValueError(f"the {space} space needs grid dimension {key!r}")
        if not isinstance(grid[key], int):
            raise ValueError(f"grid dimension {key!r} must be an int, got {grid[key]!r}")
    n, k = grid["n"], grid["k"]
    l = grid.get("l", k)
    m = comb(n, k)

    def fam(uniformity, members):
        return SetFamily(n, uniformity, members, _trusted=True)

    if space == "families":

        def stream():
            masks = enumerate_ksubsets(n, k)
            for bits in range(1 << m):
                yield Instance((fam(k, _decode(bits, masks)),), dict(params))

        return 2**m, True, stream()
    # downset enumeration is output-sensitive, so exact counts stay cheap
    if space == "initial":
        listed = initial_families(n, k) if m <= 70 else None

        def stream():
            for members in listed if listed is not None else initial_families(n, k):
                yield Instance((fam(k, members),), dict(params))

        if listed is None:
            return 2**m, False, stream()
        return len(listed), True, stream()
    if space == "initial-pairs":

        def both():
            left = initial_families(n, k)
            return left, (initial_families(n, l) if l != k else left)

        listed = both() if max(m, comb(n, l)) <= 70 else None

        def stream():
            left, right = listed or both()
            for a in left:
                fa = fam(k, a)
                for b in right:
                    yield Instance((fa, fam(l, b)), dict(params))

        if listed is None:
            return 2**m * 2 ** comb(n, l), False, stream()
        return len(listed[0]) * len(listed[1]), True, stream()
    if space == "dual-pairs":
        t = params.get("t", 1)

        def rows():
            a_masks, b_masks = enumerate_ksubsets(n, k), enumerate_ksubsets(n, l)
            # row j: the A-members that B-member j meets in at least t points
            compat = [
                sum(1 << i for i, am in enumerate(a_masks) if (am & bm).bit_count() >= t)
                for bm in b_masks
            ]
            return a_masks, b_masks, compat

        built = rows() if m <= 22 else None

        def stream():
            a_masks, b_masks, compat = built or rows()
            for abits in range(1 << m):
                fa = fam(k, _decode(abits, a_masks))
                # B may contain exactly the sets t-compatible with every chosen A-member
                dual = _dual(abits, compat)
                sub = dual
                while True:
                    yield Instance((fa, fam(l, _decode(sub, b_masks))), dict(params))
                    if sub == 0:
                        break
                    sub = (sub - 1) & dual

        if built is None:
            return 4**m, False, stream()
        compat = built[2]
        return sum(1 << _dual(abits, compat).bit_count() for abits in range(1 << m)), True, stream()
    raise ValueError(f"unknown space {space!r}")


def _grid_instances(grid: dict, params: dict):
    keys = sorted(grid)
    ranges = [range(grid[key][0], grid[key][1] + 1) for key in keys]
    for combo in product(*ranges):
        p = dict(params)
        p.update(dict(zip(keys, combo)))
        yield Instance((), p)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _merge_extras(acc: dict, extras: dict) -> None:
    for key, val in extras.items():
        acc[key] = acc.get(key, 0) + val


def _finalize(sid, config, totals, witnesses, extras, budget_used, elapsed, halted):
    result = {
        "id": sid,
        "totals": totals,
        "witnesses": witnesses,
        "extras": dict(sorted(extras.items())),
        "budget_used": budget_used,
        "halted_on_fail": halted,
    }
    if "seed" in config:
        result["seed"] = config["seed"]
    if "grid" in config:
        result["grid"] = config["grid"]
    return {"config": config, "result": result, "timing": {"elapsed_s": round(elapsed, 6)}}


def _consume(sid, instances, config, budget):
    """Run checkers over an instance stream; halt deterministically on first FAIL."""
    t0 = time.perf_counter()
    totals = {"pass": 0, "vacuous": 0, "fail": 0}
    witnesses = []
    extras: dict = {}
    budget_used = 0
    halted = False
    for inst in instances:
        budget_used += 2
        if budget_used > budget:
            raise BudgetError(f"budget {budget} exhausted mid-sweep")
        rep = check_statement(sid, inst)
        _merge_extras(extras, rep.extras)
        if rep.verdict == "pass":
            totals["pass"] += 1
        elif rep.verdict == "vacuous":
            totals["vacuous"] += 1
        else:
            totals["fail"] += 1
            if rep.witness:
                witnesses.append(rep.witness)
            halted = True
            break
    return _finalize(
        sid, config, totals, witnesses, extras, budget_used, time.perf_counter() - t0, halted
    )


def _check_serial(threads: int) -> None:
    # `threads` is accepted only so that callers passing threads=1 keep working
    if threads != 1:
        raise ValueError(f"sweeps run serially; threads must be 1, got {threads}")


def sample_sweep(sid, inst_spec, count, seed, budget=None):
    """Deterministic seeded sampling sweep; identical seed gives identical result."""
    if sid not in REGISTRY:
        raise ValueError(f"unknown statement id {sid!r}")
    if type(count) is not int or count < 1:
        raise ValueError(f"count must be a positive int, got {count!r}")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    budget = budget if budget is not None else DEFAULT_BUDGET
    if 2 * count > budget:
        raise BudgetError(f"{count} instances (~{2*count} evaluations) exceed budget {budget}")
    config = {
        "id": sid,
        "mode": "sample",
        "count": count,
        "seed": seed,
        "instance": inst_spec,
        "budget": budget,
    }
    # one generator per (seed, index), so each instance depends on nothing drawn before it
    instances = (make_instance(_rng_for(seed, idx), sid, inst_spec) for idx in range(count))
    return _consume(sid, instances, config, budget)


def exhaustive_sweep(sid, grid, threads=1, budget=None):
    """Enumerate a whole instance space; any FAIL halts with a witness."""
    _check_serial(threads)
    if sid not in REGISTRY:
        raise ValueError(f"unknown statement id {sid!r}")
    stmt = REGISTRY[sid]
    budget = budget if budget is not None else DEFAULT_BUDGET
    grid = dict(grid)
    space = grid.pop("space", None) or stmt.default_space
    params = parse_params(grid.pop("params", {}))
    config = {
        "id": sid,
        "mode": "exhaustive",
        "grid": {**grid, "space": space, "params": {k: param_repr(v) for k, v in params.items()}},
        "budget": budget,
    }
    if space == "grid":
        ranges = {k: v for k, v in grid.items() if isinstance(v, (list, tuple))}
        fixed = {k: v for k, v in grid.items() if not isinstance(v, (list, tuple))}
        est = 2
        for lo, hi in ranges.values():
            est *= hi - lo + 1
        if est > budget:
            raise BudgetError(f"estimated {est} evaluations exceed budget {budget}")
        params.update(parse_params(fixed))
        instances = _grid_instances(ranges, params)
    else:
        count, exact, instances = _space(space, grid, params)
        est = 2 * count
        if est > budget:
            bound = "" if exact else " (an upper bound: the space is too large to count)"
            raise BudgetError(f"estimated {est} evaluations{bound} exceed budget {budget}")
        if sid == "KRUSKAL_KATONA" and space == "families":
            return _kk_exhaustive(grid["n"], grid["k"], params, config)
    return _consume(sid, instances, config, budget)


def _or_table(shmasks) -> list[int]:
    """Entry b: the OR of shmasks[i] over the bits i set in b (built by doubling)."""
    out = [0]
    for sh in shmasks:
        out += [x | sh for x in out]
    return out


def _kk_exhaustive(n, k, params, config):
    """All 2^C(n,k) families against the lex shadow minimum, meet in the middle.

    Family `bits` holds member i iff bit i is set.  Its shadow is the OR of
    two table entries, one over the low floor(m/2) member bits and one over
    the high ones, so memory is about 2 * 2^(m/2) entries, not 2^m.  The
    families are visited in ascending `bits`, as the generic sweep visits
    them, so totals, witness and budget use match it.  The statement's
    hypothesis reads only k and l, so it is evaluated once, on the empty
    family: where it fails, every family is vacuous.
    """
    t0 = time.perf_counter()
    m_count = comb(n, k)
    totals = {"pass": 0, "vacuous": 0, "fail": 0}
    witnesses = []
    if not REGISTRY["KRUSKAL_KATONA"].hypothesis(Instance((SetFamily(n, k, []),), params)):
        totals["vacuous"] = 1 << m_count
    else:
        l = params.get("l", 1)
        masks = enumerate_ksubsets(n, k)
        sub_index = {d: i for i, d in enumerate(enumerate_ksubsets(n, k - l))}
        shmasks = [
            sum(1 << sub_index[d] for d in shadow(SetFamily(n, k, [m], _trusted=True), l).members)
            for m in masks
        ]
        kkmin = [kk_min_shadow(n, k, size, l) for size in range(m_count + 1)]
        low_bits = m_count // 2
        low = _or_table(shmasks[:low_bits])
        low_sizes = [b.bit_count() for b in range(len(low))]
        for h, high_sh in enumerate(_or_table(shmasks[low_bits:])):
            need = kkmin[h.bit_count():]
            shadow_sizes = map(int.bit_count, map(high_sh.__or__, low))
            if all(map(ge, shadow_sizes, map(need.__getitem__, low_sizes))):
                totals["pass"] += len(low)
                continue
            b = next(
                b for b, low_sh in enumerate(low)
                if (high_sh | low_sh).bit_count() < need[low_sizes[b]]
            )
            totals["pass"] += b
            totals["fail"] = 1
            bits = h << low_bits | b
            inst = Instance((SetFamily(n, k, _decode(bits, masks), _trusted=True),), {"l": l})
            witnesses.append(inst.to_witness("KRUSKAL_KATONA"))
            break
    return _finalize(
        "KRUSKAL_KATONA",
        config,
        totals,
        witnesses,
        {},
        2 * sum(totals.values()),
        time.perf_counter() - t0,
        bool(witnesses),
    )


# ---------------------------------------------------------------------------
# suite driver and reproducibility
# ---------------------------------------------------------------------------


# the keys each sweep mode reads from a recipe
_RECIPE_KEYS = {"sample": ("id", "instance", "count", "seed"), "exhaustive": ("id", "grid")}


def run_recipe(recipe: dict, threads: int = 1, budget: int | None = None) -> dict:
    """Run one suite entry or embedded report config; `budget` overrides the recipe's."""
    _check_serial(threads)
    if "mode" not in recipe:
        raise ValueError("recipe has no mode")
    mode = recipe["mode"]
    if mode not in _RECIPE_KEYS:
        raise ValueError(f"unknown sweep mode {mode!r}")
    missing = [key for key in _RECIPE_KEYS[mode] if key not in recipe]
    if missing:
        raise ValueError(f"{mode} recipe lacks {', '.join(missing)}")
    sid = recipe["id"]
    budget = budget if budget is not None else recipe.get("budget")
    if mode == "sample":
        return sample_sweep(sid, recipe["instance"], recipe["count"], recipe["seed"], budget=budget)
    grid = dict(recipe["grid"])
    if "params" in recipe:
        grid["params"] = recipe["params"]
    return exhaustive_sweep(sid, grid, budget=budget)


def load_suite(path) -> dict:
    with open(path, "r", encoding="utf-8") as fp:
        config = json.load(fp)
    entries = config.get("entries") if isinstance(config, dict) else None
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"{path} holds no suite: an object with a list of entry objects")
    return config


def run_suite(config: dict, only: set | None = None) -> list[dict]:
    """Run the suite's entries in file order, or only those whose id is in `only`."""
    if only:
        missing = sorted(only - {recipe.get("id") for recipe in config["entries"]})
        if missing:
            raise ValueError(f"no suite entry for id {', '.join(missing)}")
    reports = []
    for recipe in config["entries"]:
        if only and recipe.get("id") not in only:
            continue
        reports.append(run_recipe(recipe, budget=config.get("budget")))
    return reports
