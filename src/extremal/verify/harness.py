"""Instance samplers, exhaustive/sampled sweeps, and reproducible reports.

Reports embed their full run configuration; re-running an embedded config
reproduces the result section byte-for-byte (timings live in a separate
field).  Budgets are counted in predicate evaluations, not wall time.
"""

from __future__ import annotations

import json
import random
import time
from functools import cache
from itertools import product
from math import comb, prod
from operator import ge

from ..constructions import brace_daykin, full_star
from ..core import SetFamily, _predecessors, enumerate_ksubsets
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


# the generator fields read as integers, and those read as numbers (probabilities)
_INT_FIELDS = ("n", "k", "l", "t", "r", "adds")
_NUMBER_FIELDS = (
    "density", "keep", "keep_a", "keep_b", "keep_anchor", "keep_star", "density_b", "add_prob",
)


def _need(spec, what: str, *keys) -> None:
    """Raise a ValueError naming the first of `keys` the spec lacks, or a mistyped field."""
    if not isinstance(spec, dict):
        raise ValueError(f"{what} spec must be an object, got {spec!r}")
    for key in keys:
        if key not in spec:
            raise ValueError(f"{what} spec lacks {key!r}")
    # type(...) checks, so that 3.0 (which hashes as 3) and JSON true are refused
    for key in _INT_FIELDS:
        if key in spec and type(spec[key]) is not int:
            raise ValueError(f"{what} spec field {key!r} must be an int, got {spec[key]!r}")
    for key in _NUMBER_FIELDS:
        if key in spec and type(spec[key]) not in (int, float):
            raise ValueError(f"{what} spec field {key!r} must be a number, got {spec[key]!r}")


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
        members = set(_keep(rng, full_star(n, k, t).members, spec.get("keep", 0.8)))
        adds = spec.get("adds", 0)
        if adds > 0:
            outside = _outside_star(n, k, t)
            add_prob = spec.get("add_prob", 1.0)
            for _ in range(adds):
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
        chosen = next((s for s in brace_daykin(n, spec["r"]) if s.k == k), None)
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


def gen_pair(rng: random.Random, spec: dict) -> tuple[SetFamily, SetFamily]:
    _need(spec, "pair", "mode")
    mode = spec["mode"]
    if mode in ("star-pair", "lem37"):
        _need(spec, "pair", "n", "k")
    elif mode in ("cross-dual", "cross-shifted"):
        _need(spec, "pair", "base")
    if mode == "star-pair":
        n, k, t = spec["n"], spec["k"], spec.get("t", 1)
        star = full_star(n, k, t).members
        a = SetFamily(n, k, _keep(rng, star, spec.get("keep_a", 0.8)), _trusted=True)
        b = SetFamily(n, k, _keep(rng, star, spec.get("keep_b", 0.8)), _trusted=True)
        return a, b
    if mode in ("cross-dual", "cross-shifted"):
        a_fam = gen_family(rng, spec["base"])
        t = spec.get("t", 1)
        l = spec.get("l", a_fam.k)
        density_b, upto = spec.get("density_b", 0.5), None
    elif mode == "lem37":
        # cross pair with members anchored at the two top elements, initial on [n-8]
        n, k = spec["n"], spec["k"]
        low = n - 8
        anchored = []
        for top in (n - 1, n):
            bit = 1 << (top - 1)
            for rest in enumerate_ksubsets(low, k - 1):
                anchored.append(rest | bit)
        star = full_star(n, k, 1).members
        members = set(_keep(rng, anchored, spec.get("keep_anchor", 0.8)))
        members |= set(_keep(rng, star, spec.get("keep_star", 0.3)))
        a_fam = SetFamily(n, k, sorted(members), _trusted=True)
        l, t, density_b, upto = k, 1, spec.get("density_b", 0.6), low
    else:
        raise ValueError(f"unknown pair mode {mode!r}")
    # B is drawn from the l-sets that meet every member of A in at least t points
    index, compat = _cross_rows(a_fam.n, a_fam.k, l, t)
    abits = sum(1 << index[m] for m in a_fam.members)
    dual = _decode(_dual(abits, compat), enumerate_ksubsets(a_fam.n, l))
    b_fam = SetFamily(a_fam.n, l, _keep(rng, dual, density_b), _trusted=True)
    if mode == "cross-dual":
        return a_fam, b_fam
    return shift_ad_extremis((a_fam, b_fam), ALWAYS, upto=upto)[0]


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


# per statement kind: the generator of the instance spec's field of that name (numeric: none),
# the exhaustive spaces the kind may sweep, its default first, and the grid keys those
# spaces read (l is the partner uniformity of a pair, a parameter for the other kinds)
_KINDS = {
    "family": (lambda rng, spec: (gen_family(rng, spec),), ("families", "initial"), ("n", "k")),
    "pair": (gen_pair, ("dual-pairs", "initial-pairs"), ("n", "k", "l")),
    "numeric": (None, ("grid",), ("n", "k")),
    "slices": (gen_slices, (), ("n", "k")),
}


def make_instance(rng: random.Random, sid: str, inst_spec: dict) -> Instance:
    stmt = REGISTRY[sid]
    generate = _KINDS[stmt.kind][0]
    _need(inst_spec, f"{sid} instance", *((stmt.kind,) if generate else ()))
    # params first, so that an inexact param is named before a generator reads its namesake
    params = parse_params(inst_spec.get("params", {}))
    fams = generate(rng, inst_spec[stmt.kind]) if generate else ()
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


@cache
def _shift_order(n: int, k: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Per k-set of [n], in `enumerate_ksubsets` order: the bits of its unit
    predecessors (one element y moved to y-1), and the indices of its unit successors.

    Built once per (n, k) and shared, so read-only.
    """
    masks = enumerate_ksubsets(n, k)
    index = {m: i for i, m in enumerate(masks)}
    need = tuple(sum(1 << index[p] for p in _predecessors((m,), n)) for m in masks)
    succ = [[] for _ in masks]
    for j, bits in enumerate(need):
        while bits:
            low = bits & -bits
            succ[low.bit_length() - 1].append(j)
            bits ^= low
    return need, tuple(map(tuple, succ))


def _downsets(n: int, k: int, allowed: int = -1):
    """The initial families on [n] made of k-sets in `allowed`, as (members, bits).

    `allowed` and `bits` are bit sets over `enumerate_ksubsets(n, k)` (-1: all).
    Pre-order: a family, then its extensions by each later allowed k-set whose
    unit predecessors it holds, so each family is met once, in ascending order.
    A node carries those k-sets as a bit set: its parent's, above its own last
    member, plus the unit successors of that member that it completes.
    """
    masks = enumerate_ksubsets(n, k)
    need, succ = _shift_order(n, k)
    # an explicit stack, since a family can hold all C(n, k) k-sets
    stack = [((), 0, sum(1 << i for i, bits in enumerate(need) if not bits) & allowed)]
    while stack:
        members, chosen, addable = stack.pop()
        yield members, chosen
        rest = addable
        while rest:
            i = rest.bit_length() - 1
            rest ^= 1 << i
            grown = chosen | 1 << i
            later = addable >> (i + 1) << (i + 1)
            for j in succ[i]:
                if grown & need[j] == need[j]:
                    later |= 1 << j
            stack.append((members + (masks[i],), grown, later & allowed))


# kept as the tests' lister, and while bench/tracing.py traces it by name
def initial_families(n: int, k: int):
    """All initial families as ascending member-mask tuples, in ascending order."""
    return [members for members, _ in _downsets(n, k)]


def _count_within(walk, budget: int) -> int:
    """How many items `walk` yields; refused as soon as two evaluations each pass `budget`."""
    count = 0
    for _ in walk:
        count += 1
        if 2 * count > budget:
            raise BudgetError(
                f"at least {2 * count} evaluations exceed budget {budget} (counting stopped there)"
            )
    return count


@cache
def _outside_star(n: int, k: int, t: int) -> tuple[int, ...]:
    """The k-sets outside `full_star(n, k, t)`, in `enumerate_ksubsets` order.

    Built once per shape and shared, so read-only.
    """
    star = set(full_star(n, k, t).members)
    return tuple(m for m in enumerate_ksubsets(n, k) if m not in star)


@cache
def _cross_rows(n: int, k: int, l: int, t: int) -> tuple[dict, tuple[int, ...]]:
    """The k-sets' bit index, and row j: the k-sets that l-set j meets in at least t points.

    In `enumerate_ksubsets` order; built once per (n, k, l, t) and shared, so read-only.
    """
    a_masks = enumerate_ksubsets(n, k)
    rows = tuple(
        sum(1 << i for i, am in enumerate(a_masks) if (am & bm).bit_count() >= t)
        for bm in enumerate_ksubsets(n, l)
    )
    return {m: i for i, m in enumerate(a_masks)}, rows


def _dual(abits: int, compat: tuple[int, ...]) -> int:
    """The B-members t-compatible with every A-member in `abits`, as a bit set over rows."""
    return sum(1 << j for j, row in enumerate(compat) if not abits & ~row)


def _refuse_unwalkable(n: int, uniformities: tuple[int, ...], budget: int) -> None:
    """Refuse an initial space before any k-set is listed when it must pass the budget.

    The k-sets of one weight (element sum) are an antichain of the shifting
    order, and each subset of an antichain generates its own initial family.
    The C(n, k) k-sets spread over k(n-k)+1 weights, so there are at least
    2**ceil(C(n, k) / (k(n-k)+1)) initial families, and at least as many pairs.
    """
    sizes = [comb(n, u) for u in uniformities]
    least = max(-(-size // (u * (n - u) + 1)) for size, u in zip(sizes, uniformities))
    if least >= int(budget).bit_length():
        raise BudgetError(
            f"estimated 2**{sum(sizes) + 1} evaluations (an upper bound; the space holds at "
            f"least 2**{least} instances) exceed budget {budget}"
        )


def _over_budget(estimate, exact: bool, budget: int) -> BudgetError:
    bound = "" if exact else " (an upper bound: the space is too large to count)"
    return BudgetError(f"estimated {estimate} evaluations{bound} exceed budget {budget}")


def _power_of_two(exponent: int, exact: bool, budget: int) -> int:
    """2**exponent, refused from the exponent, before it is formed, past the budget."""
    # int(): a budget read from a suite file or report may be a JSON float such as 1e8
    if exponent >= int(budget).bit_length():
        raise _over_budget(f"2**{exponent + 1}", exact, budget)
    return 1 << exponent


def _space(space: str, grid: dict, params: dict, budget: int):
    """Instance count, whether it is exact, and the instance stream of one space.

    Nothing is built unless the stream is consumed, and then one instance at a
    time.  The `initial` spaces stream straight from the downset walk, so no
    space is listed whole; `initial-pairs` builds each family once, when first
    met.  They are counted by the same walk, which builds nothing and stops
    once two evaluations per instance pass the budget; past the `dual-pairs`
    size cap the count is an upper bound.
    """
    if space == "grid":
        # a [lo, hi] list is a dimension swept over lo..hi, any other key a fixed param
        ranges = {}
        for key in sorted(grid):
            value = grid[key]
            if isinstance(value, (list, tuple)):
                if len(value) != 2 or any(type(v) is not int for v in value) or value[0] > value[1]:
                    raise ValueError(
                        f"grid dimension {key!r} must be an int range [lo, hi] with lo <= hi, "
                        f"got {value!r}"
                    )
                ranges[key] = range(value[0], value[1] + 1)
        fixed = {key: value for key, value in grid.items() if key not in ranges}
        params = {**params, **parse_params(fixed)}

        def stream():
            for combo in product(*ranges.values()):
                yield Instance((), {**params, **dict(zip(ranges, combo))})

        return prod(map(len, ranges.values())), True, stream()
    for key in ("n", "k"):
        if key not in grid:
            raise ValueError(f"the {space} space needs grid dimension {key!r}")
    for key in ("n", "k", "l"):
        if key in grid and type(grid[key]) is not int:
            raise ValueError(f"grid dimension {key!r} must be an int, got {grid[key]!r}")
    n, k = grid["n"], grid["k"]
    l = grid.get("l", k)
    m = comb(n, k)

    def fam(uniformity, members):
        return SetFamily(n, uniformity, members, _trusted=True)

    def initial(uniformity, members):
        # the downset lister yields initial families only: mark each, rather than re-prove it
        out = fam(uniformity, members)
        out._initial = True
        return out

    if space == "families":

        def stream():
            masks = enumerate_ksubsets(n, k)
            for bits in range(1 << m):
                yield Instance((fam(k, _decode(bits, masks)),), dict(params))

        return _power_of_two(m, True, budget), True, stream()
    # the downset walk is output-sensitive: the initial spaces are counted by walking them
    if space == "initial":
        _refuse_unwalkable(n, (k,), budget)
        count = _count_within(_downsets(n, k), budget)

        def stream():
            for members, _ in _downsets(n, k):
                yield Instance((initial(k, members),), dict(params))

        return count, True, stream()
    if space == "initial-pairs":
        # B ranges over the initial l-families inside A's t-dual, itself initial when A is
        _refuse_unwalkable(n, (k, l), budget)
        t = params.get("t", 1)
        compat = _cross_rows(n, k, l, t)[1]
        count = _count_within(
            (pair for _, abits in _downsets(n, k)
             for pair in _downsets(n, l, _dual(abits, compat))),
            budget,
        )

        def stream():
            # one object per family, so its cached measures serve every pair it is in
            once = cache(initial)
            for a, abits in _downsets(n, k):
                fa = once(k, a)
                for b, _ in _downsets(n, l, _dual(abits, compat)):
                    yield Instance((fa, once(l, b)), dict(params), cross_t=t)

        return count, True, stream()
    if space == "dual-pairs":
        t = params.get("t", 1)

        def stream():
            a_masks, b_masks = enumerate_ksubsets(n, k), enumerate_ksubsets(n, l)
            compat = _cross_rows(n, k, l, t)[1]
            for abits in range(1 << m):
                fa = fam(k, _decode(abits, a_masks))
                # B may contain exactly the sets t-compatible with every chosen A-member
                dual = _dual(abits, compat)
                sub = dual
                while True:
                    fb = fam(l, _decode(sub, b_masks))
                    yield Instance((fa, fb), dict(params), cross_t=t)
                    if sub == 0:
                        break
                    sub = (sub - 1) & dual

        if m > 22:
            return _power_of_two(2 * m, False, budget), False, stream()
        compat = _cross_rows(n, k, l, t)[1]
        return sum(1 << _dual(abits, compat).bit_count() for abits in range(1 << m)), True, stream()
    raise ValueError(f"unknown space {space!r}")


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
    spaces = _KINDS[stmt.kind][1]
    space = grid.pop("space", None) or stmt.default_space or next(iter(spaces), None)
    params = parse_params(grid.pop("params", {}))
    if space not in spaces:
        got = "" if space is None else f"; got {space!r}"
        raise ValueError(f"{sid} is a {stmt.kind} statement; the spaces it may sweep: "
                         f"{', '.join(spaces) or 'none'}{got}")
    config = {
        "id": sid,
        "mode": "exhaustive",
        "grid": {**grid, "space": space, "params": {k: param_repr(v) for k, v in params.items()}},
        "budget": budget,
    }
    count, exact, instances = _space(space, grid, params, budget)
    if 2 * count > budget:
        raise _over_budget(2 * count, exact, budget)
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
    the high ones, so the tables hold about 2 * 2^(m/2) entries, not 2^m.  The
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
