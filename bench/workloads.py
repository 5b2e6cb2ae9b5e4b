"""The workloads: inputs made from a seed, the items to time, and their checks.

Each `setup_*` function imports the library afresh (the caller purges it from
`sys.modules` first), builds the inputs and returns a list of `Item`s.  An
item's `call` is what gets timed; its `check` runs afterwards, outside the
timed region, and returns False on a wrong verdict.  Calls look the library
function up on its module at call time, so that the traced run sees them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

HERE = Path(__file__).resolve().parent
INPUTS = json.loads((HERE / "inputs.json").read_text(encoding="utf-8"))
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


@dataclass
class Item:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    group: str


def library_guard(guard: list):
    """The guard (see inputs.json) as the library's property atoms."""
    from extremal.shifting import And, CrossTIntersecting, MatchingAtMost, RhoAtMost, TIntersecting

    atoms = []
    for atom in guard:
        kind = atom[0]
        if kind == "rho":
            atoms.append(RhoAtMost(atom[1], Fraction(atom[2])))
        elif kind == "nu":
            atoms.append(MatchingAtMost(atom[1], atom[2]))
        elif kind == "intersecting":
            atoms.append(TIntersecting(atom[1], atom[2]))
        elif kind == "cross":
            atoms.append(CrossTIntersecting(atom[1], atom[2], atom[3]))
        else:
            raise ValueError(f"unknown guard atom {kind!r}")
    return And(tuple(atoms))


def _totals_match(label: str, reference: dict) -> Callable[[dict], bool]:
    want = reference[label]

    def check(report: dict) -> bool:
        result = report["result"]
        got = result["totals"]
        return (
            got["fail"] == 0
            and not result["halted_on_fail"]
            and got["pass"] == want["pass"]
            and got["fail"] == want["fail"]
        )

    return check


def setup_suite(seed: int) -> list[Item]:
    """The shipped suite, frozen; the seed sets the order of its entries."""
    from extremal.verify import harness

    budget = INPUTS["suite"]["budget"]
    items = []
    for idx, entry in enumerate(INPUTS["suite"]["entries"]):
        label = f"{idx:02d}:{entry['id']}:{entry['mode']}"
        items.append(
            Item(
                label,
                lambda entry=entry: harness.run_recipe(entry, threads=1, budget=budget),
                _totals_match(label, REFERENCE["suite"]),
                "suite",
            )
        )
    random.Random(seed).shuffle(items)
    return items


def exhaustive_items() -> list[Item]:
    """Whole instance spaces."""
    from extremal.verify import harness

    items = []
    for spec in INPUTS["exhaustive"]:
        label = spec["id"]
        items.append(
            Item(
                label,
                lambda spec=spec: harness.exhaustive_sweep(spec["id"], spec["grid"], threads=1),
                _totals_match(label, REFERENCE["exhaustive"]),
                "exhaustive",
            )
        )
    return items


def search_items() -> list[Item]:
    """Searches solved to completion."""
    from extremal.verify import search

    items = []
    for spec in INPUTS["search"]:
        prop = library_guard(spec["guard"])
        optimum = REFERENCE["search"][spec["name"]]
        items.append(
            Item(
                spec["name"],
                lambda spec=spec, prop=prop: search.search_max(spec["n"], spec["k"], prop),
                lambda result, spec=spec, optimum=optimum: oracles.check_search_witness(
                    spec, result, optimum
                ),
                "search",
            )
        )
    return items


def _random_members(rng: random.Random, kmasks: list[int], density: float) -> list[int]:
    return [m for m in kmasks if rng.random() < density]


def _kmasks(n: int, k: int, cache: dict) -> list[int]:
    if (n, k) not in cache:
        cache[n, k] = sorted(oracles.mask(s) for s in oracles.ksets(n, k))
    return cache[n, k]


def shift_inputs(seed: int) -> list[tuple[int, int, list[list[int]], list]]:
    """Seeded (n, k, slots, guard) tuples: guarded singles and cross-intersecting pairs."""
    recipe = INPUTS["shift"]
    rng = random.Random(seed)
    kmasks: dict = {}
    out = []
    singles = recipe["singles"]
    for _ in range(singles["count"]):
        n = rng.randint(*singles["n"])
        k = rng.randint(singles["k"][0], min(singles["k"][1], n - 1))
        members = _random_members(rng, _kmasks(n, k, kmasks), rng.choice(singles["density"]))
        sets = [oracles.elements(m) for m in members]
        # the first guard in the list that the family already satisfies
        guard = next(g for g in singles["guards"] if oracles.guard_holds(g, [sets]))
        out.append((n, k, [members], guard))
    pairs = recipe["pairs"]
    made = 0
    while made < pairs["count"]:
        n = rng.randint(*pairs["n"])
        k = rng.randint(pairs["k"][0], min(pairs["k"][1], n - 2))
        every = _kmasks(n, k, kmasks)
        a = _random_members(rng, every, rng.choice(pairs["density"]))
        dual = [c for c in every if all(c & m for m in a)]
        b = _random_members(rng, dual, pairs["keep_b"])
        slots = [a, b]
        sets = [[oracles.elements(m) for m in s] for s in slots]
        if a and b and oracles.guard_holds(pairs["guard"], sets):
            out.append((n, k, slots, pairs["guard"]))
            made += 1
    rng.shuffle(out)
    return out


def _ad_extremis_check(n: int, k: int, slots: list[list[int]], guard: list):
    before = [[oracles.elements(m) for m in s] for s in slots]
    verified: set = set()

    def check(result) -> bool:
        out, _trace = result
        key = tuple(f.members for f in out)
        if key in verified:
            return True
        ok = oracles.check_ad_extremis(before, n, k, guard, out)
        if ok:
            verified.add(key)
        return ok

    return check


def shift_items(seed: int) -> list[Item]:
    """Guarded shift_ad_extremis calls on seeded families and pairs."""
    from extremal import shifting
    from extremal.core import SetFamily

    items = []
    for idx, (n, k, slots, guard) in enumerate(shift_inputs(seed)):
        fams = tuple(SetFamily(n, k, s, _trusted=True) for s in slots)
        prop = library_guard(guard)
        items.append(
            Item(
                f"{idx:04d}:n={n},k={k},slots={len(slots)}",
                lambda fams=fams, prop=prop: shifting.shift_ad_extremis(fams, prop),
                _ad_extremis_check(n, k, slots, guard),
                "shift",
            )
        )
    return items


def setup_kernels(seed: int) -> list[Item]:
    """Exhaustive spaces, searches and guarded shifts; the seed draws the shift
    inputs and sets the order of all items."""
    items = exhaustive_items() + search_items() + shift_items(seed)
    random.Random(seed).shuffle(items)
    return items


SETUP = {
    "suite": setup_suite,
    "kernels": setup_kernels,
}
