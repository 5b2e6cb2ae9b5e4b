"""Reference checks written from the definitions, independent of the library.

Families are handled here as lists of frozensets of 1-based elements.  The
only library convention used is the mask encoding (bit i-1 holds element i),
to read a family's members.  These run outside the timed region.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def elements(mask: int) -> frozenset:
    return frozenset(b + 1 for b in range(mask.bit_length()) if mask >> b & 1)


def mask(elems) -> int:
    out = 0
    for e in elems:
        out |= 1 << (e - 1)
    return out


def ksets(n: int, k: int) -> list[frozenset]:
    return [frozenset(c) for c in combinations(range(1, n + 1), k)]


def sets_of(fam) -> list[frozenset]:
    return [elements(m) for m in fam.members]


def plain_shift(sets: list[frozenset], i: int, j: int) -> list[frozenset]:
    """Replace j by i in every member unless the result is already a member."""
    present = set(sets)
    out = []
    for s in sets:
        if j in s and i not in s:
            moved = (s - {j}) | {i}
            out.append(s if moved in present else moved)
        else:
            out.append(s)
    return out


def rho(sets: list[frozenset]) -> Fraction:
    if not sets:
        return Fraction(0)
    degree: dict[int, int] = {}
    for s in sets:
        for e in s:
            degree[e] = degree.get(e, 0) + 1
    return Fraction(max(degree.values()), len(sets))


def cross_intersecting(a: list[frozenset], b: list[frozenset], t: int = 1) -> bool:
    return all(len(x & y) >= t for x in a for y in b)


def intersecting(sets: list[frozenset], t: int = 1) -> bool:
    return cross_intersecting(sets, sets, t)


def has_disjoint(sets: list[frozenset], count: int, used: frozenset = frozenset()) -> bool:
    """Some `count` members are pairwise disjoint (and disjoint from `used`)."""
    if count == 0:
        return True
    for idx, s in enumerate(sets):
        if not s & used and has_disjoint(sets[idx + 1 :], count - 1, used | s):
            return True
    return False


def matching_at_most(sets: list[frozenset], s: int) -> bool:
    return not has_disjoint(sets, s + 1)


def guard_holds(guard: list, slots: list[list[frozenset]]) -> bool:
    """Evaluate a guard given as a list of atoms (see inputs.json, `shift`)."""
    for atom in guard:
        kind = atom[0]
        if kind == "rho":
            ok = rho(slots[atom[1]]) <= Fraction(atom[2])
        elif kind == "nu":
            ok = matching_at_most(slots[atom[1]], atom[2])
        elif kind == "intersecting":
            ok = intersecting(slots[atom[1]], atom[2])
        elif kind == "cross":
            ok = cross_intersecting(slots[atom[1]], slots[atom[2]], atom[3])
        else:
            raise ValueError(f"unknown guard atom {kind!r}")
        if not ok:
            return False
    return True


def check_ad_extremis(slots_in: list[list[frozenset]], n: int, k: int, guard: list, out) -> bool:
    """Output of a guarded shift-to-fixpoint: sizes kept, guard held, no legal shift left."""
    if len(out) != len(slots_in):
        return False
    slots = []
    for fam, before in zip(out, slots_in):
        sets = sets_of(fam)
        if (fam.n, fam.k) != (n, k) or len(set(sets)) != len(before):
            return False
        if any(len(s) != k or max(s) > n for s in sets):
            return False
        slots.append(sets)
    if not guard_holds(guard, slots):
        return False
    for i, j in combinations(range(1, n + 1), 2):
        shifted = [plain_shift(s, i, j) for s in slots]
        moved = any(set(a) != set(b) for a, b in zip(shifted, slots))
        if moved and guard_holds(guard, shifted):
            return False
    return True


def check_search_witness(spec: dict, result, optimum: int) -> bool:
    """A complete search that reached the known optimum with a valid witness."""
    n, k = spec["n"], spec["k"]
    if not result.complete or result.max_size != optimum:
        return False
    sets = sets_of(result.witness)
    if len(set(sets)) != optimum or any(len(s) != k or max(s) > n for s in sets):
        return False
    return guard_holds(spec["guard"], [sets])
