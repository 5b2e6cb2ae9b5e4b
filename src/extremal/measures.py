"""Exact scalar invariants of set families.

Maximum-degree ratio rho, t-transversal numbers, matching number, j-wise
intersection levels, and the intersecting / pseudo-intersecting predicates.
Rationals are exact fractions.Fraction values, never floats.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .core import SetFamily, elems_of, enumerate_ksubsets, is_initial, prefix_mask


def degree(fam: SetFamily, i: int) -> int:
    """Number of members containing element i."""
    if not 1 <= i <= fam.n:
        raise ValueError(f"element {i} outside [1, n={fam.n}]")
    b = 1 << (i - 1)
    return sum(1 for m in fam.members if m & b)


def degree_vector(fam: SetFamily) -> list[int]:
    degs = [0] * fam.n
    for m in fam.members:
        mm = m
        while mm:
            low = mm & -mm
            degs[low.bit_length() - 1] += 1
            mm ^= low
    return degs


def max_pair_degree(fam: SetFamily) -> int:
    """The most members that contain any one 2-set, in one pass; 0 if no member has two."""
    counts: Counter[int] = Counter()
    for m in fam.members:
        bits = [1 << (e - 1) for e in elems_of(m)]
        counts.update(a | b for a, b in combinations(bits, 2))
    return max(counts.values(), default=0)


def rho(fam: SetFamily) -> Fraction:
    """max_i deg(i) / |F| as an exact rational; 0 for the empty family.

    Equals 1 exactly when the family is a star (all members share a point).
    The answer is cached on the family.  A family known to be initial has
    deg(1) >= deg(2) >= ... >= deg(n), so only element 1 is counted.
    """
    if fam._rho is None:
        if not fam.members:
            fam._rho = Fraction(0)
        elif fam._initial:
            fam._rho = Fraction(sum(m & 1 for m in fam.members), len(fam.members))
        else:
            fam._rho = Fraction(max(degree_vector(fam)), len(fam.members))
    return fam._rho


def _common_mask(members: Iterable[int], n: int) -> int:
    m = (1 << n) - 1
    for mem in members:
        m &= mem
        if not m:
            break
    return m


def is_nontrivial_masks(members: Sequence[int], n: int) -> bool:
    """Nonempty with no common element; the member masks may have any sizes."""
    return bool(members) and _common_mask(members, n) == 0


def is_nontrivial(fam: SetFamily) -> bool:
    """Nonempty with no common element."""
    return is_nontrivial_masks(fam.members, fam.n)


def is_t_intersecting(fam: SetFamily, t: int) -> bool:
    """Every two members (including a member with itself) share >= t elements."""
    ms = fam.members
    if not ms:
        return True
    if t > fam.k:
        return False
    if t <= 0:
        return True
    for i, a in enumerate(ms):
        for b in ms[i + 1 :]:
            if (a & b).bit_count() < t:
                return False
    return True


def is_cross_t_intersecting(fam: SetFamily, other: SetFamily, t: int) -> bool:
    """|F ∩ G| >= t for every F in one family and G in the other."""
    if fam.n != other.n:
        raise ValueError(f"ground sets differ: {fam.n} vs {other.n}")
    if not fam.members or not other.members:
        return True
    if t <= 0:
        return True
    for a in fam.members:
        for b in other.members:
            if (a & b).bit_count() < t:
                return False
    return True


def _new_intersections(members: Sequence[int], j: int) -> Iterator[tuple[int, int]]:
    """Yield (i, mask) once for each distinct intersection of at most j members.

    i is the first level that holds the mask: level 1 is the set of distinct
    members, and level i is the set of intersections of at most i of them.
    Semi-naive: level i+1 intersects only the masks new at level i with the
    members, since every other product is already at level i.  Stops early
    once a level adds nothing.
    """
    base = tuple(set(members))
    seen = set(base)
    for m in base:
        yield 1, m
    frontier = base
    for i in range(2, j + 1):
        nxt = []
        for s in frontier:
            for m in base:
                x = s & m
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
                    yield i, x
        if not nxt:
            return
        frontier = nxt


def _min_intersection_over(members: Sequence[int], j: int, stop_below: int | None = None) -> int:
    """Minimum |F_1 ∩ ... ∩ F_j| over j members, repetition allowed.

    That is the minimum over the level I_j of `_new_intersections`, which
    builds the levels semi-naively: each level intersects only the masks new
    at the previous level with the members.  With
    `stop_below` set, returns the size of the first intersection found below
    it: the result is below `stop_below` exactly when the minimum is, and
    equals the minimum otherwise.
    """
    if not members:
        raise ValueError("empty member list")
    best = None
    for _, m in _new_intersections(members, j):
        size = m.bit_count()
        if best is None or size < best:
            best = size
            if stop_below is not None and size < stop_below:
                return size
    return best


def is_r_wise_t_intersecting_masks(members: Sequence[int], r: int, t: int) -> bool:
    """Every r member masks (repetition allowed, any sizes) share >= t elements."""
    if r < 2:
        raise ValueError(f"r must be at least 2, got {r}")
    if not members or t <= 0:
        return True
    return _min_intersection_over(members, r, stop_below=t) >= t


def is_r_wise_t_intersecting(fam: SetFamily, r: int, t: int) -> bool:
    """Every r members (repetition allowed) have a common intersection >= t."""
    return is_r_wise_t_intersecting_masks(fam.members, r, t)


def t_level(fam: SetFamily, j: int) -> int:
    """Largest t such that the family is j-wise t-intersecting.

    Convention: k for the empty family (documented; excluded from theorem checks).
    """
    if j < 2:
        raise ValueError(f"j must be at least 2, got {j}")
    if not fam.members:
        return fam.k
    return _min_intersection_over(fam.members, j)


def pseudo_windows(n: int, k: int, t: int) -> list[tuple[int, int]]:
    """The pairs ([2l+t] cut at n, l+t) for l in [0, k-t], as (mask, points needed)."""
    return [(prefix_mask(min(2 * l + t, n)), l + t) for l in range(k - t + 1)]


def meets_pseudo_window(m: int, windows: Sequence[tuple[int, int]]) -> bool:
    """Whether the set meets some window of `pseudo_windows` in enough points."""
    return any((m & w).bit_count() >= need for w, need in windows)


def is_pseudo_t_intersecting(fam: SetFamily, t: int) -> bool:
    """Each member F has some l in [0, k-t] with |F ∩ [2l+t]| >= l+t."""
    if not fam.members:
        return True
    if t > fam.k:
        return False
    windows = pseudo_windows(fam.n, fam.k, t)
    return all(meets_pseudo_window(m, windows) for m in fam.members)


def matching_number(fam: SetFamily) -> int:
    """Maximum number of pairwise disjoint members, by exact branch and bound.

    A node's candidates are the later members disjoint from all it has chosen,
    and its bound is its count plus min(candidates, |their union| // k).  A
    node is cut when the best so far reaches that bound, and a node stops
    trying further children as soon as a child brings the best up to it.  So
    the search ends as soon as it finds min(|F|, |union of F| // k) disjoint
    members.
    """
    ms = fam.members
    if not ms:
        return 0
    k = fam.k
    best = 0

    def dfs(cands: Sequence[int], count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        reach = 0
        for c in cands:
            reach |= c
        cap = count + min(len(cands), reach.bit_count() // k if k else 0)
        if cap <= best:
            return
        for idx, m in enumerate(cands):
            if count + len(cands) - idx <= best:
                break
            dfs([c for c in cands[idx + 1 :] if not c & m], count + 1)
            if best >= cap:
                return

    dfs(ms, 0)
    return best


def _greedy_transversal(members: Sequence[int], n: int, t: int) -> int:
    tmask = 0
    size = 0
    deficient = list(members)
    while deficient:
        gains = [0] * (n + 1)
        for m in deficient:
            rest = m & ~tmask
            while rest:
                low = rest & -rest
                gains[low.bit_length()] += 1
                rest ^= low
        x = max(range(1, n + 1), key=lambda i: gains[i])
        tmask |= 1 << (x - 1)
        size += 1
        deficient = [m for m in deficient if (m & tmask).bit_count() < t]
    return size


def transversal_number(fam: SetFamily, t: int) -> int:
    """Minimum size of a set meeting every member in >= t elements.

    Exact branch and bound: branch on the elements of a deepest-deficiency
    member, seeded with a greedy upper bound.  0 for the empty family.
    """
    ms = fam.members
    if not ms:
        return 0
    if not 1 <= t <= fam.k:
        raise ValueError(f"t={t} outside [1, k={fam.k}]")
    n = fam.n
    best = _greedy_transversal(ms, n, t)

    def dfs(tmask: int, size: int) -> None:
        nonlocal best
        if size >= best:
            return
        worst = None
        worst_def = 0
        for m in ms:
            d = t - (m & tmask).bit_count()
            if d > worst_def:
                worst_def = d
                worst = m
        if worst is None:
            best = size
            return
        if size + worst_def >= best:
            return
        rest = worst & ~tmask
        while rest:
            low = rest & -rest
            rest ^= low
            dfs(tmask | low, size + 1)

    dfs(0, 0)
    return best


class _ClosureTester:
    """Addability of k-sets to a growing family under an r-wise t rule.

    Keeps the levels I_1 ⊆ ... ⊆ I_{r-1} of the family, built by
    `_new_intersections`.  A k-set c may join iff |c| >= t and
    |c ∩ S| >= t for every S in I_{r-1}; with `whole_family`, nothing may
    join unless the family itself is r-wise t-intersecting, which holds iff
    each member would pass the same test.  `add(c)` updates the levels from
    the top down: level i gains c and c ∩ S for each S in the old level i-1.
    """

    def __init__(self, members: Sequence[int], r: int, t: int, whole_family: bool):
        self.t = t
        self.levels = [set() for _ in range(r - 1)]
        for i, m in _new_intersections(members, r - 1):
            self.levels[i - 1].add(m)
        for i in range(1, r - 1):
            self.levels[i] |= self.levels[i - 1]
        self.open = True
        if whole_family:
            self.open = all(self.admits(m) for m in members)

    def admits(self, cand: int) -> bool:
        t = self.t
        return (
            self.open
            and cand.bit_count() >= t
            and all((cand & s).bit_count() >= t for s in self.levels[-1])
        )

    def add(self, cand: int) -> None:
        levels = self.levels
        for i in range(len(levels) - 1, 0, -1):
            levels[i].update([cand & s for s in levels[i - 1]])
            levels[i].add(cand)
        levels[0].add(cand)


def addable_t_intersecting(t: int) -> Callable[[Sequence[int]], _ClosureTester]:
    """Addability rule: a k-set can join when |c| >= t and it meets every member in >= t points.

    Member-wise: the family itself is not checked.
    """
    return partial(_ClosureTester, r=2, t=t, whole_family=False)


def addable_r_wise(r: int) -> Callable[[Sequence[int]], _ClosureTester]:
    """Addability rule: a k-set can join when the family stays r-wise intersecting.

    Whole-family: if the family itself is not r-wise intersecting, nothing can join.
    """
    if r < 2:
        raise ValueError(f"r must be at least 2, got {r}")
    return partial(_ClosureTester, r=r, t=1, whole_family=True)


def is_saturated(fam: SetFamily, addable) -> bool:
    """Nonempty, and no k-set outside the family passes the addability test.

    `addable(members)` returns a tester for this family; the tester's
    `admits(c)` says whether the k-set c can join.  The tester is started
    once, so the r-wise rules build the intersection levels
    I_1 ⊆ ... ⊆ I_{r-1} of the family once for all candidates.
    """
    if not fam.members:
        return False
    tester = addable(fam.members)
    have = set(fam.members)
    return not any(
        cand not in have and tester.admits(cand) for cand in enumerate_ksubsets(fam.n, fam.k)
    )


def grow(fam: SetFamily, addable, candidates: Sequence[int]) -> SetFamily:
    """Add candidates, in the given order, that pass the addability test, until none does.

    Starts one tester for the family (`addable(members)`), asks it
    `admits(c)` for each candidate outside the family, and tells it `add(c)`
    for each one that joins, so the tester keeps its state across the whole
    growth.  The r-wise rules keep the levels I_1 ⊆ ... ⊆ I_{r-1}; `add(c)`
    updates them from the top level down, level i gaining c and c ∩ S for
    each S in the old level i-1.  Repeated passes handle non-hereditary
    tests; the result is maximal.
    """
    tester = addable(fam.members)
    members = set(fam.members)
    changed = True
    while changed:
        changed = False
        for cand in candidates:
            if cand not in members and tester.admits(cand):
                tester.add(cand)
                members.add(cand)
                changed = True
    return SetFamily(fam.n, fam.k, sorted(members), _trusted=True)


class _PropertyTester:
    """Addability by checking a property on the family with the candidate added."""

    def __init__(self, n: int, k: int, prop, members: Sequence[int]):
        self.n, self.k, self.prop = n, k, prop
        self.members = set(members)

    def admits(self, cand: int) -> bool:
        trial = SetFamily(self.n, self.k, sorted(self.members | {cand}), _trusted=True)
        return self.prop.holds((trial,))

    def add(self, cand: int) -> None:
        self.members.add(cand)


def saturate(fam: SetFamily, prop) -> SetFamily:
    """Grow the family in canonical order until no further k-set keeps `prop`.

    `prop` is a single-slot PropertySpec (or any object with holds(tuple)).
    """
    if not prop.holds((fam,)):
        raise ValueError("property does not hold on the input family")
    addable = partial(_PropertyTester, fam.n, fam.k, prop)
    return grow(fam, addable, enumerate_ksubsets(fam.n, fam.k))


@dataclass(frozen=True)
class MeasureProfile:
    """Bundle of the scalar invariants of one family."""

    rho: Fraction
    tau: dict  # t -> transversal number, t = 1..k
    nu: int
    t_levels: dict  # j -> t_j, j = 2..4
    initial: bool
    size: int

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "rho": f"{self.rho.numerator}/{self.rho.denominator}",
            "tau": {str(t): v for t, v in sorted(self.tau.items())},
            "nu": self.nu,
            "t_levels": {str(j): v for j, v in sorted(self.t_levels.items())},
            "initial": self.initial,
        }


def measure_profile(fam: SetFamily) -> MeasureProfile:
    tau = {}
    if fam.members:
        for t in range(1, fam.k + 1):
            tau[t] = transversal_number(fam, t)
    levels = {j: t_level(fam, j) for j in range(2, 5)}
    return MeasureProfile(
        rho=rho(fam),
        tau=tau,
        nu=matching_number(fam),
        t_levels=levels,
        initial=is_initial(fam),
        size=len(fam),
    )
