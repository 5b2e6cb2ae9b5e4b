"""Exact scalar invariants of set families.

Maximum-degree ratio rho, t-transversal numbers, matching number, j-wise
intersection levels, and the intersecting / pseudo-intersecting predicates.
Rationals are exact fractions.Fraction values, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import SetFamily, enumerate_ksubsets, prefix_mask


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


def rho(fam: SetFamily) -> Fraction:
    """max_i deg(i) / |F| as an exact rational; 0 for the empty family.

    Equals 1 exactly when the family is a star (all members share a point).
    """
    if not fam.members:
        return Fraction(0)
    return Fraction(max(degree_vector(fam)), len(fam.members))


def _common_mask(members: Iterable[int], n: int) -> int:
    m = (1 << n) - 1
    for mem in members:
        m &= mem
        if not m:
            break
    return m


def common_elements(fam: SetFamily) -> int:
    """Mask of elements lying in every member (the full ground set if empty)."""
    return _common_mask(fam.members, fam.n)


def is_star(fam: SetFamily, t: int = 1) -> bool:
    """Nonempty with at least t common elements."""
    return bool(fam.members) and common_elements(fam).bit_count() >= t


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


def is_intersecting(fam: SetFamily) -> bool:
    return is_t_intersecting(fam, 1)


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


def _min_intersection_over(members: Sequence[int], j: int, stop_below: int | None = None) -> int:
    """Minimum |F_1 ∩ ... ∩ F_j| over j-subsets of distinct members.

    Grown as a set of intersection masks; repeats only ever produce
    supersets of honest j-subset intersections, so the minimum is exact.
    """
    if not members:
        raise ValueError("empty member list")
    j = min(j, len(members))
    cur = set(members)
    best = min(m.bit_count() for m in cur)
    if stop_below is not None and best < stop_below:
        return best
    for _ in range(j - 1):
        nxt = set()
        for s in cur:
            for m in members:
                nxt.add(s & m)
        cur = nxt
        best = min(m.bit_count() for m in cur)
        if stop_below is not None and best < stop_below:
            return best
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
    """Maximum number of pairwise disjoint members, by exact branch and bound."""
    ms = fam.members
    if not ms:
        return 0
    k = fam.k
    n = fam.n
    best = 0

    def dfs(cands: Sequence[int], used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        free = n - used.bit_count()
        cap = count + min(len(cands), free // k if k else 0)
        if cap <= best:
            return
        for idx, m in enumerate(cands):
            if count + len(cands) - idx <= best:
                break
            dfs([c for c in cands[idx + 1 :] if not c & m], used | m, count + 1)

    dfs(ms, 0, 0)
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


def addable_t_intersecting(t: int):
    """Addability test: a k-set can join when it meets every member in >= t points."""

    def addable(members: set, cand: int) -> bool:
        return all((cand & m).bit_count() >= t for m in members)

    return addable


def addable_r_wise(r: int):
    """Addability test: a k-set can join when the family stays r-wise intersecting."""

    def addable(members: set, cand: int) -> bool:
        return is_r_wise_t_intersecting_masks((*members, cand), r, 1)

    return addable


def is_saturated(fam: SetFamily, addable) -> bool:
    """Nonempty, and no k-set outside the family passes the addability test."""
    if not fam.members:
        return False
    have = set(fam.members)
    return not any(
        cand not in have and addable(have, cand) for cand in enumerate_ksubsets(fam.n, fam.k)
    )


def grow(fam: SetFamily, addable, candidates: Sequence[int]) -> SetFamily:
    """Add candidates, in the given order, that pass the addability test, until none does.

    Repeated passes handle non-hereditary tests; the result is maximal.
    """
    members = set(fam.members)
    changed = True
    while changed:
        changed = False
        for cand in candidates:
            if cand not in members and addable(members, cand):
                members.add(cand)
                changed = True
    return SetFamily(fam.n, fam.k, sorted(members), _trusted=True)


def saturate(fam: SetFamily, prop) -> SetFamily:
    """Grow the family in canonical order until no further k-set keeps `prop`.

    `prop` is a single-slot PropertySpec (or any object with holds(tuple)).
    """
    if not prop.holds((fam,)):
        raise ValueError("property does not hold on the input family")

    def addable(members: set, cand: int) -> bool:
        trial = SetFamily(fam.n, fam.k, sorted(members | {cand}), _trusted=True)
        return prop.holds((trial,))

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


def measure_profile(fam: SetFamily, max_t_level: int = 4) -> MeasureProfile:
    from .core import is_initial

    tau = {}
    if fam.members:
        for t in range(1, fam.k + 1):
            tau[t] = transversal_number(fam, t)
    levels = {j: t_level(fam, j) for j in range(2, max_t_level + 1)}
    return MeasureProfile(
        rho=rho(fam),
        tau=tau,
        nu=matching_number(fam),
        t_levels=levels,
        initial=is_initial(fam),
        size=len(fam),
    )
