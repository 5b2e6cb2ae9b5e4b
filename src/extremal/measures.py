"""Exact scalar invariants of set families.

Maximum-degree ratio rho, t-transversal numbers, matching number, j-wise
intersection levels, and the intersecting / pseudo-intersecting predicates.
Rationals are exact fractions.Fraction values, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import (
    combinations,
    combinations_with_replacement,
    islice,
    product,
    starmap,
    takewhile,
)
from operator import and_
from typing import Callable, Iterable, Iterator, Sequence

from .core import SetFamily, columns, enumerate_ksubsets, is_initial, prefix_mask


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
    """The most members that contain any one 2-set, as the largest popcount of two columns' AND.

    0 if no member has two elements.
    """
    return max((a & b).bit_count() for a, b in combinations(columns(fam.members, fam.n), 2))


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


def is_nontrivial_masks(members: Sequence[int]) -> bool:
    """Nonempty with no common element, the t = 1 case of `_share_at_least`; any sizes."""
    return bool(members) and not _share_at_least(members, 1)


def is_nontrivial(fam: SetFamily) -> bool:
    """Nonempty with no common element."""
    return is_nontrivial_masks(fam.members)


def _share_at_least(members: Sequence[int], t: int) -> bool:
    """Whether all the members together share at least t elements.

    One AND pass, stopped once the common part drops below t.  True means every
    choice of members shares t elements too, so the callers need no pairwise or
    r-wise pass.
    """
    common = -1
    for m in members:
        common &= m
        if common.bit_count() < t:
            return False
    return True


def is_t_intersecting(fam: SetFamily, t: int) -> bool:
    """Every two members (including a member with itself) share >= t elements."""
    ms = fam.members
    if not ms:
        return True
    if t > fam.k:
        return False
    if t <= 0 or _share_at_least(ms, t):
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


def _minimal(masks: Iterable[int]) -> list[int]:
    """The inclusion-minimal masks among `masks`, each once, fewest elements first.

    The masks are taken by size, and each is kept unless a kept mask is a
    subset of it; a proper subset has fewer elements, so it was taken first.
    Masks of one size form an antichain already.
    """
    ms = sorted(set(masks), key=int.bit_count)
    if not ms or ms[0].bit_count() == ms[-1].bit_count():
        return ms
    out: list[int] = []
    for m in ms:
        for s in out:
            if s & m == s:
                break
        else:
            out.append(m)
    return out


def _intersection_levels(
    members: Sequence[int], j: int, stop_below: int = 0
) -> Iterator[tuple[int, list[int] | None]]:
    """Yield (least, level) for i = 1..j: the antichain walk over the intersection levels.

    I_i is the set of intersections of at most i members (repetition allowed),
    and level i is Min(I_i), its inclusion-minimal masks: level 1 is
    Min(members), and Min(I_{i+1}) = Min{s & m : s in Min(I_i), m in Min(members)}
    (at level 2 one product per unordered pair, since & commutes).  `least`
    is the fewest elements in a mask of I_i; a minimum over I_i is one over
    Min(I_i), since every mask contains a minimal one.  The last level is only
    scanned for its least size, not minimised, so it is yielded as None.  Once
    a level's least is below `stop_below`, it is yielded with None and the walk
    ends: that value is below `stop_below` exactly when the true minimum is.
    An empty product ends a level's products at once, since it is then that
    level's only minimal mask.
    """
    base = level = _minimal(members)
    least = base[0].bit_count()
    yield least, base
    for i in range(2, j + 1):
        if i == 2:
            pairs = combinations_with_replacement(base, 2)
            count = len(base) * (len(base) + 1) // 2
        else:
            pairs = product(level, base)
            count = len(level) * len(base)
        # the stream stops at the first empty product: then Min of this level is {0}
        products = list(takewhile(bool, starmap(and_, pairs)))
        if len(products) < count:
            least, level = 0, [0]
        elif i < j:
            level = _minimal(products)
            least = level[0].bit_count()
        else:
            least = min(map(int.bit_count, set(products)))
        if least < stop_below:
            yield least, None
            return
        yield least, (level if i < j else None)


def _min_intersection_over(members: Sequence[int], j: int, stop_below: int = 0) -> int:
    """Minimum |F_1 ∩ ... ∩ F_j| over j members, repetition allowed.

    That is the last `least` of `_intersection_levels`.  With `stop_below`
    set, returns the least of the first level found below it: the result is
    below `stop_below` exactly when the minimum is, and equals the minimum
    otherwise.
    """
    if not members:
        raise ValueError("empty member list")
    for least, _ in _intersection_levels(members, j, stop_below):
        pass
    return least


def is_r_wise_t_intersecting_masks(members: Sequence[int], r: int, t: int) -> bool:
    """Every r member masks (repetition allowed, any sizes) share >= t elements."""
    if r < 2:
        raise ValueError(f"r must be at least 2, got {r}")
    if not members or t <= 0 or _share_at_least(members, t):
        return True
    return _min_intersection_over(members, r, stop_below=t) >= t


def is_r_wise_t_intersecting(fam: SetFamily, r: int, t: int) -> bool:
    """Every r members (repetition allowed) have a common intersection >= t."""
    return is_r_wise_t_intersecting_masks(fam.members, r, t)


def t_level(fam: SetFamily, j: int) -> int:
    """Largest t such that the family is j-wise t-intersecting.

    The fewest elements in an intersection of at most j members, read off the
    antichain walk of `_intersection_levels`: only inclusion-minimal
    intersections are kept from level to level, and the last level is scanned.
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
    and its bound is its count plus min(candidates, |their union| // k), or
    plus min(candidates, 1) at k = 0, where the empty set is the only possible member.  A
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
        cap = count + min(len(cands), reach.bit_count() // k if k else 1)
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


def transversal_number(fam: SetFamily, t: int) -> int:
    """Minimum size of a set meeting every member in >= t elements.

    Exact branch and bound over two bit sets, the chosen and the excluded
    elements.  A node branches on the free elements (neither chosen nor
    excluded) of a most deficient member: each child chooses one, and the
    later siblings exclude it, so each set is reached once.  A node is cut
    when some member has fewer free elements than it still needs, or when its
    size plus the worst deficiency reaches the best size found.  The search
    starts from best = n, since [n] meets every member in k >= t points.
    0 for the empty family.
    """
    ms = fam.members
    if not ms:
        return 0
    if not 1 <= t <= fam.k:
        raise ValueError(f"t={t} outside [1, k={fam.k}]")
    best = fam.n

    def dfs(chosen: int, excluded: int, size: int) -> None:
        nonlocal best
        taken = chosen | excluded
        worst = worst_def = 0
        for m in ms:
            d = t - (m & chosen).bit_count()
            if d > 0:
                if (m & ~taken).bit_count() < d:
                    return
                if d > worst_def:
                    worst, worst_def = m, d
        if not worst_def:
            best = size
            return
        if size + worst_def >= best:
            return
        free = worst & ~taken
        while free:
            low = free & -free
            free ^= low
            dfs(chosen | low, excluded, size + 1)
            excluded |= low

    dfs(0, 0, 0)
    return best


class _ClosureTester:
    """Addability of k-sets to a growing family under an r-wise t rule.

    Keeps the levels 1..r-1 of the family's `_intersection_levels`: level 1
    is the member set (k-sets already form an antichain), and level i >= 2 is
    Min(I_i), the inclusion-minimal intersections of at most i members.  A
    k-set c may join iff |c| >= t and |c ∩ S| >= t for every S in the top
    level; that test is monotone under inclusion, so the minimal masks decide
    it for all of I_{r-1}.  With `whole_family`, nothing may join unless the
    family itself is r-wise t-intersecting, which holds iff each member would
    pass the same test.  `add(c)` updates the levels from the top down: level
    i gains c and c ∩ S for each S in the old level i-1, and drops every mask
    that contains one of them.
    """

    def __init__(self, members: Sequence[int], r: int, t: int, whole_family: bool):
        self.t = t
        self.levels = [set(members)] + [set() for _ in range(r - 2)]
        if members and r > 2:
            walk = islice(_intersection_levels(members, r), 1, r - 1)
            self.levels[1:] = [set(level) for _, level in walk]
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
            levels[i] = set(_minimal([*levels[i], cand, *(cand & s for s in levels[i - 1])]))
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
    once, so the r-wise rules build the minimal-mask levels of the family
    (`_ClosureTester`) once for all candidates, and each candidate is tested
    against the inclusion-minimal masks of I_{r-1} only.
    """
    if not fam.members:
        return False
    tester = addable(fam.members)
    have = set(fam.members)
    return not any(
        cand not in have and tester.admits(cand) for cand in enumerate_ksubsets(fam.n, fam.k)
    )


def grow(fam: SetFamily, addable, candidates: Sequence[int]) -> SetFamily:
    """Add, in the given order, each candidate that passes the addability test.

    Starts one tester for the family (`addable(members)`), asks it
    `admits(c)` for each candidate outside the family, and tells it `add(c)`
    for each one that joins, so the tester keeps its state across the whole
    growth.  The r-wise rules keep the levels Min(I_1), ..., Min(I_{r-1}),
    the inclusion-minimal intersections of at most 1, ..., r-1 members;
    `add(c)` updates them from the top level down, level i gaining c and
    c ∩ S for each S in the old level i-1 and dropping every mask that
    contains one of them.  Both shipped rules are hereditary: a k-set
    refused once stays refused as the family grows, so one pass over the
    candidates leaves a maximal family.
    """
    tester = addable(fam.members)
    members = set(fam.members)
    for cand in candidates:
        if cand not in members and tester.admits(cand):
            tester.add(cand)
            members.add(cand)
    return SetFamily(fam.n, fam.k, sorted(members), _trusted=True)


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
    levels = dict.fromkeys(range(2, 5), fam.k)
    if fam.members:
        for t in range(1, fam.k + 1):
            tau[t] = transversal_number(fam, t)
        walk = islice(_intersection_levels(fam.members, 4), 1, None)
        levels = {j: least for j, (least, _) in enumerate(walk, 2)}
    return MeasureProfile(
        rho=rho(fam),
        tau=tau,
        nu=matching_number(fam),
        t_levels=levels,
        initial=is_initial(fam),
        size=len(fam),
    )
