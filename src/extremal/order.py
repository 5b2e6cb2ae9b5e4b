"""Lexicographic segments, shadows, and the shadow-size bounds.

The lexicographic order puts A before B when the smallest element of the
symmetric difference lies in A, e.g. {1,2,9} before {1,3,4}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import comb

from .core import SetFamily, as_mask, elems_of, enumerate_ksubsets, mask_of
from .measures import is_cross_t_intersecting


def lex_masks(ground_elems: tuple[int, ...], k: int, m: int) -> list[int]:
    """First m k-subsets of the given ground elements in lex order, as masks."""
    s = len(ground_elems)
    if k < 0 or k > s:
        raise ValueError(f"k={k} outside [0, |X|={s}]")
    if not 0 <= m <= comb(s, k):
        raise ValueError(f"m={m} outside [0, C({s},{k})]")
    return [mask_of(c) for c in islice(combinations(ground_elems, k), m)]


def lex_segment(x, k: int, m: int, *, n: int | None = None) -> SetFamily:
    """The first m k-subsets of the ground set X in lexicographic order, as a family on [n]."""
    ground = elems_of(as_mask(x))
    if n is None:
        n = max(2, ground[-1] if ground else 2)
    elif ground and ground[-1] > n:
        raise ValueError(f"ground element {ground[-1]} is above n={n}")
    masks = lex_masks(ground, k, m)
    return SetFamily(n, k, sorted(masks), _trusted=True)


def shadow(fam: SetFamily, l: int = 1) -> SetFamily:
    """All (k-l)-sets contained in some member; the 0-th shadow is the family."""
    if not 0 <= l <= fam.k:
        raise ValueError(f"shadow depth l={l} outside [0, k={fam.k}]")
    if l == 0:
        return fam
    out = set()
    for m in fam.members:
        for drop in combinations(elems_of(m), l):
            d = m
            for e in drop:
                d ^= 1 << (e - 1)
            out.add(d)
    return SetFamily(fam.n, fam.k - l, sorted(out), _trusted=True)


def kk_min_shadow(n: int, k: int, m: int, l: int) -> int:
    """Minimum l-th shadow size over families of m k-sets.

    Attained by the first m sets in colex order (= ascending mask order),
    materialized directly rather than through the cascade formula.
    """
    if not 0 <= m <= comb(n, k):
        raise ValueError(f"m={m} outside [0, C({n},{k})]")
    seg = SetFamily(n, k, enumerate_ksubsets(n, k)[:m], _trusted=True)
    return len(shadow(seg, l))


@lru_cache(maxsize=4096)
def lex_cross_intersecting(n: int, a: int, b: int, ma: int, mb: int) -> bool:
    """Whether the first ma a-sets and the first mb b-sets of [n] in lex order cross-intersect."""
    ground = tuple(range(1, n + 1))
    la = lex_masks(ground, a, ma)
    lb = lex_masks(ground, b, mb)
    for x in la:
        for y in lb:
            if not x & y:
                return False
    return True


# kept while bench/tracing.py traces it by name
def hilton_transfer(a_fam: SetFamily, b_fam: SetFamily) -> bool:
    """Whether the lex segments of the two sizes are cross-intersecting.

    Input pair must itself be cross-intersecting with n >= a+b; the transfer
    conclusion is evaluated, not assumed, so a violation would surface.
    """
    if a_fam.n != b_fam.n:
        raise ValueError("ground sets differ")
    n = a_fam.n
    if n < a_fam.k + b_fam.k:
        raise ValueError(f"need n >= a+b, got n={n}, a={a_fam.k}, b={b_fam.k}")
    if not is_cross_t_intersecting(a_fam, b_fam, 1):
        raise ValueError("input families are not cross-intersecting")
    return lex_cross_intersecting(n, a_fam.k, b_fam.k, len(a_fam), len(b_fam))


def katona_shadow_ratio(k: int, t: int, l: int) -> Fraction:
    """Exact lower-bound factor |shadow^l| / |family| for t-intersecting families."""
    if not (1 <= l <= t <= k):
        raise ValueError(f"need 1 <= l <= t <= k, got k={k}, t={t}, l={l}")
    return Fraction(comb(2 * k - t, k - l), comb(2 * k - t, k))


def katona_sides(fam: SetFamily, t: int, l: int) -> tuple[int, int]:
    """Both sides of the Katona bound |shadow^l F| * C(2k-t, k) >= |F| * C(2k-t, k-l)."""
    k = fam.k
    return len(shadow(fam, l)) * comb(2 * k - t, k), len(fam) * comb(2 * k - t, k - l)


def katona_bound_holds(fam: SetFamily, t: int, l: int) -> bool:
    """|shadow^l F| * C(2k-t, k) >= |F| * C(2k-t, k-l), compared exactly."""
    k = fam.k
    if not (1 <= l <= t <= k):
        raise ValueError(f"need 1 <= l <= t <= k, got k={k}, t={t}, l={l}")
    lhs, rhs = katona_sides(fam, t, l)
    return lhs >= rhs


def improved_shadow_applicable(fam: SetFamily, t: int, l: int) -> tuple[bool, Fraction]:
    """Size-threshold test and the improved shadow ratio for t-intersecting families.

    Threshold |F| >= C(2k-t, k) * (1 + (t+l)/(k+t+1-l)), compared as exact
    rationals.  The improved ratio is the Katona ratio with k-1 in place of k.
    Returns (threshold holds, improved ratio).
    """
    k = fam.k
    if not (1 <= l < t < k):
        raise ValueError(f"need 1 <= l < t < k, got k={k}, t={t}, l={l}")
    threshold = comb(2 * k - t, k) * (1 + Fraction(t + l, k + t + 1 - l))
    return (len(fam) >= threshold, katona_shadow_ratio(k - 1, t, l))
