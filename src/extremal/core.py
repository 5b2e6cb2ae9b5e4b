"""Bitmask k-sets and uniform set families on a ground set [n], n <= 63.

A k-set is a plain int whose bit i-1 encodes element i (elements are 1-based
externally, bit positions 0-based internally).  A SetFamily is an immutable,
canonically sorted collection of such masks with a declared ground-set size n
and uniformity k.  All operations are pure functions.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from math import comb
from typing import Iterable, Iterator

MAX_GROUND = 63


class CapacityError(ValueError):
    """Raised when a ground set would not fit in one 63-bit machine word."""


def mask_of(elements: Iterable[int]) -> int:
    """Pack 1-based elements into a bitmask. Rejects duplicates and out-of-range."""
    m = 0
    for e in elements:
        e = int(e)
        if not 1 <= e <= MAX_GROUND:
            raise CapacityError(f"element {e} outside [1, {MAX_GROUND}]")
        b = 1 << (e - 1)
        if m & b:
            raise ValueError(f"duplicate element {e}")
        m |= b
    return m


def elems_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into its ascending 1-based elements."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def as_mask(obj) -> int:
    """Coerce an int mask or an iterable of elements to a mask."""
    if isinstance(obj, int):
        if obj < 0:
            raise ValueError("negative mask")
        return obj
    return mask_of(obj)


def prefix_mask(m: int) -> int:
    """Mask of the initial segment [m] = {1, ..., m} (m <= 0 gives the empty set)."""
    if m <= 0:
        return 0
    if m > MAX_GROUND:
        raise CapacityError(f"prefix [{m}] exceeds {MAX_GROUND} elements")
    return (1 << m) - 1


class SetFamily:
    """Uniform family of k-subsets of [n].

    Members are stored as a duplicate-free tuple of masks in ascending numeric
    order (the canonical order).  Instances are immutable after construction
    and safe to share across threads.
    """

    __slots__ = ("n", "k", "members")

    def __init__(self, n: int, k: int, members: Iterable[int] = (), *, _trusted: bool = False):
        n = int(n)
        k = int(k)
        if n > MAX_GROUND:
            raise CapacityError(f"ground set size {n} exceeds {MAX_GROUND}")
        if n < 2:
            raise ValueError(f"ground set size must be at least 2, got {n}")
        if not 0 <= k <= n:
            raise ValueError(f"uniformity k={k} outside [0, n={n}]")
        if _trusted:
            ms = tuple(members)
        else:
            ms = tuple(sorted({int(m) for m in members}))
            full = (1 << n) - 1
            for m in ms:
                if m & ~full:
                    raise ValueError(f"member {elems_of(m)} has elements beyond [n]={n}")
                if m.bit_count() != k:
                    raise ValueError(f"member {elems_of(m)} is not a {k}-set")
        self.n = n
        self.k = k
        self.members = ms

    @classmethod
    def from_sets(cls, n: int, k: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        return cls(n, k, (mask_of(s) for s in sets))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        i = bisect_left(self.members, mask)
        return i < len(self.members) and self.members[i] == mask

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetFamily)
            and self.n == other.n
            and self.k == other.k
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.members))

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, elems_of(m))) + "}" for m in self.members[:8])
        more = ", ..." if len(self.members) > 8 else ""
        return f"SetFamily(n={self.n}, k={self.k}, [{inner}{more}], size={len(self.members)})"

    def sets(self) -> list[tuple[int, ...]]:
        """Members as ascending element tuples."""
        return [elems_of(m) for m in self.members]


def family_union(a: SetFamily, b: SetFamily) -> SetFamily:
    if (a.n, a.k) != (b.n, b.k):
        raise ValueError("union requires identical (n, k)")
    return SetFamily(a.n, a.k, set(a.members) | set(b.members))


@cache
def enumerate_ksubsets(n: int, k: int) -> tuple[int, ...]:
    """All k-subsets of [n] as masks in ascending numeric (canonical) order.

    Built once per (n, k) on first use and shared afterwards, hence a tuple.
    """
    if n > MAX_GROUND:
        raise CapacityError(f"ground set size {n} exceeds {MAX_GROUND}")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside [0, n={n}]")
    if k == 0:
        return (0,)
    # Gosper's hack walks fixed-popcount masks in increasing numeric order.
    out = []
    v = (1 << k) - 1
    limit = 1 << n
    while v < limit:
        out.append(v)
        u = v & -v
        w = v + u
        v = w | (((v ^ w) >> 2) // u)
    return tuple(out)


def full_family(n: int, k: int) -> SetFamily:
    return SetFamily(n, k, enumerate_ksubsets(n, k), _trusted=True)


def link(fam: SetFamily, e) -> SetFamily:
    """Members containing E, with E removed; uniformity drops by |E|."""
    em = as_mask(e)
    t = em.bit_count()
    if t > fam.k:
        return SetFamily(fam.n, 0, ())
    return SetFamily(fam.n, fam.k - t, (m & ~em for m in fam.members if m & em == em))


def avoid(fam: SetFamily, e) -> SetFamily:
    """Members disjoint from E; uniformity unchanged."""
    em = as_mask(e)
    return SetFamily(fam.n, fam.k, (m for m in fam.members if not m & em), _trusted=True)


def trace(fam: SetFamily, e0, e) -> SetFamily:
    """Members whose intersection with E is exactly E0, with E removed.

    Agrees with link when E0 = E and with avoid when E0 is empty.
    """
    e0m = as_mask(e0)
    em = as_mask(e)
    if e0m & ~em:
        raise ValueError("E0 must be a subset of E")
    t = e0m.bit_count()
    if t > fam.k:
        return SetFamily(fam.n, 0, ())
    return SetFamily(fam.n, fam.k - t, (m & ~em for m in fam.members if m & em == e0m))


def meet(fam: SetFamily, p) -> SetFamily:
    """Members having nonempty intersection with P; uniformity unchanged."""
    pm = as_mask(p)
    return SetFamily(fam.n, fam.k, (m for m in fam.members if m & pm), _trusted=True)


def _unit_predecessors(mask: int) -> Iterator[int]:
    # Covers of the shifting order are single-element decrements y -> y-1;
    # closure under covers equals downward closure.
    m = mask
    while m:
        low = m & -m
        m ^= low
        if low > 1 and not mask & (low >> 1):
            yield (mask ^ low) | (low >> 1)


def is_initial(fam: SetFamily, upto: int | None = None) -> bool:
    """True iff the family is downward closed under the shifting order on [upto].

    Equivalently, every (i,j)-shift with j <= upto (default n) fixes the
    family: the pairs that `shift_ad_extremis(..., upto=upto)` runs over.
    """
    if upto is None:
        upto = fam.n
    elif upto > fam.n:
        raise ValueError(f"upto={upto} exceeds n={fam.n}")
    # a unit predecessor replaces some y by y-1; it counts only when y <= upto
    limit = 1 << max(upto, 0)
    have = set(fam.members)
    for mem in fam.members:
        for pred in _unit_predecessors(mem):
            if pred not in have and mem ^ pred < limit:
                return False
    return True


# ---------------------------------------------------------------------------
# Family text format: first line "n k", then one member per line as
# comma-separated ascending elements.  Blank lines and '#' comments ignored.
# ---------------------------------------------------------------------------


def dumps_family(fam: SetFamily) -> str:
    lines = [f"{fam.n} {fam.k}"]
    lines.extend(",".join(map(str, elems_of(m))) for m in fam.members)
    return "\n".join(lines) + "\n"


def loads_family(text: str) -> SetFamily:
    header = None
    members = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"bad header line {raw!r}, expected 'n k'")
            header = (int(parts[0]), int(parts[1]))
            continue
        elems = [int(tok) for tok in line.split(",") if tok.strip()]
        members.append(mask_of(elems))
    if header is None:
        raise ValueError("missing 'n k' header line")
    return SetFamily(header[0], header[1], members)


def write_family(fam: SetFamily, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(dumps_family(fam))


def read_family(path) -> SetFamily:
    with open(path, "r", encoding="utf-8") as fp:
        return loads_family(fp.read())


def comb0(n: int, k: int) -> int:
    """Binomial coefficient that is 0 outside the defined range instead of raising."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)
