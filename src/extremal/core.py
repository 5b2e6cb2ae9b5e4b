"""Bitmask k-sets and uniform set families on a ground set [n].

A k-set is a plain int whose bit i-1 encodes element i (elements are 1-based
externally, bit positions 0-based internally).  Python ints have no word
size, so n is not capped.  A SetFamily is an immutable, canonically sorted
collection of such masks with a declared ground-set size n and uniformity k.
All operations are pure functions.  The three cached fields, a family's
answer to `is_initial` on all of [n], its `measures.rho` and its hash, are
derived from its members and idempotent, so caching them cannot change any
result.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from math import comb
from typing import AbstractSet, Iterable, Iterator, Sequence

def mask_of(elements: Iterable[int]) -> int:
    """Pack 1-based elements into a bitmask. Rejects duplicates and elements below 1."""
    m = 0
    for e in elements:
        e = int(e)
        if e < 1:
            raise ValueError(f"element {e} is below 1")
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
    return (1 << m) - 1


class SetFamily:
    """Uniform family of k-subsets of [n].

    Members are stored as a duplicate-free tuple of masks in ascending numeric
    order (the canonical order).  Instances are immutable after construction
    and safe to share across threads.  `_initial` caches `is_initial(self)`,
    `_rho` caches `measures.rho(self)` and `_hash` caches `hash(self)`: each is
    derived from the members, computed on first use (or set by a builder that
    knows it) and never changes.
    """

    __slots__ = ("n", "k", "members", "_initial", "_rho", "_hash")

    def __init__(self, n: int, k: int, members: Iterable[int] = (), *, _trusted: bool = False):
        n = int(n)
        k = int(k)
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
        self._initial = None
        self._rho = None
        self._hash = None

    @classmethod
    def from_sets(cls, n: int, k: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        """The family of the given element sets; an element above n is refused before packing."""
        masks = []
        for elems in sets:
            elems = [int(e) for e in elems]
            if elems and max(elems) > int(n):
                raise ValueError(f"set {tuple(elems)} has an element above n={n}")
            masks.append(mask_of(elems))
        return cls(n, k, masks)

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
        if self._hash is None:
            self._hash = hash((self.n, self.k, self.members))
        return self._hash

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
    return trace(fam, e, e)


def avoid(fam: SetFamily, e) -> SetFamily:
    """Members disjoint from E; uniformity unchanged."""
    return trace(fam, (), e)


def trace(fam: SetFamily, e0, e) -> SetFamily:
    """Members whose intersection with E is exactly E0, with E removed.

    `link` is the case E0 = E and `avoid` the case E0 = {}.
    """
    e0m = as_mask(e0)
    em = as_mask(e)
    if e0m & ~em:
        raise ValueError("E0 must be a subset of E")
    t = e0m.bit_count()
    if t > fam.k:
        return SetFamily(fam.n, 0, ())
    # members that agree on E stay distinct and in order once it is removed.  A list, not a
    # generator: tuple() resizes a tuple grown from a generator, which leaves CPython's
    # per-size tuple free lists filling up (about 0.3 MB over the suite's identity checks)
    return SetFamily(
        fam.n, fam.k - t, [m & ~em for m in fam.members if m & em == e0m], _trusted=True
    )


def meet(fam: SetFamily, p) -> SetFamily:
    """Members having nonempty intersection with P; uniformity unchanged."""
    pm = as_mask(p)
    return SetFamily(fam.n, fam.k, [m for m in fam.members if m & pm], _trusted=True)


def columns(masks: Sequence[int], n: int) -> list[int]:
    """Per-element bit sets over positions: bit p of entry e - 1 is set iff `masks[p]` holds e.

    The transpose of `masks` for e in [n]; each mask is walked once.  The bits
    are set in blocks of 1,024 positions, and each block's column is shifted in
    once, so no bit is set in an ever longer int.
    """
    cols = [0] * n
    for start in range(0, len(masks), 1024):
        block = [0] * n
        for p, m in enumerate(masks[start:start + 1024]):
            bit = 1 << p
            while m:
                low = m & -m
                block[low.bit_length() - 1] |= bit
                m ^= low
        cols = [c | b << start for c, b in zip(cols, block)] if start else block
    return cols


def _predecessors(members: Iterable[int], upto: int) -> Iterator[int]:
    """The unit predecessors of each mask in `members`, in order.

    A unit predecessor replaces an element y in [2, upto] by y-1 when y-1 is
    absent, that is `mask - (low >> 1)` for each bit `low` of
    `mask & ~(mask << 1)` on [2, upto].  These are the covers of the shifting
    order, so closure under them is downward closure.
    """
    movable = ((1 << max(upto, 0)) - 1) & ~1
    for mask in members:
        steps = mask & ~(mask << 1) & movable
        while steps:
            low = steps & -steps
            yield mask - (low >> 1)
            steps ^= low


def is_closed(members: AbstractSet[int], upto: int) -> bool:
    """True iff `members` holds every unit predecessor on [upto] of each of its masks.

    That is downward closure under the shifting order on [upto], so every
    (i,j)-shift with j <= upto fixes the members.  Stops at the first
    missing predecessor.
    """
    return members.issuperset(_predecessors(members, upto))


def is_initial(fam: SetFamily, upto: int | None = None) -> bool:
    """True iff the family is downward closed under the shifting order on [upto].

    Equivalently, every (i,j)-shift with j <= upto (default n) fixes the
    family: the pairs that `shift_ad_extremis(..., upto=upto)` runs over.
    The answer on all of [n] is cached on the family.
    """
    if upto is None or upto == fam.n:
        if fam._initial is None:
            fam._initial = is_closed(set(fam.members), fam.n)
        return fam._initial
    if upto > fam.n:
        raise ValueError(f"upto={upto} exceeds n={fam.n}")
    return is_closed(set(fam.members), upto)


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
    sets = []
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
        sets.append([int(tok) for tok in line.split(",") if tok.strip()])
    if header is None:
        raise ValueError("missing 'n k' header line")
    return SetFamily.from_sets(header[0], header[1], sets)


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
