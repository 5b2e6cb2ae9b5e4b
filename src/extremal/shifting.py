"""Compression shifts, guarded-property fixpoints, and shift-resistant pairs.

The (i,j)-shift replaces j by i in every member where the replacement is not
already present.  A tuple of families is shifted "ad extremis" with respect
to a property when no simultaneous (i,j)-shift both changes some slot and
preserves the property.

Every (i,j)-shift keeps t-intersection, cross t-intersection and matching
number at most s (Frankl, "The shifting technique in extremal set theory",
1987), so `shift_ad_extremis` never rechecks `TIntersecting`,
`CrossTIntersecting` or `MatchingAtMost`.  A shift raises deg(i), lowers
deg(j) by the same amount and leaves every other degree alone, so
`RhoAtMost` and `NonTrivial` (no element of degree |F|, i.e. an empty common
mask) are rechecked on deg(i) alone, against the cap that `degree_cap` reads
off both; the exact search shares that cap.  Those five atoms are the only
ones the engine accepts.

The engine keeps each slot in one of two states, chosen by n alone.  Up to
n = `MASK_SET_MAX_N` a slot is one bit set over all 2^n masks, bit m set iff m
is a member.  The candidates of a pair (i,j) are then one AND with the row of
masks holding j and not i, their images lie the fixed distance
2^(j-1) - 2^(i-1) lower, so the candidates whose image is absent take two
shifts and an AND more, and a step is one XOR; deg(i) is the popcount of an
AND with the masks holding i.  No member is visited, but every operation
costs time in proportion to 2^n.  Above, a slot keeps its members at fixed
positions, with one column per element: the bit set of the positions whose
member holds it (`core.columns`).  The candidates are `cols[j] & ~cols[i]`
and deg(i) is a popcount; a candidate stays put only when its image is a
member already, so the member set is consulted, one candidate at a time,
only when some member holds i without j.  Its costs grow with the members,
not with 2^n, which is why it serves the larger n.

The pair rows (`_pairs`) are built once per `upto` and shared.  Sizes never
change and no degree exceeds |F|, so only the slots whose cap is below |F|
are rechecked: `ALWAYS`, the shift-kept atoms and rho <= c with c >= 1
never bind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Sequence

from .core import SetFamily, columns, is_closed
from .measures import (
    degree_vector,
    is_cross_t_intersecting,
    is_nontrivial,
    is_t_intersecting,
    matching_number,
    rho,
)

STEP_CAP = 10**6  # verbatim trace entries; beyond this only counts are kept


def shift(fam: SetFamily, i: int, j: int) -> SetFamily:
    """The (i,j)-compression, i < j.  Always preserves the family size."""
    if not 1 <= i < j <= fam.n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={fam.n}")
    bi = 1 << (i - 1)
    bj = 1 << (j - 1)
    present = set(fam.members)
    out = []
    for m in fam.members:
        if m & bj and not m & bi:
            moved = (m ^ bj) | bi
            out.append(m if moved in present else moved)
        else:
            out.append(m)
    return SetFamily(fam.n, fam.k, sorted(set(out)), _trusted=True)


def weight(fam: SetFamily) -> int:
    """Sum of all elements over all members, sum e*deg(e); strictly drops on effective shifts."""
    return sum(e * d for e, d in enumerate(degree_vector(fam), 1))


@cache
def _pairs(n: int) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """Per pair i < j <= n, in lexicographic order: (i, j, i-1, j-1, mask of {i, j}, j-i).

    Built once per n and shared, so read-only.
    """
    return tuple(
        (i, j, i - 1, j - 1, 1 << (i - 1) | 1 << (j - 1), j - i)
        for i in range(1, n)
        for j in range(i + 1, n + 1)
    )


# ---------------------------------------------------------------------------
# PropertySpec: a tree of atoms over a tuple of family slots.
# ---------------------------------------------------------------------------


class PropertyAtom:
    def holds(self, families: Sequence[SetFamily]) -> bool:
        raise NotImplementedError

    def atoms(self):
        yield self


@dataclass(frozen=True)
class TIntersecting(PropertyAtom):
    slot: int
    t: int

    def holds(self, families):
        return is_t_intersecting(families[self.slot], self.t)


@dataclass(frozen=True)
class CrossTIntersecting(PropertyAtom):
    slot_a: int
    slot_b: int
    t: int

    def holds(self, families):
        return is_cross_t_intersecting(families[self.slot_a], families[self.slot_b], self.t)


@dataclass(frozen=True)
class RhoAtMost(PropertyAtom):
    slot: int
    c: Fraction

    def holds(self, families):
        return rho(families[self.slot]) <= self.c


@dataclass(frozen=True)
class MatchingAtMost(PropertyAtom):
    slot: int
    s: int

    def holds(self, families):
        return matching_number(families[self.slot]) <= self.s


@dataclass(frozen=True)
class NonTrivial(PropertyAtom):
    slot: int

    def holds(self, families):
        return is_nontrivial(families[self.slot])


@dataclass(frozen=True)
class And(PropertyAtom):
    children: tuple[PropertyAtom, ...] = ()

    def holds(self, families):
        return all(c.holds(families) for c in self.children)

    def atoms(self):
        for c in self.children:
            yield from c.atoms()


ALWAYS = And(())


@dataclass
class ShiftTrace:
    """Log of one ad-extremis run: applied pairs with pre-shift weights."""

    steps: list = field(default_factory=list)  # [( (i,j), (w_before per slot) ), ...]
    steps_truncated: int = 0
    final_weights: tuple = ()
    resistant_blame: dict = field(default_factory=dict)  # (i,j) -> (moved per slot)

    @property
    def resistant_pairs(self) -> list:
        """The blocked pairs [(i,j), ...], in the order `resistant_blame` holds them."""
        return list(self.resistant_blame)

    def to_json_dict(self) -> dict:
        return {
            "steps": [{"pair": list(p), "weights": list(w)} for p, w in self.steps],
            "steps_truncated": self.steps_truncated,
            "final_weights": list(self.final_weights),
            "resistant": [list(p) for p in self.resistant_pairs],
            "blame": {f"{i},{j}": list(map(bool, b)) for (i, j), b in self.resistant_blame.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def degree_cap(prop, slot: int) -> Callable[[int], int]:
    """The largest maximum degree a family in `slot` may have and keep `prop`, given |F|.

    `RhoAtMost(c)` allows floor(c*|F|); `NonTrivial` allows |F| - 1, as an
    element of degree |F| is a common element (and the empty family, whose
    cap is -1, is trivial).  The shift-kept atoms allow |F|, no limit at all.
    Every cap is nondecreasing with cap(s + a) <= cap(s) + a, which
    `search_max`'s degree rule relies on.  An atom of any other type raises
    `TypeError`.
    """
    c = None
    drop = 0
    for atom in prop.atoms():
        if isinstance(atom, RhoAtMost):
            if atom.slot == slot:
                c = Fraction(atom.c) if c is None else min(c, Fraction(atom.c))
        elif isinstance(atom, NonTrivial):
            if atom.slot == slot:
                drop = 1
        elif not isinstance(atom, (TIntersecting, CrossTIntersecting, MatchingAtMost)):
            raise TypeError(f"shift_ad_extremis has no shift rule for {type(atom).__name__}")
    if c is None:
        return lambda size: size - drop
    if c < 0:
        return lambda size: -1  # rho is never negative, not even on the empty family
    num, den = c.numerator, c.denominator
    return lambda size: min(size - drop, num * size // den)


# The largest n whose slots the engine keeps as one bit set over all 2^n masks.
# An operation on such a set takes time in proportion to 2^n, whatever the
# family's size; 13 is the largest n at which it beat the member positions on
# every shape measured (BENCH_pr31.json `crossover`).
MASK_SET_MAX_N = 13


def shift_ad_extremis(
    families: Sequence[SetFamily], prop, upto: int | None = None
) -> tuple[tuple[SetFamily, ...], ShiftTrace]:
    """Apply simultaneous shifts while they preserve the property, to a fixpoint.

    Repeated full passes over pairs (i,j) with j <= upto (default n) in
    lexicographic order, re-attempting previously blocked pairs each pass;
    termination is guaranteed because total weight strictly decreases on every
    applied step.  The output satisfies the property, and every such pair either
    fixes all slots or would break the property.  The pairs blocked in the final
    pass, which applies no shift, are the trace's resistant pairs.  With none
    and `upto` = n, the outputs are initial and marked so (`SetFamily._initial`).

    The loop also ends, before a pass, when the last pass blocked no pair (or
    none has run yet) and every slot is closed under unit predecessors on
    [upto]: every pair then fixes every slot, so that pass would apply no shift
    and block no pair, and the resistant list is empty.  An initial input thus
    examines no pair at all.

    A step moves only the members that have j, lack i and whose image is
    absent, and the property is rechecked on deg(i) of the slots whose cap can
    bind (see the module docstring).  Up to n = `MASK_SET_MAX_N` each slot is
    one bit set over all 2^n masks, so a pair costs a few operations on it
    whatever the slot's size; above, each slot keeps its members at fixed
    positions with one column bit set over the positions per element, whose
    cost grows with the members instead of 2^n.  Both give the same outputs
    and trace.  An atom other than the five defined here raises `TypeError`;
    an atom naming a slot outside the tuple, or an `upto` that is not an int
    in [0, n], raises `ValueError`.
    """
    fams = tuple(families)
    if not fams:
        raise ValueError("need at least one family slot")
    n = fams[0].n
    if any(f.n != n for f in fams):
        raise ValueError("all slots must share the ground set")
    if upto is None:
        upto = n
    elif type(upto) is not int or not 0 <= upto <= n:
        raise ValueError(f"upto must be an int in [0, n={n}], got {upto!r}")
    caps = [degree_cap(prop, slot)(len(f)) for slot, f in enumerate(fams)]
    for atom in prop.atoms():
        named = (atom.slot_a, atom.slot_b) if isinstance(atom, CrossTIntersecting) else (atom.slot,)
        for s in named:
            if not 0 <= s < len(fams):
                raise ValueError(f"{atom!r} names a slot outside the {len(fams)} slot(s) given")
    if not prop.holds(fams):
        raise ValueError("property does not hold on the input tuple")

    # sizes never change, and no degree exceeds the size: a cap of |F| or more never binds
    capped = [(slot, cap) for slot, (f, cap) in enumerate(zip(fams, caps)) if cap < len(f)]
    trace = ShiftTrace()
    engine = _by_mask_sets if n <= MASK_SET_MAX_N else _by_positions
    members, weights, blocked = engine(fams, upto, capped, trace)
    out = tuple(SetFamily(f.n, f.k, ms, _trusted=True) for f, ms in zip(fams, members))
    if not blocked and upto == n:
        # the closure exit, or a last pass that neither applied nor blocked a shift:
        # every pair fixes every slot
        for f in out:
            f._initial = True
    trace.final_weights = tuple(weights)
    trace.resistant_blame = blocked
    return out, trace


def _by_positions(fams, upto, capped, trace):
    """The engine on member positions; returns (sorted members, weights, blocked) per slot."""
    n = fams[0].n
    members = [set(f.members) for f in fams]
    cols = [columns(f.members, n) for f in fams]  # element e+1 -> positions holding it
    # per slot: the member at each position, the member set and the columns; a step
    # rewrites the moved positions in place, so positions never move
    slots = [(list(f.members), ms, cs) for f, ms, cs in zip(fams, members, cols)]
    weights = [sum(e * c.bit_count() for e, c in enumerate(cs, 1)) for cs in cols]
    steps = trace.steps
    changed = True
    blocked = {}  # (i,j) -> moved per slot, for the last pass
    while changed:
        # with no pair blocked last pass, closed slots leave the next pass nothing to try
        if not blocked and all(is_closed(ms, upto) for ms in members):
            break
        changed = False
        blocked = {}
        for i, j, i1, j1, both, gap in _pairs(upto):
            moved = []
            some = 0
            for vs, ms, cs in slots:
                ci, cj = cs[i1], cs[j1]
                mv = cj & ~ci
                if mv and ci & ~cj:
                    # some member holds i without j, so an image may be present already
                    rest = mv
                    while rest:
                        p = rest.bit_length() - 1
                        rest ^= 1 << p
                        if vs[p] ^ both in ms:
                            mv ^= 1 << p
                moved.append(mv)
                some |= mv
            if not some:
                continue
            # every degree is within its cap already; only deg(i) rises
            for slot, cap in capped:
                if (cols[slot][i1] | moved[slot]).bit_count() > cap:
                    blocked[(i, j)] = tuple(map(bool, moved))
                    break
            else:
                if len(steps) < STEP_CAP:
                    steps.append(((i, j), tuple(weights)))
                else:
                    trace.steps_truncated += 1
                for slot, (vs, ms, cs) in enumerate(slots):
                    mv = moved[slot]
                    if mv:
                        cs[i1] |= mv
                        cs[j1] ^= mv
                        weights[slot] -= gap * mv.bit_count()
                        while mv:
                            p = mv.bit_length() - 1
                            mv ^= 1 << p
                            ms.remove(vs[p])
                            vs[p] ^= both
                            ms.add(vs[p])
                changed = True
    return [sorted(ms) for ms in members], weights, blocked


@cache
def _mask_rows(n: int) -> tuple[list[int], list[list[tuple[int, int] | None]]]:
    """Bit sets over all 2^n masks: per element e + 1, the masks holding it; and per
    i1 < j1, (the masks holding j1 + 1 and not i1 + 1, the distance 2^j1 - 2^i1 from
    each of them down to its image).

    Built once per n and shared, so read-only.
    """
    holders = []
    for e in range(n):
        # period 2^(e+1): the low half of the masks lack e + 1, the high half hold it
        h, width = ((1 << (1 << e)) - 1) << (1 << e), 2 << e
        while width < 1 << n:
            h |= h << width
            width <<= 1
        holders.append(h)
    rows = [
        [(holders[j1] & ~holders[i1], (1 << j1) - (1 << i1)) if i1 < j1 else None
         for j1 in range(n)]
        for i1 in range(n)
    ]
    return holders, rows


def _mask_set(members: Sequence[int], n: int) -> int:
    """The bit set over all 2^n masks whose bit m is set iff m is a member."""
    buf = bytearray(((1 << n) + 7) >> 3)
    for m in members:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


def _masks_of(mask_set: int) -> list[int]:
    """The members of a bit set over masks, ascending."""
    bits = bin(mask_set)[:1:-1]  # bit m at index m
    out = []
    m = bits.find("1")
    while m >= 0:
        out.append(m)
        m = bits.find("1", m + 1)
    return out


def _mask_sets_closed(sets: list[int], units: list[tuple[int, int]]) -> bool:
    """Whether each bit set holds every unit predecessor of its masks, given the
    `_mask_rows` entries of the unit pairs (y - 1, y)."""
    for b in sets:
        for row, d in units:
            if (b & row) >> d & ~b:
                return False
    return True


def _by_mask_sets(fams, upto, capped, trace):
    """The engine on one bit set over all 2^n masks per slot; returns as `_by_positions`.

    A pair's candidates are `mask_set & row`, and their images lie the row's
    distance d lower, so the candidates whose image is absent are
    `src ^ ((src >> d) & mask_set) << d`; a step flips them and their images.
    """
    holders, rows = _mask_rows(fams[0].n)
    sets = [_mask_set(f.members, f.n) for f in fams]
    weights = [sum(e * (b & h).bit_count() for e, h in enumerate(holders, 1)) for b in sets]
    units = [rows[i1][i1 + 1] for i1 in range(upto - 1)]
    steps = trace.steps
    changed = True
    blocked = {}  # (i,j) -> moved per slot, for the last pass
    while changed:
        # with no pair blocked last pass, closed slots leave the next pass nothing to try
        if not blocked and _mask_sets_closed(sets, units):
            break
        changed = False
        blocked = {}
        for i, j, i1, j1, both, gap in _pairs(upto):
            row, d = rows[i1][j1]
            moved = []
            some = 0
            for b in sets:
                mv = b & row
                if mv:
                    mv ^= (mv >> d & b) << d
                    some |= mv
                moved.append(mv)
            if not some:
                continue
            # every degree is within its cap already; only deg(i) rises
            for slot, cap in capped:
                if (sets[slot] & holders[i1]).bit_count() + moved[slot].bit_count() > cap:
                    blocked[(i, j)] = tuple(map(bool, moved))
                    break
            else:
                if len(steps) < STEP_CAP:
                    steps.append(((i, j), tuple(weights)))
                else:
                    trace.steps_truncated += 1
                for slot, mv in enumerate(moved):
                    if mv:
                        sets[slot] ^= mv | mv >> d
                        weights[slot] -= gap * mv.bit_count()
                changed = True
    return [_masks_of(b) for b in sets], weights, blocked
