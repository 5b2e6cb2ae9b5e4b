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

The engine keeps each slot's members at fixed positions, with one column per
element: the bit set of the positions whose member holds it
(`core.columns`).  The candidates of a pair (i,j) are then
`cols[j] & ~cols[i]`, one AND, and deg(i) is a popcount.  A candidate stays
put only when its image, which holds i and not j, is a member already, so
the member set is consulted only when some member holds i without j.

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
    [upto] (`core.is_closed`): every pair then fixes every slot, so that pass
    would apply no shift and block no pair, and the resistant list is empty.
    An initial input thus examines no pair at all.

    Each slot is kept as its members by position, a member set, per-element
    column bit sets over the positions and a running weight, sum e*deg(e)
    read off the columns; a step moves only the members that have j, lack i
    and whose image is absent, rewriting them in place, and the property is
    rechecked on deg(i) of the slots whose cap can bind (see the module
    docstring).  An atom other than the five defined here raises `TypeError`,
    and an `upto` that is not an int in [0, n] raises `ValueError`.
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
    if not prop.holds(fams):
        raise ValueError("property does not hold on the input tuple")

    members = [set(f.members) for f in fams]
    cols = [columns(f.members, n) for f in fams]  # element e+1 -> positions holding it
    # per slot: the member at each position, the member set and the columns; a step
    # rewrites the moved positions in place, so positions never move
    slots = [(list(f.members), ms, cs) for f, ms, cs in zip(fams, members, cols)]
    weights = [sum(e * c.bit_count() for e, c in enumerate(cs, 1)) for cs in cols]
    # sizes never change, and no degree exceeds the size: a cap of |F| or more never binds
    capped = [(slot, cap) for slot, (f, cap) in enumerate(zip(fams, caps)) if cap < len(f)]
    trace = ShiftTrace()
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

    out = tuple(SetFamily(f.n, f.k, sorted(ms), _trusted=True) for f, ms in zip(fams, members))
    if not blocked and upto == n:
        # the closure exit, or a last pass that neither applied nor blocked a shift:
        # every pair fixes every slot
        for f in out:
            f._initial = True
    trace.final_weights = tuple(weights)
    trace.resistant_blame = blocked
    return out, trace
