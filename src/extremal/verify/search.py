"""Exact maximum-family search under a property, by branch and bound.

Supports conjunctions of the registry atoms on slot 0.  The degree-ratio cap
and non-triviality come from `shifting.degree_cap`, one cap on the maximum
degree that grows with |F|: a family is accepted when its maximum degree is
within the cap at its size, and a branch is pruned when that degree exceeds
the cap even at size + remaining.  Hereditary atoms (t-intersecting, matching
cap) prune directly; non-triviality also prunes when even adding every
remaining candidate keeps a common element.  Every atom is invariant under
permutations of [n], so the root branches on the first k-set [k] alone.

The matching cap is checked through the newest set only.  A node's parent
already has matching number at most the cap s, and a maximum matching of the
node either avoids the newest set or holds it together with a matching of the
earlier sets disjoint from it.  So the node breaks the cap exactly when those
disjoint sets have matching number at least s, and `matching_number` runs on
them alone, and only when there are at least s of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import SetFamily, elems_of, enumerate_ksubsets
from ..measures import matching_number
from ..shifting import MatchingAtMost, NonTrivial, RhoAtMost, TIntersecting, degree_cap
from .harness import DEFAULT_BUDGET


@dataclass
class SearchResult:
    max_size: int
    witness: SetFamily
    complete: bool
    evaluations: int

    def to_json_dict(self) -> dict:
        return {
            "max_size": self.max_size,
            "witness": [list(elems_of(m)) for m in self.witness.members],
            "complete": self.complete,
            "evaluations": self.evaluations,
        }


class _BudgetSpent(Exception):
    """Unwinds the search when the evaluation budget runs out."""


def search_max(n: int, k: int, prop, budget: int | None = None) -> SearchResult:
    """Exact max |F| over k-graphs on [n] subject to the property, with witness.

    Returns best-found with complete=False if the evaluation budget runs out.
    """
    budget = budget if budget is not None else DEFAULT_BUDGET
    t_req = 0
    nu_cap: int | None = None
    nontrivial = False
    for atom in prop.atoms():
        if not isinstance(atom, (TIntersecting, RhoAtMost, MatchingAtMost, NonTrivial)):
            raise ValueError(f"unsupported search atom {type(atom).__name__}")
        if atom.slot != 0:
            raise ValueError(f"search supports slot-0 atoms only, got {atom!r}")
        if isinstance(atom, TIntersecting):
            t_req = max(t_req, atom.t)
        elif isinstance(atom, MatchingAtMost):
            nu_cap = atom.s if nu_cap is None else min(nu_cap, atom.s)
        elif isinstance(atom, NonTrivial):
            nontrivial = True
    cap = degree_cap(prop, 0)

    cands = enumerate_ksubsets(n, k)
    if t_req > k:
        cands = []

    best_members: list[int] = []
    best_size = 0
    evals = 0

    def dfs(chosen: list[int], cands_left: list[int], degs: list[int], maxdeg: int, common: int):
        nonlocal best_members, best_size, evals
        evals += 1
        if evals > budget:
            raise _BudgetSpent
        size = len(chosen)
        # the cap grows with |F|, so a degree over it at size + remaining is over it below
        if size + len(cands_left) <= best_size or maxdeg > cap(size + len(cands_left)):
            return
        if nu_cap is not None and chosen:
            # the parent keeps the cap, so only the newest set can break it (module docstring)
            newest = chosen[-1]
            apart = [m for m in chosen[:-1] if not m & newest]
            if len(apart) >= nu_cap and matching_number(
                SetFamily(n, k, apart, _trusted=True)
            ) >= nu_cap:
                return
        if size > best_size and maxdeg <= cap(size):
            best_size = size
            best_members = list(chosen)
        if nontrivial:
            reach = common
            for c in cands_left:
                reach &= c
                if not reach:
                    break
            if reach:
                return
        for idx, cand in enumerate(cands_left):
            if size + len(cands_left) - idx <= best_size:
                break
            # some optimum contains cands[0] = [k], up to a permutation of [n]
            if not chosen and idx:
                break
            new_cands = (
                [c for c in cands_left[idx + 1 :] if (c & cand).bit_count() >= t_req]
                if t_req
                else cands_left[idx + 1 :]
            )
            new_degs = list(degs)
            mm = cand
            new_max = maxdeg
            while mm:
                low = mm & -mm
                b = low.bit_length() - 1
                new_degs[b] += 1
                if new_degs[b] > new_max:
                    new_max = new_degs[b]
                mm ^= low
            chosen.append(cand)
            dfs(chosen, new_cands, new_degs, new_max, common & cand)
            chosen.pop()

    try:
        dfs([], list(cands), [0] * n, 0, (1 << n) - 1)
        complete = True
    except _BudgetSpent:
        complete = False
    witness = SetFamily(n, k, sorted(best_members), _trusted=True)
    return SearchResult(best_size, witness, complete=complete, evaluations=evals)
