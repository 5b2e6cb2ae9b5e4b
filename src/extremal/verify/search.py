"""Exact maximum-family search under a property, by branch and bound.

Supports single-slot conjunctions of the registry atoms.  Hereditary atoms
(t-intersecting, matching cap) prune directly; the degree-ratio cap prunes
through a dilution bound (the current maximum degree cannot be diluted below
max_deg / (size + remaining)); non-triviality prunes when even adding every
remaining candidate keeps a common element.  Every atom is invariant under
permutations of [n], so the root branches on the first k-set [k] alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..core import SetFamily, elems_of, enumerate_ksubsets
from ..measures import matching_number
from ..shifting import MatchingAtMost, NonTrivial, RhoAtMost, TIntersecting
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


def search_max(n: int, k: int, prop, budget: int | None = None) -> SearchResult:
    """Exact max |F| over k-graphs on [n] subject to the property, with witness.

    Returns best-found with complete=False if the evaluation budget runs out.
    """
    budget = budget if budget is not None else DEFAULT_BUDGET
    t_req = 0
    rho_cap: Fraction | None = None
    nu_cap: int | None = None
    nontrivial = False
    for atom in prop.atoms():
        if isinstance(atom, TIntersecting):
            if atom.slot != 0:
                raise ValueError("search supports slot-0 atoms only")
            t_req = max(t_req, atom.t)
        elif isinstance(atom, RhoAtMost):
            if atom.slot != 0:
                raise ValueError("search supports slot-0 atoms only")
            c = Fraction(atom.c)
            rho_cap = c if rho_cap is None else min(rho_cap, c)
        elif isinstance(atom, MatchingAtMost):
            nu_cap = atom.s if nu_cap is None else min(nu_cap, atom.s)
        elif isinstance(atom, NonTrivial):
            nontrivial = True
        else:
            raise ValueError(f"unsupported search atom {type(atom).__name__}")

    cands = enumerate_ksubsets(n, k)
    if t_req > k:
        cands = []

    best_members: list[int] = []
    best_size = 0
    evals = 0
    aborted = False

    def satisfied(size: int, maxdeg: int, common: int, members: list[int]) -> bool:
        if rho_cap is not None and size and Fraction(maxdeg, size) > rho_cap:
            return False
        if nontrivial and (size == 0 or common != 0):
            return False
        if nu_cap is not None and matching_number(
            SetFamily(n, k, members, _trusted=True)
        ) > nu_cap:
            return False
        return True

    full_mask = (1 << n) - 1

    def dfs(chosen: list[int], cands_left: list[int], degs: list[int], maxdeg: int, common: int):
        nonlocal best_members, best_size, evals, aborted
        if aborted:
            return
        evals += 1
        if evals > budget:
            aborted = True
            return
        size = len(chosen)
        if size > best_size and satisfied(size, maxdeg, common, chosen):
            best_size = size
            best_members = list(chosen)
        if size + len(cands_left) <= best_size:
            return
        if rho_cap is not None and maxdeg * rho_cap.denominator > rho_cap.numerator * (
            size + len(cands_left)
        ):
            return
        if nu_cap is not None and chosen and matching_number(
            SetFamily(n, k, chosen, _trusted=True)
        ) > nu_cap:
            return
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

    dfs([], list(cands), [0] * n, 0, full_mask)
    witness = SetFamily(n, k, sorted(best_members), _trusted=True)
    return SearchResult(best_size, witness, complete=not aborted, evaluations=evals)
