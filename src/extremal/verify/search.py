"""Exact maximum-family search under a property, by branch and bound.

Supports conjunctions of the registry atoms on slot 0; every atom is invariant
under permutations of [n].  A node holds the chosen sets and `left`, the bit
set over `enumerate_ksubsets` indices of the later candidates that may join
them.  Choosing a candidate ANDs `left` with its row in
`harness._cross_rows(n, k, t)`, the k-sets meeting it in t points or more (all
k-sets at t = 0, with no t-intersecting atom); only chosen rows are built.

The degree-ratio cap and non-triviality come from `shifting.degree_cap`, one
nondecreasing cap on the maximum degree with cap(s + a) <= cap(s) + a: a family
is accepted when its maximum degree is within the cap at its size.  A
completion that adds a sets through an element x and b of the r_o(x)
candidates left that avoid x has deg(x) = d_x + a and
cap(size + a + b) <= cap(size + r_o(x)) + a, so it keeps the cap only if
d_x <= cap(size + r_o(x)).  A node whose maximum degree is over the cap at its
size is cut when an element of that degree breaks this.  A common element of
every completion is the case r_o(x) = 0, over the non-trivial cap size - 1.

Symmetry: each node carries its twin cells, the classes of elements that every
chosen set holds both or neither of.  They start as [n] and each chosen set
splits them.  A candidate is skipped unless, in every cell, it holds the lowest
elements of that cell.  A skipped X holds some a and misses some twin b < a;
the swap of a and b fixes every chosen set and maps X to a smaller k-set
(candidates are in ascending numeric order).  So a family whose path skips X
has a relabelling whose sorted member sequence is lexicographically smaller,
and the lex-least relabelling of any family is never skipped.  The optimum is
therefore kept, and so is the witness: the depth-first order visits families
in lex order of their sorted members, so the first optimum found is the
lex-least optimum, which is lex-least among its relabellings too.  At the root
the one cell is [n], so only [k] is kept.

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
from .harness import _cross_rows, _resolve_budget


@dataclass
class SearchResult:
    max_size: int
    witness: SetFamily
    complete: bool
    evaluations: int
    # rule -> how often it cut: a node or the rest of its candidates (bound),
    # a node (degree_cap, nu) or one candidate (twin)
    prunes: dict[str, int]

    def to_json_dict(self) -> dict:
        return {
            "max_size": self.max_size,
            "witness": [list(elems_of(m)) for m in self.witness.members],
            "complete": self.complete,
            "evaluations": self.evaluations,
            "prunes": dict(self.prunes),
        }


class _BudgetSpent(Exception):
    """Unwinds the search when the evaluation budget runs out."""


def _skips_a_twin(cand: int, cells: list[int]) -> bool:
    """True when, in some twin cell, cand holds an element but misses a lower one."""
    for cell in cells:
        held = cand & cell
        if held and cell & ((1 << held.bit_length()) - 1) != held:
            return True
    return False


def search_max(n: int, k: int, prop, budget: int | None = None) -> SearchResult:
    """Exact max |F| over k-graphs on [n] subject to the property, with witness.

    Returns best-found with complete=False if the evaluation budget runs out.
    Raises ValueError for a budget `_resolve_budget` refuses, and when a complete
    search accepts no family and the empty family fails the property too (none satisfies it).
    """
    budget = _resolve_budget(budget)
    t_req = 0
    nu_cap: int | None = None
    for atom in prop.atoms():
        if not isinstance(atom, (TIntersecting, RhoAtMost, MatchingAtMost, NonTrivial)):
            raise ValueError(f"unsupported search atom {type(atom).__name__}")
        if atom.slot != 0:
            raise ValueError(f"search supports slot-0 atoms only, got {atom!r}")
        if isinstance(atom, TIntersecting):
            t_req = max(t_req, atom.t)
        elif isinstance(atom, MatchingAtMost):
            nu_cap = atom.s if nu_cap is None else min(nu_cap, atom.s)
    cap = degree_cap(prop, 0)

    cands = enumerate_ksubsets(n, k)
    rows = _cross_rows(n, k, t_req)
    everyone = rows.everyone
    # avoiders[b]: the candidates without element b + 1
    avoiders = [everyone & ~col for col in rows.cols]

    best_members: list[int] = []
    best_size = 0
    evals = 0
    prunes = dict.fromkeys(("bound", "degree_cap", "nu", "twin"), 0)

    def dfs(chosen: list[int], left: int, degs: list[int], cells: list[int]):
        nonlocal best_members, best_size, evals
        evals += 1
        if evals > budget:
            raise _BudgetSpent
        size = len(chosen)
        maxdeg = max(degs)
        remaining = left.bit_count()
        if size + remaining <= best_size:
            prunes["bound"] += 1
            return
        # a completion keeps deg(x) within the cap only if this holds (module docstring)
        if maxdeg > cap(size):
            for b, d in enumerate(degs):
                if d == maxdeg and d > cap(size + (left & avoiders[b]).bit_count()):
                    prunes["degree_cap"] += 1
                    return
        if nu_cap is not None and chosen:
            # the parent keeps the cap, so only the newest set can break it (module docstring)
            newest = chosen[-1]
            apart = [m for m in chosen[:-1] if not m & newest]
            if len(apart) >= nu_cap and matching_number(
                SetFamily(n, k, apart, _trusted=True)
            ) >= nu_cap:
                prunes["nu"] += 1
                return
        if size > best_size and maxdeg <= cap(size):
            best_size = size
            best_members = list(chosen)
        rest = left
        while rest:
            if size + remaining <= best_size:
                prunes["bound"] += 1
                break
            remaining -= 1
            low = rest & -rest
            rest ^= low
            cand = cands[low.bit_length() - 1]
            # a twin swap maps such a cand to a smaller k-set (module docstring)
            if _skips_a_twin(cand, cells):
                prunes["twin"] += 1
                continue
            new_degs = list(degs)
            for e in elems_of(cand):
                new_degs[e - 1] += 1
            # a singleton cell never skips a candidate, so it is dropped
            new_cells = [
                part for cell in cells for part in (cell & cand, cell & ~cand) if part & (part - 1)
            ]
            chosen.append(cand)
            dfs(chosen, rest & rows[cand], new_degs, new_cells)
            chosen.pop()

    try:
        dfs([], everyone if t_req <= k else 0, [0] * n, [(1 << n) - 1])
        complete = True
    except _BudgetSpent:
        complete = False
    witness = SetFamily(n, k, sorted(best_members), _trusted=True)
    if complete and not best_size and not prop.holds((witness,)):
        raise ValueError(f"no family satisfies the property on (n, k) = ({n}, {k})")
    return SearchResult(best_size, witness, complete=complete, evaluations=evals,
                        prunes=prunes)
