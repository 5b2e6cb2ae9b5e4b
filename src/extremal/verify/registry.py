"""Statement registry: hypothesis/conclusion checkers evaluated exactly on instances.

Every entry is a proved statement; a FAIL verdict on any instance therefore
means an implementation bug, and the report carries a witness that can be
re-checked in isolation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable

from ..core import (
    SetFamily,
    as_mask,
    avoid,
    comb0,
    elems_of,
    family_union,
    is_initial,
    link,
    mask_of,
    meet,
    prefix_mask,
    trace,
)
from ..constructions import brace_daykin_size, g_value, triangle_size
from ..measures import (
    addable_r_wise,
    addable_t_intersecting,
    degree,
    is_cross_t_intersecting,
    is_nontrivial,
    is_nontrivial_masks,
    is_pseudo_t_intersecting,
    is_r_wise_t_intersecting,
    is_r_wise_t_intersecting_masks,
    is_saturated,
    is_t_intersecting,
    matching_number,
    max_pair_degree,
    rho,
    t_level,
    transversal_number,
)
from ..order import (
    improved_shadow_applicable,
    katona_bound_holds,
    katona_sides,
    kk_min_shadow,
    lex_cross_intersecting,
    shadow,
)


# the params that the registry reads as integers
_INT_PARAMS = frozenset(("t", "l", "l1", "l2", "s", "d", "r", "x", "y"))


def _parse_param(key: str, value):
    # type(...) is int, so that JSON true/false are no ints here
    if key in _INT_PARAMS and type(value) is not int:
        raise ValueError(f"parameter {key!r} must be an int, got {param_repr(value)!r}")
    if type(value) is int or isinstance(value, Fraction):
        return value
    if isinstance(value, list) and all(type(v) is int for v in value):
        return value
    if isinstance(value, str) and value.count("/") == 1:
        try:
            return Fraction(*map(int, value.split("/")))
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"parameter {key!r} must be an int, p/q or a list of ints, got {value!r}")


def parse_params(raw) -> dict:
    """Statement params from report form: ints, "p/q" strings as Fractions, and int lists."""
    if not isinstance(raw, dict):
        raise ValueError(f"params must be an object, got {raw!r}")
    return {key: _parse_param(key, value) for key, value in raw.items()}


def param_repr(value):
    """A Fraction as its "p/q" string; any other value unchanged."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


@dataclass
class Instance:
    """One test instance: a tuple of families plus named integer/rational params."""

    families: tuple[SetFamily, ...] = ()
    params: dict = field(default_factory=dict)
    # Set by the pair spaces, which list only pairs that are cross t-intersecting for
    # t up to this; 0 means unknown.  It takes no part in equality or witnesses.
    cross_t: int = field(default=0, compare=False)

    # kept while bench/tracing.py traces it by name
    def descriptor(self) -> str:
        fams = "; ".join(f"F{i}(n={f.n},k={f.k},m={len(f)})" for i, f in enumerate(self.families))
        ps = ",".join(f"{k}={v}" for k, v in sorted(self.params.items(), key=lambda kv: kv[0]))
        return f"[{fams}]{{{ps}}}"

    def to_witness(self, sid: str) -> dict:
        return {
            "id": sid,
            "families": [
                {"n": f.n, "k": f.k, "members": [list(elems_of(m)) for m in f.members]}
                for f in self.families
            ],
            "params": {k: param_repr(v) for k, v in self.params.items()},
        }


def instance_from_witness(witness: dict) -> Instance:
    fams = tuple(
        SetFamily.from_sets(f["n"], f["k"], f["members"]) for f in witness["families"]
    )
    return Instance(fams, parse_params(witness["params"]))


@dataclass(frozen=True)
class Statement:
    id: str
    kind: str  # family | pair | slices | numeric
    hypothesis: Callable[[Instance], bool]
    conclusion: Callable[[Instance], bool]
    description: str
    extras: Callable[[Instance], dict] | None = None
    default_space: str | None = None  # None: its kind's first space in harness._KINDS


@dataclass
class StatementReport:
    id: str
    verdict: str  # pass | vacuous | FAIL
    elapsed: float
    witness: dict | None = None
    extras: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# Identity and numeric checks (unconditional)
# --------------------------------------------------------------------------


def check_identity_2_3(fam: SetFamily, e) -> bool:
    """Degree sum over E equals the weighted trace decomposition, both exact."""
    em = as_mask(e)
    lhs = 0
    mm = em
    while mm:
        low = mm & -mm
        lhs += degree(fam, low.bit_length())
        mm ^= low
    rhs = 0
    sub = em
    while sub:
        j = sub.bit_count()
        rhs += j * len(trace(fam, sub, em))
        sub = (sub - 1) & em
    return lhs == rhs


def check_identity_3_2(fam: SetFamily, x: int, y: int) -> bool:
    """Both pair-degree decompositions agree with the degree sum."""
    p = mask_of((x, y))
    bx = 1 << (x - 1)
    by = 1 << (y - 1)
    d = degree(fam, x) + degree(fam, y)
    a = len(trace(fam, bx, p)) + len(trace(fam, by, p)) + 2 * len(link(fam, p))
    b = len(link(fam, p)) + len(fam) - len(avoid(fam, p))
    return d == a == b


def check_fact_3_13(a, big_a, b, big_b) -> bool:
    """(a+b)/(A+B) >= min(a/A, b/B) for positive rationals with a<=A, b<=B."""
    a, big_a, b, big_b = (Fraction(v) for v in (a, big_a, b, big_b))
    if not (0 < a <= big_a and 0 < b <= big_b):
        raise ValueError("need 0 < a <= A and 0 < b <= B")
    return Fraction(a + b, big_a + big_b) >= min(Fraction(a, big_a), Fraction(b, big_b))


def binom_n_minus_i(n: int, k: int, i: int) -> bool | None:
    """C(n-i, k) * n >= (n-ik) * C(n, k) for n > ik and n, k, i >= 1; None outside that range."""
    if not (n > i * k and n >= 1 and k >= 1 and i >= 1):
        return None
    return comb0(n - i, k) * n >= (n - i * k) * comb(n, k)


def binom_half(n: int, k: int, t: int) -> bool | None:
    """2 * C(n-t-2, k-t-2) >= C(n-3, k-t-2) for k > t >= 2 and n >= 2(t-1)(k-t); None outside."""
    if not (k > t >= 2 and n >= 2 * (t - 1) * (k - t)):
        return None
    return 2 * comb0(n - t - 2, k - t - 2) >= comb0(n - 3, k - t - 2)


# --------------------------------------------------------------------------
# helpers shared by the checkers
# --------------------------------------------------------------------------


def _pair_sizes_ok(inst: Instance) -> bool:
    return len(inst.families) == 2 and inst.families[0].n == inst.families[1].n


def _cross(inst: Instance, t: int = 1) -> bool:
    return t <= inst.cross_t or is_cross_t_intersecting(inst.families[0], inst.families[1], t)


def _initial_cross(inst: Instance, t: int = 1) -> bool:
    """Both families initial and cross t-intersecting."""
    return is_initial(inst.families[0]) and is_initial(inst.families[1]) and _cross(inst, t)


def _min_rho(inst: Instance) -> Fraction:
    return min(rho(inst.families[0]), rho(inst.families[1]))


def _max_rho(inst: Instance) -> Fraction:
    return max(rho(inst.families[0]), rho(inst.families[1]))


def _slices_members(inst: Instance) -> list[int]:
    out = []
    for f in inst.families:
        out.extend(f.members)
    return out


# --------------------------------------------------------------------------
# the registry
# --------------------------------------------------------------------------

REGISTRY: dict[str, Statement] = {}


def _register(sid, kind, hypothesis, conclusion, description, extras=None, default_space=None):
    REGISTRY[sid] = Statement(sid, kind, hypothesis, conclusion, description, extras, default_space)


def _f(inst: Instance) -> SetFamily:
    return inst.families[0]


def _g(inst: Instance) -> SetFamily:
    return inst.families[1]


_register(
    "EKR_1_1",
    "family",
    lambda i: i.params["t"] >= 1
    and _f(i).n >= (_f(i).k - i.params["t"] + 1) * (i.params["t"] + 1)
    and is_t_intersecting(_f(i), i.params["t"]),
    lambda i: len(_f(i)) <= comb0(_f(i).n - i.params["t"], _f(i).k - i.params["t"]),
    "size bound for t-intersecting families past the exact threshold",
)

_register(
    "PROP_1_2",
    "family",
    lambda i: i.params["s"] >= 1
    and i.params["t"] >= 1
    and is_initial(_f(i))
    and is_t_intersecting(_f(i), i.params["t"]),
    lambda i: is_t_intersecting(
        avoid(_f(i), prefix_mask(i.params["s"])), i.params["t"] + i.params["s"]
    ),
    "members avoiding an initial segment intersect more deeply",
)

_register(
    "PROP_1_3",
    "family",
    lambda i: 1 <= i.params["t"] <= _f(i).k
    and len(_f(i)) > 0
    and is_t_intersecting(_f(i), i.params["t"]),
    lambda i: rho(_f(i)) >= Fraction(i.params["t"], transversal_number(_f(i), i.params["t"])),
    "max degree ratio at least t over the t-transversal number",
)

_register(
    "THM_1_5",
    "family",
    lambda i: _f(i).k > i.params["d"] >= 2
    and _f(i).n >= 4 * (i.params["d"] - 1) * i.params["d"] * _f(i).k
    and is_t_intersecting(_f(i), 1)
    and len(_f(i))
    > 2 ** i.params["d"]
    * i.params["d"] ** (2 * i.params["d"] + 1)
    * comb0(_f(i).n - i.params["d"] - 1, _f(i).k - i.params["d"] - 1),
    lambda i: rho(_f(i)) > Fraction(1, i.params["d"]),
    "large intersecting families have degree ratio above 1/d",
)


def _hyp_big_cross(i: Instance) -> bool:
    f, g = i.families
    bound = 2 * comb0(f.n - 2, f.k - 2) + 4 * comb0(f.n - 3, f.k - 3)
    return (
        f.k == g.k
        and f.n >= 39 * f.k
        and len(f) >= bound
        and len(g) >= bound
        and _cross(i)
    )


_register(
    "THM_1_6",
    "pair",
    _hyp_big_cross,
    lambda i: _min_rho(i)
    > Fraction(1, 2) + Fraction(_f(i).k - 2, 2 * (_f(i).n - 2)),
    "both large cross-intersecting families exceed the half threshold",
)

_register(
    "LEM_3_3",
    "pair",
    _hyp_big_cross,
    lambda i: _max_rho(i) > Fraction(1, 2),
    "one of two large cross-intersecting families exceeds one half",
)

_register(
    "THM_1_9",
    "pair",
    lambda i: _f(i).k == _g(i).k
    and _f(i).n >= 39 * _f(i).k
    and min(len(_f(i)), len(_g(i))) >= triangle_size(_f(i).n, _f(i).k)
    and _cross(i),
    lambda i: _min_rho(i)
    > Fraction(2, 3) * (1 - Fraction(_f(i).k - 2, _f(i).n - 2)),
    "triangle-size cross-intersecting families exceed the two-thirds threshold",
)

_register(
    "THM_1_10",
    "pair",
    lambda i: 0 < i.params["eps"] <= Fraction(1, 58)
    and _f(i).k == _g(i).k
    and min(len(_f(i)), len(_g(i))) * i.params["eps"] >= comb0(_f(i).n - 3, _f(i).k - 3)
    and _cross(i),
    lambda i: _max_rho(i) > Fraction(1, 2) - i.params["eps"],
    "medium-size cross-intersecting families: one degree ratio near one half",
)

_register(
    "THM_1_11",
    "family",
    lambda i: i.params["t"] >= 2
    and _f(i).k > i.params["t"]
    and _f(i).n >= 2 * i.params["t"] * (i.params["t"] + 2) * _f(i).k
    and len(_f(i)) > (i.params["t"] + 1) * comb0(_f(i).n - 1, _f(i).k - i.params["t"] - 1)
    and is_t_intersecting(_f(i), i.params["t"]),
    lambda i: rho(_f(i)) > Fraction(i.params["t"], i.params["t"] + 1),
    "large t-intersecting families have degree ratio above t/(t+1)",
)

_register(
    "WALK_1_5",
    "family",
    lambda i: 0 <= i.params["t"] < _f(i).k
    and is_initial(_f(i))
    and is_pseudo_t_intersecting(_f(i), i.params["t"]),
    lambda i: len(_f(i)) <= comb0(_f(i).n, _f(i).k - i.params["t"]),
    "initial pseudo t-intersecting families obey the walk bound",
    default_space="initial",
)

_register(
    "DICHOTOMY",
    "pair",
    lambda i: 1 <= i.params["t"] <= min(_f(i).k, _g(i).k)
    and _initial_cross(i, i.params["t"]),
    lambda i: (
        is_pseudo_t_intersecting(_f(i), i.params["t"])
        and is_pseudo_t_intersecting(_g(i), i.params["t"])
    )
    or is_pseudo_t_intersecting(_f(i), i.params["t"] + 1)
    or is_pseudo_t_intersecting(_g(i), i.params["t"] + 1),
    "cross t-intersecting pairs are pseudo t, or one is pseudo t+1",
)


def _cor_sizes(i: Instance) -> tuple[SetFamily, SetFamily]:
    f, g = i.families
    return (f, g) if len(f) <= len(g) else (g, f)


_register(
    "COR_1_6_1_7",
    "pair",
    lambda i: _f(i).k == _g(i).k
    and 1 <= i.params["t"] <= _f(i).k
    and _cross(i, i.params["t"]),
    lambda i: (
        len(_cor_sizes(i)[1]) <= comb0(_f(i).n, _f(i).k - i.params["t"])
        or len(_cor_sizes(i)[0]) <= comb0(_f(i).n, _f(i).k - i.params["t"] - 1)
    ),
    "cross t-intersecting: the larger is walk-bounded or the smaller drops a level",
)

_register(
    "LEM_FW_1",
    "pair",
    lambda i: _f(i).k == _g(i).k
    and _cross(i)
    and len(link(_f(i), mask_of((i.params["x"], i.params["y"]))))
    >= comb0(_f(i).n - 3, _f(i).k - 3)
    + comb0(_f(i).n - 4, _f(i).k - 3)
    + comb0(_f(i).n - 6, _f(i).k - 4),
    lambda i: len(avoid(_g(i), mask_of((i.params["x"], i.params["y"]))))
    <= comb0(_f(i).n - 5, _f(i).k - 3) + comb0(_f(i).n - 6, _f(i).k - 3),
    "heavy pair degree in one family caps the avoiding part of the other",
)

_register(
    "LEM_FW_2",
    "pair",
    lambda i: _f(i).k == _g(i).k
    and _cross(i)
    and len(link(_f(i), mask_of((i.params["x"], i.params["y"]))))
    >= comb0(_f(i).n - 3, _f(i).k - 3)
    + comb0(_f(i).n - 4, _f(i).k - 3)
    + comb0(_f(i).n - 5, _f(i).k - 3)
    + comb0(_f(i).n - 7, _f(i).k - 4),
    lambda i: len(avoid(_g(i), mask_of((i.params["x"], i.params["y"]))))
    <= comb0(_f(i).n - 6, _f(i).k - 4) + comb0(_f(i).n - 7, _f(i).k - 4),
    "heavier pair degree caps the avoiding part two levels down",
)


def _lem_3_5_m(i: Instance) -> int:
    f = _f(i)
    if "M" in i.params:
        return i.params["M"]
    return max(max_pair_degree(f), 2 * comb0(f.n - 5, f.k - 3))


def _lem_3_5_hyp(i: Instance) -> bool:
    if not is_t_intersecting(_f(i), 1):
        return False
    if mask_of(i.params["R"]) & mask_of(i.params["Q"]):
        return False
    return max_pair_degree(_f(i)) <= _lem_3_5_m(i)


def _lem_3_5_concl(i: Instance) -> bool:
    f = _f(i)
    both = set(meet(f, mask_of(i.params["R"])).members) & set(
        meet(f, mask_of(i.params["Q"])).members
    )
    return len(both) <= 3 * _lem_3_5_m(i) + comb0(f.n - 7, f.k - 5) + comb0(f.n - 8, f.k - 5)


_register(
    "LEM_3_5",
    "family",
    _lem_3_5_hyp,
    _lem_3_5_concl,
    "members meeting two disjoint pairs are capped by the pair-degree maximum",
)

_register(
    "SUM_1_15",
    "pair",
    lambda i: _f(i).k == _g(i).k
    and _f(i).n >= 2 * _f(i).k
    and len(_f(i)) > 0
    and len(_g(i)) > 0
    and min(len(_f(i)), len(_g(i))) >= comb0(_f(i).n - 2, _f(i).k - 2)
    and _cross(i),
    lambda i: len(_f(i)) + len(_g(i)) <= 2 * comb0(_f(i).n - 1, _f(i).k - 1),
    "nonempty cross-intersecting pair: total at most twice the star",
)

_register(
    "FACT_3_1",
    "pair",
    lambda i: _initial_cross(i),
    lambda i: is_cross_t_intersecting(avoid(_f(i), 1), avoid(_g(i), 1), 2),
    "initial cross-intersecting pairs: parts avoiding 1 are cross 2-intersecting",
    default_space="initial-pairs",
)

_register(
    "PROP_3_2",
    "pair",
    lambda i: _f(i).k == _g(i).k >= 2
    and len(_f(i)) > 0
    and len(_g(i)) > 0
    and _initial_cross(i),
    lambda i: _max_rho(i) >= Fraction(_f(i).k, 2 * _f(i).k - 2)
    or _min_rho(i) >= Fraction(_f(i).k, 2 * _f(i).k - 1),
    "initial cross-intersecting pairs satisfy the two-threshold dichotomy",
    default_space="initial-pairs",
)

_register(
    "PROP_3_4",
    "pair",
    lambda i: _f(i).k == _g(i).k
    and 2 * _f(i).n >= 7 * _f(i).k
    and min(len(_f(i)), len(_g(i))) >= triangle_size(_f(i).n, _f(i).k)
    and _initial_cross(i),
    lambda i: _min_rho(i) > Fraction(2, 3),
    "initial triangle-size cross-intersecting pairs: both above two thirds",
    default_space="initial-pairs",
)

_register(
    "TOKUSHIGE",
    "pair",
    lambda i: _f(i).k == _g(i).k >= i.params["t"] >= 1
    and 2 * (_f(i).n - _f(i).k) ** i.params["t"] > _f(i).n ** i.params["t"]
    and _cross(i, i.params["t"]),
    lambda i: len(_f(i)) * len(_g(i))
    <= comb0(_f(i).n - i.params["t"], _f(i).k - i.params["t"]) ** 2,
    "cross t-intersecting product bound below the diluted ratio",
)


def _top_window(n: int) -> int:
    """The last eight elements [n-7, n]."""
    return mask_of(range(n - 7, n + 1))


def _lem37_prefix(i: Instance) -> bool:
    """The hypothesis shared by LEM_3_7 and LEM_3_8, up to its last conjunct."""
    f, g = i.families
    return (
        f.n >= 10
        and f.k == g.k
        and _cross(i)
        and is_initial(f, f.n - 8)
        and is_initial(g, f.n - 8)
    )


def _lem37_top_traces(f: SetFamily) -> SetFamily:
    window = _top_window(f.n)
    return family_union(trace(f, 1 << (f.n - 2), window), trace(f, 1 << (f.n - 1), window))


_register(
    "LEM_3_7",
    "pair",
    lambda i: _lem37_prefix(i)
    and len(avoid(_lem37_top_traces(_f(i)), mask_of((1, 2))))
    > comb0(_f(i).n - 10, _f(i).k - 3),
    lambda i: len(avoid(_g(i), mask_of((_f(i).n - 1, _f(i).n))))
    < len(link(_g(i), mask_of((1, 2)))) + 6 * comb0(_f(i).n - 3, _f(i).k - 3),
    "prefix-initial cross pairs: top-pair weight in one caps avoidance in the other",
)

_register(
    "LEM_3_8",
    "pair",
    lambda i: _lem37_prefix(i)
    and len(avoid(trace(_f(i), 1 << (_f(i).n - 1), _top_window(_f(i).n)), mask_of((1, 2))))
    > comb0(_f(i).n - 10, _f(i).k - 3),
    lambda i: len(trace(_g(i), 1 << (_g(i).n - 2), _top_window(_g(i).n)))
    < comb0(_f(i).n - 3, _f(i).k - 3),
    "prefix-initial cross pairs: the opposite top-singleton trace is small",
)

_register(
    "G_THEOREM",
    "pair",
    lambda i: _f(i).k == _g(i).k
    and _f(i).n >= 2 * _f(i).k
    and is_nontrivial(_f(i))
    and is_nontrivial(_g(i))
    and _initial_cross(i),
    lambda i: len(_f(i)) + len(_g(i)) <= g_value(_f(i).n, _f(i).k),
    "nontrivial initial cross-intersecting pairs: total at most g(n,k)",
    default_space="initial-pairs",
)


@lru_cache(maxsize=1)
def _prefix_rows(fam: SetFamily) -> tuple[int, list[tuple[int, ...]]]:
    """Bit-sliced prefix counters over the members of `fam`.

    Row q - 1 holds, for c = 0..k, the members with at least c points in [q];
    the first value returned is all members.
    """
    everyone = (1 << len(fam)) - 1
    at_least = [everyone] + [0] * fam.k
    rows = []
    for q in range(1, fam.n + 1):
        column = sum(1 << j for j, m in enumerate(fam.members) if m >> (q - 1) & 1)
        for c in range(min(q, fam.k), 0, -1):
            at_least[c] |= at_least[c - 1] & column
        rows.append(tuple(at_least))
    return everyone, rows


def _prop_3_13_concl(i: Instance) -> bool:
    """Each a in F and b in G overfill some prefix: |a ∩ [q]| + |b ∩ [q]| >= q + 1.

    The condition is symmetric in F and G.  The counters are built over F, which
    the pair spaces hold fixed over consecutive pairs, so `_prefix_rows` keeps
    the last family's.  The members of F that overfill [q] with b are
    `rows[q - 1][q + 1 - |b ∩ [q]|]`, so each b in G costs n lookups.
    """
    f, g = i.families
    everyone, rows = _prefix_rows(f)
    for b in g.members:
        met = points = 0
        for q, row in enumerate(rows, start=1):
            points += b >> (q - 1) & 1
            # points <= q, so at least one point of a is needed
            if q + 1 - points <= f.k:
                met |= row[q + 1 - points]
                if met == everyone:
                    break
        if met != everyone:
            return False
    return True


_register(
    "PROP_3_13",
    "pair",
    lambda i: len(_f(i)) > 0
    and len(_g(i)) > 0
    and _initial_cross(i),
    _prop_3_13_concl,
    "initial cross-intersecting members overfill some prefix",
    default_space="initial-pairs",
)

_register(
    "PROP_3_14",
    "pair",
    lambda i: _f(i).k == _g(i).k
    and min(len(_f(i)), len(_g(i))) > comb0(_f(i).n, _f(i).k - 3)
    and _initial_cross(i),
    lambda i: rho(_f(i)) >= Fraction(1, 2) and rho(_g(i)) >= Fraction(1, 2),
    "large initial cross-intersecting pairs: both at least one half",
    default_space="initial-pairs",
)

_register(
    "PROP_3_15",
    "pair",
    lambda i: len(_f(i)) > 0
    and len(_g(i)) > 0
    and _initial_cross(i),
    lambda i: rho(_f(i)) + rho(_g(i)) >= 1,
    "nonempty initial cross-intersecting pairs: degree ratios sum to at least 1",
    default_space="initial-pairs",
)

_register(
    "PROP_4_1",
    "family",
    lambda i: 1 <= i.params["t"] <= _f(i).k
    and _f(i).n >= 2 * _f(i).k
    and len(_f(i)) > 0
    and is_t_intersecting(_f(i), i.params["t"])
    and transversal_number(_f(i), i.params["t"]) <= i.params["t"] + 1
    and is_saturated(_f(i), addable_t_intersecting(i.params["t"])),
    lambda i: rho(_f(i)) > Fraction(i.params["t"] + 1, i.params["t"] + 2),
    "saturated t-intersecting families with small transversal: high degree ratio",
)


def _prop_4_3_concl(i: Instance) -> bool:
    f = _f(i)
    t, s = i.params["t"], i.params["s"]
    n, k = f.n, f.k
    eq42 = len(f) < comb0(s - 1, t) * comb0(n - s - 1, k - t) + 2**s * comb0(
        n - t - 1, k - t - 1
    )
    if not eq42:
        return False
    if n >= s * (k - t):
        coeff = (
            Fraction(2, s - 1) * comb0(s, t - 1)
            + comb0(s - 1, t - 1)
            + 2 * comb0(s, t + 1)
        )
        return len(f) < comb0(s - 1, t) * comb0(n - s, k - t) + coeff * comb0(
            n - s, k - t - 1
        )
    return True


_register(
    "PROP_4_3",
    "pair",
    lambda i: i.params["s"] > i.params["t"] >= 2
    and _f(i).k > i.params["s"]
    and _g(i).k > i.params["s"]
    and len(_g(i)) > comb0(_g(i).n, _g(i).k - i.params["s"])
    and _cross(i, i.params["t"]),
    _prop_4_3_concl,
    "huge partner forces both size bounds on a cross t-intersecting family",
)


def _cor_4_4_concl(i: Instance) -> bool:
    f = _f(i)
    t = i.params["t"]
    n, k = f.n, f.k
    cap = (t + 1) * comb0(n - t - 2, k - t - 2) + Fraction(
        5 * t * t + 19 * t + 24, 6
    ) * comb0(n - t - 3, k - t - 3)
    return max_pair_degree(f) <= cap


_register(
    "COR_4_4",
    "family",
    lambda i: i.params["t"] >= 2
    and _f(i).k > i.params["t"] + 2
    and _f(i).n >= (i.params["t"] + 2) * (_f(i).k - i.params["t"])
    and len(_f(i)) > (i.params["t"] + 1) * comb0(_f(i).n - 1, _f(i).k - i.params["t"] - 1)
    and rho(_f(i)) < Fraction(i.params["t"], i.params["t"] + 1)
    and is_t_intersecting(_f(i), i.params["t"]),
    _cor_4_4_concl,
    "low degree ratio caps every pair degree in a large t-intersecting family",
)

_register(
    "LEM_4_6",
    "family",
    lambda i: i.params["t"] >= 2
    and _f(i).k > i.params["t"]
    and _f(i).n >= 2 * (i.params["t"] + 1) * (_f(i).k - i.params["t"])
    and len(_f(i)) > 0
    and len(_f(i))
    >= 2
    * i.params["t"]
    * (i.params["t"] + 1)
    * (i.params["t"] + 2)
    * comb0(_f(i).n - i.params["t"] - 4, _f(i).k - i.params["t"] - 2)
    and is_initial(_f(i))
    and is_t_intersecting(_f(i), i.params["t"]),
    lambda i: rho(_f(i)) > Fraction(i.params["t"], i.params["t"] + 1),
    "large initial t-intersecting families: degree ratio above t/(t+1)",
    default_space="initial",
)

_register(
    "BD_5_1",
    "slices",
    lambda i: i.params["r"] >= 3
    and is_r_wise_t_intersecting_masks(_slices_members(i), i.params["r"], 1)
    and is_nontrivial_masks(_slices_members(i), i.families[0].n if i.families else 2),
    lambda i: len(_slices_members(i)) <= brace_daykin_size(i.families[0].n, i.params["r"]),
    "nontrivial r-wise intersecting families obey the Brace-Daykin cap",
)

_register(
    "RWISE_5_2",
    "family",
    lambda i: i.params["r"] >= 2
    and _f(i).n >= 2 * _f(i).k
    and is_r_wise_t_intersecting(_f(i), i.params["r"], 1),
    lambda i: len(_f(i)) <= comb0(_f(i).n - 1, _f(i).k - 1),
    "r-wise intersecting uniform families are star-bounded",
)


def _lem_5_2_concl(i: Instance) -> bool:
    f = _f(i)
    r, t = i.params["r"], i.params["t"]
    lvl = t_level(f, 2)
    if lvl < t + r - 2:
        return False
    if lvl == t + r - 2:
        return transversal_number(f, t + r - 3) == t + r - 2
    return True


_register(
    "LEM_5_2",
    "family",
    lambda i: i.params["r"] >= 3
    and i.params["t"] >= 1
    and is_nontrivial(_f(i))
    and is_r_wise_t_intersecting(_f(i), i.params["r"], i.params["t"]),
    _lem_5_2_concl,
    "nontrivial r-wise t-intersecting: pairwise level t+r-2, equality pins the transversal",
)

_register(
    "PROP_5_3",
    "family",
    lambda i: i.params["r"] >= 3
    and (i.params["r"] - 1) * _f(i).n >= i.params["r"] * _f(i).k
    and i.params["r"] - 1 <= _f(i).k
    and len(_f(i)) > 0
    and is_nontrivial(_f(i))
    and is_r_wise_t_intersecting(_f(i), i.params["r"], 1)
    and transversal_number(_f(i), i.params["r"] - 1) <= i.params["r"]
    and is_saturated(_f(i), addable_r_wise(i.params["r"])),
    lambda i: rho(_f(i)) > Fraction(i.params["r"], i.params["r"] + 1),
    "saturated nontrivial r-wise intersecting with small transversal: high ratio",
)

# ---- additional registry entries driving the remaining harness checks ----

_register(
    "HILTON",
    "pair",
    lambda i: _f(i).n >= _f(i).k + _g(i).k
    and _cross(i),
    lambda i: lex_cross_intersecting(_f(i).n, _f(i).k, _g(i).k, len(_f(i)), len(_g(i))),
    "lex segments of cross-intersecting sizes stay cross-intersecting",
)


def _katona_extras(i: Instance) -> dict:
    f = _f(i)
    t, l = i.params["t"], i.params["l"]
    lhs, rhs = katona_sides(f, t, l)
    if lhs != rhs:
        return {}
    out = {"equality": 1}
    union = 0
    for m in f.members:
        union |= m
    if len(f) == comb(2 * f.k - t, f.k) and union.bit_count() == 2 * f.k - t:
        out["equality_isomorph"] = 1
    return out


_register(
    "KATONA",
    "family",
    lambda i: len(_f(i)) > 0
    and 1 <= i.params["l"] <= i.params["t"] <= _f(i).k
    and _f(i).n >= 2 * _f(i).k - i.params["t"]
    and is_t_intersecting(_f(i), i.params["t"]),
    lambda i: katona_bound_holds(_f(i), i.params["t"], i.params["l"]),
    "t-intersecting shadow bound",
    extras=_katona_extras,
)

_register(
    "KATONA_PSEUDO",
    "family",
    lambda i: len(_f(i)) > 0
    and 1 <= i.params["l"] <= i.params["t"] <= _f(i).k
    and _f(i).n >= 2 * _f(i).k - i.params["t"]
    and is_pseudo_t_intersecting(_f(i), i.params["t"]),
    lambda i: katona_bound_holds(_f(i), i.params["t"], i.params["l"]),
    "the shadow bound holds for pseudo t-intersecting families too",
)

_register(
    "CROSS_SHADOW",
    "pair",
    lambda i: len(_f(i)) > 0
    and len(_g(i)) > 0
    and 1 <= i.params["l1"] < _f(i).k
    and 1 <= i.params["l2"] < _g(i).k
    and 1 <= i.params["t"] <= min(_f(i).k, _g(i).k)
    and _cross(i, i.params["t"]),
    lambda i: any(
        lhs >= rhs
        for lhs, rhs in map(
            katona_sides, i.families, (i.params["t"],) * 2, (i.params["l1"], i.params["l2"])
        )
    ),
    "for cross t-intersecting pairs one shadow inequality holds",
)

_register(
    "FK_IMPROVED",
    "family",
    lambda i: 1 <= i.params["l"] < i.params["t"] < _f(i).k
    and is_t_intersecting(_f(i), i.params["t"])
    and improved_shadow_applicable(_f(i), i.params["t"], i.params["l"])[0],
    lambda i: len(shadow(_f(i), i.params["l"]))
    >= len(_f(i)) * improved_shadow_applicable(_f(i), i.params["t"], i.params["l"])[1],
    "above the size threshold the improved shadow ratio holds",
)

_register(
    "KRUSKAL_KATONA",
    "family",
    lambda i: 0 <= i.params.get("l", 1) <= _f(i).k,
    lambda i: len(shadow(_f(i), i.params.get("l", 1)))
    >= kk_min_shadow(_f(i).n, _f(i).k, len(_f(i)), i.params.get("l", 1)),
    "every family's shadow is at least the lex segment's",
)

_register(
    "EQ_2_1",
    "family",
    lambda i: is_initial(_f(i)),
    lambda i: set(shadow(avoid(_f(i), 1), 1).members) <= set(link(_f(i), 1).members),
    "for initial families the shadow of the avoiding part sits inside the link",
    default_space="initial",
)

_register(
    "MATCHING_COR",
    "family",
    lambda i: len(_f(i)) > 0 and is_initial(_f(i)),
    lambda i: rho(_f(i)) >= Fraction(1, matching_number(_f(i)) + 1),
    "initial families: degree ratio at least 1/(matching number + 1)",
    default_space="initial",
)

_register(
    "IDENTITY_2_3",
    "family",
    lambda i: True,
    lambda i: check_identity_2_3(_f(i), i.params["E"]),
    "degree sum over E equals the weighted trace decomposition",
)

_register(
    "IDENTITY_3_2",
    "family",
    lambda i: i.params["x"] != i.params["y"],
    lambda i: check_identity_3_2(_f(i), i.params["x"], i.params["y"]),
    "pair-degree decompositions agree",
)

_register(
    "FACT_3_13",
    "numeric",
    lambda i: 0 < i.params["a"] <= i.params["A"] and 0 < i.params["b"] <= i.params["B"],
    lambda i: check_fact_3_13(i.params["a"], i.params["A"], i.params["b"], i.params["B"]),
    "mediant-style inequality for positive rationals",
)

_register(
    "BINOM_1_11",
    "numeric",
    lambda i: binom_n_minus_i(i.params["n"], i.params["k"], i.params["i"]) is not None,
    lambda i: binom_n_minus_i(i.params["n"], i.params["k"], i.params["i"]),
    "derangement-free lower bound for shifted binomials",
)

_register(
    "BINOM_1_13",
    "numeric",
    lambda i: binom_half(i.params["n"], i.params["k"], i.params["t"]) is not None,
    lambda i: binom_half(i.params["n"], i.params["k"], i.params["t"]),
    "halving bound for shifted binomials in range",
)


def check_statement(sid: str, instance: Instance) -> StatementReport:
    """Evaluate hypothesis then conclusion; FAIL carries a re-checkable witness."""
    if sid not in REGISTRY:
        raise ValueError(f"unknown statement id {sid!r}")
    stmt = REGISTRY[sid]
    t0 = time.perf_counter()
    try:
        # a pair statement reads only two families on one ground set
        if (stmt.kind == "pair" and not _pair_sizes_ok(instance)) or not stmt.hypothesis(instance):
            return StatementReport(sid, "vacuous", time.perf_counter() - t0)
        ok = stmt.conclusion(instance)
        extras = stmt.extras(instance) if stmt.extras else {}
    except KeyError as exc:
        key = exc.args[0] if exc.args else None
        if not isinstance(key, str) or key in instance.params:
            raise
        raise ValueError(f"{sid} needs parameter {key!r}") from None
    if ok:
        return StatementReport(sid, "pass", time.perf_counter() - t0, extras=extras)
    return StatementReport(
        sid,
        "FAIL",
        time.perf_counter() - t0,
        witness=instance.to_witness(sid),
        extras=extras,
    )


def recheck_witness(witness: dict) -> StatementReport:
    """Re-run a serialized FAIL witness in isolation."""
    return check_statement(witness["id"], instance_from_witness(witness))
