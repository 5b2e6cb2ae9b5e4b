"""Named family constructions with closed-form sizes as built-in self-checks."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

from .core import (
    CapacityError,
    SetFamily,
    comb0,
    enumerate_ksubsets,
    full_family,
    mask_of,
    prefix_mask,
)
from .measures import degree_vector


@dataclass(frozen=True)
class NamedFamily:
    """A constructed family (or tuple of families) with its predicted total size."""

    id: str
    params: tuple[int, ...]
    families: tuple[tuple[str, SetFamily], ...]
    predicted_size: int | None

    def total_size(self) -> int:
        return sum(len(f) for _, f in self.families)


def _checked(nf: NamedFamily) -> NamedFamily:
    if nf.predicted_size is not None and nf.total_size() != nf.predicted_size:
        raise AssertionError(
            f"{nf.id}{nf.params}: size {nf.total_size()} != predicted {nf.predicted_size}"
        )
    return nf


def full_star(n: int, k: int, t: int) -> SetFamily:
    """All k-sets containing the first t elements."""
    if not 1 <= t <= k <= n:
        raise ValueError(f"need 1 <= t <= k <= n, got ({n},{k},{t})")
    base = prefix_mask(t)
    rest = enumerate_ksubsets(n, k - t)
    members = sorted(base | m for m in rest if not m & base)
    fam = SetFamily(n, k, members)
    assert len(fam) == comb(n - t, k - t)
    return fam


def frankl_family(n: int, k: int, t: int) -> SetFamily:
    """k-sets meeting the first t+2 elements in at least t+1 points."""
    if not (n > k > t >= 1):
        raise ValueError(f"need n > k > t >= 1, got ({n},{k},{t})")
    win = prefix_mask(t + 2)
    members = [m for m in enumerate_ksubsets(n, k) if (m & win).bit_count() >= t + 1]
    fam = SetFamily(n, k, members, _trusted=True)
    predicted = (t + 2) * comb0(n - t - 2, k - t - 1) + comb0(n - t - 2, k - t - 2)
    assert len(fam) == predicted
    return fam


def triangle_family(n: int, k: int) -> SetFamily:
    """k-sets meeting {1,2,3} in at least two points."""
    if not (n >= 3 and 2 <= k <= n):
        raise ValueError(f"need n >= 3 and 2 <= k <= n, got ({n},{k})")
    win = prefix_mask(3)
    members = [m for m in enumerate_ksubsets(n, k) if (m & win).bit_count() >= 2]
    fam = SetFamily(n, k, members, _trusted=True)
    assert len(fam) == triangle_size(n, k)
    return fam


def threshold_family(n: int, k: int, q: int, a: int) -> SetFamily:
    """k-sets meeting the first q elements in at least a points."""
    if not (1 <= q <= n and 1 <= k <= n and a >= 0):
        raise ValueError(f"bad parameters ({n},{k},{q},{a})")
    win = prefix_mask(q)
    members = [m for m in enumerate_ksubsets(n, k) if (m & win).bit_count() >= a]
    fam = SetFamily(n, k, members, _trusted=True)
    predicted = sum(comb0(q, i) * comb0(n - q, k - i) for i in range(a, min(q, k) + 1))
    assert len(fam) == predicted
    return fam


def _contains_any(m: int, patterns: list[int]) -> bool:
    return any(m & p == p for p in patterns)


def example_1_7(n: int, k: int) -> tuple[SetFamily, SetFamily]:
    """The two equal-size cross-intersecting families built from pair/triple anchors."""
    if not (n >= 5 and 2 <= k <= n):
        raise ValueError(f"need n >= 5 and k >= 2, got ({n},{k})")
    p_pat = [mask_of((1, 2)), mask_of((3, 4))]
    r_pat = [mask_of((1, 3)), mask_of((2, 4))]
    s_pat = [mask_of((1, 4, 5)), mask_of((2, 3, 5))]
    all_k = enumerate_ksubsets(n, k)
    left = [m for m in all_k if _contains_any(m, p_pat) or _contains_any(m, s_pat)]
    right = [m for m in all_k if _contains_any(m, r_pat) or _contains_any(m, s_pat)]
    fam_l = SetFamily(n, k, left, _trusted=True)
    fam_r = SetFamily(n, k, right, _trusted=True)
    assert len(fam_l) == len(fam_r)
    return fam_l, fam_r


def example_1_8(n: int, k: int) -> tuple[SetFamily, SetFamily]:
    """Anchored pair: two disjoint 2-set anchors vs the four crossing 2-set anchors."""
    if not (n >= 4 and 2 <= k <= n):
        raise ValueError(f"need n >= 4 and k >= 2, got ({n},{k})")
    a_pat = [mask_of((1, 2)), mask_of((3, 4))]
    b_pat = [mask_of((1, 3)), mask_of((1, 4)), mask_of((2, 3)), mask_of((2, 4))]
    all_k = enumerate_ksubsets(n, k)
    fa = SetFamily(n, k, [m for m in all_k if _contains_any(m, a_pat)], _trusted=True)
    gb = SetFamily(n, k, [m for m in all_k if _contains_any(m, b_pat)], _trusted=True)
    assert len(fa) == 2 * comb0(n - 2, k - 2) - comb0(n - 4, k - 4)
    assert len(gb) == 4 * comb0(n - 4, k - 2) + 4 * comb0(n - 4, k - 3) + comb0(n - 4, k - 4)
    return fa, gb


def brace_daykin(n: int, r: int) -> list[SetFamily]:
    """All sets meeting [r+1] in >= r points, as per-cardinality uniform slices."""
    if not (3 <= r and r + 1 <= n):
        raise ValueError(f"need r >= 3 and n >= r+1, got ({n},{r})")
    window = list(range(1, r + 2))
    cores = [mask_of(set(window) - {i}) for i in window] + [mask_of(window)]
    outside = [i for i in range(r + 2, n + 1)]
    by_size: dict[int, list[int]] = {}
    for core in cores:
        for bits in range(1 << len(outside)):
            m = core
            bb = bits
            while bb:
                low = bb & -bb
                m |= 1 << (outside[low.bit_length() - 1] - 1)
                bb ^= low
            by_size.setdefault(m.bit_count(), []).append(m)
    slices = [SetFamily(n, s, ms) for s, ms in sorted(by_size.items())]
    total = sum(len(f) for f in slices)
    assert total == brace_daykin_size(n, r)
    return slices


def triangle_size(n: int, k: int) -> int:
    """Size 3*C(n-3, k-2) + C(n-3, k-3) of the triangle family."""
    return 3 * comb0(n - 3, k - 2) + comb0(n - 3, k - 3)


def brace_daykin_size(n: int, r: int) -> int:
    """Total size (r+2) * 2^(n-r-1) of the Brace-Daykin family over all slices."""
    return (r + 2) * 2 ** (n - r - 1)


def g_value(n: int, k: int) -> int:
    """Closed-form total size of the extremal initial cross-intersecting pair."""
    return comb(k + 1, k) + sum(
        comb(k + 1, i) * comb0(n - k - 1, k - i) for i in range(2, k + 1)
    )


def example_3_10(n: int, k: int) -> tuple[SetFamily, SetFamily]:
    """The pair (all k-subsets of [k+1], all k-sets meeting [k+1] twice)."""
    if not (n > k >= 1 and n >= k + 1):
        raise ValueError(f"need n > k >= 1, got ({n},{k})")
    win = prefix_mask(k + 1)
    g_members = [m for m in enumerate_ksubsets(n, k) if m & win == m]
    f_members = [m for m in enumerate_ksubsets(n, k) if (m & win).bit_count() >= 2]
    g_fam = SetFamily(n, k, g_members, _trusted=True)
    f_fam = SetFamily(n, k, f_members, _trusted=True)
    assert len(g_fam) + len(f_fam) == g_value(n, k)
    return g_fam, f_fam


def disjoint_blocks(k: int, l: int) -> tuple[SetFamily, SetFamily]:
    """l pairwise disjoint k-blocks, and all transversals picking one point per block."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be positive")
    n = k * l
    if n < 2:
        raise ValueError("need at least two points")
    blocks = [list(range(b * k + 1, b * k + k + 1)) for b in range(l)]
    p_fam = SetFamily.from_sets(n, k, blocks)
    r_fam = SetFamily.from_sets(n, l, (pick for pick in product(*blocks)))
    assert len(p_fam) == l and len(r_fam) == k**l
    return p_fam, r_fam


# ---------------------------------------------------------------------------
# Projective planes of order q over GF(q), q in {2,3,4,5,7}.
# ---------------------------------------------------------------------------

_GF4_POLY = 0b111  # x^2 + x + 1


def _gf_ops(q: int):
    if q in (2, 3, 5, 7):
        return (lambda a, b: (a + b) % q), (lambda a, b: (a * b) % q)
    if q == 4:

        def add(a, b):
            return a ^ b

        def mul(a, b):
            acc = 0
            x = a
            y = b
            while y:
                if y & 1:
                    acc ^= x
                x <<= 1
                if x & 0b100:
                    x ^= _GF4_POLY
                y >>= 1
            return acc

        return add, mul
    raise ValueError(f"unsupported field order {q}")


def projective_plane(q: int) -> SetFamily:
    """Lines of the projective plane of order q as (q+1)-sets on q^2+q+1 points.

    Point labels are fixed: triples (1,y,z) sorted by (y,z), then (0,1,z),
    then (0,0,1), numbered from 1.  The axioms (line sizes, pairwise unique
    meeting point, regularity) are re-verified at construction time.
    """
    if q == 8:
        raise CapacityError("order 8 needs 73 points, beyond the 63-element ground set")
    if q not in (2, 3, 4, 5, 7):
        raise ValueError(f"supported orders are 2,3,4,5,7, got {q}")
    add, mul = _gf_ops(q)
    pts = [(1, y, z) for y in range(q) for z in range(q)]
    pts += [(0, 1, z) for z in range(q)]
    pts += [(0, 0, 1)]
    index = {p: i + 1 for i, p in enumerate(pts)}
    n = q * q + q + 1
    lines = []
    for a, b, c in pts:  # line coefficients range over the same normalized triples
        on = [
            index[(x, y, z)]
            for (x, y, z) in pts
            if add(add(mul(a, x), mul(b, y)), mul(c, z)) == 0
        ]
        lines.append(mask_of(on))
    fam = SetFamily(n, q + 1, lines)
    # plane axioms
    assert len(fam) == n
    for i, l1 in enumerate(fam.members):
        for l2 in fam.members[i + 1 :]:
            assert (l1 & l2).bit_count() == 1
    assert all(d == q + 1 for d in degree_vector(fam))
    return fam


def fano() -> SetFamily:
    return projective_plane(2)


# ---------------------------------------------------------------------------
# Registry used by the CLI: id -> (builder returning NamedFamily, arity help)
# ---------------------------------------------------------------------------


def build(name: str, params: tuple[int, ...]) -> NamedFamily:
    if name == "star":
        n, k, t = params
        return _checked(
            NamedFamily(name, params, (("star", full_star(n, k, t)),), comb(n - t, k - t))
        )
    if name == "frankl":
        n, k, t = params
        return NamedFamily(name, params, (("frankl", frankl_family(n, k, t)),), None)
    if name == "triangle":
        n, k = params
        fam = triangle_family(n, k)
        return _checked(
            NamedFamily(name, params, (("triangle", fam),), triangle_size(n, k))
        )
    if name == "threshold":
        n, k, q, a = params
        return NamedFamily(name, params, (("threshold", threshold_family(n, k, q, a)),), None)
    if name == "ex_1_7":
        n, k = params
        left, right = example_1_7(n, k)
        return NamedFamily(name, params, (("left", left), ("right", right)), None)
    if name == "ex_1_8":
        n, k = params
        fa, gb = example_1_8(n, k)
        return NamedFamily(name, params, (("anchored", fa), ("crossing", gb)), None)
    if name == "ex_3_10":
        n, k = params
        g_fam, f_fam = example_3_10(n, k)
        return _checked(
            NamedFamily(name, params, (("small", g_fam), ("large", f_fam)), g_value(n, k))
        )
    if name == "brace_daykin":
        n, r = params
        slices = brace_daykin(n, r)
        fams = tuple((f"s{f.k}", f) for f in slices)
        return _checked(NamedFamily(name, params, fams, brace_daykin_size(n, r)))
    if name == "blocks":
        k, l = params
        p_fam, r_fam = disjoint_blocks(k, l)
        return NamedFamily(name, params, (("blocks", p_fam), ("transversals", r_fam)), None)
    if name == "plane":
        (q,) = params
        fam = projective_plane(q)
        return _checked(NamedFamily(name, params, (("plane", fam),), q * q + q + 1))
    if name == "fano":
        if params:
            raise ValueError("fano takes no parameters")
        return _checked(NamedFamily(name, (), (("fano", fano()),), 7))
    if name == "full":
        n, k = params
        return _checked(NamedFamily(name, params, (("full", full_family(n, k)),), comb(n, k)))
    raise ValueError(f"unknown construction {name!r}")


CONSTRUCTION_IDS = (
    "star",
    "frankl",
    "triangle",
    "threshold",
    "ex_1_7",
    "ex_1_8",
    "ex_3_10",
    "brace_daykin",
    "blocks",
    "plane",
    "fano",
    "full",
)
