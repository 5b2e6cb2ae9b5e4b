"""Default desk-scale sweep recipes for every registry statement.

`suite_config()` builds the shipped suite from this table, and `verify
--suite` with no path runs it.  Statements whose hypotheses the samplers
cannot reach (the 39k-range cross theorems, whose cross samplers' pool table
grows as C(n,k)·C(n,l) bits, and the deep t-intersecting corollary) are
swept anyway and documented as vacuous-only: their acceptance is
property-based (no FAIL ever).
"""

from __future__ import annotations

import copy

# statements that cannot have nonvacuous desk-scale instances
VACUOUS_ONLY = ("THM_1_6", "LEM_3_3", "THM_1_9", "COR_4_4")

# statements the acceptance gate requires to be nonvacuous in the suite
MUST_BE_NONVACUOUS = (
    "EKR_1_1",
    "PROP_1_2",
    "PROP_1_3",
    "WALK_1_5",
    "DICHOTOMY",
    "COR_1_6_1_7",
    "SUM_1_15",
    "FACT_3_1",
    "PROP_3_2",
    "PROP_3_13",
    "PROP_3_14",
    "PROP_3_15",
    "LEM_5_2",
    "BD_5_1",
    "RWISE_5_2",
)

_CROSS_SHIFTED_83 = {
    "mode": "cross-shifted",
    "base": {"mode": "uniform", "n": 8, "k": 3, "density": 0.1},
    "t": 1,
    "l": 3,
    "density_b": 0.5,
}

RECIPES: dict[str, dict] = {
    "EKR_1_1": {
        "mode": "sample",
        "count": 400,
        "seed": 101,
        "instance": {
            "family": {"mode": "star-perturbation", "n": 8, "k": 3, "t": 1,
                       "keep": 0.8, "adds": 1, "add_prob": 0.5},
            "params": {"t": 1},
        },
    },
    "PROP_1_2": {
        "mode": "sample",
        "count": 300,
        "seed": 102,
        "instance": {
            "family": {"mode": "shifted-star", "n": 8, "k": 3, "t": 1, "keep": 0.6},
            "params": {"t": 1, "s": 2},
        },
    },
    "PROP_1_3": {
        "mode": "sample",
        "count": 400,
        "seed": 103,
        "instance": {
            "family": {"mode": "star-perturbation", "n": 8, "k": 3, "t": 1,
                       "keep": 0.7, "adds": 1, "add_prob": 0.4},
            "params": {"t": 1},
        },
    },
    "THM_1_5": {
        "mode": "sample",
        "count": 200,
        "seed": 104,
        "instance": {
            "family": {"mode": "star-perturbation", "n": 24, "k": 3, "t": 1,
                       "keep": 0.7, "adds": 1, "add_prob": 0.3},
            "params": {"d": 2},
        },
    },
    "THM_1_6": {
        "mode": "sample",
        "count": 100,
        "seed": 105,
        "instance": {
            "pair": {"mode": "cross-dual",
                     "base": {"mode": "uniform", "n": 12, "k": 3, "density": 0.15},
                     "t": 1, "l": 3, "density_b": 0.5},
            "params": {},
        },
    },
    "LEM_3_3": {
        "mode": "sample",
        "count": 100,
        "seed": 106,
        "instance": {
            "pair": {"mode": "cross-dual",
                     "base": {"mode": "uniform", "n": 12, "k": 3, "density": 0.15},
                     "t": 1, "l": 3, "density_b": 0.5},
            "params": {},
        },
    },
    "THM_1_9": {
        "mode": "sample",
        "count": 100,
        "seed": 107,
        "instance": {
            "pair": {"mode": "cross-dual",
                     "base": {"mode": "uniform", "n": 12, "k": 3, "density": 0.15},
                     "t": 1, "l": 3, "density_b": 0.5},
            "params": {},
        },
    },
    "THM_1_10": {
        "mode": "sample",
        "count": 200,
        "seed": 108,
        "instance": {
            "pair": {"mode": "star-pair", "n": 13, "k": 3, "t": 1,
                     "keep_a": 0.97, "keep_b": 0.97},
            "params": {"eps": "1/58"},
        },
    },
    "THM_1_11": {
        "mode": "sample",
        "count": 100,
        "seed": 109,
        "instance": {
            "family": {"mode": "star-perturbation", "n": 48, "k": 3, "t": 2,
                       "keep": 0.9, "adds": 1, "add_prob": 0.3},
            "params": {"t": 2},
        },
    },
    "WALK_1_5": {
        "mode": "sample",
        "count": 400,
        "seed": 110,
        "instance": {
            "family": {"mode": "shifted", "n": 8, "k": 3, "density": 0.15},
            "params": {"t": 1},
        },
    },
    "DICHOTOMY": {
        "mode": "sample",
        "count": 400,
        "seed": 111,
        "instance": {
            "pair": {"mode": "cross-shifted",
                     "base": {"mode": "uniform", "n": 9, "k": 4, "density": 0.06},
                     "t": 1, "l": 4, "density_b": 0.4},
            "params": {"t": 1},
        },
    },
    "COR_1_6_1_7": {
        "mode": "sample",
        "count": 500,
        "seed": 112,
        "instance": {
            "pair": {"mode": "cross-dual",
                     "base": {"mode": "uniform", "n": 9, "k": 3, "density": 0.1},
                     "t": 1, "l": 3, "density_b": 0.4},
            "params": {"t": 1},
        },
    },
    "LEM_FW_1": {
        "mode": "sample",
        "count": 200,
        "seed": 113,
        "instance": {
            "pair": {"mode": "cross-dual",
                     "base": {"mode": "star-perturbation", "n": 10, "k": 3, "t": 1,
                              "keep": 0.75, "adds": 0},
                     "t": 1, "l": 3, "density_b": 0.5},
            "params": {"x": 1, "y": 2},
        },
    },
    "LEM_FW_2": {
        "mode": "sample",
        "count": 200,
        "seed": 114,
        "instance": {
            "pair": {"mode": "cross-dual",
                     "base": {"mode": "star-perturbation", "n": 10, "k": 3, "t": 1,
                              "keep": 0.75, "adds": 0},
                     "t": 1, "l": 3, "density_b": 0.5},
            "params": {"x": 1, "y": 2},
        },
    },
    "LEM_3_5": {
        "mode": "sample",
        "count": 150,
        "seed": 115,
        "instance": {
            "family": {"mode": "star-perturbation", "n": 10, "k": 3, "t": 1,
                       "keep": 0.7, "adds": 1, "add_prob": 0.4},
            "params": {"R": [1, 2], "Q": [3, 4]},
        },
    },
    "SUM_1_15": {
        "mode": "sample",
        "count": 1000,
        "seed": 116,
        "instance": {
            "pair": {"mode": "star-pair", "n": 10, "k": 3, "t": 1,
                     "keep_a": 0.8, "keep_b": 0.8},
            "params": {},
        },
    },
    "FACT_3_1": {
        "mode": "sample",
        "count": 300,
        "seed": 117,
        "instance": {"pair": dict(_CROSS_SHIFTED_83), "params": {}},
    },
    "PROP_3_2": {
        "mode": "sample",
        "count": 300,
        "seed": 118,
        "instance": {"pair": dict(_CROSS_SHIFTED_83), "params": {}},
    },
    "PROP_3_4": {
        "mode": "sample",
        "count": 200,
        "seed": 119,
        "instance": {
            "pair": {"mode": "cross-shifted",
                     "base": {"mode": "star-perturbation", "n": 11, "k": 3, "t": 1,
                              "keep": 0.9, "adds": 0},
                     "t": 1, "l": 3, "density_b": 0.85},
            "params": {},
        },
    },
    "TOKUSHIGE": {
        "mode": "sample",
        "count": 400,
        "seed": 120,
        "instance": {
            "pair": {"mode": "cross-dual",
                     "base": {"mode": "uniform", "n": 9, "k": 3, "density": 0.1},
                     "t": 1, "l": 3, "density_b": 0.4},
            "params": {"t": 1},
        },
    },
    "LEM_3_7": {
        "mode": "sample",
        "count": 150,
        "seed": 121,
        "instance": {
            "pair": {"mode": "lem37", "n": 14, "k": 3, "keep_anchor": 0.85,
                     "keep_star": 0.35, "density_b": 0.6},
            "params": {},
        },
    },
    "LEM_3_8": {
        "mode": "sample",
        "count": 150,
        "seed": 122,
        "instance": {
            "pair": {"mode": "lem37", "n": 14, "k": 3, "keep_anchor": 0.85,
                     "keep_star": 0.35, "density_b": 0.6},
            "params": {},
        },
    },
    "G_THEOREM": {
        "mode": "sample",
        "count": 300,
        "seed": 123,
        "instance": {
            "pair": {"mode": "cross-shifted",
                     "base": {"mode": "uniform", "n": 8, "k": 3, "density": 0.2},
                     "t": 1, "l": 3, "density_b": 0.6},
            "params": {},
        },
    },
    "PROP_3_13": {
        "mode": "sample",
        "count": 300,
        "seed": 124,
        "instance": {"pair": dict(_CROSS_SHIFTED_83), "params": {}},
    },
    "PROP_3_14": {
        "mode": "sample",
        "count": 300,
        "seed": 125,
        "instance": {"pair": dict(_CROSS_SHIFTED_83), "params": {}},
    },
    "PROP_3_15": {
        "mode": "sample",
        "count": 300,
        "seed": 126,
        "instance": {
            "pair": {"mode": "cross-shifted",
                     "base": {"mode": "uniform", "n": 7, "k": 3, "density": 0.12},
                     "t": 1, "l": 2, "density_b": 0.5},
            "params": {},
        },
    },
    "PROP_4_1": {
        "mode": "sample",
        "count": 100,
        "seed": 127,
        "instance": {
            "family": {"mode": "saturated-t", "n": 8, "k": 3, "t": 1, "keep": 0.3},
            "params": {"t": 1},
        },
    },
    "PROP_4_3": {
        "mode": "sample",
        "count": 200,
        "seed": 128,
        "instance": {
            "pair": {"mode": "star-pair", "n": 12, "k": 4, "t": 2,
                     "keep_a": 0.9, "keep_b": 0.95},
            "params": {"t": 2, "s": 3},
        },
    },
    "COR_4_4": {
        "mode": "sample",
        "count": 100,
        "seed": 129,
        "instance": {
            "family": {"mode": "star-perturbation", "n": 15, "k": 5, "t": 2,
                       "keep": 0.9, "adds": 1, "add_prob": 0.3},
            "params": {"t": 2},
        },
    },
    "LEM_4_6": {
        "mode": "sample",
        "count": 100,
        "seed": 130,
        "instance": {
            "family": {"mode": "shifted-star", "n": 14, "k": 4, "t": 2, "keep": 0.85},
            "params": {"t": 2},
        },
    },
    "BD_5_1": {
        "mode": "sample",
        "count": 300,
        "seed": 131,
        "instance": {
            "slices": {"mode": "bd-sub", "n": 8, "r": 3, "keep": 0.9},
            "params": {"r": 3},
        },
    },
    "RWISE_5_2": {
        "mode": "sample",
        "count": 300,
        "seed": 132,
        "instance": {
            "family": {"mode": "star-perturbation", "n": 8, "k": 3, "t": 1,
                       "keep": 0.8, "adds": 1, "add_prob": 0.4},
            "params": {"r": 3},
        },
    },
    "LEM_5_2": {
        "mode": "sample",
        "count": 300,
        "seed": 133,
        "instance": {
            "family": {"mode": "bdslice-sub", "n": 8, "k": 4, "r": 3, "keep": 0.8},
            "params": {"r": 3, "t": 1},
        },
    },
    "PROP_5_3": {
        "mode": "sample",
        "count": 100,
        "seed": 134,
        "instance": {
            "family": {"mode": "saturated-rwise", "n": 8, "k": 4, "r": 3, "keep": 0.5},
            "params": {"r": 3},
        },
    },
    "HILTON": {
        "mode": "sample",
        "count": 400,
        "seed": 135,
        "instance": {
            "pair": {"mode": "cross-dual",
                     "base": {"mode": "uniform", "n": 8, "k": 3, "density": 0.12},
                     "t": 1, "l": 3, "density_b": 0.4},
            "params": {},
        },
    },
    "KATONA": {
        "mode": "sample",
        "count": 400,
        "seed": 136,
        "instance": {
            "family": {"mode": "star-perturbation", "n": 8, "k": 3, "t": 1,
                       "keep": 0.7, "adds": 1, "add_prob": 0.4},
            "params": {"t": 1, "l": 1},
        },
    },
    "KATONA_PSEUDO": {
        "mode": "sample",
        "count": 400,
        "seed": 137,
        "instance": {
            "family": {"mode": "pseudo-filter", "n": 8, "k": 3, "t": 1, "density": 0.4},
            "params": {"t": 1, "l": 1},
        },
    },
    "CROSS_SHADOW": {
        "mode": "sample",
        "count": 300,
        "seed": 138,
        "instance": {
            "pair": {"mode": "cross-dual",
                     "base": {"mode": "uniform", "n": 7, "k": 3, "density": 0.15},
                     "t": 1, "l": 3, "density_b": 0.5},
            "params": {"t": 1, "l1": 1, "l2": 1},
        },
    },
    "FK_IMPROVED": {
        "mode": "sample",
        "count": 300,
        "seed": 139,
        "instance": {
            "family": {"mode": "star-perturbation", "n": 10, "k": 4, "t": 2,
                       "keep": 0.95, "adds": 1, "add_prob": 0.3},
            "params": {"t": 2, "l": 1},
        },
    },
    "KRUSKAL_KATONA": {
        "mode": "sample",
        "count": 400,
        "seed": 140,
        "instance": {
            "family": {"mode": "uniform", "n": 7, "k": 3, "density": 0.4},
            "params": {"l": 1},
        },
    },
    "EQ_2_1": {
        "mode": "sample",
        "count": 300,
        "seed": 141,
        "instance": {
            "family": {"mode": "shifted", "n": 7, "k": 3, "density": 0.3},
            "params": {},
        },
    },
    "MATCHING_COR": {
        "mode": "sample",
        "count": 300,
        "seed": 142,
        "instance": {
            "family": {"mode": "shifted", "n": 7, "k": 3, "density": 0.3},
            "params": {},
        },
    },
    "IDENTITY_2_3": {
        "mode": "sample",
        "count": 1000,
        "seed": 143,
        "instance": {
            "family": {"mode": "uniform", "n": 8, "k": 3, "density": 0.5},
            "draw": {"E": "subset"},
            "params": {},
        },
    },
    "IDENTITY_3_2": {
        "mode": "sample",
        "count": 1000,
        "seed": 144,
        "instance": {
            "family": {"mode": "uniform", "n": 8, "k": 3, "density": 0.5},
            "draw": {"x,y": "pair"},
            "params": {},
        },
    },
    "FACT_3_13": {
        "mode": "sample",
        "count": 1000,
        "seed": 145,
        "instance": {
            "draw": {"a,A": "leq-pair:1,30", "b,B": "leq-pair:1,30"},
            "params": {},
        },
    },
    "BINOM_1_11": {
        "mode": "sample",
        "count": 1000,
        "seed": 146,
        "instance": {
            "draw": {"n": "int:2,30", "k": "int:1,6", "i": "int:1,4"},
            "params": {},
        },
    },
    "BINOM_1_13": {
        "mode": "sample",
        "count": 1000,
        "seed": 147,
        "instance": {
            "draw": {"n": "int:4,40", "k": "int:3,8", "t": "int:2,6"},
            "params": {},
        },
    },
}

# exhaustive companions at the acceptance scales
EXHAUSTIVE_EXTRAS: list[dict] = [
    {"id": "PROP_1_3", "mode": "exhaustive",
     "grid": {"n": 5, "k": 2, "space": "families"}, "params": {"t": 1}},
    {"id": "EKR_1_1", "mode": "exhaustive",
     "grid": {"n": 5, "k": 2, "space": "families"}, "params": {"t": 1}},
    {"id": "DICHOTOMY", "mode": "exhaustive",
     "grid": {"n": 5, "k": 2, "l": 2, "space": "initial-pairs"}, "params": {"t": 1}},
    {"id": "KATONA", "mode": "exhaustive",
     "grid": {"n": 5, "k": 2, "space": "families"}, "params": {"t": 1, "l": 1}},
    {"id": "HILTON", "mode": "exhaustive",
     "grid": {"n": 5, "k": 2, "l": 2, "space": "dual-pairs"}, "params": {}},
    {"id": "KRUSKAL_KATONA", "mode": "exhaustive",
     "grid": {"n": 6, "k": 3, "space": "families"}, "params": {"l": 1}},
    {"id": "EQ_2_1", "mode": "exhaustive",
     "grid": {"n": 6, "k": 3, "space": "initial"}, "params": {}},
    {"id": "MATCHING_COR", "mode": "exhaustive",
     "grid": {"n": 6, "k": 3, "space": "initial"}, "params": {}},
    {"id": "PROP_3_15", "mode": "exhaustive",
     "grid": {"n": 5, "k": 2, "l": 2, "space": "initial-pairs"}, "params": {}},
    {"id": "G_THEOREM", "mode": "exhaustive",
     "grid": {"n": 6, "k": 2, "l": 2, "space": "initial-pairs"}, "params": {}},
    {"id": "FACT_3_1", "mode": "exhaustive",
     "grid": {"n": 5, "k": 2, "l": 2, "space": "initial-pairs"}, "params": {}},
    {"id": "IDENTITY_3_2", "mode": "exhaustive",
     "grid": {"n": 4, "k": 2, "space": "families"}, "params": {"x": 1, "y": 2}},
    {"id": "BINOM_1_11", "mode": "exhaustive",
     "grid": {"n": [2, 26], "k": [1, 6], "i": [1, 4], "space": "grid"}, "params": {}},
    {"id": "BINOM_1_13", "mode": "exhaustive",
     "grid": {"n": [4, 32], "k": [3, 8], "t": [2, 6], "space": "grid"}, "params": {}},
    {"id": "FACT_3_13", "mode": "exhaustive",
     "grid": {"a": [1, 10], "A": [1, 10], "b": [1, 10], "B": [1, 10], "space": "grid"},
     "params": {}},
]


def suite_config() -> dict:
    """The full sweep suite: one sampled entry per id plus exhaustive companions."""
    entries = []
    for sid in sorted(RECIPES):
        entry = {"id": sid}
        entry.update(copy.deepcopy(RECIPES[sid]))
        entries.append(entry)
    entries.extend(copy.deepcopy(EXHAUSTIVE_EXTRAS))
    return {"entries": entries}


def _override(node, overrides: dict) -> None:
    """Replace the fields named in `overrides`; the generators and params check their types."""
    if isinstance(node, dict):
        for key in node:
            if key in overrides:
                node[key] = overrides[key]
            else:
                _override(node[key], overrides)


def _values(node, key: str) -> list:
    """Every value of the field `key` anywhere in `node`."""
    if not isinstance(node, dict):
        return []
    found = [node[key]] if key in node else []
    for value in node.values():
        found.extend(_values(value, key))
    return found


def recipe_for(sid: str, overrides: dict | None = None) -> dict:
    """A deep copy of the default recipe with scalar overrides applied everywhere.

    `count` and `seed` set the recipe's own keys.  Other override keys replace
    every generator field or statement param of that name; keys that match
    none become statement params.  A drawn name (one named in a `draw` key)
    or a field holding a list or a dict cannot be overridden, and is refused.
    """
    if sid not in RECIPES:
        raise ValueError(f"no default recipe for {sid!r}")
    recipe = copy.deepcopy(RECIPES[sid])
    recipe["id"] = sid
    if overrides:
        overrides = dict(overrides)
        for key in ("count", "seed"):
            if key in overrides:
                recipe[key] = overrides.pop(key)
        drawn = {name for key in recipe["instance"].get("draw", {}) for name in key.split(",")}
        extras = {}
        for key, val in overrides.items():
            found = _values(recipe["instance"], key)
            if key in drawn or any(isinstance(v, (dict, list)) for v in found):
                why = "the recipe draws it" if key in drawn else "it holds a list or a dict"
                raise ValueError(f"{sid} cannot override {key!r}: {why}")
            if not found:
                extras[key] = val
        _override(recipe["instance"], overrides)
        for key, val in extras.items():
            recipe["instance"].setdefault("params", {})[key] = val
    return recipe
