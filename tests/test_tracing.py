"""The benchmark's tracer (bench/tracing.py) against the library names it wraps.

`bench/run.py --trace 1` wraps each name in `tracing.TRACED` by name, so a
renamed or moved library function breaks the traced run.  This test installs
the tracer, runs one small pair sweep and one sampled instance, and checks that
the calls were counted and that every original is back afterwards.
"""

import random
import sys
from pathlib import Path

import extremal.cli  # noqa: F401  (loads every extremal module the tracer rebinds)
from extremal.verify import harness, registry
from extremal.verify.recipes import RECIPES

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_counts_calls_and_restores_every_original(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import TRACED, Tracer

    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "extremal" or name.startswith("extremal.")]
    bound = [(mod, dict(vars(mod))) for mod in modules]
    methods = []
    for modname, attr in TRACED:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[modname], cls_name)
            methods.append((cls, meth, cls.__dict__[meth]))
    statements = dict(registry.REGISTRY)

    tracer = Tracer()
    tracer.install()
    try:
        report = harness.exhaustive_sweep("PROP_3_15", {"n": 5, "k": 2, "space": "initial-pairs"})
        harness.make_instance(random.Random(1), "COR_1_6_1_7", RECIPES["COR_1_6_1_7"]["instance"])
    finally:
        tracer.remove()

    totals = report["result"]["totals"]
    metrics = {name: value for name, (value, _) in tracer.metrics().items()}
    assert metrics["verify.harness.exhaustive_sweep.calls"] == 1
    assert metrics["verify.harness.make_instance.calls"] == 1
    assert metrics["verify.registry.check_statement.calls"] == sum(totals.values()) > 0
    assert metrics["verify.registry.hypothesis.calls"] == sum(totals.values())
    assert metrics["verify.registry.conclusion.calls"] == totals["pass"] + totals["fail"] > 0

    for mod, names in bound:
        assert all(vars(mod)[key] is value for key, value in names.items()), mod.__name__
    for cls, meth, original in methods:
        assert cls.__dict__[meth] is original
    assert registry.REGISTRY == statements
    assert all(registry.REGISTRY[sid] is stmt for sid, stmt in statements.items())
