"""Per-layer spans recorded from the benchmark's side, around the library's public calls.

`Tracer.install()` wraps each traced function in its defining module and in
every `extremal.*` module that bound the same object by name, wraps the
registry phases (hypothesis, conclusion, extras) through
`dataclasses.replace`, and `Tracer.remove()` puts every original back.  Self
time is a span's duration minus the durations of its direct child spans.
Spans (name, start, end, parent) are kept in compact arrays and written out
by `Tracer.write_spans`.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from array import array
from time import perf_counter_ns

# (module, attribute path) of every traced function; the metric prefix drops "extremal."
TRACED = [
    ("extremal.shifting", "shift"),
    ("extremal.shifting", "weight"),
    ("extremal.shifting", "shift_ad_extremis"),
    ("extremal.shifting", "And.holds"),
    ("extremal.measures", "degree_vector"),
    ("extremal.measures", "rho"),
    ("extremal.measures", "matching_number"),
    ("extremal.measures", "is_cross_t_intersecting"),
    ("extremal.measures", "is_r_wise_t_intersecting"),
    ("extremal.measures", "is_t_intersecting"),
    ("extremal.measures", "transversal_number"),
    ("extremal.measures", "is_pseudo_t_intersecting"),
    ("extremal.core", "enumerate_ksubsets"),
    ("extremal.core", "is_initial"),
    ("extremal.order", "shadow"),
    ("extremal.order", "kk_min_shadow"),
    ("extremal.order", "hilton_transfer"),
    ("extremal.constructions", "build"),
    ("extremal.constructions", "full_star"),
    ("extremal.constructions", "frankl_family"),
    ("extremal.constructions", "brace_daykin"),
    ("extremal.verify.harness", "make_instance"),
    ("extremal.verify.harness", "sample_sweep"),
    ("extremal.verify.harness", "exhaustive_sweep"),
    ("extremal.verify.harness", "initial_families"),
    ("extremal.verify.registry", "check_statement"),
    ("extremal.verify.registry", "Instance.descriptor"),
    ("extremal.verify.search", "search_max"),
]
PHASES = ("hypothesis", "conclusion", "extras")
SPAN_CAP = 1_000_000  # spans kept verbatim; aggregates always cover every call


def span_names() -> list[str]:
    names = [f"{mod.removeprefix('extremal.')}.{attr}" for mod, attr in TRACED]
    return names + [f"verify.registry.{phase}" for phase in PHASES]


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        # counters measured where the work happens
        self.shift_moved = 0
        self.holds_true = 0
        self.initial_families = 0
        self.verdicts: dict[str, int] = {}
        self.search_nodes = 0
        # spans: name index, start/end in ns since install, parent span (-1 = none)
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.spans_dropped = 0
        self._stack = [[-1, 0]]  # [span index, child ns] per open span; root sentinel
        self._restore: list = []
        self._t0 = 0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, idx: int, fn, after=None):
        stack = self._stack
        calls, self_ns = self.calls, self.self_ns
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        tracer = self

        def traced(*args, **kwargs):
            sid = len(names)
            if sid < SPAN_CAP:
                names.append(idx)
                starts.append(0)
                ends.append(0)
                parents.append(stack[-1][0])
            else:
                sid = -1
                tracer.spans_dropped += 1
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                stack[-1][1] += dur
                calls[idx] += 1
                self_ns[idx] += dur - frame[1]
                if sid >= 0:
                    starts[sid] = t0 - tracer._t0
                    ends[sid] = t1 - tracer._t0
            if after is not None:
                after(result, args)
            return result

        return functools.wraps(fn)(traced)

    def _after(self, name: str):
        if name == "shifting.shift":
            def after(result, args):
                if result.members != args[0].members:
                    self.shift_moved += 1
        elif name == "shifting.And.holds":
            def after(result, args):
                if result:
                    self.holds_true += 1
        elif name == "verify.harness.initial_families":
            def after(result, args):
                self.initial_families += len(result)
        elif name == "verify.registry.check_statement":
            def after(result, args):
                self.verdicts[result.verdict] = self.verdicts.get(result.verdict, 0) + 1
        elif name == "verify.search.search_max":
            def after(result, args):
                self.search_nodes += result.evaluations
        else:
            after = None
        return after

    def install(self) -> None:
        extremal_modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "extremal" or name.startswith("extremal."))
        ]
        for idx, (modname, attr) in enumerate(TRACED):
            mod = sys.modules[modname]
            name = self.names[idx]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(idx, original, self._after(name)))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(idx, original, self._after(name))
            for other in extremal_modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
                        self._restore.append((other, key, original))
        registry = sys.modules["extremal.verify.registry"]
        saved = dict(registry.REGISTRY)
        base = len(TRACED)
        for sid, stmt in saved.items():
            changes = {}
            for offset, phase in enumerate(PHASES):
                fn = getattr(stmt, phase)
                if fn is not None:
                    changes[phase] = self._wrap(base + offset, fn)
            registry.REGISTRY[sid] = dataclasses.replace(stmt, **changes)
        self._restore.append((registry.REGISTRY, None, saved))
        self._t0 = perf_counter_ns()

    def remove(self) -> None:
        for target, key, original in reversed(self._restore):
            if key is None:
                target.clear()
                target.update(original)
            else:
                setattr(target, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name, calls, ns in zip(self.names, self.calls, self.self_ns):
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (ns / 1e9, "s")
        ix = self.names.index
        shifts = self.calls[ix("shifting.shift")]
        holds = self.calls[ix("shifting.And.holds")]
        checked = sum(self.verdicts.values())
        out["shifting.shift.moved_ratio"] = (self.shift_moved / shifts if shifts else 0.0, "ratio")
        out["shifting.And.holds.true_ratio"] = (self.holds_true / holds if holds else 0.0, "ratio")
        out["verify.harness.initial_families.families"] = (self.initial_families, "count")
        out["verify.registry.vacuous_ratio"] = (
            self.verdicts.get("vacuous", 0) / checked if checked else 0.0, "ratio"
        )
        out["verify.search.nodes"] = (self.search_nodes, "count")
        return out

    def write_spans(self, path) -> None:
        """One line per span: name, start_ns, end_ns, parent index (-1 for a root span)."""
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(f"# spans={len(self.span_name)} dropped={self.spans_dropped}\n")
            fp.write("name\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for i in range(len(self.span_name)):
                fp.write(
                    f"{names[self.span_name[i]]}\t{self.span_start[i]}\t"
                    f"{self.span_end[i]}\t{self.span_parent[i]}\n"
                )
