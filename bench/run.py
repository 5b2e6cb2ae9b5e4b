"""Benchmark of the extremal library: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload suite --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  The library is imported from the
checkout's `src/` (no install).  A run sets the workload up several times
(import plus input construction; `setup_s` is the median), then runs whole
passes over the workload's items back to back: at least two, and more while
the next pass still ends within `--seconds` of measured time.  Each item's
time is its fastest pass.  Every verdict is checked, outside the timed
region.

With `--trace 1` the run measures untraced passes for half of `--seconds`
and then makes one traced pass; it prints the per-layer metrics of the
traced pass and the tracing overhead (traced pass minus untraced `wall_s`),
and writes the spans to `.bench_out/spans-<workload>.tsv`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  If the library cannot be
imported from the checkout, the run prints no result and exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import SETUP

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5
SETUP_SECONDS = 1.0
MIN_PASSES = 2
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def import_library() -> None:
    """Import the library from the checkout afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "extremal" or n.startswith("extremal.")]:
        del sys.modules[name]
    module = importlib.import_module("extremal")
    importlib.import_module("extremal.verify")
    if SRC not in Path(module.__file__).resolve().parents:
        raise ImportError(f"extremal was imported from {module.__file__}, not from {SRC}")


def setup(workload: str, seed: int) -> tuple[list, list[float]]:
    """Set the workload up at least SETUP_REPS times and for at least SETUP_SECONDS."""
    times: list[float] = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        import_library()
        items = SETUP[workload](seed)
        times.append(time.perf_counter() - t0)
    return items, times


def run_pass(items) -> tuple[float, list[float], list]:
    times, outputs = [], []
    start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        try:
            out = item.call()
        except Exception as exc:  # a failed item is counted, the run goes on
            out = exc
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    return time.perf_counter() - start, times, outputs


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least 10 items beyond it, else the max."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            rank = min(n - 1, max(0, int(-(-pct * n // 100)) - 1))  # nearest rank
            return pct, ordered[rank]
    return 100.0, ordered[-1]


def count_failures(items, outputs) -> int:
    failed = 0
    for item, out in zip(items, outputs):
        if isinstance(out, Exception):
            failed += 1
            print(f"FAILED {item.label}: {type(out).__name__}: {out}", file=sys.stderr)
            continue
        try:
            ok = item.check(out)
        except Exception as exc:  # a check that cannot run is a failure of the item
            ok = False
            print(f"FAILED {item.label}: check raised {type(exc).__name__}: {exc}", file=sys.stderr)
        if not ok:
            failed += 1
            print(f"FAILED {item.label}: wrong verdict", file=sys.stderr)
    return failed


def measure(items, seconds: float) -> tuple[dict, int, int, dict]:
    """At least MIN_PASSES whole passes, more while the next one fits in `seconds`.

    Each item's time is its fastest over the passes, the one least slowed by
    other load on a shared machine; `wall_s` is the sum of these, the time of
    one pass from the first item to the last verdict.  Also returns the same
    sum per item group.
    """
    passes, failed, measured = [], 0, 0.0
    while True:
        wall, times, outputs = run_pass(items)
        failed += count_failures(items, outputs)  # outside the timed region
        passes.append((wall, times))
        measured += wall
        if len(passes) >= MIN_PASSES and measured * (len(passes) + 1) / len(passes) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_item = [min(col) for col in zip(*(t for _, t in passes))]
    pct, tail_s = tail(per_item)
    attempted = len(items) * len(passes)
    metrics = {
        "wall_s": (sum(per_item), "s"),
        "item_p50_ms": (statistics.median(per_item) * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    groups: dict[str, float] = {}
    for item, t in zip(items, per_item):
        groups[item.group] = groups.get(item.group, 0.0) + t
    print(
        f"passes={len(passes)} items_per_pass={len(items)} tail=p{pct:g} "
        f"failed_ratio={failed / attempted:.6f} "
        f"group_wall_s={','.join(f'{g}:{w:.4f}' for g, w in sorted(groups.items()))} "
        f"pass_walls_s={','.join(f'{w:.3f}' for w, _ in passes)}"
    )
    return metrics, attempted, failed, groups


def measure_traced(items, workload: str, seconds: float) -> tuple[dict, int, int]:
    """Untraced passes for half of `seconds` (as in `measure`), then one traced pass."""
    from tracing import Tracer

    untraced, attempted, failed, groups = measure(items, seconds / 2)
    untraced_wall = untraced["wall_s"][0]
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, _, traced_outputs = run_pass(items)
    finally:
        tracer.remove()
    failed += count_failures(items, traced_outputs)
    metrics = tracer.metrics()
    search_s = groups.get("search", 0.0)
    metrics["verify.search.nodes_per_s"] = (
        metrics["verify.search.nodes"][0] / search_s if search_s else 0.0, "1/s"
    )
    metrics["bench.untraced_wall_s"] = (untraced_wall, "s")
    metrics["bench.traced_wall_s"] = (traced_wall, "s")
    metrics["bench.trace_overhead_s"] = (traced_wall - untraced_wall, "s")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{workload}.tsv")
    return metrics, attempted + len(items), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "extremal" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'extremal'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        items, setup_times = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, attempted, failed = measure_traced(items, args.workload, args.seconds)
    else:
        metrics, attempted, failed, _ = measure(items, args.seconds)
        metrics = {"setup_s": (statistics.median(setup_times), "s"), **metrics}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if declared != {name: unit for name, (_, unit) in metrics.items()}:
        print("error: metrics differ from those declared in BENCHMARK.json", file=sys.stderr)
        return 3
    print(f"workload={args.workload} seed={args.seed} python={sys.version.split()[0]} nproc={os.cpu_count()}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
