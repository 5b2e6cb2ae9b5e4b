"""Command-line frontend: construct | measure | shift | lex | shadow | verify | search.

`verify` takes exactly one of --exhaustive, --sample, --suite and --rerun,
and every mode runs its recipes through `run_recipe`.  The global options
are --format and --budget (default `DEFAULT_BUDGET`, 10^8 evaluations).
Every emitted report embeds its full run configuration; re-running that
configuration reproduces the result section byte-for-byte (timestamps live
in a separate field), and `verify --rerun` checks that it does.  Exit codes:
0 = no FAIL, 1 = FAIL found or a re-run result differs from the report's,
2 = invalid invocation, 3 = search stopped by its budget before it was
complete.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .constructions import CONSTRUCTION_IDS, build
from .core import SetFamily, dumps_family, mask_of, read_family, write_family
from .measures import measure_profile
from .order import lex_segment, shadow
from .shifting import (
    And,
    CrossTIntersecting,
    MatchingAtMost,
    NonTrivial,
    RhoAtMost,
    TIntersecting,
    shift_ad_extremis,
)
from .verify import (
    REGISTRY,
    load_suite,
    run_recipe,
    run_suite,
    search_max,
)
from .verify.harness import _KINDS
from .verify.recipes import recipe_for, suite_config


def parse_property_spec(text: str, slots: int = 1):
    """Mini-grammar: atoms joined by '&'.

    Atoms: intersecting | t-intersecting(T) | cross(A,B[,T]) | rho<=P/Q |
    nu<=S | nontrivial.  Slotless atoms apply to every slot.
    """
    text = (text or "").strip()
    if not text or text == "none":
        return And(())
    atoms = []
    for tok in text.split("&"):
        tok = tok.strip()
        try:
            atoms.extend(_parse_atom(tok, slots))
        except (ValueError, ZeroDivisionError, IndexError) as exc:
            raise ValueError(f"cannot parse property atom {tok!r}") from exc
    return And(tuple(atoms))


def _parse_atom(tok: str, slots: int) -> list:
    """The atoms that one token stands for; a malformed token raises."""
    if tok == "intersecting":
        return [TIntersecting(s, 1) for s in range(slots)]
    if tok.startswith("t-intersecting(") and tok.endswith(")"):
        t = int(tok[len("t-intersecting(") : -1])
        return [TIntersecting(s, t) for s in range(slots)]
    if tok.startswith("cross(") and tok.endswith(")"):
        a, b, *rest = (p.strip() for p in tok[len("cross(") : -1].split(","))
        a, b = int(a), int(b)
        if not (0 <= a < slots and 0 <= b < slots):
            raise ValueError(f"slot outside 0..{slots - 1}")
        if len(rest) > 1:
            raise ValueError("cross takes two slots and at most one t")
        t = int(rest[0].removeprefix("t=")) if rest else 1
        return [CrossTIntersecting(a, b, t)]
    if tok.startswith("rho<="):
        frac = tok[len("rho<=") :]
        if "/" in frac:
            num, den = frac.split("/")
            c = Fraction(int(num), int(den))
        else:
            c = Fraction(int(frac))
        return [RhoAtMost(s, c) for s in range(slots)]
    if tok.startswith("nu<="):
        s_cap = int(tok[len("nu<=") :])
        return [MatchingAtMost(s, s_cap) for s in range(slots)]
    if tok == "nontrivial":
        return [NonTrivial(s) for s in range(slots)]
    raise ValueError("unknown atom")


def _parse_kv(text: str) -> dict:
    """key=value pairs; a value is read as an int, else a decimal float, else kept as text."""
    out = {}
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        key, val = (part.strip() for part in tok.split("=", 1))
        out[key] = val
        for parse in (int, float):
            try:
                out[key] = parse(val)
                break
            except ValueError:
                pass
    return out


def _emit(report: dict, out: str | None, fmt: str) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(payload + "\n", encoding="utf-8")
    if fmt == "json":
        print(payload)


def _summarize(report: dict) -> str:
    if "reports" in report:
        return f"suite: {len(report['reports'])} sweeps"
    res = report.get("result", {})
    totals = res.get("totals", {})
    return (
        f"id={res.get('id')} pass={totals.get('pass')} vacuous={totals.get('vacuous')} "
        f"fail={totals.get('fail')} budget_used={res.get('budget_used')}"
    )


def _profile_lines(fam: SetFamily, fmt: str) -> str:
    prof = measure_profile(fam).to_json_dict()
    if fmt == "json":
        return json.dumps(prof, indent=2, sort_keys=True)
    if fmt == "csv":
        keys = ["size", "rho", "nu", "initial"]
        taus = ",".join(f"tau{t}={v}" for t, v in sorted(prof["tau"].items()))
        return ",".join(f"{k}={prof[k]}" for k in keys) + ("," + taus if taus else "")
    lines = [f"size     {prof['size']}", f"rho      {prof['rho']}"]
    for t, v in sorted(prof["tau"].items()):
        lines.append(f"tau_{t}    {v}")
    lines.append(f"nu       {prof['nu']}")
    for j, v in sorted(prof["t_levels"].items()):
        lines.append(f"t_{j}      {v}")
    lines.append(f"initial  {prof['initial']}")
    return "\n".join(lines)


def cmd_construct(args) -> int:
    params = tuple(int(p) for p in args.params.split(",") if p.strip()) if args.params else ()
    nf = build(args.id, params)
    outputs = []
    if args.out:
        base = Path(args.out)
        if len(nf.families) == 1:
            targets = [(base, nf.families[0][1])]
        else:
            targets = [
                (base.with_name(f"{base.stem}.{label}{base.suffix}"), fam)
                for label, fam in nf.families
            ]
        for path, fam in targets:
            write_family(fam, path)
            outputs.append(str(path))
    if nf.predicted_size is not None:
        print(f"[{nf.id}] predicted_total={nf.predicted_size}")
    for label, fam in nf.families:
        print(f"[{nf.id}:{label}] size={len(fam)}")
        print(_profile_lines(fam, args.format))
    if outputs:
        print("wrote: " + ", ".join(outputs))
    return 0


def cmd_measure(args) -> int:
    fam = read_family(args.infile)
    if len(fam) == 0:
        print("warning: empty family; rho reported as 0/1 by convention", file=sys.stderr)
    print(_profile_lines(fam, args.format))
    return 0


def cmd_shift(args) -> int:
    fams = tuple(read_family(p) for p in args.infiles)
    prop = parse_property_spec(args.prop, slots=len(fams))
    shifted, trace = shift_ad_extremis(fams, prop)
    prefix = args.out_prefix or "shifted"
    paths = []
    for idx, fam in enumerate(shifted):
        path = f"{prefix}.{idx}.txt"
        write_family(fam, path)
        paths.append(path)
    trace_path = f"{prefix}.trace.json"
    Path(trace_path).write_text(trace.to_json() + "\n", encoding="utf-8")
    print(f"wrote {', '.join(paths)} and {trace_path}")
    print(f"steps={len(trace.steps)} resistant={trace.resistant_pairs}")
    return 0


def cmd_lex(args) -> int:
    ground = (
        mask_of(int(e) for e in args.ground.split(","))
        if args.ground
        else mask_of(range(1, args.n + 1))
    )
    text = dumps_family(lex_segment(ground, args.k, args.m, n=args.n))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_shadow(args) -> int:
    fam = read_family(args.infile)
    sh = shadow(fam, args.l)
    text = dumps_family(sh)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out} (size {len(sh)})")
    else:
        print(text, end="")
    return 0


def _single_recipe(args) -> dict:
    """The one recipe that --sample or --exhaustive describes."""
    if args.sample is not None:
        return recipe_for(args.id, overrides=_parse_kv(args.sample))
    if args.id not in REGISTRY:
        raise ValueError(f"unknown statement id {args.id!r}")
    grid = _parse_kv(args.exhaustive)
    # the keys the statement kind's spaces read are grid dimensions, the others parameters
    dim_keys = (*_KINDS[REGISTRY[args.id].kind][2], "space")
    dims = {k: grid.pop(k) for k in dim_keys if k in grid}
    dims["params"] = grid
    return {"id": args.id, "mode": "exhaustive", "grid": dims}


def cmd_verify(args) -> int:
    budget = args.budget
    only = set(args.id.split(",")) if args.id else None
    originals = []
    if args.rerun:
        original = json.loads(Path(args.rerun).read_text(encoding="utf-8"))
        found = original.get("reports", [original]) if isinstance(original, dict) else []
        if not found or not all(
            isinstance(rep, dict) and isinstance(rep.get("config"), dict) for rep in found
        ):
            raise ValueError(f"{args.rerun} holds neither a report nor a suite bundle")
        if only:
            missing = sorted(only - {rep["config"].get("id") for rep in found})
            if missing:
                raise ValueError(f"{args.rerun} has no report for id {', '.join(missing)}")
            found = [rep for rep in found if rep["config"].get("id") in only]
        reports = [run_recipe(rep["config"], budget=budget) for rep in found]
        originals = [rep.get("result") for rep in found]
    elif args.suite is not None:
        config = load_suite(args.suite) if args.suite else suite_config()
        if budget is not None:
            config["budget"] = budget
        reports = run_suite(config, only=only)
    else:
        reports = [run_recipe(_single_recipe(args), budget=budget)]
    run_config = {
        "command": "verify",
        "params": {"id": args.id, "exhaustive": args.exhaustive, "sample": args.sample,
                   "suite": args.suite, "rerun": args.rerun},
        "budget": budget,
        "out": args.out,
        "format": args.format,
    }
    bundle = {"run_config": run_config, "reports": reports,
              "timestamp": {"unix": time.time()}} if len(reports) != 1 else {
        "run_config": run_config, **reports[0], "timestamp": {"unix": time.time()}}
    _emit(bundle, args.out, args.format)
    for rep in reports:
        print(_summarize(rep))
    differs = False
    for rep, result in zip(reports, originals):
        if json.dumps(rep["result"], sort_keys=True) != json.dumps(result, sort_keys=True):
            print(f"error: rerun of {rep['result']['id']} does not reproduce its result",
                  file=sys.stderr)
            differs = True
    any_fail = any(rep["result"]["totals"]["fail"] > 0 for rep in reports)
    return 1 if any_fail or differs else 0


def cmd_search(args) -> int:
    prop = parse_property_spec(args.prop, slots=1)
    result = search_max(args.n, args.k, prop, budget=args.budget)
    run_config = {
        "command": "search",
        "params": {"n": args.n, "k": args.k, "prop": args.prop},
        "budget": args.budget,
        "out": args.out,
        "format": args.format,
    }
    report = {"run_config": run_config, "result": result.to_json_dict(),
              "timestamp": {"unix": time.time()}}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(json.dumps(report["result"], sort_keys=True))
    if not result.complete:
        print(f"note: budget ran out after {result.evaluations} evaluations; "
              "max_size is a lower bound, not the maximum", file=sys.stderr)
        return 3
    return 0


def _add_global_options(parser: argparse.ArgumentParser, defaults: dict) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), default=defaults["format"])
    parser.add_argument("--budget", type=int, default=defaults["budget"],
                        help="evaluation budget (default 10^8)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremal",
        description="Exact set-family combinatorics: constructions, measures, "
        "shifting fixpoints, shadows, statement sweeps, and extremal search.",
    )
    defaults = {"format": "text", "budget": None}
    _add_global_options(parser, defaults)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help: str) -> argparse.ArgumentParser:
        # the global options are accepted after the subcommand too; a subcommand
        # that is not given one keeps the value parsed before it
        p = sub.add_parser(name, help=help)
        _add_global_options(p, dict.fromkeys(defaults, argparse.SUPPRESS))
        return p

    p = add_command("construct", help="materialize a named family")
    p.add_argument("--id", required=True, choices=CONSTRUCTION_IDS)
    p.add_argument("--params", default="")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_construct)

    p = add_command("measure", help="measure a family file")
    p.add_argument("infile")
    p.set_defaults(fn=cmd_measure)

    p = add_command("shift", help="shift families ad extremis under a property")
    p.add_argument("infiles", nargs="+")
    p.add_argument("--prop", default="")
    p.add_argument("--out-prefix")
    p.set_defaults(fn=cmd_shift)

    p = add_command("lex", help="write a lexicographic segment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ground", help="comma-separated ground elements (default [n])")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_lex)

    p = add_command("shadow", help="compute the l-th shadow of a family file")
    p.add_argument("infile")
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_shadow)

    p = add_command("verify", help="run statement sweeps")
    p.add_argument("--id", help="statement id (or comma list with --suite and --rerun)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", help="grid, e.g. n=5,k=2,t=1[,space=initial]; space "
                      "defaults to the statement's, else families, dual-pairs or grid by kind")
    mode.add_argument("--sample", nargs="?", const="",
                      help="the id's shipped sample recipe, with overrides such as "
                      "n=24,k=3,d=2,count=200,seed=7")
    mode.add_argument("--suite", nargs="?", const="",
                      help="run a suite config JSON, or the shipped suite when no path is given")
    mode.add_argument("--rerun",
                      help="re-run an emitted report; exit 1 unless its result reproduces")
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(fn=cmd_verify)

    p = add_command("search", help="exact max family size under a property")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--prop", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the one error exit: bad input, an exhausted budget (a BudgetError is a ValueError)
    # or an unreadable file
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
