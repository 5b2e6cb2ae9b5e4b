"""CLI round trips, exit codes, and report reproducibility."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from extremal.cli import build_parser, main, parse_property_spec
from extremal.constructions import CONSTRUCTION_IDS, param_names
from extremal.core import read_family
from extremal.measures import rho
from extremal.shifting import CrossTIntersecting, RhoAtMost, TIntersecting
from extremal.verify.recipes import RECIPES, suite_config


SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"

# a well-formed sample suite entry; cases replace one field
SAMPLE_ENTRY = {"id": "KATONA", "mode": "sample", "count": 2, "seed": 1,
                "instance": RECIPES["KATONA"]["instance"]}


def run_cli(args, cwd, **kwargs):
    # A relative PYTHONPATH (e.g. "src") would resolve against cwd in the
    # child, so put the absolute src directory first.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "extremal.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        **kwargs,
    )


class TestPropertySpec:
    def test_atoms(self):
        p = parse_property_spec("intersecting&rho<=2/3", slots=1)
        kinds = {type(a) for a in p.children}
        assert kinds == {TIntersecting, RhoAtMost}

    def test_cross_and_slots(self):
        p = parse_property_spec("cross(0,1,t=1)&rho<=1/2", slots=2)
        assert sum(isinstance(a, CrossTIntersecting) for a in p.children) == 1
        assert sum(isinstance(a, RhoAtMost) for a in p.children) == 2

    def test_empty_spec(self):
        assert parse_property_spec("", slots=1).children == ()

    def test_bad_atom(self):
        with pytest.raises(ValueError):
            parse_property_spec("bogus(1)", slots=1)


class TestConstructMeasure:
    def test_construct_fano_and_measure(self, tmp_path):
        out = tmp_path / "fano.txt"
        assert main(["construct", "--id", "fano", "--out", str(out)]) == 0
        fam = read_family(out)
        assert len(fam) == 7
        assert main(["measure", str(out)]) == 0

    def test_construct_star(self, tmp_path):
        out = tmp_path / "star.txt"
        assert main(["construct", "--id", "star", "--params", "4,2,1", "--out", str(out)]) == 0
        assert read_family(out).sets() == [(1, 2), (1, 3), (1, 4)]

    def test_construct_triangle(self, tmp_path):
        out = tmp_path / "tri.txt"
        assert main(["construct", "--id", "triangle", "--params", "6,3", "--out", str(out)]) == 0
        assert len(read_family(out)) == 10

    def test_construct_pair_writes_two_files(self, tmp_path):
        out = tmp_path / "pair.txt"
        assert main(["construct", "--id", "ex_1_8", "--params", "10,4", "--out", str(out)]) == 0
        assert len(read_family(tmp_path / "pair.anchored.txt")) == 55
        assert len(read_family(tmp_path / "pair.crossing.txt")) == 85

    def test_wrong_parameter_count_exit_2(self, capsys):
        assert main(["construct", "--id", "star", "--params", "4,2"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: star takes 3 parameters (n, k, t), got 2"]
        assert main(["construct", "--id", "fano", "--params", "3"]) == 2
        assert capsys.readouterr().err.strip() == "error: fano takes 0 parameters, got 1"

    @pytest.mark.parametrize("cid,params,total", [
        ("brace_daykin", "5,3", 10),
        ("frankl", "6,3,1", 10),
        ("ex_1_8", "10,4", 140),
        ("threshold", "6,3,3,2", 10),
        ("blocks", "2,3", 11),
        ("plane", "3", 13),
        ("plane", "4", 21),
        ("fano", "", 7),
        ("full", "5,2", 10),
    ])
    def test_predicted_total_printed_once(self, capsys, cid, params, total):
        assert main(["construct", "--id", cid, "--params", params]) == 0
        out = capsys.readouterr().out
        assert out.count("predicted_total") == 1
        assert f"[{cid}] predicted_total={total}\n" in out

    def test_csv_profile_of_the_order_4_plane(self, capsys):
        assert main(["--format", "csv", "construct", "--id", "plane", "--params", "4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == ("size=21,rho=5/21,nu=1,initial=False,"
                           "tau1=5,tau2=12,tau3=15,tau4=20,tau5=21")

    def test_no_predicted_total_without_closed_form(self, capsys):
        assert main(["construct", "--id", "ex_1_7", "--params", "8,3"]) == 0
        assert "predicted_total" not in capsys.readouterr().out

    def test_round_trip_measure_matches_library(self, tmp_path, capsys):
        out = tmp_path / "tri.txt"
        main(["construct", "--id", "triangle", "--params", "6,3", "--out", str(out)])
        capsys.readouterr()
        assert main(["--format", "json", "measure", str(out)]) == 0
        prof = json.loads(capsys.readouterr().out)
        fam = read_family(out)
        assert prof["rho"] == f"{rho(fam).numerator}/{rho(fam).denominator}"
        assert prof["size"] == 10


class TestShiftCommand:
    def test_unconstrained_shift(self, tmp_path):
        fam_file = tmp_path / "f.txt"
        fam_file.write_text("4 2\n2,3\n", encoding="utf-8")
        prefix = tmp_path / "out"
        assert main(["shift", str(fam_file), "--out-prefix", str(prefix)]) == 0
        shifted = read_family(f"{prefix}.0.txt")
        assert shifted.sets() == [(1, 2)]
        trace = json.loads(Path(f"{prefix}.trace.json").read_text(encoding="utf-8"))
        assert trace["resistant"] == []

    def test_guarded_shift_reports_resistant(self, tmp_path):
        fam_file = tmp_path / "f.txt"
        fam_file.write_text("4 2\n1,2\n3,4\n", encoding="utf-8")
        prefix = tmp_path / "out"
        assert main(["shift", str(fam_file), "--prop", "rho<=1/2",
                     "--out-prefix", str(prefix)]) == 0
        shifted = read_family(f"{prefix}.0.txt")
        assert shifted.sets() == [(1, 2), (3, 4)]
        trace = json.loads(Path(f"{prefix}.trace.json").read_text(encoding="utf-8"))
        assert [1, 3] in trace["resistant"]

    def test_property_fails_on_input_exit_2(self, tmp_path):
        fam_file = tmp_path / "f.txt"
        fam_file.write_text("4 2\n1,2\n3,4\n", encoding="utf-8")
        assert main(["shift", str(fam_file), "--prop", "intersecting"]) == 2

    def test_zero_denominator_exit_2(self, tmp_path, capsys):
        fam_file = tmp_path / "f.txt"
        fam_file.write_text("4 2\n1,2\n3,4\n", encoding="utf-8")
        assert main(["shift", str(fam_file), "--prop", "rho<=1/0"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: cannot parse property atom 'rho<=1/0'"]

    @pytest.mark.parametrize("files, prop", [
        (1, "cross(0,1)"),
        (1, "cross(-1,0)"),
        (2, "cross(0,2)"),
        (2, "rho<=1/2&cross(1,-2,t=1)"),
        (2, "cross(0,1,2,3)"),
        (2, "cross(0,1,foo=2)"),
    ])
    def test_cross_slot_outside_files_exit_2(self, tmp_path, capsys, files, prop):
        paths = []
        for idx in range(files):
            path = tmp_path / f"f{idx}.txt"
            path.write_text("4 2\n1,2\n1,3\n", encoding="utf-8")
            paths.append(str(path))
        assert main(["shift", *paths, "--prop", prop,
                     "--out-prefix", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        bad = prop.split("&")[-1]
        assert err == [f"error: cannot parse property atom '{bad}'"]


class TestLexShadow:
    def test_lex(self, capsys):
        assert main(["lex", "--n", "4", "--k", "2", "--m", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["4 2", "1,2", "1,3", "1,4"]

    # a segment that `lex` writes must read back: a ground element above --n is refused
    def test_lex_ground_above_n_exit_2(self, tmp_path, capsys):
        out = tmp_path / "seg.txt"
        argv = ["lex", "--n", "3", "--k", "2", "--m", "1", "--ground", "5,6", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: ground element 6 is above n=3"]
        assert not out.exists()
        argv[argv.index("5,6")] = "2,3"
        assert main(argv) == 0
        assert main(["measure", str(out)]) == 0

    def test_shadow(self, tmp_path, capsys):
        fam_file = tmp_path / "f.txt"
        fam_file.write_text("3 3\n1,2,3\n", encoding="utf-8")
        assert main(["shadow", str(fam_file)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["3 2", "1,2", "1,3", "2,3"]


class TestVerifyCommand:
    def test_exhaustive_exit_zero(self, tmp_path):
        report = tmp_path / "r.json"
        rc = main(["verify", "--id", "KATONA", "--exhaustive", "n=5,k=2,t=1,l=1",
                   "--out", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["result"]["totals"]["fail"] == 0
        assert payload["result"]["extras"]["equality"] == 10

    def test_l_is_a_dimension_for_pair_statements_only(self, tmp_path):
        pair, family = tmp_path / "pair.json", tmp_path / "family.json"
        assert main(["verify", "--id", "PROP_3_15", "--exhaustive",
                     "n=5,k=2,l=3,space=initial-pairs", "--out", str(pair)]) == 0
        assert main(["verify", "--id", "KATONA", "--exhaustive", "n=5,k=2,t=1,l=1",
                     "--out", str(family)]) == 0
        grid = json.loads(pair.read_text(encoding="utf-8"))["config"]["grid"]
        assert grid == {"n": 5, "k": 2, "l": 3, "space": "initial-pairs", "params": {}}
        grid = json.loads(family.read_text(encoding="utf-8"))["config"]["grid"]
        assert grid == {"n": 5, "k": 2, "space": "families", "params": {"l": 1, "t": 1}}

    def test_sample_uses_default_recipe(self, tmp_path):
        report = tmp_path / "r.json"
        rc = main(["verify", "--id", "PROP_1_3", "--sample", "count=50,seed=9",
                   "--out", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["result"]["totals"]["fail"] == 0

    def test_rerun_reproduces(self, tmp_path):
        report = tmp_path / "r.json"
        main(["verify", "--id", "PROP_1_3", "--sample", "count=50,seed=9",
              "--out", str(report)])
        payload = json.loads(report.read_text(encoding="utf-8"))
        rerun_out = tmp_path / "r2.json"
        rc = main(["verify", "--rerun", str(report), "--out", str(rerun_out)])
        assert rc == 0
        again = json.loads(rerun_out.read_text(encoding="utf-8"))
        assert json.dumps(payload["result"], sort_keys=True) == json.dumps(
            again["result"], sort_keys=True
        )

    def test_sampled_draws_rerun_identically(self, tmp_path):
        # BINOM_1_11 draws n, k and i; a re-run reads them back from the report
        report = tmp_path / "r.json"
        assert main(["verify", "--id", "BINOM_1_11", "--sample", "count=200",
                     "--out", str(report)]) == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        rerun_out = tmp_path / "r2.json"
        assert main(["verify", "--rerun", str(report), "--out", str(rerun_out)]) == 0
        again = json.loads(rerun_out.read_text(encoding="utf-8"))
        assert payload["result"] == again["result"]

    def test_rerun_that_differs_exits_1(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["verify", "--id", "PROP_1_3", "--sample", "count=50,seed=9",
                     "--out", str(report)]) == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        payload["result"]["totals"]["pass"] += 1
        report.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", "--rerun", str(report)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: rerun of PROP_1_3 does not reproduce its result"]

    @pytest.mark.parametrize("option, payload, message", [
        ("--rerun", {"config": {"id": "KATONA"}}, "recipe has no mode"),
        ("--suite", {"entries": [{"id": "KATONA"}]}, "recipe has no mode"),
        ("--suite", {"entries": [{"id": "KATONA", "mode": "exhaustive"}]},
         "exhaustive recipe lacks grid"),
        ("--suite", [1], "holds no suite"),
        ("--suite", {"entries": [1]}, "holds no suite"),
        ("--suite", {"entries": [dict(SAMPLE_ENTRY, instance={"family": {"mode": "uniform"}})]},
         "family spec lacks 'n'"),
        ("--suite", {"entries": [dict(SAMPLE_ENTRY, id="HILTON",
                                      instance={"pair": {"mode": "cross-dual"}})]},
         "pair spec lacks 'base'"),
        ("--suite", {"entries": [dict(SAMPLE_ENTRY, id="BD_5_1",
                                      instance={"slices": {"n": 8, "r": 3}})]},
         "slices spec lacks 'mode'"),
        ("--suite", {"entries": [dict(SAMPLE_ENTRY, instance={})]},
         "KATONA instance spec lacks 'family'"),
        # a generator field read as an int must be one; 3.0 would hash as 3 in the caches
        ("--suite", {"entries": [dict(SAMPLE_ENTRY, instance={
            "family": {"mode": "uniform", "n": 8.0, "k": 3}})]},
         "family spec field 'n' must be an int, got 8.0"),
        ("--rerun", {"config": dict(SAMPLE_ENTRY, id="HILTON", instance={
            "pair": {"mode": "cross-dual", "base": {"mode": "uniform", "n": 8, "k": 3},
                     "t": "1"}})},
         "pair spec field 't' must be an int, got '1'"),
        ("--suite", {"entries": [dict(SAMPLE_ENTRY, id="HILTON", instance={
            "pair": {"mode": "cross-dual", "base": {"mode": "uniform", "n": 8, "k": 3},
                     "l": 3.0}})]},
         "pair spec field 'l' must be an int, got 3.0"),
        ("--suite", {"entries": [dict(SAMPLE_ENTRY, id="BD_5_1", instance={
            "slices": {"mode": "bd-sub", "n": 8, "r": "3"}})]},
         "slices spec field 'r' must be an int, got '3'"),
        # grid dimensions: an int l, and int [lo, hi] ranges with lo <= hi
        ("--suite", {"entries": [{"id": "PROP_3_15", "mode": "exhaustive",
                                  "grid": {"n": 5, "k": 2, "l": 3.0, "space": "initial-pairs"}}]},
         "grid dimension 'l' must be an int, got 3.0"),
        ("--suite", {"entries": [{"id": "BINOM_1_11", "mode": "exhaustive", "grid": {
            "n": [9, 2], "k": [1, 3], "i": [1, 2], "space": "grid"}}]},
         "grid dimension 'n' must be an int range [lo, hi] with lo <= hi, got [9, 2]"),
        ("--suite", {"entries": [{"id": "BINOM_1_11", "mode": "exhaustive", "grid": {
            "n": ["a", 5], "k": [1, 3], "i": [1, 2], "space": "grid"}}]},
         "grid dimension 'n' must be an int range"),
        ("--suite", {"entries": [{"id": "BINOM_1_11", "mode": "exhaustive", "grid": {
            "n": [2, 9, 1], "k": [1, 3], "i": [1, 2], "space": "grid"}}]},
         "grid dimension 'n' must be an int range"),
        # a probability is a number (not a bool), and a count of draws is an int
        ("--suite", {"entries": [dict(SAMPLE_ENTRY, instance={
            "family": {"mode": "uniform", "n": 8, "k": 3, "density": "x"}})]},
         "family spec field 'density' must be a number, got 'x'"),
        ("--suite", {"entries": [dict(SAMPLE_ENTRY, instance={
            "family": {"mode": "star-perturbation", "n": 8, "k": 3, "adds": 2.5}})]},
         "family spec field 'adds' must be an int, got 2.5"),
        ("--suite", {"entries": [dict(SAMPLE_ENTRY, id="HILTON", instance={
            "pair": {"mode": "star-pair", "n": 8, "k": 3, "keep_b": True}})]},
         "pair spec field 'keep_b' must be a number, got True"),
    ])
    def test_malformed_recipe_exit_2(self, tmp_path, capsys, option, payload, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", option, str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0]

    def test_invalid_invocation_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--id", "KATONA"])
        assert exc.value.code == 2
        assert main(["verify", "--id", "NOPE", "--sample", "count=5"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["--id", "KATONA", "--exhaustive", "n=5"], "needs grid dimension 'k'"),
        (["--id", "KATONA", "--exhaustive", "n=5,k=2"], "KATONA needs parameter 'l'"),
        (["--id", "FACT_3_13", "--exhaustive", "a=1"], "FACT_3_13 needs parameter 'A'"),
    ])
    def test_missing_parameter_exit_2(self, capsys, argv, message):
        assert main(["verify", *argv]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0]

    @pytest.mark.parametrize("argv, message", [
        (["--id", "LEM_3_7", "--exhaustive", "n=5,k=2,space=families"],
         "LEM_3_7 is a pair statement; the spaces it may sweep: dual-pairs, initial-pairs; "
         "got 'families'"),
        (["--id", "FACT_3_1", "--exhaustive", "n=6,k=3,space=initial"],
         "FACT_3_1 is a pair statement; the spaces it may sweep: dual-pairs, initial-pairs; "
         "got 'initial'"),
        (["--id", "EQ_2_1", "--exhaustive", "n=6,k=3,space=initial-pairs"],
         "EQ_2_1 is a family statement; the spaces it may sweep: families, initial; "
         "got 'initial-pairs'"),
        (["--id", "BD_5_1", "--exhaustive", "n=5,k=2"],
         "BD_5_1 is a slices statement; the spaces it may sweep: none"),
    ])
    def test_space_of_another_kind_exit_2(self, capsys, argv, message):
        assert main(["verify", *argv]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {message}"]

    @pytest.mark.parametrize("sid, grid, space, l", [
        ("HILTON", "n=5,k=2,l=9", "dual-pairs", 9),
        ("FACT_3_1", "n=5,k=2,l=7,space=initial-pairs", "initial-pairs", 7),
    ])
    def test_pair_space_l_outside_0_n_exit_2(self, capsys, sid, grid, space, l):
        assert main(["verify", "--id", sid, "--exhaustive", grid]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {space} grid dimension 'l' must lie in [0, n=5], got {l}"]

    @pytest.mark.parametrize("space", ["", ",space=dual-pairs"])
    def test_pair_statement_defaults_to_dual_pairs(self, capsys, space):
        assert main(["verify", "--id", "LEM_3_7", "--exhaustive", f"n=5,k=2{space}"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["id=LEM_3_7 pass=0 vacuous=6212 fail=0 budget_used=12424"]

    def test_initial_space_counted_by_listing(self, capsys):
        # 84 3-sets of [9]: a size cap would refuse it, though it holds 21,760 families
        argv = ["verify", "--id", "EQ_2_1", "--exhaustive", "n=9,k=3,space=initial"]
        assert main(argv) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["id=EQ_2_1 pass=21760 vacuous=0 fail=0 budget_used=43520"]
        assert main([*argv, "--budget", "43519"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: at least 43520 evaluations exceed budget 43519 "
                       "(counting stopped there)"]

    @pytest.mark.parametrize("grid", ["n=40,k=20,t=1", "n=40,k=20,t=1,space=initial"])
    def test_huge_space_refused_from_its_exponent(self, tmp_path, grid):
        resource = pytest.importorskip("resource")
        gib = 1 << 30

        def limit_memory():
            # 2**C(40,20) as an int would take 17 GB; forming it fails fast under 1 GB
            resource.setrlimit(resource.RLIMIT_AS, (gib, gib))

        proc = run_cli(["verify", "--id", "EKR_1_1", "--exhaustive", grid], cwd=tmp_path,
                       preexec_fn=limit_memory, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: estimated 2**137846528821 evaluations")
        assert proc.stderr.rstrip().endswith("exceed budget 100000000")

    @pytest.mark.parametrize("space", ["", ",space=initial"])
    @pytest.mark.parametrize("l", ["1/2", "-1/3"])
    def test_kk_non_int_l_exit_2(self, capsys, space, l):
        argv = ["verify", "--id", "KRUSKAL_KATONA", "--exhaustive", f"n=4,k=2,l={l}{space}"]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "parameter 'l'" in err[0]

    @pytest.mark.parametrize("sid, grid, key", [
        ("EKR_1_1", "t=1/2", "t"),
        ("KATONA", "t=1,l=1/2", "l"),
    ])
    def test_non_int_param_exit_2(self, capsys, sid, grid, key):
        assert main(["verify", "--id", sid, "--exhaustive", f"n=4,k=2,{grid}"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"parameter '{key}' must be an int" in err[0]

    @pytest.mark.parametrize("space, count", [("", 64), (",space=initial", 8)])
    @pytest.mark.parametrize("l", [-1, 3])
    def test_kk_l_outside_0_k_is_vacuous(self, tmp_path, space, count, l):
        out = tmp_path / "kk.json"
        argv = ["verify", "--id", "KRUSKAL_KATONA", "--exhaustive", f"n=4,k=2,l={l}{space}",
                "--out", str(out)]
        assert main(argv) == 0
        result = json.loads(out.read_text(encoding="utf-8"))["result"]
        assert result["totals"] == {"pass": 0, "vacuous": count, "fail": 0}
        assert result["budget_used"] == 2 * count

    @pytest.mark.parametrize("sample, code", [
        ("count=-3", 2),
        ("count=x", 2),
        ("seed=x", 2),
        ("t=x", 2),
        ("eps=0.5", 2),
        ("keep=x,count=5", 2),
        ("n=7.5,count=5", 2),
        ("keep=0.3,count=20", 0),
    ])
    def test_sample_values_checked(self, capsys, sample, code):
        assert main(["verify", "--id", "KATONA", "--sample", sample]) == code
        err = capsys.readouterr().err.strip().splitlines()
        if code == 2:
            assert len(err) == 1 and sample.split("=")[0] in err[0]
        else:
            assert err == []

    @pytest.mark.parametrize("sid, sample, named", [
        ("LEM_3_7", "n=9,count=3", ("lem37", "1 <= k <= n - 7", "n=9")),
        ("COR_1_6_1_7", "l=12,count=3", ("cross-dual", "field 'l'", "[0, n=9]")),
    ])
    def test_undrawable_pair_spec_names_mode_and_field(self, capsys, sid, sample, named):
        assert main(["verify", "--id", sid, "--sample", sample]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and all(part in err[0] for part in named), err

    @pytest.mark.parametrize("sid, sample, why", [
        ("BINOM_1_11", "k=4", "'k': the recipe draws it"),
        ("FACT_3_13", "a=0,count=5", "'a': the recipe draws it"),
        ("LEM_3_5", "R=1,count=5", "'R': it holds a list or a dict"),
    ])
    def test_sample_override_that_cannot_apply_exit_2(self, capsys, sid, sample, why):
        assert main(["verify", "--id", sid, "--sample", sample]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {sid} cannot override {why}"]

    def test_sample_reproduces_suite_entry(self, tmp_path):
        sample, suite = tmp_path / "sample.json", tmp_path / "suite.json"
        assert main(["verify", "--id", "KATONA", "--sample", "--out", str(sample)]) == 0
        assert main(["verify", "--suite", "--id", "KATONA", "--out", str(suite)]) == 0
        reports = json.loads(suite.read_text(encoding="utf-8"))["reports"]
        [from_suite] = [r["result"] for r in reports if r["config"]["mode"] == "sample"]
        assert json.loads(sample.read_text(encoding="utf-8"))["result"] == from_suite

    def test_budget_refusal_exit_2(self):
        assert main(["--budget", "100", "verify", "--id", "KATONA",
                     "--exhaustive", "n=5,k=2,t=1,l=1"]) == 2

    def test_budget_refusal_after_subcommand_exit_2(self):
        assert main(["verify", "--id", "KATONA", "--exhaustive", "n=5,k=2,t=1,l=1",
                     "--budget", "100"]) == 2

    def test_suite_unknown_id_exit_2(self, capsys):
        rc = main(["verify", "--suite", "--id", "NOPE,KATONA,ZZZ"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "NOPE, ZZZ" in err[0]

    def test_suite_honours_budget(self, capsys):
        rc = main(["verify", "--suite", "--id", "KATONA", "--budget", "10"])
        assert rc == 2
        assert "exceed budget 10" in capsys.readouterr().err

    def test_rerun_honours_budget(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["verify", "--id", "PROP_1_3", "--sample", "count=50,seed=9",
                     "--out", str(report)]) == 0
        capsys.readouterr()
        assert main(["verify", "--rerun", str(report), "--budget", "10"]) == 2
        assert "exceed budget 10" in capsys.readouterr().err

    # one budget rule for suite files, reports and --budget: None is the default, an int of
    # at least 1 or an integral float (JSON 1e8) is taken, anything else exits 2 by name
    @pytest.mark.parametrize("option, payload, named", [
        ("--suite", {"budget": "1e8", "entries": [SAMPLE_ENTRY]}, "'1e8'"),
        ("--suite", {"budget": True, "entries": [SAMPLE_ENTRY]}, "True"),
        ("--rerun", {"config": dict(SAMPLE_ENTRY, budget=[10**8])}, "[100000000]"),
        ("--rerun", {"config": {"id": "EKR_1_1", "mode": "exhaustive",
                                "grid": {"n": 4, "k": 2, "params": {"t": 1}},
                                "budget": "1e8"}}, "'1e8'"),
    ])
    def test_malformed_budget_exit_2(self, tmp_path, capsys, option, payload, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", option, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert err == [f"error: budget must be at least 1 evaluation, got {named}"]

    def test_rerun_suite_bundle(self, tmp_path):
        bundle = tmp_path / "suite.json"
        assert main(["verify", "--suite", "--id", "KATONA,HILTON",
                     "--out", str(bundle)]) == 0
        first = json.loads(bundle.read_text(encoding="utf-8"))
        again_path = tmp_path / "again.json"
        assert main(["verify", "--rerun", str(bundle), "--out", str(again_path)]) == 0
        again = json.loads(again_path.read_text(encoding="utf-8"))
        results = [json.dumps(r["result"], sort_keys=True) for r in first["reports"]]
        assert len(results) == 4
        assert results == [json.dumps(r["result"], sort_keys=True) for r in again["reports"]]

    def test_suite_file_matches_shipped_suite(self, tmp_path):
        config = suite_config()
        config["entries"] = [e for e in config["entries"] if e["id"] in ("KATONA", "HILTON")]
        suite_file = tmp_path / "suite.json"
        suite_file.write_text(json.dumps(config), encoding="utf-8")
        from_file, shipped = tmp_path / "from_file.json", tmp_path / "shipped.json"
        assert main(["verify", "--suite", str(suite_file), "--out", str(from_file)]) == 0
        assert main(["verify", "--suite", "--id", "KATONA,HILTON", "--out", str(shipped)]) == 0
        results = [
            [r["result"] for r in json.loads(p.read_text(encoding="utf-8"))["reports"]]
            for p in (from_file, shipped)
        ]
        assert len(results[0]) == 4 and results[0] == results[1]

    def test_rerun_selects_by_id(self, tmp_path, capsys):
        reports = []
        for sid in ("PROP_1_3", "KRUSKAL_KATONA"):
            path = tmp_path / f"{sid}.json"
            assert main(["verify", "--id", sid, "--sample", "count=20,seed=3",
                         "--out", str(path)]) == 0
            reports.append(json.loads(path.read_text(encoding="utf-8")))
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps({"reports": reports}), encoding="utf-8")
        again = tmp_path / "again.json"
        assert main(["verify", "--rerun", str(bundle), "--id", "KRUSKAL_KATONA",
                     "--out", str(again)]) == 0
        rerun = json.loads(again.read_text(encoding="utf-8"))
        assert rerun["result"] == reports[1]["result"]
        capsys.readouterr()
        assert main(["verify", "--rerun", str(bundle), "--id", "NOPE,PROP_1_3,ZZZ"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {bundle} has no report for id NOPE, ZZZ"]

    @pytest.mark.parametrize("payload", [
        {"run_config": {}}, {"reports": [{"result": {}}]}, [1], {"config": 5},
    ])
    def test_rerun_needs_report_or_bundle(self, tmp_path, capsys, payload):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", "--rerun", str(bogus)]) == 2
        assert "neither a report nor a suite bundle" in capsys.readouterr().err


class TestVerifyFailExit:
    def test_fail_yields_exit_1(self, tmp_path):
        from extremal.verify import REGISTRY
        from extremal.verify.registry import Statement

        sid = "_CLI_FALSE_TEST"
        REGISTRY[sid] = Statement(
            sid, "family",
            hypothesis=lambda i: True,
            conclusion=lambda i: len(i.families[0]) == 0,
            description="synthetic",
        )
        try:
            report = tmp_path / "r.json"
            rc = main(["verify", "--id", sid, "--exhaustive", "n=4,k=2",
                       "--out", str(report)])
            assert rc == 1
            payload = json.loads(report.read_text(encoding="utf-8"))
            assert payload["result"]["totals"]["fail"] == 1
            assert payload["result"]["witnesses"]
        finally:
            del REGISTRY[sid]


class TestSearchCommand:
    def test_search_triangle(self, capsys):
        rc = main(["search", "--n", "5", "--k", "2", "--prop", "intersecting&rho<=2/3"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["max_size"] == 3 and out["complete"]

    def test_search_out_of_budget_exits_3(self, capsys):
        rc = main(["--budget", "50", "search", "--n", "7", "--k", "3",
                   "--prop", "intersecting&rho<=1/2"])
        assert rc == 3
        captured = capsys.readouterr()
        out = json.loads(captured.out.strip().splitlines()[-1])
        assert not out["complete"]
        assert len(captured.err.strip().splitlines()) == 1
        assert "lower bound" in captured.err

    def test_search_budget_after_subcommand_exits_3(self, capsys):
        rc = main(["search", "--n", "7", "--k", "3", "--prop", "intersecting&rho<=1/2",
                   "--budget", "50"])
        assert rc == 3
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert not out["complete"] and out["evaluations"] == 51

    # a budget below 1 is refused before the search starts, as `verify` refuses it
    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_search_budget_below_one_exit_2(self, capsys, budget):
        rc = main(["--budget", budget, "search", "--n", "7", "--k", "3",
                   "--prop", "intersecting&rho<=1/2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "budget" in err[0] and budget in err[0]

    @pytest.mark.parametrize("prop", ["rho<=1/0", "intersecting&rho<=x", "cross(0)"])
    def test_malformed_prop_exit_2(self, capsys, prop):
        assert main(["search", "--n", "5", "--k", "2", "--prop", prop]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "cannot parse property atom" in err[0]
        assert prop.split("&")[-1] in err[0]

    # the empty family is the only one left, and it fails the property too
    @pytest.mark.parametrize("n,k,prop", [
        (4, 4, "nontrivial"),
        (5, 2, "nu<=-1"),
        (5, 2, "rho<=-1/2"),
    ])
    def test_no_family_satisfies_exit_2(self, capsys, n, k, prop):
        assert main(["search", "--n", str(n), "--k", str(k), "--prop", prop]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"error: no family satisfies the property on (n, k) = ({n}, {k})"]

    def test_search_needs_dims(self):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--prop", "intersecting"])
        assert exc.value.code == 2


class TestGlobalOptions:
    def test_before_subcommand_is_kept(self):
        args = build_parser().parse_args(
            ["--budget", "50", "--format", "json",
             "search", "--n", "5", "--k", "2", "--prop", "intersecting"]
        )
        assert (args.budget, args.format) == (50, "json")

    def test_after_subcommand_wins(self):
        args = build_parser().parse_args(
            ["--budget", "50", "verify", "--suite", "--id", "KATONA", "--budget", "70"]
        )
        assert (args.budget, args.format) == (70, "text")

    def test_defaults_without_either(self):
        args = build_parser().parse_args(["measure", "f.txt"])
        assert (args.budget, args.format) == (None, "text")
        assert not hasattr(args, "threads") and not hasattr(args, "seed")

    @pytest.mark.parametrize("argv", [
        ["--threads", "2", "verify", "--id", "KATONA", "--exhaustive", "n=4,k=2,t=1,l=1"],
        ["verify", "--id", "KATONA", "--exhaustive", "n=4,k=2,t=1,l=1", "--threads", "2"],
    ])
    def test_threads_option_is_gone(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--seed", "3", "measure", "f.txt"],
        ["search", "n=5", "k=2", "--prop", "intersecting"],
        ["verify", "--suite", "--rerun", "r.json"],
    ])
    def test_removed_spellings_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        proc = run_cli(["construct", "--id", "fano"], cwd=tmp_path)
        assert proc.returncode == 0
        assert "size=7" in proc.stdout

    def test_shipped_suite_runs_from_any_directory(self, tmp_path):
        proc = run_cli(["verify", "--suite", "--id", "KATONA"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("id=KATONA ") == 2


def quick_start_lines() -> list[str]:
    """The `extremal ...` lines of the README's CLI quick start, in order."""
    section = README.read_text(encoding="utf-8").split("## Quick start (CLI)", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("extremal ")]


def test_readme_quick_start(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = quick_start_lines()
    assert len(lines) == 10
    for line in lines:
        argv = shlex.split(line)[1:]
        if argv == ["verify", "--suite"]:
            argv += ["--id", "KATONA"]  # criterion 9 runs the whole suite
        assert main(argv) == 0, line


def test_readme_lists_each_construction_with_its_parameters():
    text = " ".join(README.read_text(encoding="utf-8").split())
    for cid in CONSTRUCTION_IDS:
        names = param_names(cid)
        assert f"`{cid}` ({', '.join(names)})" in text, cid
        assert f"`{cid}` {','.join(names) or 'none'}" in text, cid
