import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betweenu
from betweenu import cli, context_for, implicit_utility, load_model, lottery, solve_utility
from betweenu.axioms import AxiomReport, Witness
from betweenu.cli import main
from betweenu.errors import IterationLimit, NoCrossing
from betweenu.models import Ordering
from betweenu.simplex import Lottery

EU_SPEC = {"kind": "expected_utility", "u": [0.0, 0.4, 1.0]}
WU_SPEC = {"kind": "weighted_utility", "u": [0.0, 0.4, 1.0], "w": [1.0, 2.0, 0.5]}
DA_SPEC = {"kind": "disappointment_aversion", "u": [0.0, 0.4, 1.0], "beta": 1.0}
KERNEL_SPEC = {
    "kind": "implicit_kernel",
    "t_grid": [0.0, 0.5, 1.0],
    "phi": [[0.0, 0.05, 0.15], [0.35, 0.5, 0.7], [0.9, 0.95, 1.0]],
}
FLAT_KERNEL_SPEC = {
    "kind": "implicit_kernel",
    "t_grid": [0.0, 1.0],
    "phi": [[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]],
}


def write_model(tmp_path, name: str, spec: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def package_env() -> dict:
    """The environment with this checkout's package first on ``PYTHONPATH``."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(betweenu.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def read_error(out: str) -> dict:
    """The exit-3 record in ``out``, checked to be written with sorted keys."""
    with open(os.path.join(out, "error.json"), encoding="utf-8") as fh:
        text = fh.read()
    record = json.loads(text)
    assert text == json.dumps(record, indent=2, sort_keys=True) + "\n"
    return record


def read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


DEFAULT_LEVELS = "0.2,0.4,0.6,0.8"


class TestParser:
    """The argument vectors of the README usage lines, the CI steps and the
    benchmark jobs, each with the (command, model, grid, t_grid, levels,
    seed, out) it parses to."""

    @pytest.mark.parametrize(
        "argv, parsed",
        [
            # README, "Command line"
            ("repr --model model.json --grid 6 --t-grid 11 --out out",
             ("repr", "model.json", 6, 11, DEFAULT_LEVELS, 0, "out")),
            ("check --model model.json --grid 6 --seed 0",
             ("check", "model.json", 6, 11, DEFAULT_LEVELS, 0, "out")),
            ("triangle --model model.json --levels 0.2,0.4,0.6,0.8",
             ("triangle", "model.json", 6, 11, DEFAULT_LEVELS, 0, "out")),
            ("separation --model model.json --levels 0.2,0.5,0.8",
             ("separation", "model.json", 6, 11, "0.2,0.5,0.8", 0, "out")),
            # CI steps
            ("repr --model m.json --out o", ("repr", "m.json", 6, 11, DEFAULT_LEVELS, 0, "o")),
            ("check --model m.json --out o", ("check", "m.json", 6, 11, DEFAULT_LEVELS, 0, "o")),
            ("triangle --model m.json --out o",
             ("triangle", "m.json", 6, 11, DEFAULT_LEVELS, 0, "o")),
            ("separation --model m.json --out o",
             ("separation", "m.json", 6, 11, DEFAULT_LEVELS, 0, "o")),
            ("separation --model m.json --out o --levels 0.8",
             ("separation", "m.json", 6, 11, "0.8", 0, "o")),
            ("check --model m.json --grid 9 --seed 0 --out o",
             ("check", "m.json", 9, 11, DEFAULT_LEVELS, 0, "o")),
            ("check --model m.json --grid 9 --seed -1 --out o",
             ("check", "m.json", 9, 11, DEFAULT_LEVELS, -1, "o")),
            ("check --model m.json --grid 9 --out o",
             ("check", "m.json", 9, 11, DEFAULT_LEVELS, 0, "o")),
            ("check --model m.json --grid 1 --out o",
             ("check", "m.json", 1, 11, DEFAULT_LEVELS, 0, "o")),
            # bench/workloads.py jobs
            ("repr --model m.json --grid 3 --out o",
             ("repr", "m.json", 3, 11, DEFAULT_LEVELS, 0, "o")),
            ("check --model m.json --grid 6 --out o",
             ("check", "m.json", 6, 11, DEFAULT_LEVELS, 0, "o")),
            ("check --model m.json --grid 9 --seed 5 --out o",
             ("check", "m.json", 9, 11, DEFAULT_LEVELS, 5, "o")),
            ("separation --model m.json --grid 6 --levels 0.5 --out o",
             ("separation", "m.json", 6, 11, "0.5", 0, "o")),
            ("triangle --model m.json --grid 6 --levels 0.5 --out o",
             ("triangle", "m.json", 6, 11, "0.5", 0, "o")),
            ("separation --model m.json --grid 6 --out o",
             ("separation", "m.json", 6, 11, DEFAULT_LEVELS, 0, "o")),
        ],
    )
    def test_usage_argv_parses(self, argv, parsed):
        args = cli.build_parser().parse_args(argv.split())
        keys = ("command", "model", "grid", "t_grid", "levels", "seed", "out")
        assert vars(args) == dict(zip(keys, parsed))

    @pytest.mark.parametrize("argv", [["bogus", "--model", "m.json"], ["repr"], []])
    def test_unknown_command_or_missing_model_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err.startswith("usage: betweenu")

    def test_help_names_every_command_with_its_description(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for name, (_, blurb) in cli.COMMANDS.items():
            assert f"  {name:<12}{blurb}" in lines
        assert list(cli.COMMANDS) == ["repr", "check", "triangle", "separation"]


class TestRepr:
    def test_writes_tables_and_summary(self, tmp_path):
        model = write_model(tmp_path, "eu.json", EU_SPEC)
        out = str(tmp_path / "out")
        code = main(["repr", "--model", model, "--grid", "4", "--t-grid", "5", "--out", out])
        assert code == 0
        for name in ("U.csv", "u.csv", "summary.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_u_csv_rows_recompute(self, tmp_path):
        model = write_model(tmp_path, "wu.json", WU_SPEC)
        out = str(tmp_path / "out")
        assert main(["repr", "--model", model, "--grid", "4", "--out", out]) == 0

        header, rows = read_rows(os.path.join(out, "U.csv"))
        assert header == ["p0", "p1", "p2", "U"]
        assert len(rows) == math.comb(4 + 2, 2)
        ctx = context_for(load_model(model))
        for cells in rows:
            x = lottery(float(c) for c in cells[:3])
            assert format(solve_utility(ctx, x), ".12g") == cells[3]

    def test_levels_csv_rows_recompute(self, tmp_path):
        model = write_model(tmp_path, "da.json", DA_SPEC)
        out = str(tmp_path / "out")
        assert main(["repr", "--model", model, "--grid", "3", "--t-grid", "5", "--out", out]) == 0

        header, rows = read_rows(os.path.join(out, "u.csv"))
        assert header == ["p0", "p1", "p2", "t", "u"]
        assert len(rows) == math.comb(3 + 2, 2) * 5
        ctx = context_for(load_model(model))
        for cells in rows:
            x = lottery(float(c) for c in cells[:3])
            t = float(cells[3])
            assert format(implicit_utility(ctx, x, t), ".12g") == cells[4]

    def test_summary_contents(self, tmp_path):
        model = write_model(tmp_path, "eu.json", EU_SPEC)
        out = str(tmp_path / "out")
        assert main(["repr", "--model", model, "--grid", "4", "--out", out]) == 0
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["n_outcomes"] == 3
        assert summary["best"] == [0.0, 0.0, 1.0]
        assert summary["worst"] == [1.0, 0.0, 0.0]
        assert summary["max_fixed_point_gap"] <= 1e-9
        limits = summary["one_sided_limits"]
        assert set(limits) == {"vertex_0", "vertex_1", "vertex_2"}
        assert set(limits["vertex_1"]) == {"at_zero", "near_zero", "near_one", "at_one"}


class TestCheck:
    def test_well_behaved_model_passes(self, tmp_path, capsys):
        model = write_model(tmp_path, "eu.json", EU_SPEC)
        out = str(tmp_path / "out")
        assert main(["check", "--model", model, "--grid", "4", "--out", out]) == 0
        assert "all axiom checks passed" in capsys.readouterr().out
        with open(os.path.join(out, "axioms.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        assert [r["axiom"] for r in payload["reports"]] == [
            "Rationality",
            "Nondegeneracy",
            "Continuity",
            "Betweenness",
            "MixingNeutrality",
        ]
        assert all(r["passed"] for r in payload["reports"])

    def test_cyclic_model_flagged(self, tmp_path, capsys):
        model = write_model(tmp_path, "cyclic.json", {"kind": "cyclic_oracle"})
        out = str(tmp_path / "out")
        assert main(["check", "--model", model, "--grid", "3", "--out", out]) == 1
        assert "Rationality" in capsys.readouterr().out
        with open(os.path.join(out, "axioms.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        rationality = next(r for r in payload["reports"] if r["axiom"] == "Rationality")
        assert not rationality["passed"]
        assert rationality["witnesses"]


class TestTriangle:
    def test_rejects_non_three_outcome_models(self, tmp_path, capsys):
        model = write_model(
            tmp_path, "flip.json", {"kind": "expected_utility", "u": [0.0, 1.0]}
        )
        out = str(tmp_path / "out")
        code = main(["triangle", "--model", model, "--out", out])
        assert code == 2
        assert "3-outcome" in capsys.readouterr().err

    def test_writes_curves_and_svg(self, tmp_path):
        model = write_model(tmp_path, "da.json", DA_SPEC)
        out = str(tmp_path / "out")
        code = main(["triangle", "--model", model, "--levels", "0.3,0.7", "--out", out])
        assert code == 0
        header, rows = read_rows(os.path.join(out, "curves.csv"))
        assert header == ["level", "p0", "p1", "p2", "x", "y"]
        assert {cells[0] for cells in rows} == {"0.3", "0.7"}
        with open(os.path.join(out, "triangle.svg"), encoding="utf-8") as fh:
            svg = fh.read()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


class TestSeparation:
    def test_audit_passes_and_reports(self, tmp_path):
        model = write_model(tmp_path, "wu.json", WU_SPEC)
        out = str(tmp_path / "out")
        code = main(
            ["separation", "--model", model, "--grid", "4", "--levels", "0.3,0.6", "--out", out]
        )
        assert code == 0
        with open(os.path.join(out, "separation.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["levels"] == [0.3, 0.6]
        for entry in payload["entries"]:
            assert len(entry["functional"]["coeffs"]) == 3
            assert entry["separation"]["passed"]
            assert entry["max_cross_discrepancy"] <= 1e-6
            assert all(c["passed"] for c in entry["cross_polytope"])

    def test_infeasible_model_fails_with_record(self, tmp_path, capsys):
        model = write_model(tmp_path, "quad.json", {"kind": "quadratic"})
        out = str(tmp_path / "out")
        code = main(
            ["separation", "--model", model, "--grid", "3", "--levels", "0.5", "--out", out]
        )
        assert code == 1
        assert "separation audit failed" in capsys.readouterr().out
        with open(os.path.join(out, "separation.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        assert "infeasible" in payload["entries"][0]

    def test_infeasible_query_polytope_is_recorded(self, tmp_path, capsys):
        # At default flags the quadratic oracle fails the simplex separator
        # at 0.2, 0.4 and 0.6; 0.8 passes it, and then a query polytope's
        # program is infeasible.  Every level is still written.
        model = write_model(tmp_path, "quad.json", {"kind": "quadratic"})
        out = str(tmp_path / "out")
        assert main(["separation", "--model", model, "--out", out]) == 1
        captured = capsys.readouterr()
        assert "separation audit failed" in captured.out
        assert captured.err == ""
        with open(os.path.join(out, "separation.json"), encoding="utf-8") as fh:
            entries = json.load(fh)["entries"]
        assert [e["level"] for e in entries] == [0.2, 0.4, 0.6, 0.8]
        assert all("infeasible" in e for e in entries)
        assert [sorted(e) for e in entries[:3]] == [["certificate", "infeasible", "level"]] * 3
        last = entries[-1]
        assert sorted(last) == ["certificate", "functional", "infeasible", "level", "separation"]
        assert last["separation"]["passed"]
        assert last["infeasible"].startswith(
            "no affine functional separates the sampled contour sets at level 0.8 (sample "
        )
        # Each level's program is proved infeasible without a solver.
        for entry in entries:
            certificate = entry["certificate"]
            assert certificate["level"] == entry["level"]
            assert certificate["residual"] <= 1e-13 < 1e-10 < certificate["gap"]
            assert len(certificate["rows"]) == 2
            assert sum(row["weight"] for row in certificate["rows"]) == pytest.approx(1.0)


class TestInputErrors:
    def test_missing_model_file(self, tmp_path):
        assert main(["repr", "--model", str(tmp_path / "nope.json")]) == 2

    def test_unreadable_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["repr", "--model", str(path)]) == 2

    def test_unknown_kind(self, tmp_path):
        model = write_model(tmp_path, "odd.json", {"kind": "prospect_theory"})
        assert main(["repr", "--model", model]) == 2

    def test_bad_levels(self, tmp_path):
        model = write_model(tmp_path, "eu.json", EU_SPEC)
        assert main(["triangle", "--model", model, "--levels", "abc"]) == 2

    def test_boundary_level_rejected_for_separation(self, tmp_path):
        model = write_model(tmp_path, "eu.json", EU_SPEC)
        assert main(["separation", "--model", model, "--levels", "0.5,1.0"]) == 2

    def test_module_entry_point_reports_input_error(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "betweenu.cli", "repr", "--model", str(tmp_path / "nope.json")],
            capture_output=True,
            text=True,
            env=package_env(),
            timeout=120,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error:")

    def test_grid_and_t_grid_bounds(self, tmp_path):
        model = write_model(tmp_path, "eu.json", EU_SPEC)
        assert main(["repr", "--model", model, "--grid", "0"]) == 2
        assert main(["repr", "--model", model, "--t-grid", "1"]) == 2

    def test_negative_seed_rejected(self, tmp_path, capsys):
        model = write_model(tmp_path, "quadratic.json", {"kind": "quadratic"})
        out = tmp_path / "out"
        argv = ["check", "--model", model, "--grid", "9", "--seed", "-1", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_unknown_field_rejected(self, tmp_path, capsys):
        # A misspelt eps_pref would otherwise leave the band at its default.
        spec = {"kind": "expected_utility", "u": [0, 0.4, 1], "eps-pref": 1e-3}
        model = write_model(tmp_path, "eu.json", spec)
        out = tmp_path / "out"
        assert main(["repr", "--model", model, "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "",
            "error: model kind 'expected_utility' has no field 'eps-pref'; "
            "its fields are kind, eps_pref, u\n",
        )
        assert not out.exists()

    def test_check_grid_too_small_for_rationality(self, tmp_path, capsys):
        # Two outcomes at resolution 1 give only the two vertices.
        model = write_model(tmp_path, "jump.json", {"kind": "jump"})
        out = tmp_path / "out"
        assert main(["check", "--model", model, "--grid", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (out / "axioms.json").exists()


class TestNumericFailure:
    def test_degenerate_model_exits_three(self, tmp_path, capsys):
        model = write_model(tmp_path, "flat.json", FLAT_KERNEL_SPEC)
        out = str(tmp_path / "out")
        code = main(["repr", "--model", model, "--grid", "3", "--out", out])
        assert code == 3
        assert "DegeneratePreference" in capsys.readouterr().err
        assert read_error(out).keys() == {"type", "message"}

    def test_exit_three_writes_error_record(self, tmp_path, capsys):
        # The jump oracle's residual crosses zero twice at the lottery
        # just above its mass threshold.
        model = write_model(tmp_path, "jump.json", {"kind": "jump"})
        out = str(tmp_path / "out")
        assert main(["repr", "--model", model, "--out", out]) == 3
        record = read_error(out)
        assert record == {
            "type": "MultipleFixedPoints",
            "message": record["message"],
            "row": [1.0 / 3.0, 2.0 / 3.0],
        }
        assert capsys.readouterr().err == f"error: MultipleFixedPoints: {record['message']}\n"

    def test_lottery_outside_the_extremes_is_located(self, tmp_path, capsys):
        # The extremes are (1, 0, 0), worth 1, and (0, 1, 0), worth 0;
        # (0, 0.5, 0.5), the first such grid lottery in order, is worth 2.
        spec = {"kind": "quadratic", "matrix": [[1, 0, 0], [0, 0, 4], [0, 4, 0]]}
        model = write_model(tmp_path, "ridge.json", spec)
        out = str(tmp_path / "out")
        assert main(["repr", "--model", model, "--grid", "2", "--out", out]) == 3
        assert read_error(out) == {
            "type": "NonMonotoneChord",
            "message": "lottery (0.0, 0.5, 0.5) falls outside the preference range of the extremes",
            "row": [0.0, 0.5, 0.5],
        }
        err = capsys.readouterr().err
        assert err.startswith("error: NonMonotoneChord: lottery (0.0, 0.5, 0.5) falls outside")

    @pytest.mark.parametrize(
        "exc, fields",
        [
            (IterationLimit("m", what="mixing", iterations=200, level=0.5, row=(0.5, 0.5)),
             {"what": "mixing", "iterations": 200, "level": 0.5, "row": [0.5, 0.5]}),
            (IterationLimit("m", what="level", iterations=200),
             {"what": "level", "iterations": 200, "level": None, "row": None}),
            (NoCrossing("m", level=0.25), {"level": 0.25, "row": None}),
        ],
    )
    def test_error_record_carries_the_failure_location(self, tmp_path, monkeypatch, exc, fields):
        def fail(*_args):
            raise exc

        monkeypatch.setitem(cli.COMMANDS, "repr", (fail, cli.COMMANDS["repr"][1]))
        model = write_model(tmp_path, "eu.json", EU_SPEC)
        out = str(tmp_path / "out")
        assert main(["repr", "--model", model, "--out", out]) == 3
        assert read_error(out) == {"type": type(exc).__name__, "message": "m", **fields}


class TestDeterminism:
    @pytest.mark.parametrize("command", ["repr", "check"])
    def test_reruns_are_byte_identical(self, tmp_path, command):
        model = write_model(tmp_path, "wu.json", WU_SPEC)
        outs = [str(tmp_path / f"out{i}") for i in (1, 2)]
        blobs = []
        for out in outs:
            args = [command, "--model", model, "--grid", "4", "--seed", "11", "--out", out]
            assert main(args) == 0
            blob = {}
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    blob[name] = fh.read()
            blobs.append(blob)
        assert blobs[0] == blobs[1]


#: Four-outcome models: the weighted utility of the benchmark's ``wu4`` job,
#: and a quadratic oracle with no separating functional at some levels.
WU4_SPEC = {"kind": "weighted_utility", "u": [0.0, 0.3, 0.7, 1.0], "w": [1.0, 2.0, 0.5, 1.5]}
QUADRATIC4_SPEC = {
    "kind": "quadratic",
    "matrix": [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.5]],
}

#: Runs every subcommand on each model given after the output root, at
#: grid 2 and level 0.5, with ``scipy`` blocked from import if the first
#: argument says so; prints the exit codes, a chord polytope's verdicts on
#: lotteries on and off it, and the scipy modules loaded.
EVERY_SUBCOMMAND = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
import contextlib, io
from betweenu import Polytope, degenerate, lottery
from betweenu.cli import main
codes = []
for i, model in enumerate(sys.argv[3:]):
    for cmd in ("repr", "check", "triangle", "separation"):
        out = f"{sys.argv[2]}/{cmd}-{i}"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main([cmd, "--model", model, "--grid", "2", "--levels", "0.5", "--out", out]))
chord = Polytope((degenerate(0, 3), degenerate(2, 3)))
print(codes, [chord.contains(lottery(p)) for p in ((0.4, 0.0, 0.6), (0.2, 0.3, 0.5))])
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


class TestColdStart:
    def test_separation_loads_no_scipy(self, tmp_path):
        # The package's one solver is numpy code: no command imports scipy.
        specs = [
            EU_SPEC, WU_SPEC, DA_SPEC, KERNEL_SPEC, {"kind": "cyclic_oracle"},
            {"kind": "quadratic"}, WU4_SPEC, QUADRATIC4_SPEC,
        ]
        models = [write_model(tmp_path, f"m{i}.json", spec) for i, spec in enumerate(specs)]
        script = (
            "import sys\n"
            "from betweenu.cli import main\n"
            "codes = [main(['separation', '--model', m, '--out', f'{sys.argv[1]}/out{i}'])\n"
            "         for i, m in enumerate(sys.argv[2:])]\n"
            "print(codes)\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), *models],
            capture_output=True,
            text=True,
            env=package_env(),
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-2:] == ["[0, 0, 0, 0, 0, 1, 0, 1]", "[]"]

    def test_every_subcommand_runs_with_scipy_blocked(self, tmp_path):
        specs = [EU_SPEC, {"kind": "cyclic_oracle"}, {"kind": "jump"}, WU4_SPEC, QUADRATIC4_SPEC]
        models = [write_model(tmp_path, f"m{i}.json", spec) for i, spec in enumerate(specs)]
        runs = {}
        for mode in ("blocked", "open"):
            root = tmp_path / mode
            result = subprocess.run(
                [sys.executable, "-c", EVERY_SUBCOMMAND, mode, str(root), *models],
                capture_output=True,
                text=True,
                env=package_env(),
                timeout=300,
            )
            assert result.returncode == 0, result.stderr
            files = {}
            for folder, _, names in os.walk(root):
                for name in names:
                    with open(os.path.join(folder, name), "rb") as fh:
                        files[os.path.relpath(os.path.join(folder, name), root)] = fh.read()
            runs[mode] = (result.stdout.splitlines()[0], files)
        assert runs["blocked"] == runs["open"]
        codes, verdicts = runs["blocked"][0].split("] [")
        assert verdicts == "True, False]"
        assert len(runs["blocked"][1]) > len(specs)


def axioms_text(payload) -> str:
    """The text ``cli._write_axioms`` writes for ``payload``."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "axioms.json")
        cli._write_axioms(path, payload)
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()


def dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dumps_reports(payload) -> str:
    """``payload`` as ``json.dumps`` writes it with each report as its ``to_dict()``."""
    return dumps({**payload, "reports": [r.to_dict() for r in payload["reports"]]})


#: Floats json spells in its own way or that round-trip awkwardly.
ODD_FLOATS = (-0.0, 5e-324, 1e-310, math.nan, math.inf, -math.inf, 1e16, 0.1, 1 / 3)

FLOATS = st.one_of(st.floats(), st.sampled_from(ODD_FLOATS), st.floats().map(np.float64))
#: Non-ASCII text and characters that need escaping, and plain text.
TEXTS = st.one_of(st.text(), st.sampled_from(['"', "\\", "\n\t\x00", "é", "\u2028", "\U0001f600"]))
ORDERINGS = st.lists(st.sampled_from(Ordering), min_size=1, max_size=3).map(tuple)


def lotteries(rows):
    """Rows of lottery rows as unvalidated lotteries, each over its own tuple."""
    return tuple(Lottery._trusted(tuple(row)) for row in rows)


#: The fields of a ``Witness`` as the checks fill them, with any floats.
WITNESS_FIELDS = st.fixed_dictionaries(
    {
        "lam": st.one_of(st.none(), FLOATS),
        "lotteries": st.lists(
            st.lists(FLOATS, min_size=1, max_size=4), min_size=1, max_size=3
        ).map(lotteries),
        "note": TEXTS,
        "observed": ORDERINGS,
    }
)
#: Values of each witness field that the template does not spell, or spells
#: from another type: an int or bool ``lam``, no lotteries or an empty row,
#: a row that holds ints or bools, a ``note`` that is no string, and no
#: orderings.
ODD_VALUES = {
    "lam": st.one_of(st.integers(), st.booleans()),
    "lotteries": st.one_of(
        st.just(()),
        st.lists(st.lists(FLOATS, max_size=2), min_size=1, max_size=3).map(lotteries),
        st.lists(
            st.lists(st.one_of(FLOATS, st.integers(), st.booleans()), max_size=4), max_size=3
        ).map(lotteries),
    ),
    "note": st.one_of(st.none(), st.integers()),
    "observed": st.just(()),
}
#: Witnesses, some with one field replaced by an odd value.
WITNESSES = st.one_of(
    WITNESS_FIELDS.map(lambda fields: Witness(**fields)),
    *(
        st.tuples(WITNESS_FIELDS, odd).map(
            lambda pair, key=key: Witness(**{**pair[0], key: pair[1]})
        )
        for key, odd in ODD_VALUES.items()
    ),
)
#: Reports with witnesses of every shape; a report with witnesses fails.
REPORTS = st.builds(
    lambda fields: AxiomReport(
        **{**fields, "passed": fields["passed"] and not fields["witnesses"]}
    ),
    st.fixed_dictionaries(
        {
            "axiom": TEXTS,
            "note": TEXTS,
            "passed": st.booleans(),
            "samples_checked": st.integers(),
            "seed": st.one_of(st.none(), st.integers()),
            "witnesses": st.lists(WITNESSES, max_size=3).map(tuple),
        }
    ),
)
#: Payloads shaped as the one ``cmd_check`` writes.
AXIOMS_PAYLOADS = st.fixed_dictionaries(
    {
        "grid_resolution": st.integers(),
        "lambdas": st.lists(FLOATS, max_size=3),
        "reports": st.lists(REPORTS, max_size=5),
        "seed": st.integers(),
    }
)


def axioms_payload(*witnesses) -> dict:
    report = AxiomReport("Betweenness", not witnesses, witnesses, 1)
    return {"grid_resolution": 6, "lambdas": [0.5], "reports": [report], "seed": 0}


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(AXIOMS_PAYLOADS)
    def test_writes_witnesses_as_json_dumps_does(self, payload):
        assert axioms_text(payload) == dumps_reports(payload)

    @pytest.mark.parametrize("lam", [None, 0.5])
    def test_witness_records_take_the_template(self, lam):
        witness = Witness(
            lotteries=(lottery([0.0, 0.25, 0.75]), lottery([1.0, 0.0, 0.0])),
            lam=lam,
            observed=(Ordering.STRICTLY_PREFERS, Ordering.INDIFFERENT),
            note="mixture escapes the preference interval of its parents",
        )
        # Only the template spells probabilities through the memo.
        texts = cli._FloatTexts()
        text = cli._witness(witness, "\n    ", {}, texts)
        assert dict(texts) == {0.25: "0.25", 0.75: "0.75", 1.0: "1.0"}
        spelt = json.dumps(witness.to_dict(), indent=2, sort_keys=True).replace("\n", "\n    ")
        assert text == spelt
        payload = axioms_payload(witness, witness)
        assert axioms_text(payload) == dumps_reports(payload)

    def test_file_ends_in_a_newline_and_holds_ascii(self, tmp_path):
        payload = {"b": ["\u00e9", math.nan], "a": {"lam": None}}
        path = str(tmp_path / "x.json")
        cli._write_json(path, payload, announce=False)
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob == dumps(payload).encode("ascii")


def witness_of(*rows) -> Witness:
    return Witness(lotteries(rows), None, (Ordering.INDIFFERENT,), "")


class TestWitnessFloatMemo:
    """One file's witnesses share the texts of their floats and of their
    rows.  Values that are equal keys but spelt apart (1, True and 1.0; 0.0
    and -0.0) keep their own spelling whichever comes first, and so do rows
    equal only as tuples."""

    def test_memo_keeps_finite_nonzero_floats_only(self):
        texts = cli._FloatTexts()
        spelt = [texts[v] for v in (0.5, 0.0, -0.0, math.inf, -math.inf, math.nan, 0.5, 1e-310)]
        assert spelt == ["0.5", "0.0", "-0.0", "inf", "-inf", "nan", "0.5", "1e-310"]
        assert dict(texts) == {0.5: "0.5", 1e-310: "1e-310"}

    @pytest.mark.parametrize("order", [1, -1])
    def test_equal_keys_keep_their_spelling(self, order):
        witnesses = [
            witness_of([1.0, 0.0, 0.5], [0.25, 0.25, 0.5]),
            witness_of([-0.0, 1.0, 0.0], [0.5, 0.5, -0.0]),
            witness_of([1, 0.5, 0.0]),
            witness_of([True, 0.5], [False, 1.0]),
            witness_of([np.float64(1.0), 0.5], [np.float64(-0.0), 0.0]),
            witness_of([math.nan, 0.5], [math.inf, 1.0]),
            witness_of([0.0, -0.0, 0.0, 1.0, 1, 1.0]),
        ][::order]
        payload = axioms_payload(*witnesses)
        assert axioms_text(payload) == dumps_reports(payload)

    @pytest.mark.parametrize("order", [1, -1])
    def test_rows_share_a_text_only_when_they_are_one_tuple(self, order):
        x = Lottery._trusted((1.0, 0.0, 0.5))
        twins = lotteries([[1.0, -0.0, 0.5], [1, 0.0, 0.5], [True, 0.0, 0.5], [1.0, 0.0, 0.5]])
        witnesses = [Witness((x, y), None, (Ordering.INDIFFERENT,), "") for y in (x, *twins)]
        rows = {}
        for w in witnesses[::order]:
            cli._witness(w, "\n", rows, cli._FloatTexts())
        # x, and each twin over its own tuple; the two with ints or bools
        # are left to json.
        assert len(rows) == 5
        assert sum(text is None for text in rows.values()) == 2
        payload = axioms_payload(*witnesses[::order])
        assert axioms_text(payload) == dumps_reports(payload)
