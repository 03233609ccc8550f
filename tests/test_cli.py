import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdpfilter import cli
from pdpfilter.cli import main, run_from_manifest
from pdpfilter.stopping import NoConvergence

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "demos" / "models"
CYCLIC4 = str(MODELS / "cyclic4.json")
INJECTIVE = MODELS / "threestate_injective.json"
HEXA6 = ROOT / "perfbench" / "models" / "hexa6.json"
PDP5 = ROOT / "perfbench" / "models" / "pdp5.json"


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestValidate:
    def test_good_model(self, tmp_path):
        rc = main(["validate", "--model", CYCLIC4, "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["valid"]
        assert report["states"] == 4
        assert sorted(report["labels"]) == ["0", "1"]
        assert not report["injective"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "validate"

    def test_bad_row_sum(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "states": ["x", "y"],
            "generator": [[-1, 2], [0, 0]],
            "observation": {"x": "a", "y": "b"},
        }))
        rc = main(["validate", "--model", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert not report["valid"]

    def test_non_surjective_observation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "states": ["x", "y"],
            "generator": [[-1, 1], [1, -1]],
            "observation": {"x": "a"},
        }))
        rc = main(["validate", "--model", str(bad), "--out", str(tmp_path)])
        assert rc == 1

    def test_missing_file(self, tmp_path):
        rc = main(["validate", "--model", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
        assert rc == 1


class TestSimulateAndFilter:
    def test_simulate_outputs(self, tmp_path):
        rc = main(["simulate", "--model", CYCLIC4, "--out", str(tmp_path),
                   "--seed", "3", "--horizon", "5"])
        assert rc == 0
        for name in ("chain.csv", "observation.csv", "manifest.json"):
            assert (tmp_path / name).exists()

    def test_filter_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(["filter", "--model", CYCLIC4, "--out", str(out),
                       "--seed", "11", "--horizon", "8"])
            assert rc == 0
        assert (a / "filter.csv").read_bytes() == (b / "filter.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_filter_weights_are_distributions(self, tmp_path):
        rc = main(["filter", "--model", CYCLIC4, "--out", str(tmp_path),
                   "--seed", "4", "--horizon", "6"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "filter.csv")
        assert header[0] == "time" and header[-1] == "label"
        for row in rows:
            w = np.array([float(x) for x in row[1:-1]])
            assert abs(w.sum() - 1.0) < 1e-9
            assert w.min() >= 0.0

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["filter", "--model", CYCLIC4, "--out", str(a), "--seed", "1"])
        main(["filter", "--model", CYCLIC4, "--out", str(b), "--seed", "2"])
        assert (a / "chain.csv").read_bytes() != (b / "chain.csv").read_bytes()


class TestExitTime:
    def test_routes_agree(self, tmp_path):
        rc = main(["exit-time", "--model", CYCLIC4, "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "exit_time.csv")
        assert header == ["t", "nonlinear", "oracle", "abs_diff"]
        diffs = [float(r[3]) for r in rows]
        assert max(diffs) < 1e-6
        # the paper face gives a unit-rate exponential exit law
        for r in rows:
            assert abs(float(r[2]) - np.exp(-float(r[0]))) < 1e-9


class TestStability:
    def test_distinct_inits_stay_apart(self, tmp_path):
        rc = main(["stability", "--model", CYCLIC4, "--out", str(tmp_path),
                   "--seed", "0", "--horizon", "20"])
        assert rc == 0
        _, rows = read_csv(tmp_path / "stability.csv")
        dists = [float(r[1]) for r in rows]
        assert min(dists) >= 0.05

    def test_equal_inits_zero_distance(self, tmp_path):
        model = dict(json.loads(Path(CYCLIC4).read_text()))
        model["stability"] = {"init_a": [1, 0, 0, 0], "init_b": [1, 0, 0, 0]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        rc = main(["stability", "--model", str(path), "--out", str(tmp_path),
                   "--horizon", "10"])
        assert rc == 0
        _, rows = read_csv(tmp_path / "stability.csv")
        assert max(float(r[1]) for r in rows) == 0.0

    def test_missing_section(self, tmp_path):
        model = dict(json.loads(Path(CYCLIC4).read_text()))
        del model["stability"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert main(["stability", "--model", str(path), "--out", str(tmp_path)]) == 1

    def test_init_b_that_cannot_explain_the_path_is_one_error_line(self, tmp_path, capsys):
        # from s0 the chain can only jump to s1 (label a -> b); from s2,
        # where init_b puts its mass, it can only jump to s3 (a -> c)
        model = {
            "states": ["s0", "s1", "s2", "s3"],
            "generator": [[-1, 1, 0, 0], [1, -1, 0, 0], [0, 0, -1, 1], [0, 0, 1, -1]],
            "observation": {"s0": "a", "s1": "b", "s2": "a", "s3": "c"},
            "stability": {"init_a": [1, 0, 0, 0], "init_b": [0, 0, 1, 0]},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        rc = main(["stability", "--model", str(path), "--out", str(tmp_path),
                   "--seed", "0", "--horizon", "10"])
        assert rc == cli.EXIT_INVALID == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "stability.csv").exists()


class TestStop:
    def test_zero_obstacle_value_zero(self, tmp_path):
        model = {
            "states": ["x", "y"],
            "generator": [[-1, 1], [1, -1]],
            "observation": {"x": "a", "y": "b"},
            "initial": [0.5, 0.5],
            "stopping": {"g": [0, 0], "l": [1, 1], "alpha": 1.0,
                         "grid_resolution": 2, "tol": 1e-8},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        rc = main(["stop", "--model", str(path), "--out", str(tmp_path),
                   "--sims", "50", "--horizon", "10"])
        assert rc == 0
        solution = json.loads((tmp_path / "solution.json").read_text())
        assert abs(solution["V_of_mu"]) < 1e-9
        assert solution["variational"]["pass"]
        _, rows = read_csv(tmp_path / "value.csv")
        assert all(r[-1] == "True" for r in rows)

    def test_paper_model_solution(self, tmp_path):
        rc = main(["stop", "--model", CYCLIC4, "--out", str(tmp_path),
                   "--sims", "200", "--horizon", "30", "--grid", "16"])
        assert rc == 0
        solution = json.loads((tmp_path / "solution.json").read_text())
        assert solution["variational"]["pass"]
        assert 0.0 < solution["beta_bound"] < 1.0
        assert "beta_witness" not in solution
        assert solution["residual"] < 1e-6
        assert solution["error_bound"] == solution["residual"] / (1.0 - solution["beta_bound"])
        assert abs(solution["mc_mean"] - solution["V_of_mu"]) <= (
            4 * solution["mc_stderr"] + 0.05
        )

    def test_no_error_bound_where_the_contraction_bound_is_not_below_one(self, tmp_path):
        # a stiff face (rate * DEFAULT_DT = 10, the discretization error that
        # ROADMAP item 5 records), where residual / (1 - beta-bar) is negative
        model = {
            "states": ["x", "y"],
            "generator": [[-200, 200], [200, -200]],
            "observation": {"x": "a", "y": "b"},
            "initial": [0.5, 0.5],
            "stopping": {"g": [5, 1], "l": [0.5, 0.1], "alpha": 0.1, "grid_resolution": 4},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        rc = main(["stop", "--model", str(path), "--out", str(tmp_path),
                   "--sims", "20", "--horizon", "20", "--seed", "1"])
        assert rc == 0
        solution = json.loads((tmp_path / "solution.json").read_text())
        assert solution["beta_bound"] > 1.0
        assert solution["residual"] < 1e-6
        assert "error_bound" in solution and solution["error_bound"] is None

    def test_manifest_telemetry_has_sweep_deltas(self, tmp_path):
        rc = main(["stop", "--model", CYCLIC4, "--out", str(tmp_path),
                   "--sims", "20", "--horizon", "20", "--grid", "8"])
        assert rc == 0
        solution = json.loads((tmp_path / "solution.json").read_text())
        solver = json.loads((tmp_path / "manifest.json").read_text())["telemetry"]["solver"]
        deltas, ratios = solver["sweep_deltas"], solver["delta_ratios"]
        assert len(deltas) == solution["iterations"]
        assert deltas[-1] < 1e-6 <= deltas[-2]
        assert ratios == [b / a for a, b in zip(deltas, deltas[1:])]
        assert all(0.0 < r < 1.0 for r in ratios)
        assert "telemetry" not in solution

    @pytest.mark.parametrize("model, collapse", [
        # hexa6's 4-state face collapses, its defective 2-state face never
        # does; a 1-state face is one point from t = 0 on
        (HEXA6, {"a": (10.0, 20.0), "b": None}),
        (INJECTIVE, {"L": (0.0, 0.0), "M": (0.0, 0.0), "H": (0.0, 0.0)}),
    ], ids=["hexa6", "injective"])
    def test_manifest_telemetry_has_tail_start_times(self, tmp_path, model, collapse):
        rc = main(["stop", "--model", str(model), "--out", str(tmp_path),
                   "--sims", "10", "--horizon", "10", "--grid", "4"])
        assert rc == 0
        tail = json.loads((tmp_path / "manifest.json").read_text())["telemetry"]["tail_start_t"]
        assert set(tail) == set(collapse)
        for label, bounds in collapse.items():
            if bounds is None:
                assert tail[label] is None
            else:
                assert bounds[0] <= tail[label] <= bounds[1]
        assert "tail_start_t" not in (tmp_path / "solution.json").read_text()

    @pytest.mark.parametrize("model, propagator", [
        # hexa6's face b, an Erlang pair, has no eigenbasis
        (HEXA6, {"a": "eigen", "b": "taylor"}),
        (CYCLIC4, {"0": "eigen", "1": "eigen"}),
    ], ids=["hexa6", "cyclic4"])
    def test_manifest_telemetry_names_each_face_propagator(self, tmp_path, model, propagator):
        rc = main(["stop", "--model", str(model), "--out", str(tmp_path),
                   "--sims", "10", "--horizon", "10", "--grid", "4"])
        assert rc == 0
        telemetry = json.loads((tmp_path / "manifest.json").read_text())["telemetry"]
        assert telemetry["propagator"] == propagator
        assert "propagator" not in (tmp_path / "solution.json").read_text()

    def test_manifest_telemetry_has_stage_times_and_versions(self, tmp_path):
        rc = main(["stop", "--model", CYCLIC4, "--out", str(tmp_path),
                   "--sims", "20", "--horizon", "20", "--grid", "8"])
        assert rc == 0
        telemetry = json.loads((tmp_path / "manifest.json").read_text())["telemetry"]
        stages = telemetry["stages_s"]
        assert set(stages) == {"load", "solve", "value_general", "contraction_bound",
                               "verify_variational", "policy_mc"}
        assert all(s >= 0.0 for s in stages.values())
        assert set(telemetry["versions"]) == {"numpy", "scipy", "python"}
        assert all(isinstance(v, str) and v for v in telemetry["versions"].values())


@pytest.mark.parametrize("command, flags, names", [
    ("simulate", ["--seed", "2"], {"load", "sample", "write"}),
    ("filter", ["--seed", "2"], {"load", "sample", "filter", "write"}),
    ("exit-time", [], {"load", "survival", "write"}),
    ("pdp-check", ["--seed", "2", "--sims", "50", "--horizon", "4"],
     {"load", "statistics", "write"}),
    ("stability", ["--seed", "2"], {"load", "sample", "filter", "distances", "write"}),
])
def test_manifest_telemetry_has_stage_times_per_command(tmp_path, command, flags, names):
    rc = main([command, "--model", CYCLIC4, "--out", str(tmp_path)] + flags)
    assert rc == 0
    telemetry = json.loads((tmp_path / "manifest.json").read_text())["telemetry"]
    assert set(telemetry) == {"propagator", "stages_s", "versions"}
    assert telemetry["propagator"] == {"0": "eigen", "1": "eigen"}
    assert set(telemetry["stages_s"]) == names
    assert all(s >= 0.0 for s in telemetry["stages_s"].values())
    assert set(telemetry["versions"]) == {"numpy", "scipy", "python"}


class TestPdpCheck:
    def test_statistics_pass(self, tmp_path):
        rc = main(["pdp-check", "--model", CYCLIC4, "--out", str(tmp_path),
                   "--sims", "800", "--horizon", "8", "--seed", "5"])
        assert rc == 0
        report = json.loads((tmp_path / "pdp_check.json").read_text())
        assert report["all_pass"]
        stats = report["statistics"]
        assert len(stats) >= 3
        for s in stats:
            assert {"statistic", "empirical", "analytic", "stderr", "pass"} <= set(s)


@pytest.mark.parametrize("command", ["stop", "pdp-check"])
@pytest.mark.parametrize("flag, value", [("--sims", "0"), ("--sims", "-3"),
                                         ("--horizon", "0"), ("--horizon", "-1"),
                                         ("--horizon", "nan")])
def test_monte_carlo_commands_reject_bad_sims_and_horizon(tmp_path, capsys, command,
                                                          flag, value):
    # checked before the model is loaded or the output directory made (a
    # missing model file would also exit 1, but with another message)
    out = tmp_path / "out"
    rc = main([command, "--model", str(tmp_path / "nope.json"), "--out", str(out), flag, value])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and flag in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--grid", "0"), ("--grid", "-2"), ("--tol", "0"),
                                         ("--tol", "-1"), ("--tol", "nan")])
def test_stop_rejects_bad_grid_and_tol(tmp_path, capsys, flag, value):
    # as for --sims and --horizon: no fallback to the model's grid or tol
    out = tmp_path / "out"
    rc = main(["stop", "--model", str(tmp_path / "nope.json"), "--out", str(out), flag, value])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and flag in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("tol", [0.0, float("nan")])
def test_stop_rejects_bad_tol_in_model_file(tmp_path, capsys, tol):
    # the model file's tol meets the check that --tol meets: exit 1 at once,
    # not 10000 sweeps and exit 3
    model = json.loads(INJECTIVE.read_text())
    model["stopping"]["tol"] = tol
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    rc = main(["stop", "--model", str(path), "--out", str(tmp_path / "out"),
               "--sims", "5", "--horizon", "5"])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "tol" in err[0], err


@pytest.mark.parametrize("resolution", [4.5, 0, "16"])
def test_stop_rejects_a_grid_resolution_that_is_not_a_positive_integer(tmp_path, capsys,
                                                                      resolution):
    # 4.5 ran at grid 4 and exited 0
    model = json.loads(Path(CYCLIC4).read_text())
    model["stopping"]["grid_resolution"] = resolution
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    rc = main(["stop", "--model", str(path), "--out", str(tmp_path / "out"),
               "--sims", "5", "--horizon", "5"])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "grid resolution" in err[0], err


@pytest.mark.parametrize("key, value", [("step", 0.0), ("step", -0.1), ("t_max", -1.0)])
def test_exit_time_rejects_bad_time_grid(tmp_path, capsys, key, value):
    # a step of 0 divided by zero; a negative step or t_max wrote a csv of
    # its header alone and exited 0
    model = json.loads(Path(CYCLIC4).read_text())
    model["exit_time"][key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "out"
    rc = main(["exit-time", "--model", str(path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and key in err[0], err
    assert not (out / "exit_time.csv").exists()


@pytest.mark.parametrize("command, section, key", [
    ("exit-time", "exit_time", "start"), ("stop", "stopping", "alpha"),
    ("stability", "stability", "init_b"),
])
def test_missing_section_key_is_one_error_line(tmp_path, capsys, command, section, key):
    # a KeyError traceback before: exit 1 and one line naming the section and the key
    model = json.loads(Path(CYCLIC4).read_text())
    del model[section][key]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    rc = main([command, "--model", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert section in err[0] and repr(key) in err[0], err


@pytest.mark.parametrize("command, lengths", [
    ("validate", {"initial": 2}), ("filter", {"initial": 2}),
    ("validate", {"initial": 5}), ("filter", {"initial": 5}),
    ("stop", {"stopping.g": 3, "stopping.l": 3}), ("stop", {"stopping.g": 5, "stopping.l": 5}),
    ("stability", {"stability.init_b": 2}), ("stability", {"stability.init_a": 5}),
])
def test_per_state_vector_of_wrong_length_is_invalid(tmp_path, capsys, command, lengths):
    # on cyclic4 (4 states): validate passed such a file, and the others died
    # with a traceback or read the first 4 entries and exited 0
    model = json.loads(Path(CYCLIC4).read_text())
    for name, n in lengths.items():
        *section, key = name.split(".")
        (model[section[0]] if section else model)[key] = [1.0 / n] * n
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "out"
    flags = ["--sims", "5", "--horizon", "2", "--grid", "4"] if command == "stop" else []
    rc = main([command, "--model", str(path), "--out", str(out)] + flags)
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and any(name in err[0] for name in lengths), err
    if command == "validate":
        assert not json.loads((out / "report.json").read_text())["valid"]
    else:
        assert err[0].startswith("error:"), err


def test_exit_time_rejects_a_repeated_subset_state(tmp_path, capsys):
    # subset [s1, s1, s3] built a sub-generator that held s1 twice and wrote
    # survival 0.98020 at t = 0.01, where [s1, s3] gives 0.99005
    model = json.loads(Path(CYCLIC4).read_text())
    model["exit_time"]["subset"] = ["s1", "s1", "s3"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "out"
    rc = main(["exit-time", "--model", str(path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "repeats" in err[0], err
    assert not (out / "exit_time.csv").exists()


COLD_START = """
import json, sys
from pdpfilter import cli, exit_survival_nonlinear_curve, transition_semigroup
from pdpfilter.modelio import load_model
from pdpfilter.stopping import BellmanOperator, FaceGrid, StoppingProblem

def loaded():
    names = ("scipy.linalg", "scipy.sparse", "scipy.integrate", "scipy.optimize")
    return [m for m in names if m in sys.modules]

data = load_model(sys.argv[1])
rate, model, section = data["rate"], data["model"], data["raw"]["stopping"]
stages = [loaded()]
BellmanOperator(model, FaceGrid(model, 4),
                StoppingProblem(section["g"], section["l"], section["alpha"]))
stages.append(loaded())
transition_semigroup(rate, 1.0)
stages.append(loaded())
exit_survival_nonlinear_curve(rate, [0, 2], 0, [1.0])
stages.append(loaded())
print(json.dumps(stages))
"""


def cold_start(model):
    """The scipy subpackages loaded at each stage of COLD_START on model, run
    in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", COLD_START, model], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_scipy_subpackages_load_on_first_use():
    # the package and a model whose faces all diagonalize need numpy and
    # top-level scipy only
    after_load, after_build, after_semigroup, after_exit_curve = cold_start(CYCLIC4)
    assert after_load == []
    # the stopping solver flows with the package propagator, not scipy's expm
    assert after_build == ["scipy.sparse"]
    assert "scipy.linalg" in after_semigroup and "scipy.integrate" not in after_semigroup
    assert "scipy.integrate" in after_exit_curve


def test_defective_face_loads_no_scipy_subpackage():
    # hexa6's face b has no eigenbasis: its propagator sums its own Taylor
    # terms for e^{hM}, so neither the load nor the solver needs scipy.linalg
    after_load, after_build = cold_start(str(HEXA6))[:2]
    assert after_load == []
    assert after_build == ["scipy.sparse"]


NUMPY_RANDOM = """
import json, sys
from pdpfilter import RandomSource
from pdpfilter.modelio import load_model

stages = []
for path in sys.argv[1:]:
    load_model(path)
    stages.append("numpy.random" in sys.modules)
RandomSource(0).generators([0])
stages.append("numpy.random" in sys.modules)
print(json.dumps(stages))
"""


def test_load_imports_no_numpy_random():
    # RandomSource.generators makes its seed class on the first call, so the
    # package and a load leave numpy.random (about 14 ms) unimported
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", NUMPY_RANDOM, str(PDP5), str(HEXA6)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, False, True]


@pytest.mark.parametrize("command, flag", [
    (command, flag)
    for command in ("validate", "simulate", "filter", "exit-time", "stability")
    for flag in ("--sims", "--grid", "--tol")
] + [("pdp-check", "--grid"), ("pdp-check", "--tol")] + [
    (command, flag) for command in ("validate", "exit-time") for flag in ("--seed", "--horizon")
])
def test_flags_only_where_read(tmp_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", CYCLIC4, "--out", str(tmp_path), flag, "5"])
    assert exc.value.code == 2


def test_no_convergence_exits_3_and_a_usage_error_2(tmp_path, monkeypatch, capsys):
    # a script can tell a solver that did not converge from a mistyped flag
    def no_convergence(*args, **kwargs):
        raise NoConvergence("no convergence in 1 sweeps")

    monkeypatch.setattr(cli, "solve_value", no_convergence)
    rc = main(["stop", "--model", str(INJECTIVE), "--out", str(tmp_path),
               "--sims", "5", "--horizon", "5"])
    assert rc == cli.EXIT_NO_CONVERGENCE == 3
    err = capsys.readouterr().err
    assert err.startswith("non-convergence: ") and err.count("\n") == 1, err
    with pytest.raises(SystemExit) as exc:
        main(["stop", "--model", str(INJECTIVE), "--out", str(tmp_path), "--no-such-flag"])
    assert exc.value.code == 2


class TestReplay:
    def test_replay_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        rc = main(["filter", "--model", CYCLIC4, "--out", str(first),
                   "--seed", "21", "--horizon", "7"])
        assert rc == 0
        second = tmp_path / "second"
        rc = run_from_manifest(str(first / "manifest.json"), out=str(second))
        assert rc == 0
        for name in ("chain.csv", "observation.csv", "filter.csv", "summary.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_replay_subcommand(self, tmp_path):
        first = tmp_path / "first"
        main(["simulate", "--model", CYCLIC4, "--out", str(first), "--seed", "9"])
        second = tmp_path / "second"
        rc = main(["replay", str(first / "manifest.json"), "--out", str(second)])
        assert rc == 0
        assert (first / "chain.csv").read_bytes() == (second / "chain.csv").read_bytes()

    def test_replay_refuses_changed_model(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        raw = json.loads(Path(CYCLIC4).read_text())
        model.write_text(json.dumps(raw))
        first = tmp_path / "first"
        assert main(["simulate", "--model", str(model), "--out", str(first), "--seed", "9"]) == 0
        manifest = first / "manifest.json"
        assert len(json.loads(manifest.read_text())["model_sha256"]) == 64
        raw["generator"][0][1] *= 2.0
        raw["generator"][0][0] -= raw["generator"][0][1] / 2.0
        model.write_text(json.dumps(raw))
        capsys.readouterr()
        assert run_from_manifest(str(manifest), out=str(tmp_path / "second")) == 1
        assert "changed" in capsys.readouterr().err
        assert not (tmp_path / "second").exists()
        # a manifest without the hash (written before it was recorded) still replays
        payload = json.loads(manifest.read_text())
        del payload["model_sha256"]
        manifest.write_text(json.dumps(payload))
        assert run_from_manifest(str(manifest), out=str(tmp_path / "third")) == 0
        assert (tmp_path / "third" / "chain.csv").exists()


class TestEnvOverride:
    def test_out_dir_env(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("PDPFILTER_OUT", str(env_dir))
        rc = main(["validate", "--model", CYCLIC4, "--out", str(tmp_path / "cli_out")])
        assert rc == 0
        assert (env_dir / "report.json").exists()
        assert not (tmp_path / "cli_out").exists()
