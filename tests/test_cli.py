import json
from pathlib import Path

import numpy as np
import pytest

from pdpfilter import cli
from pdpfilter.cli import main, run_from_manifest
from pdpfilter.stopping import NoConvergence

MODELS = Path(__file__).resolve().parent.parent / "demos" / "models"
CYCLIC4 = str(MODELS / "cyclic4.json")
INJECTIVE = MODELS / "threestate_injective.json"
HEXA6 = Path(__file__).resolve().parent.parent / "perfbench" / "models" / "hexa6.json"


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
        assert 0.0 < solution["beta_witness"] <= solution["beta_bound"] < 1.0
        assert solution["residual"] < 1e-6
        assert solution["error_bound"] == solution["residual"] / (1.0 - solution["beta_bound"])
        assert abs(solution["mc_mean"] - solution["V_of_mu"]) <= (
            4 * solution["mc_stderr"] + 0.05
        )

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

    def test_manifest_telemetry_has_stage_times_and_versions(self, tmp_path):
        rc = main(["stop", "--model", CYCLIC4, "--out", str(tmp_path),
                   "--sims", "20", "--horizon", "20", "--grid", "8"])
        assert rc == 0
        telemetry = json.loads((tmp_path / "manifest.json").read_text())["telemetry"]
        stages = telemetry["stages_s"]
        assert set(stages) == {"load", "solve", "value_general", "contraction_witness",
                               "verify_variational", "policy_mc"}
        assert all(s >= 0.0 for s in stages.values())
        assert set(telemetry["versions"]) == {"numpy", "scipy", "python"}
        assert all(isinstance(v, str) and v for v in telemetry["versions"].values())


@pytest.mark.parametrize("command, flags, names", [
    ("simulate", [], {"load", "sample", "write"}),
    ("filter", [], {"load", "sample", "filter", "write"}),
    ("exit-time", [], {"load", "survival", "write"}),
    ("pdp-check", ["--sims", "50", "--horizon", "4"], {"load", "statistics", "write"}),
    ("stability", [], {"load", "sample", "filter", "distances", "write"}),
])
def test_manifest_telemetry_has_stage_times_per_command(tmp_path, command, flags, names):
    rc = main([command, "--model", CYCLIC4, "--out", str(tmp_path), "--seed", "2"] + flags)
    assert rc == 0
    telemetry = json.loads((tmp_path / "manifest.json").read_text())["telemetry"]
    assert set(telemetry) == {"stages_s", "versions"}
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


@pytest.mark.parametrize("command, flag", [
    (command, flag)
    for command in ("validate", "simulate", "filter", "exit-time", "stability")
    for flag in ("--sims", "--grid", "--tol")
] + [("pdp-check", "--grid"), ("pdp-check", "--tol")])
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
    assert "solver failed" in capsys.readouterr().err
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
