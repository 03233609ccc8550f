import json
from pathlib import Path

import numpy as np

from pdpfilter.cli import main, run_from_manifest

MODELS = Path(__file__).resolve().parent.parent / "demos" / "models"
CYCLIC4 = str(MODELS / "cyclic4.json")


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
        assert 0.0 < solution["beta_witness"] < 1.0
        assert solution["residual"] < 1e-6
        assert abs(solution["mc_mean"] - solution["V_of_mu"]) <= (
            4 * solution["mc_stderr"] + 0.05
        )


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


class TestEnvOverride:
    def test_out_dir_env(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("PDPFILTER_OUT", str(env_dir))
        rc = main(["validate", "--model", CYCLIC4, "--out", str(tmp_path / "cli_out")])
        assert rc == 0
        assert (env_dir / "report.json").exists()
        assert not (tmp_path / "cli_out").exists()
