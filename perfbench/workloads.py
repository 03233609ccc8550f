"""The three benchmark workloads and their correctness gates.

Every call into pdpfilter goes through a module attribute (`chain.sample_chain`,
never a name imported from it), so that a `Tracer` installed on the package
sees the benchmark's own calls as well as the calls the package makes
internally.

Each workload runs untraced (`trace=False`: end-to-end metrics, timed for
`seconds`) or traced (`trace=True`: per-layer metrics).  A traced run does a
fixed amount of work, so its counts repeat exactly at a fixed seed: it runs
that work under the tracer and without it, in alternation, checks that both
give the same outputs bit for bit, and reports the difference in wall time as
`trace_overhead_frac`.  The benchmark's own sections of that work (its gates)
are timed by a `Stopwatch` kept apart from the tracer, so that the layer spans
plus those sections can be checked against the traced wall.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from pdpfilter import chain, cli, modelio, stopping
from tracer import Tracer, maxrss_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODELS = HERE / "models"
OUT = ROOT / ".perfbench_out"

CYCLIC4 = ROOT / "demos" / "models" / "cyclic4.json"
PDP5 = MODELS / "pdp5.json"
HEXA6 = MODELS / "hexa6.json"

SETUP_REPEATS = 7

FILTER_HORIZON = 2.0
FILTER_TIMES = (0.5, 1.0, 2.0)
FILTER_BATCH = 1000
FILTER_GATE_PATHS = 10000  # tower identity of criterion 3, on the first paths

PDP_SIMS = 500
PDP_HORIZON = 4.0

STOP_SOLVES = 3
MC_BATCH = 25
MC_GATE_BATCHES = 4
MC_HORIZON = 40.0

GATE_SIGMA = 4.0

# spans reported with calls, self time and per-call percentiles
TIMED_SPANS = (
    "chain.sample_chain",
    "chain.observe",
    "chain.RandomSource.generator",
    "filtering.run_filter",
    "filtering.flow",
    "filtering.value_at",
    "filtering.restrict_normalize",
    "pdp.simulate_pdp",
    "pdp.jump_measure",
    "pdp.jump_time_density",
    "stopping.first_entry",
    "stopping.cost_along_filter",
    "modelio.load_model",
    "modelio.write_json",
)


class Outcome:
    """Operations attempted and failed, metrics by name, and report lines."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.notes = []

    def check(self, ok: bool, what: str, weight: int = 1) -> bool:
        self.attempted += weight
        if not ok:
            self.failed += weight
            if len(self.notes) < 50:
                self.notes.append(f"FAILED: {what}")
        return ok

    def error(self, what: str, weight: int = 1) -> None:
        """Record operations that raised, with the first traceback."""
        self.check(False, f"{what}\n{traceback.format_exc()}", weight)

    def metric(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (value, unit)


SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from pdpfilter.modelio import load_model
load_model(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def setup_seconds(model_path: Path) -> float:
    """Median over fresh interpreters of imports + model load + FilterModel build.

    The benchmark process has imported the package already, so the byte code
    these interpreters load is compiled.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(model_path)]
    runs = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        runs.append(float(done.stdout))
    return statistics.median(runs)


def check_cyclic4(loaded) -> None:
    mu = loaded["initial"].weights
    if not np.allclose(mu, 1.0 / len(mu)):
        raise ValueError("filter_many needs a uniform initial law")


def check_pdp5(loaded) -> None:
    if len(loaded["obs"].labels) != 3:
        raise ValueError("pdp_check needs a model with three labels")


def check_hexa6(loaded) -> None:
    """Face b must have a repeated eigenvalue with a one-dimensional eigenspace
    (a defective sub-generator, so the flow takes the expm fallback), and face
    a must hold four states."""
    model = loaded["model"]
    if len(model.faces["a"]) != 4:
        raise ValueError("hexa6 face a must hold four states")
    sub = chain.sub_generator(model.rate, model.faces["b"])
    eig = np.linalg.eigvals(sub)
    lam = eig.real.mean()
    repeated = np.allclose(eig, lam, atol=1e-9)
    eigenspace = len(sub) - np.linalg.matrix_rank(sub - lam * np.eye(len(sub)))
    if not (repeated and eigenspace == 1):
        raise ValueError("hexa6 face b must be defective (repeated eigenvalue, 1-d eigenspace)")


def load(path: Path, check) -> dict:
    loaded = modelio.load_model(str(path))
    check(loaded)
    return loaded


class Stopwatch:
    """Summed wall time of the `with` blocks it times: the benchmark's own
    sections of a traced run, clocked without the tracer."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._t0


_RUNNING = object()


def _steps(work, tracer, own):
    """One pass of `work` as a generator: a work that is itself a generator
    takes one step per `yield`, any other work takes a single step."""
    result = work(tracer, own)
    if inspect.isgenerator(result):
        result = yield from result
    return result


def _step(steps):
    """Take one step of a pass; its result once it has ended, else _RUNNING."""
    try:
        next(steps)
    except StopIteration as stop:
        return stop.value
    return _RUNNING


def traced_pair(work, name: str):
    """Run `work(tracer, own)` traced and `work(None, own)` untraced, where
    `own` is a Stopwatch for the benchmark's own sections.

    The passes alternate step by step, so that a slow spell of the host falls
    on both alike; the traced pass takes each step first, so that ru_maxrss
    still shows the solver's build.  Returns the tracer, both results, both
    wall times and the traced pass's own-section time.
    """
    tracer = Tracer()
    own = Stopwatch()
    traced_steps, plain_steps = _steps(work, tracer, own), _steps(work, None, Stopwatch())
    traced = plain = _RUNNING
    traced_s = plain_s = 0.0
    while traced is _RUNNING or plain is _RUNNING:
        if traced is _RUNNING:
            tracer.install()
            t0 = time.perf_counter()
            try:
                with tracer.span(f"bench.{name}"):
                    traced = _step(traced_steps)
            finally:
                traced_s += time.perf_counter() - t0
                tracer.uninstall()
        if plain is _RUNNING:
            t0 = time.perf_counter()
            plain = _step(plain_steps)
            plain_s += time.perf_counter() - t0
    return tracer, traced, plain, traced_s, plain_s, own.total


def layer_metrics(outcome: Outcome, tracer: Tracer, traced_s: float, plain_s: float,
                  own_s: float, workload: str, seed: int) -> None:
    """Every per-layer metric; a layer the workload never calls reports zeros."""
    spans = tracer.summary()
    c = tracer.counters
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "p50_us": 0.0, "p99_us": 0.0}

    def span(name):
        return spans.get(name, empty)

    def ratio(num, den):
        return num / den if den else 0.0

    for name in TIMED_SPANS:
        s = span(name)
        outcome.metric(f"{name}.calls", s["calls"], "count")
        outcome.metric(f"{name}.self_s", s["self_s"], "s")
        outcome.metric(f"{name}.p50_us", s["p50_us"], "us")
        outcome.metric(f"{name}.p99_us", s["p99_us"], "us")
    m = outcome.metric
    m("chain.jumps_per_path", ratio(c["chain_jumps"], span("chain.sample_chain")["calls"]), "count")
    m("filtering.run_filter.us_per_obs_jump",
      ratio(span("filtering.run_filter")["total_s"] * 1e6, c["obs_jumps"]), "us")
    m("filtering.obs_jumps_per_path", ratio(c["obs_jumps"], span("filtering.run_filter")["calls"]),
      "count")
    m("filtering.degenerate_restrictions", c["degenerate_restrictions"], "count")
    m("filtering.DegenerateJump.count", c["filtering.DegenerateJump.count"], "count")
    m("filtering.FaceMassVanished.count", c["filtering.FaceMassVanished.count"], "count")
    m("filtering.expm.calls", span("filtering.expm")["calls"], "count")
    m("pdp.sojourn_survival.calls", span("pdp.sojourn_survival")["calls"], "count")
    m("pdp.survival_evals_per_sojourn",
      ratio(tracer.child_calls("pdp.sojourn_survival", "pdp.sojourn_from_uniform"),
            span("pdp.sojourn_from_uniform")["calls"]), "count")
    m("pdp.censored_frac",
      ratio(c["sojourns_censored"], span("pdp.sojourn_from_uniform")["calls"]), "ratio")
    m("pdp.first_jump_use_ratio", ratio(c["pdp_first_jumps_used"], c["pdp_jumps"]), "ratio")
    build = span("stopping.BellmanOperator.build")
    m("stopping.BellmanOperator.build_s", ratio(build["total_s"], build["calls"]), "s")
    m("stopping.build_rss_mb", ratio(c["build_rss_mb"], build["calls"]), "MB")
    sweeps = tracer.durations("stopping.sweep")
    m("stopping.sweep_ms", float(np.median(sweeps)) * 1e3 if len(sweeps) else 0.0, "ms")
    m("stopping.iterations", c["iterations"], "count")
    interp = span("stopping.interpolation_weights")
    m("stopping.interpolation_weights.calls", interp["calls"], "count")
    m("stopping.interpolation_weights.rows", c["interpolation_rows"], "count")
    m("stopping.interpolation_weights.self_s", interp["self_s"], "s")
    m("stopping.gather_bytes_per_sweep", c["gather_bytes_per_sweep"], "bytes_computed")
    m("stopping.stopped_frac", ratio(c["policy_stopped"], c["policy_paths"]), "ratio")
    m("stopping.filter_horizon_used_frac", ratio(c["policy_time_used"], c["policy_horizon"]),
      "ratio")
    m("stopping.mc_gap_sigma", c["mc_gap_sigma"], "sigma")
    m("cli.self_s", span("cli.main")["self_s"], "s")
    overhead = traced_s / plain_s - 1.0
    m("trace_overhead_frac", overhead, "ratio")

    # The layer spans plus the benchmark's own sections, clocked apart from
    # the tracer, account for the traced wall.  What neither covers is loop
    # glue and the wrappers' own cost at the top level; package work that no
    # span covers, or a span inside an own section, shows up here too.
    layer_self = sum(s["self_s"] for n, s in spans.items() if not n.startswith("bench."))
    gap = traced_s - layer_self - own_s
    outcome.check(abs(gap) <= abs(overhead) * traced_s,
                  f"layer spans {layer_self:.4f}s + own sections {own_s:.4f}s leave "
                  f"{gap:.4f}s of a {traced_s:.4f}s traced wall unaccounted, more than "
                  f"trace_overhead_frac {overhead:.3f} of it")
    outcome.notes.append(f"traced wall {traced_s:.4f}s, untraced {plain_s:.4f}s: layer self "
                         f"{layer_self:.4f}s + own sections {own_s:.4f}s, {gap:.4f}s unaccounted")
    outcome.notes.append(f"{'span':36s} {'calls':>9s} {'self_s':>10s} {'share':>7s} "
                         f"{'p50_us':>9s} {'p99_us':>9s}")
    for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        outcome.notes.append(f"{name:36s} {s['calls']:9d} {s['self_s']:10.4f} "
                             f"{s['self_s'] / traced_s:7.1%} {s['p50_us']:9.1f} {s['p99_us']:9.1f}")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload}-seed{seed}.csv"
    tracer.write_spans(spans_file)
    outcome.notes.append(f"spans written to {spans_file.relative_to(ROOT)}")


# -- filter_many -------------------------------------------------------------

def _filter_paths(model, mu, base, first: int, count: int, tracer, outcome: Outcome):
    """Sample, observe and filter paths first..first+count-1.  Returns
    (path, observation, [Pi_t for t in FILTER_TIMES]) per path, or None
    where the path raised."""
    records = []
    for r in range(first, first + count):
        if tracer is not None:
            tracer.path_id = r
        try:
            path = chain.sample_chain(model.rate, mu, FILTER_HORIZON, base.stream(r))
            y = chain.observe(path, model.obs)
            traj = model.run_filter(y, mu)
            records.append((path, y, [traj.value_at(t) for t in FILTER_TIMES]))
        except Exception:
            outcome.error(f"path {r} raised")
            records.append(None)
    if tracer is not None:
        tracer.path_id = -1
    return records


def _check_filter_records(model, records, outcome: Outcome, first: int):
    """One operation per path: every Pi_t lies on the face of Y_t and sums to 1.

    Returns the tower-identity inputs of the paths that passed.
    """
    off_face = {a: ~np.isin(np.arange(model.n), face) for a, face in model.faces.items()}
    label1 = model.obs.labels[0]
    rows = []
    for r, rec in enumerate(records, start=first):
        if rec is None:
            continue
        path, y, fps = rec
        ok = all(
            fp.label == y.value_at(t) and not fp.weights[off_face[fp.label]].any()
            and fp.weights.min() >= 0.0 and abs(fp.weights.sum() - 1.0) <= 1e-12
            for t, fp in zip(FILTER_TIMES, fps)
        )
        if outcome.check(ok, f"path {r}: filter value off its face or not normalized"):
            rows.append((
                [path.value_at(t) for t in FILTER_TIMES],
                [fp.weights for fp in fps],
                y.jump_times[0] if y.jump_times else math.inf,
                y.initial_value == label1,
            ))
    return rows


def _tower_identity(model, rows, outcome: Outcome) -> dict:
    """Criterion 3: E[(1_{X_t} - Pi_t) z] = 0 within 4 sigma for every state,
    every t and every z in {1, jump before t, Y_0 = first label}."""
    n = len(rows)
    x = np.array([r[0] for r in rows])
    pi = np.array([r[1] for r in rows])
    t1 = np.array([r[2] for r in rows])
    y0 = np.array([r[3] for r in rows], dtype=float)
    eye = np.eye(model.n)
    means, stderrs = [], []
    worst = 0.0
    ok = n > 1
    for k, t in enumerate(FILTER_TIMES):
        for z in (np.ones(n), (t1 <= t).astype(float), y0):
            d = (eye[x[:, k]] - pi[:, k, :]) * z[:, None]
            mean = d.mean(axis=0)
            stderr = d.std(axis=0, ddof=1) / math.sqrt(n)
            ok &= bool((np.abs(mean) <= GATE_SIGMA * stderr + 1e-12).all())
            worst = max(worst, float((np.abs(mean) / np.maximum(stderr, 1e-300)).max()))
            means.append(mean)
            stderrs.append(stderr)
    outcome.check(ok, f"tower identity over {n} paths: worst {worst:.2f} sigma")
    outcome.notes.append(f"tower identity over {n} paths: worst {worst:.2f} sigma "
                         f"(gate {GATE_SIGMA} sigma)")
    return {"means": np.array(means), "stderrs": np.array(stderrs), "pi": pi}


def filter_many(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    if not trace:
        out.metric("setup_s", setup_seconds(CYCLIC4), "s")
    loaded = load(CYCLIC4, check_cyclic4)
    model, mu = loaded["model"], loaded["initial"]
    base = chain.RandomSource(seed)

    if trace:
        def work(tracer, own):
            model = modelio.load_model(str(CYCLIC4))["model"]
            rows = []
            for first in range(0, FILTER_GATE_PATHS, FILTER_BATCH):
                records = _filter_paths(model, mu, base, first, FILTER_BATCH, tracer, out)
                with own:
                    rows += _check_filter_records(model, records, out, first)
                yield  # the other pass takes the same batch next
            with own:
                return _tower_identity(model, rows, out)

        tracer, traced, plain, traced_s, plain_s, own_s = traced_pair(work, "filter_many")
        out.check(all(np.array_equal(traced[k], plain[k]) for k in traced),
                  "traced and untraced runs disagree")
        calls = tracer.calls("chain.sample_chain")
        out.check(calls == FILTER_GATE_PATHS,
                  f"chain.sample_chain.calls {calls} != {FILTER_GATE_PATHS} paths")
        layer_metrics(out, tracer, traced_s, plain_s, own_s, "filter_many", seed)
        return out

    deadline = time.perf_counter() + seconds
    batch_s = []
    rows = []
    first = 0
    while first < FILTER_GATE_PATHS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        records = _filter_paths(model, mu, base, first, FILTER_BATCH, None, out)
        batch_s.append(time.perf_counter() - t0)
        checked = _check_filter_records(model, records, out, first)
        if first < FILTER_GATE_PATHS:
            rows += checked
        first += FILTER_BATCH
    _tower_identity(model, rows, out)
    out.metric("paths_per_s", FILTER_BATCH * len(batch_s) / sum(batch_s), "1/s")
    out.metric("solve_s", statistics.median(batch_s), "s")
    out.metric("peak_rss_mb", maxrss_mb(), "MB")
    out.notes.append(f"{first} paths in {len(batch_s)} batches of {FILTER_BATCH}")
    return out


# -- pdp_check ---------------------------------------------------------------

def _pdp_call(seed: int, out_dir: Path):
    """One `pdpfilter pdp-check` run in process; returns (exit code, report bytes)."""
    argv = ["pdp-check", "--model", str(PDP5), "--out", str(out_dir), "--seed", str(seed),
            "--sims", str(PDP_SIMS), "--horizon", str(PDP_HORIZON)]
    rc = cli.main(argv)
    report = (out_dir / "pdp_check.json").read_bytes() if rc == cli.EXIT_OK else None
    return rc, report


def _pdp_gate(rc, report, reference, outcome: Outcome, what: str) -> None:
    """Exit code 0 and all_pass; a repeated call must also reproduce the
    first call's report byte for byte."""
    if reference is None:
        ok = rc == 0 and json.loads(report)["all_pass"]
        outcome.check(ok, f"{what}: exit code {rc}, all_pass false or missing")
    else:
        outcome.check(rc == 0 and report == reference, f"{what}: exit code {rc} or report changed")


def pdp_check(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    if not trace:
        out.metric("setup_s", setup_seconds(PDP5), "s")
    load(PDP5, check_pdp5)
    out_dir = OUT / f"pdp_check-{os.getpid()}"
    try:
        if trace:
            def work(tracer, own):
                return _pdp_call(seed, out_dir)

            tracer, traced, plain, traced_s, plain_s, own_s = traced_pair(work, "pdp_check")
            _pdp_gate(*traced, None, out, "traced pdp-check")
            _pdp_gate(*plain, traced[1], out, "untraced pdp-check")
            calls = tracer.calls("chain.sample_chain")
            out.check(calls == PDP_SIMS, f"chain.sample_chain.calls {calls} != {PDP_SIMS}")
            layer_metrics(out, tracer, traced_s, plain_s, own_s, "pdp_check", seed)
            return out

        deadline = time.perf_counter() + seconds
        call_s = []
        reference = None
        while len(call_s) < 2 or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            try:
                rc, report = _pdp_call(seed, out_dir)
            except Exception:
                out.error(f"pdp-check call {len(call_s)} raised")
                rc, report = None, None
            call_s.append(time.perf_counter() - t0)
            _pdp_gate(rc, report, reference, out, f"pdp-check call {len(call_s)}")
            if reference is None:
                reference = report
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    out.metric("paths_per_s", PDP_SIMS * len(call_s) / sum(call_s), "1/s")
    out.metric("solve_s", statistics.median(call_s), "s")
    out.metric("peak_rss_mb", maxrss_mb(), "MB")
    out.notes.append(f"{len(call_s)} pdp-check calls of {PDP_SIMS} simulations")
    return out


# -- stop_policy -------------------------------------------------------------

def _stopping_problem(loaded):
    section = loaded["raw"]["stopping"]
    prob = stopping.StoppingProblem(section["g"], section["l"], float(section["alpha"]))
    return prob, int(section["grid_resolution"]), float(section["tol"])


def _solve(model, prob, resolution, tol):
    grid = stopping.FaceGrid(model, resolution)
    return stopping.solve_value(model, prob, grid, tol=tol)


def _mc_batch(mu, policy, prob, seed: int, b: int):
    rng = chain.RandomSource(seed, 901).stream(b)
    return stopping.evaluate_policy_mc(mu, policy, prob, MC_BATCH, MC_HORIZON, rng)


def _pooled(batches):
    """Mean and standard error over equal-size batches given (mean, stderr) each."""
    n = MC_BATCH
    means = np.array([m for m, _ in batches])
    within = sum((n - 1) * (se * se * n) for _, se in batches)
    grand = float(means.mean())
    between = float((n * (means - grand) ** 2).sum())
    total = n * len(batches)
    return grand, math.sqrt((within + between) / (total - 1) / total)


def _policy_gate(v_mu, mu_g, batches, outcome: Outcome) -> float:
    """V(mu) <= MC + 4 sigma and MC <= mu.g + 4 sigma; returns (MC - V) / sigma."""
    mc, se = _pooled(batches)
    outcome.check(v_mu <= mc + GATE_SIGMA * se, f"V(mu) {v_mu} above MC {mc} + 4 sigma ({se})")
    outcome.check(mc <= mu_g + GATE_SIGMA * se, f"MC {mc} above mu.g {mu_g} + 4 sigma ({se})")
    gap = (mc - v_mu) / se
    outcome.notes.append(f"V(mu) {v_mu:.6f}, MC {mc:.6f} +- {se:.6f} over "
                         f"{MC_BATCH * len(batches)} paths: gap {gap:+.2f} sigma, mu.g {mu_g:.4f}")
    return gap


def _gather_bytes_per_sweep(model, vf) -> int:
    """Computed, not measured: each sweep reads, per face pair (a, b) and for
    2K+1 mesh times (nodes and midpoints), n_a * (d_b + 1) int64 indices,
    float64 weights and gathered float64 values."""
    K = round(vf.info["t_max"] / vf.info["dt"])
    total = 0
    for a in model.obs.labels:
        for b in model.obs.labels:
            if b != a:
                total += (2 * K + 1) * vf.grid.n_points(a) * (len(model.faces[b]) + 1) * 24
    return total


def stop_policy(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    if not trace:
        out.metric("setup_s", setup_seconds(HEXA6), "s")
    loaded = load(HEXA6, check_hexa6)
    model, mu = loaded["model"], loaded["initial"]
    prob, resolution, tol = _stopping_problem(loaded)
    mu_g = float(mu.weights @ prob.g)

    if trace:
        def work(tracer, own):
            model = modelio.load_model(str(HEXA6))["model"]
            vf = _solve(model, prob, resolution, tol)
            with own:
                out.check(vf.info["residual"] < tol, f"residual {vf.info['residual']} >= tol")
            policy = stopping.stopping_rule(vf)
            v_mu = stopping.value_general(mu, vf)
            batches = [_mc_batch(mu, policy, prob, seed, b) for b in range(MC_GATE_BATCHES)]
            with own:
                gap = _policy_gate(v_mu, mu_g, batches, out)
                if tracer is not None:
                    tracer.counters["iterations"] = vf.info["iterations"]
                    tracer.counters["gather_bytes_per_sweep"] = _gather_bytes_per_sweep(model, vf)
                    tracer.counters["mc_gap_sigma"] = gap
            return vf.values, v_mu, batches

        tracer, traced, plain, traced_s, plain_s, own_s = traced_pair(work, "stop_policy")
        same = (all(np.array_equal(traced[0][a], plain[0][a]) for a in traced[0])
                and traced[1:] == plain[1:])
        out.check(same, "traced and untraced runs disagree")
        calls = tracer.calls("chain.sample_chain")
        want = MC_GATE_BATCHES * MC_BATCH
        out.check(calls == want, f"chain.sample_chain.calls {calls} != {want} MC paths")
        layer_metrics(out, tracer, traced_s, plain_s, own_s, "stop_policy", seed)
        return out

    # the solves are spread over the run, between MC batches, so that a slow
    # spell of the machine does not fall on all of them
    start = time.perf_counter()
    deadline = start + seconds
    solve_due = [start + i * seconds / STOP_SOLVES for i in range(STOP_SOLVES)]
    solve_s = []
    reference = None
    batch_s = []
    batches = []
    while (len(solve_s) < STOP_SOLVES or len(batch_s) < MC_GATE_BATCHES
           or time.perf_counter() < deadline):
        if len(solve_s) < STOP_SOLVES and time.perf_counter() >= solve_due[len(solve_s)]:
            policy = vf = None  # free the previous operator before building the next
            t0 = time.perf_counter()
            vf = _solve(model, prob, resolution, tol)
            solve_s.append(time.perf_counter() - t0)
            ok = vf.info["residual"] < tol
            if reference is None:
                reference = {a: v.copy() for a, v in vf.values.items()}
                v_mu = stopping.value_general(mu, vf)
            else:
                ok &= all(np.array_equal(reference[a], vf.values[a]) for a in reference)
            out.check(ok, f"solve {len(solve_s)}: residual {vf.info['residual']} "
                          "or values changed")
            policy = stopping.stopping_rule(vf)
            continue
        t0 = time.perf_counter()
        try:
            batches.append(_mc_batch(mu, policy, prob, seed, len(batch_s)))
            out.attempted += MC_BATCH
        except Exception:
            out.error(f"MC batch {len(batch_s)} raised", MC_BATCH)
            batches.append(None)
        batch_s.append(time.perf_counter() - t0)
    out.notes.append(f"solver: {vf.info['iterations']} sweeps, residual {vf.info['residual']:.2e}")
    gate = batches[:MC_GATE_BATCHES]
    if all(b is not None for b in gate):
        _policy_gate(v_mu, mu_g, gate, out)
    out.metric("paths_per_s", MC_BATCH * len(batch_s) / sum(batch_s), "1/s")
    out.metric("solve_s", statistics.median(solve_s), "s")
    out.metric("peak_rss_mb", maxrss_mb(), "MB")
    out.notes.append(f"{len(batch_s) * MC_BATCH} MC paths in {len(batch_s)} batches; "
                     f"solves {', '.join(f'{s:.3f}' for s in solve_s)} s")
    return out


WORKLOADS = {
    "filter_many": filter_many,
    "pdp_check": pdp_check,
    "stop_policy": stop_policy,
}
