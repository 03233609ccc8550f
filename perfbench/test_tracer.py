"""Tests of the benchmark's tracer: `python3 -m pytest perfbench`."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pdpfilter import (  # noqa: E402
    Distribution,
    FilterModel,
    ObservationModel,
    PiecewisePath,
    RandomSource,
    StoppingProblem,
    chain,
    cli,
    stopping,
    validate_generator,
)
from pdpfilter.filtering import DegenerateJump  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import traced_pair  # noqa: E402

CYCLIC4 = FilterModel(
    validate_generator([[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [1, 0, 0, -1]]),
    ObservationModel.from_assignment(("1", "0", "1", "0")),
)
MU = Distribution([0.25] * 4)
PROB = StoppingProblem(g=[0.0, 2.0, 5.0, 3.0], l=[1.0, 0.5, 2.0, 0.2], alpha=0.5)


class NeverStop:
    model = CYCLIC4

    def first_entry(self, traj):
        return math.inf


@pytest.fixture
def tracer():
    t = Tracer().install()
    yield t
    t.uninstall()


def test_wrappers_reach_names_bound_early(tracer):
    # stopping and cli did `from .chain import sample_chain` at import time
    assert stopping.sample_chain is chain.sample_chain
    assert cli.sample_chain is chain.sample_chain
    assert stopping.sample_chain.__wrapped__ is not None
    stopping.evaluate_policy_mc(MU, NeverStop(), PROB, 7, 2.0, RandomSource(3))
    assert tracer.calls("chain.sample_chain") == 7
    assert tracer.calls("filtering.run_filter") == 7
    assert tracer.calls("stopping.cost_along_filter") == 7


def test_uninstall_restores_originals():
    before = (chain.sample_chain, stopping.sample_chain, FilterModel.run_filter,
              RandomSource.generator)
    t = Tracer().install()
    assert chain.sample_chain is not before[0]
    t.uninstall()
    after = (chain.sample_chain, stopping.sample_chain, FilterModel.run_filter,
             RandomSource.generator)
    assert all(a is b for a, b in zip(before, after))


def test_outputs_unchanged_by_tracing():
    def filtered():
        path = chain.sample_chain(CYCLIC4.rate, MU, 5.0, RandomSource(11))
        traj = CYCLIC4.run_filter(chain.observe(path, CYCLIC4.obs), MU)
        return np.array([traj.value_at(t).weights for t in (0.5, 2.0, 5.0)])

    plain = filtered()
    t = Tracer().install()
    try:
        traced = filtered()
    finally:
        t.uninstall()
    assert np.array_equal(plain, traced)
    assert t.calls("chain.RandomSource.generator") == 1


def test_exception_counted_once_across_nested_spans(tracer):
    # state a can only move to b, so an observed jump a -> c is inconsistent
    model = FilterModel(validate_generator([[-1, 1, 0], [0, -1, 1], [1, 0, -1]]),
                        ObservationModel.from_assignment(("a", "b", "c")))
    path = PiecewisePath("a", ((1.0, "c"),), 2.0)
    outer = tracer.wrap(lambda: model.run_filter(path, Distribution([1.0, 0, 0])), "outer")
    with pytest.raises(DegenerateJump):
        outer()
    assert tracer.counters["filtering.DegenerateJump.count"] == 1


def test_self_times_account_for_the_root_span(tmp_path):
    t = Tracer().install()
    try:
        with t.span("bench.root"):
            chain.sample_chain(CYCLIC4.rate, MU, 3.0, RandomSource(5))
            CYCLIC4.flow(1.0, CYCLIC4.restrict_normalize(MU, "1"))
    finally:
        t.uninstall()
    spans = t.summary()
    root = spans["bench.root"]["total_s"]
    assert sum(s["self_s"] for s in spans.values()) == pytest.approx(root, rel=1e-9)
    assert t.child_calls("chain.RandomSource.generator", "chain.sample_chain") == 1
    out = tmp_path / "spans.csv"
    t.write_spans(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "id,name,start_s,end_s,parent,path"
    assert len(lines) == 1 + len(t.start)
    assert lines[1].split(",")[1] == "bench.root" and lines[1].split(",")[4] == "-1"


def test_traced_pair_alternates_the_passes_step_by_step():
    order = []

    def work(tracer, own):
        for k in range(3):
            order.append((tracer is not None, k))
            yield
        return chain.sample_chain(CYCLIC4.rate, MU, 3.0, RandomSource(5)).jumps

    tracer, traced, plain, traced_s, plain_s, own_s = traced_pair(work, "steps")
    assert order == [(True, 0), (False, 0), (True, 1), (False, 1), (True, 2), (False, 2)]
    assert traced == plain
    assert tracer.calls("bench.steps") == 4  # one span per step, the last one returns
    assert tracer.calls("chain.sample_chain") == 1
    assert not hasattr(chain.sample_chain, "__wrapped__")  # uninstalled after the last step
    assert own_s == 0.0 and traced_s > 0.0 and plain_s > 0.0
