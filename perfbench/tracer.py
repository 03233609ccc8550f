"""Span tracer that wraps pdpfilter's public functions from outside the package.

Each wrapped call records a span (name, start, end, parent span, path id) in
flat arrays kept in memory; `summary()` turns them into per-name calls, self
time and per-call percentiles, and `write_spans()` dumps them as CSV when the
run ends.  Nothing under `src/` is modified: module-level functions are
replaced in every pdpfilter module that bound them by name (`from .chain
import sample_chain` in `stopping` and `cli`), methods are replaced on their
class, and `uninstall()` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

PACKAGE = "pdpfilter"

# -- counters kept from call arguments and results --------------------------

def _sample_chain(c, args, result):
    c["chain_jumps"] += len(result.jumps)


def _run_filter(c, args, result):
    c["obs_jumps"] += len(args[1].jumps)


def _restrict_normalize(c, args, result):
    c["degenerate_restrictions"] += bool(result.degenerate)


def _simulate_pdp(c, args, result):
    c["pdp_jumps"] += len(result.jumps)
    c["pdp_first_jumps_used"] += bool(result.jumps)


def _sojourn_from_uniform(c, args, result):
    c["sojourns_censored"] += result is None


def _interpolation_weights(c, args, result):
    c["interpolation_rows"] += int(np.shape(args[2])[0])


def _first_entry(c, args, result):
    horizon = args[1].horizon
    c["policy_paths"] += 1
    c["policy_stopped"] += result <= horizon
    c["policy_time_used"] += min(result, horizon)
    c["policy_horizon"] += horizon


# (module, attribute path, span name, counter hook or None).  Span names follow
# the per-layer metric names: `<module>.<function>`, with the class kept where
# the bare method name would be ambiguous.
TRACED = (
    ("chain", "sample_chain", "chain.sample_chain", _sample_chain),
    ("chain", "observe", "chain.observe", None),
    ("chain", "RandomSource.generator", "chain.RandomSource.generator", None),
    ("filtering", "FilterModel.run_filter", "filtering.run_filter", _run_filter),
    ("filtering", "FilterModel.flow", "filtering.flow", None),
    ("filtering", "FilterModel.restrict_normalize", "filtering.restrict_normalize",
     _restrict_normalize),
    ("filtering", "FilterTrajectory.value_at", "filtering.value_at", None),
    # scipy's expm as bound in filtering: the _SubExp fallback for faces whose
    # sub-generator is not diagonalizable
    ("filtering", "expm", "filtering.expm", None),
    ("pdp", "BeliefPdp.simulate_pdp", "pdp.simulate_pdp", _simulate_pdp),
    ("pdp", "BeliefPdp.sojourn_from_uniform", "pdp.sojourn_from_uniform",
     _sojourn_from_uniform),
    ("pdp", "BeliefPdp.sojourn_survival", "pdp.sojourn_survival", None),
    ("pdp", "BeliefPdp.jump_measure", "pdp.jump_measure", None),
    ("pdp", "BeliefPdp.jump_time_density", "pdp.jump_time_density", None),
    ("stopping", "FaceGrid.__init__", "stopping.FaceGrid", None),
    ("stopping", "FaceGrid.interpolation_weights", "stopping.interpolation_weights",
     _interpolation_weights),
    ("stopping", "BellmanOperator.__init__", "stopping.BellmanOperator.build", None),
    ("stopping", "BellmanOperator.apply", "stopping.sweep", None),
    ("stopping", "solve_value", "stopping.solve_value", None),
    ("stopping", "value_general", "stopping.value_general", None),
    ("stopping", "evaluate_policy_mc", "stopping.evaluate_policy_mc", None),
    ("stopping", "StoppingPolicy.first_entry", "stopping.first_entry", _first_entry),
    ("stopping", "cost_along_filter", "stopping.cost_along_filter", None),
    ("modelio", "load_model", "modelio.load_model", None),
    ("modelio", "write_json", "modelio.write_json", None),
    ("cli", "main", "cli.main", None),
)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans and counters of one traced region; install() patches, uninstall() restores."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.path = array("i")
        self.path_id = -1
        self.counters = Counter()
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.path.append(self.path_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span for the benchmark's own work (names start with `bench.`)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _count_exception(self, exc: BaseException) -> None:
        # an exception crosses every wrapper on its way out; count it once
        if getattr(exc, "_perfbench_counted", False):
            return
        try:
            exc._perfbench_counted = True
        except AttributeError:
            pass
        module = type(exc).__module__.rsplit(".", 1)[-1]
        self.counters[f"{module}.{type(exc).__name__}.count"] += 1

    def wrap(self, func, name: str, hook=None):
        tracer = self
        rss = name == "stopping.BellmanOperator.build"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if rss:
                rss_before = maxrss_mb()
            idx = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx)
                tracer._count_exception(exc)
                raise
            tracer._close(idx)
            if rss:
                tracer.counters["build_rss_mb"] += maxrss_mb() - rss_before
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for modname, attr, name, hook in TRACED:
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self.wrap(original, name, hook))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(original, name, hook)
            # defined here: replace every early-bound copy in the package
            owners = modules if getattr(original, "__module__", None) == mod.__name__ else [mod]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, original, wrapped)
        return self

    def _patch(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results -----------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name_id, parent, dur, dur - child

    def summary(self) -> dict:
        """Per span name: calls, total (inclusive) seconds, self seconds and
        p50/p99 microseconds per call."""
        name_id, _, dur, self_t = self._arrays()
        out = {}
        for nid, name in enumerate(self.names):
            sel = name_id == nid
            d = dur[sel]
            p50, p99 = np.percentile(d, [50, 99]) * 1e6
            out[name] = {
                "calls": int(sel.sum()),
                "total_s": float(d.sum()),
                "self_s": float(self_t[sel].sum()),
                "p50_us": float(p50),
                "p99_us": float(p99),
            }
        return out

    def calls(self, name: str) -> int:
        nid = self._name_ids.get(name, -1)
        return sum(1 for i in self.name_id if i == nid)

    def child_calls(self, child: str, parent: str) -> int:
        """Number of `child` spans opened directly inside a `parent` span."""
        if child not in self._name_ids or parent not in self._name_ids:
            return 0
        name_id, parents, _, _ = self._arrays()
        sel = (name_id == self._name_ids[child]) & (parents >= 0)
        return int((name_id[parents[sel]] == self._name_ids[parent]).sum())

    def durations(self, name: str) -> np.ndarray:
        name_id, _, dur, _ = self._arrays()
        return dur[name_id == self._name_ids.get(name, -1)]

    def write_spans(self, path) -> None:
        """CSV of every span: id, name, start and end (seconds from the first
        span), parent id (-1 for a root) and path id (-1 outside a path loop)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,path\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{self.path[i]}\n")
