"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions and methods of the bwmarket modules from
outside the package: the package's source is not edited.  Modules that bind a
name with ``from .x import y`` keep their own reference, so every module that
holds the original object gets the wrapper, not only the defining one.

Calls of the names in ``SPANS`` are kept as individual spans
``[name, start, end, parent, item]``.  Every other traced call is a
high-frequency leaf (the sweep workload makes hundreds of thousands of follower
solves per run) and is only added to a ``[calls, total_s, self_s]`` counter
keyed by its nearest recorded span, so memory stays bounded.  Self time is a
call's duration minus the time of the traced calls directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict

MODULES = ("bwmarket", "bwmarket.game", "bwmarket.env", "bwmarket.tinynet",
           "bwmarket.agents", "bwmarket.harness", "bwmarket.cli")

# metric prefix -> (defining module, "function" or "Class.method")
TARGETS = {
    "game.follower_best_response": ("bwmarket.game", "follower_best_response"),
    "game.all_followers_respond": ("bwmarket.game", "all_followers_respond"),
    "game.leader_best_response_map": ("bwmarket.game", "leader_best_response_map"),
    "game.solve_equilibrium": ("bwmarket.game", "solve_equilibrium"),
    "game.verify_equilibrium": ("bwmarket.game", "verify_equilibrium"),
    "game.uav_utility": ("bwmarket.game", "uav_utility"),
    "game.rsu_utility": ("bwmarket.game", "rsu_utility"),
    "env.reset": ("bwmarket.env", "PricingEnv.reset"),
    "env.step": ("bwmarket.env", "PricingEnv.step"),
    "env.theoretical_baseline": ("bwmarket.env", "theoretical_baseline"),
    "agents.act": ("bwmarket.agents", "PpoAgent.act"),
    "agents.record": ("bwmarket.agents", "PpoAgent.record"),
    "agents.ppo_update": ("bwmarket.agents", "PpoAgent.ppo_update"),
    "agents.tiny_madrl_step": ("bwmarket.agents", "TinyMadrlAgent.tiny_madrl_step"),
    "agents.greedy_act": ("bwmarket.agents", "GreedyAgent.act"),
    "agents.greedy_update": ("bwmarket.agents", "GreedyAgent.update"),
    "agents.random_act": ("bwmarket.agents", "RandomAgent.act"),
    "tinynet.forward": ("bwmarket.tinynet", "PrunableMlp.forward"),
    "tinynet.backward": ("bwmarket.tinynet", "PrunableMlp.backward"),
    "tinynet.update_masks": ("bwmarket.tinynet", "update_masks"),
    "tinynet.compact": ("bwmarket.tinynet", "compact"),
    "harness.sample_instance": ("bwmarket.harness", "sample_instance"),
    "harness.run_solve": ("bwmarket.harness", "run_solve"),
    "harness.run_training": ("bwmarket.harness", "run_training"),
    "harness.run_sweep": ("bwmarket.harness", "run_sweep"),
    "harness.emit_results": ("bwmarket.harness", "emit_results"),
    "harness.write_summary": ("bwmarket.harness", "write_summary"),
    "cli.main": ("bwmarket.cli", "main"),
}

# Low-frequency calls kept as individual spans; all other targets are leaves.
SPANS = {"bench.unit", "cli.main", "harness.run_sweep", "harness.run_solve",
         "harness.run_training", "harness.emit_results", "harness.write_summary",
         "harness.sample_instance", "game.solve_equilibrium",
         "game.verify_equilibrium", "env.theoretical_baseline",
         "tinynet.update_masks", "tinynet.compact"}

BASELINE_AGENT_CALLS = ("agents.greedy_act", "agents.greedy_update", "agents.random_act")


class Tracer:
    """In-memory spans plus per-parent leaf counters; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []            # [name, start, end, parent, item]
        self.leaves: dict[tuple[int, str], list[float]] = {}
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.item = None
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._frames: list[list] = []          # [child_s, span index or -1]
        self._open_spans: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn):
        record = name in SPANS
        observe = OBSERVERS.get(name)
        frames, open_spans, spans = self._frames, self._open_spans, self.spans
        totals = self.totals[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else -1
            frame = [0.0, -1]
            if record:
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, parent, self.item])
                open_spans.append(frame[1])
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                if frames:
                    frames[-1][0] += duration
                self_s = duration - frame[0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += self_s
                if record:
                    open_spans.pop()
                    spans[frame[1]][1:3] = start, end
                else:
                    leaf = self.leaves.get((parent, name))
                    if leaf is None:
                        leaf = self.leaves[(parent, name)] = [0, 0.0, 0.0]
                    leaf[0] += 1
                    leaf[1] += duration
                    leaf[2] += self_s
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as one span of ``name``."""
        return self.wrap(name, fn)(*args)

    def exclude(self, seconds: float):
        """Keep time spent inside the open call, but not by it (a calibration
        probe), out of that call's self time."""
        if self._frames:
            self._frames[-1][0] += seconds

    # -- installing ----------------------------------------------------------

    def install(self):
        """Replace every target in every bwmarket module that holds it."""
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (module_name, attr) in TARGETS.items():
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self.wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reporting -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in TARGETS:
            calls, _, self_s = self.totals.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = (int(calls), "count")
            out[f"{name}.self_s"] = (float(self_s), "s")
        baselines = [self.totals.get(n, (0, 0.0, 0.0)) for n in BASELINE_AGENT_CALLS]
        out["agents.baselines.calls"] = (int(sum(t[0] for t in baselines)), "count")
        out["agents.baselines.self_s"] = (float(sum(t[2] for t in baselines)), "s")

        c = self.counters
        verify_spans = {i for i, s in enumerate(self.spans)
                        if s[0] == "game.verify_equilibrium"}
        verify_follower_calls = sum(
            v[0] for (parent, name), v in self.leaves.items()
            if name == "game.follower_best_response" and parent in verify_spans)
        out["game.verify_equilibrium.follower_calls_per_certificate"] = (
            verify_follower_calls / c["certificates"] if c["certificates"] else 0.0,
            "count")
        out["game.verify.max_violation"] = (c["max_violation"], "rel")
        out["game.budget_active_share"] = (
            c["budget_active_buyers"] / c["buyers"] if c["buyers"] else 0.0, "share")
        out["game.mixed_case_buyers"] = (int(c["mixed_case_buyers"]), "count")
        out["env.demand_clipped_share"] = (
            c["clipped_steps"] / c["steps"] if c["steps"] else 0.0, "share")
        out["agents.ppo_update.aborted"] = (int(c["aborted_updates"]), "count")
        out["agents.final_sparsity"] = (_median(self.samples["final_sparsity"]), "share")
        out["tinynet.forward.rows"] = (int(c["forward_rows"]), "count")
        out["tinynet.compact.params_after"] = (
            _median(self.samples["compact_params"]), "count")
        out["harness.emit_results.bytes"] = (int(c["emitted_bytes"]), "bytes")
        return out

    def dump(self, path, header: dict, metrics: dict):
        """Write spans, leaf counters and metrics as one JSON document."""
        doc = {
            "header": header,
            "metrics": metrics,
            "span_fields": ["name", "start", "end", "parent", "item"],
            "spans": self.spans,
            "leaf_fields": ["parent", "name", "calls", "total_s", "self_s"],
            "leaves": [[p, n, *v] for (p, n), v in self.leaves.items()],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# -- observers: read counts off a traced call's arguments and result ---------

def _observe_solve(tracer, args, sol):
    c = tracer.counters
    c["buyers"] += len(sol.per_uav_case)
    c["budget_active_buyers"] += sum(case == "budget_active" for case in sol.per_uav_case)
    c["mixed_case_buyers"] += sum("mixed-case" in d for d in sol.diagnostics)


def _observe_verify(tracer, args, report):
    c = tracer.counters
    c["certificates"] += bool(report.passed)
    c["max_violation"] = max(c["max_violation"], float(report.max_violation))


def _observe_step(tracer, args, outcome):
    tracer.counters["steps"] += 1
    tracer.counters["clipped_steps"] += bool(outcome.demand_clipped)


def _observe_ppo_update(tracer, args, diag):
    if isinstance(diag, dict) and diag.get("aborted"):
        tracer.counters["aborted_updates"] += 1


def _observe_forward(tracer, args, result):
    shape = getattr(args[1], "shape", ())
    tracer.counters["forward_rows"] += shape[0] if len(shape) == 2 else 1


def _observe_compact(tracer, args, net):
    tracer.samples["compact_params"].append(
        sum(l.weights.size + (0 if l.bias is None else l.bias.size) for l in net.layers))


def _observe_emit(tracer, args, path):
    tracer.counters["emitted_bytes"] += os.path.getsize(path)


def _observe_training(tracer, args, record):
    if record.algorithm == "tiny_madrl" and record.sparsity.size:
        tracer.samples["final_sparsity"].append(float(record.sparsity[-1]))


OBSERVERS = {
    "game.solve_equilibrium": _observe_solve,
    "game.verify_equilibrium": _observe_verify,
    "env.step": _observe_step,
    "agents.ppo_update": _observe_ppo_update,
    "tinynet.forward": _observe_forward,
    "tinynet.compact": _observe_compact,
    "harness.emit_results": _observe_emit,
    "harness.run_training": _observe_training,
}
