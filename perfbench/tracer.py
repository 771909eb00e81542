"""Spans and counters around the public functions of every ``sopac`` layer.

The tracer wraps functions from outside the package: nothing in ``src/``
knows it exists. A function imported by name into another module is a
second binding, so :meth:`Tracer.install` replaces every binding of the
original object in every loaded ``sopac`` module (``harness`` binds
``rollout_episode`` and ``max_buffer_kl``, ``rollout`` and ``learn`` bind
``actor_cell``, ``sop`` binds ``replay_distributions``, ``verify`` binds
``exact_action_values`` and ``critic_update_wholebatch``). Methods are
patched on their class, which every importer shares.

Spans (name, start, end, parent, run id) are kept in memory in flat arrays
and written out at the end. A span's self time is its duration minus the
time its child spans cover; time the wrappers themselves spend lands in the
parent's self time and shows in ``trace.overhead``.

Install the tracer only in a process whose untraced numbers are already
taken: the wrappers are never removed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np


# (module, attribute, span name, rows extractor). An attribute "Cls.meth"
# patches a method. Two functions may share one span name.
SPANS = (
    ("learn", "Trainer.train_on_batch", "learn.train_on_batch", None),
    ("learn", "critic_update_wholebatch", "learn.critic_update", None),
    ("learn", "critic_update_minibatch", "learn.critic_update", None),
    ("learn", "compute_advantages", "learn.compute_advantages", None),
    ("learn", "policy_gradient_update", "learn.policy_update", None),
    ("learn", "unroll_policy", "learn.unroll_policy", None),
    ("learn", "Batch.from_episodes", "learn.batch", None),
    ("critic", "critic_forward", "critic.forward", lambda a: a[1].shape[0]),
    ("autodiff", "matmul", "autodiff.matmul", lambda a: a[0].shape[0]),
    ("autodiff", "Tensor.backward", "autodiff.backward", None),
    ("autodiff", "rmsprop_step", "autodiff.rmsprop_step", None),
    ("autodiff", "finite_diff_check", "autodiff.finite_diff_check", None),
    ("policy", "actor_cell", "policy.actor_cell", lambda a: a[1].shape[0]),
    ("policy", "replay_distributions", "policy.replay_distributions", None),
    ("rollout", "rollout_episode", "rollout.episode", None),
    ("envs", "SwitchGame.step", "envs.step", None),
    ("envs", "CaptureGrid.step", "envs.step", None),
    ("envs", "SwitchGame.reset", "envs.reset", None),
    ("envs", "CaptureGrid.reset", "envs.reset", None),
    ("sop", "episode_kls", "sop.episode_kls", None),
    ("sop", "max_buffer_kl", "sop.max_buffer_kl", None),
    ("harness", "evaluate", "harness.evaluate", None),
    ("oracle", "exact_action_values", "oracle.exact_action_values", None),
    ("verify", "gradient_suite", "verify.gradient_suite", None),
    ("verify", "switch_oracle_check", "verify.oracle_check", None),
)

# Public op functions of the autodiff engine but matmul, whose span counts
# it as an op; ``Tensor`` operators call them.
OPS = ("add", "sub", "mul", "div", "relu", "sigmoid", "tanh", "exp", "log",
       "square", "sum_all", "sum_last", "gather_last")


class Tracer:
    """In-memory span recorder with per-run counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.run_id = 0
        self.missing: list[str] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.run_id, key] += n

    def inside(self, name: str) -> bool:
        """Whether a span of this name is open."""
        nid = self._ids.get(name)
        return any(self.name_id[i] == nid for i in self._stack)

    def span(self, name: str, fn: Callable, rows: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """Wrap ``fn`` in a span; ``rows(args)`` feeds ``<name>.rows`` and
        ``after(args, result)`` may count what the call returned."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        name_id, parent, run, start, end = (
            self.name_id, self.parent, self.run, self.start, self.end)
        rows_key = f"{name}.rows"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if rows is not None:
                self.counts[self.run_id, rows_key] += rows(args)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, key: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call adds one to ``key``; no span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[self.run_id, key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def hook(self, fn: Callable, after: Callable) -> Callable:
        """Wrap ``fn`` so ``after(args, result)`` sees each call; no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def _patch(self, module_name: str, attr: str, make: Callable) -> None:
        module = importlib.import_module(f"sopac.{module_name}")
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or member not in vars(owner):
            self.missing.append(f"sopac.{module_name}.{attr}")
            return
        raw = vars(owner)[member]
        if owner_name:  # a method: patch the class every importer shares
            if isinstance(raw, classmethod):
                setattr(owner, member, classmethod(make(raw.__func__)))
            else:
                setattr(owner, member, make(raw))
            return
        wrapped = make(raw)
        for name, mod in list(sys.modules.items()):
            if name == "sopac" or name.startswith("sopac."):
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)

    def install(self) -> None:
        """Wrap every layer of the currently imported ``sopac`` package."""
        count = self.count

        def after_matmul(args, result):
            count("autodiff.op.calls")

        def after_train(args, result):
            count("learn.trained_episodes", len(args[1]))

        def after_table(args, result):
            count("oracle.q_entries", len(result.action_values))
            count("oracle.states", len(result.state_values))

        after = {"autodiff.matmul": after_matmul, "learn.train_on_batch": after_train,
                 "oracle.exact_action_values": after_table}
        for module, attr, name, rows in SPANS:
            self._patch(module, attr, lambda f, n=name, r=rows: self.span(
                n, f, rows=r, after=after.get(n)))
        for op in OPS:
            self._patch("autodiff", op, lambda f: self.counter("autodiff.op.calls", f))

        def counted_sampler(make_sampler):
            # Each run builds its own sampler closure, so wrap each as it is
            # built; functools.wraps copies its ``counter``, which harness reads.
            @functools.wraps(make_sampler)
            def wrapper(*args, **kwargs):
                return self.counter("sop.sampled_episodes", make_sampler(*args, **kwargs))
            return wrapper

        def after_evict(args, result):
            # Strict mode always flags the oldest episode; the rest fail the KL test.
            count("sop.evicted_kl", sum(bool(d) for d in args[1][1:]))

        def after_create(args, result):
            if self.inside("verify.gradient_suite"):
                count("verify.trainer_creates")

        def after_conditioned(args, result):
            # A draw is accepted when the actor loss, checked last, is well
            # conditioned too; only actor parameters hold the GRU.
            if result and "gru.wr" in args[1]:
                count("verify.accepted_draws")

        self._patch("rollout", "sample_episode_fn", counted_sampler)
        self._patch("sop", "ReplayBuffer.evict_where", lambda f: self.hook(f, after_evict))
        self._patch("learn", "Trainer.create", lambda f: self.hook(f, after_create))
        self._patch("verify", "_well_conditioned", lambda f: self.hook(f, after_conditioned))

    # -- results ----------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write every span, with the name table, as one ``.npz`` file."""
        np.savez_compressed(
            path, names=np.asarray(self.names), name_id=np.asarray(self.name_id),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent), run=np.asarray(self.run))

    def per_run(self) -> tuple[list[int], dict[int, dict[str, tuple[int, float]]]]:
        """Run ids, and for each run every span name's (calls, self seconds)."""
        nid = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        run = np.asarray(self.run, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        covered = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        own = dur - covered
        runs = sorted({int(r) for r in run} | {r for r, _ in self.counts})
        table: dict[int, dict[str, tuple[int, float]]] = {}
        for r in runs:
            mask = run == r
            calls = np.bincount(nid[mask], minlength=len(self.names))
            secs = np.bincount(nid[mask], weights=own[mask], minlength=len(self.names))
            table[r] = {name: (int(calls[i]), float(secs[i]))
                        for i, name in enumerate(self.names)}
        return runs, table

    def durations(self, name: str) -> np.ndarray:
        """Inclusive durations of every span of this name, in seconds."""
        if name not in self._ids:
            return np.zeros(0)
        mask = np.asarray(self.name_id) == self._ids[name]
        return (np.asarray(self.end) - np.asarray(self.start))[mask]


# Metric -> unit of every per-layer metric, in the order they are printed.
# "<span>.calls" and "<span>.s" (self seconds) come from spans, other names
# from counters; a layer a workload never reaches reads 0.
PER_LAYER = {
    "learn.train_on_batch.calls": "count",
    "learn.train_on_batch.s": "s",
    "learn.train_on_batch.ms_p50": "ms",
    "learn.train_on_batch.ms_tail": "ms",
    "learn.train_on_batch.ms_tail_pct": "%",
    "learn.train_on_batch.ms_samples": "count",
    "learn.critic_update.s": "s",
    "learn.compute_advantages.s": "s",
    "learn.policy_update.s": "s",
    "learn.unroll_policy.calls": "count",
    "learn.unroll_policy.s": "s",
    "learn.batch.s": "s",
    "critic.forward.calls": "count",
    "critic.forward.rows": "count",
    "critic.forward.s": "s",
    "autodiff.op.calls": "count",
    "autodiff.matmul.calls": "count",
    "autodiff.matmul.rows": "count",
    "autodiff.matmul.s": "s",
    "autodiff.backward.calls": "count",
    "autodiff.backward.s": "s",
    "autodiff.rmsprop_step.calls": "count",
    "autodiff.rmsprop_step.s": "s",
    "autodiff.finite_diff_check.calls": "count",
    "autodiff.finite_diff_check.s": "s",
    "policy.actor_cell.calls": "count",
    "policy.actor_cell.rows": "count",
    "policy.actor_cell.s": "s",
    "policy.replay_distributions.calls": "count",
    "policy.replay_distributions.s": "s",
    "rollout.episode.calls": "count",
    "rollout.episode.s": "s",
    "envs.step.calls": "count",
    "envs.step.s": "s",
    "envs.reset.calls": "count",
    "envs.reset.s": "s",
    "sop.episode_kls.calls": "count",
    "sop.episode_kls.s": "s",
    "sop.max_buffer_kl.s": "s",
    "sop.sampled_episodes": "count",
    "sop.evicted_kl": "count",
    "sop.trained_per_sampled": "ratio",
    "harness.evaluate.calls": "count",
    "harness.evaluate.s": "s",
    "oracle.exact_action_values.s": "s",
    "oracle.q_entries": "count",
    "oracle.states": "count",
    "verify.gradient_suite.s": "s",
    "verify.draw_accept_ratio": "ratio",
    "verify.oracle_check.s": "s",
    "trace.overhead": "ratio",
}

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(samples: np.ndarray) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; (0, 0) when there are fewer than twenty samples."""
    for pct in TAIL_PERCENTILES:
        if len(samples) * (1.0 - pct / 100.0) >= 10.0:
            return pct, float(np.percentile(samples, pct))
    return 0.0, 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, int], list[str]]:
    """Per-layer metrics of the traced runs, every span's calls in one run,
    and the counts that differ between runs (a deterministic program repeats
    every count exactly).

    Counts are those of one run; self seconds are the median over runs;
    update latencies pool every run's ``train_on_batch`` spans.
    """
    runs, table = tracer.per_run()
    counts = {r: {key: n for (rr, key), n in tracer.counts.items() if rr == r} for r in runs}
    first = runs[0]
    differ = sorted(
        {name for r in runs for name, (calls, _) in table[r].items()
         if calls != table[first][name][0]}
        | {key for r in runs for key in counts[r].keys() | counts[first].keys()
           if counts[r].get(key, 0) != counts[first].get(key, 0)})

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if stat == "calls" and metric != "autodiff.op.calls":
            out[metric] = table[first].get(span, (0, 0.0))[0]
        elif stat == "s":
            out[metric] = float(np.median([table[r].get(span, (0, 0.0))[1] for r in runs]))
        else:
            out[metric] = counts[first].get(metric, 0)

    updates = tracer.durations("learn.train_on_batch") * 1e3
    out["learn.train_on_batch.ms_p50"] = float(np.median(updates)) if len(updates) else 0.0
    pct, value = tail(updates)
    out["learn.train_on_batch.ms_tail_pct"] = pct
    out["learn.train_on_batch.ms_tail"] = value
    out["learn.train_on_batch.ms_samples"] = len(updates)
    sampled = counts[first].get("sop.sampled_episodes", 0)
    trained = counts[first].get("learn.trained_episodes", 0)
    out["sop.trained_per_sampled"] = trained / sampled if sampled else 0.0
    creates = counts[first].get("verify.trainer_creates", 0)
    accepted = counts[first].get("verify.accepted_draws", 0)
    out["verify.draw_accept_ratio"] = accepted / creates if creates else 0.0
    calls = {name: n for name, (n, _) in table[first].items()}
    return out, calls, differ
