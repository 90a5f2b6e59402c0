"""Spans and call counts recorded around the fishcoop functions a workload reaches.

Every wrapper is installed under the name its caller looks up: a module
attribute is also that module's global, so patching ``harness.persist``
covers both ``cli`` (``harness.persist(...)``) and ``harness.replay`` (a
global lookup). ``control`` binds ``spawner_recruit``/``catchability`` and
``harness`` binds ``save_checkpoint`` with ``from ... import``, so those are
patched on the importing module; patching ``fishcoop.env`` alone would count
nothing there. Wrappers read only the clock and never touch an RNG stream,
so traced and untraced runs produce the same bytes.

Spans live in flat arrays (name, start, end, parent, operation id) until
``save`` writes them out. Hot scalar functions are counted, not timed.
"""

from __future__ import annotations

import math
import time
from array import array
from contextlib import contextmanager

import numpy as np

from fishcoop import analytics, cli, control, env, harness, learner, metrics, signals

# (owner, attribute, layer name). Spans time the call; counters only count it.
SPANS = [
    (cli, "main", "cli.main"),
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "replay", "harness.replay"),
    (harness, "run_episode", "harness.run_episode"),
    (harness, "persist", "harness.persist"),
    (harness, "summarize", "harness.summarize"),
    (harness, "save_checkpoint", "learner.save_checkpoint"),
    (learner.PpoAgent, "act", "learner.act"),
    (learner.PpoAgent, "update", "learner.update"),
    (learner, "ppo_loss_and_grads", "learner.ppo_loss_and_grads"),
    (env, "step", "env.step"),
    (signals, "one_hot", "signals.one_hot"),
    (metrics, "cic", "metrics.cic"),
    (metrics, "convergence_check", "metrics.convergence_check"),
    (analytics, "empirical_lsh", "analytics.empirical_lsh"),
    (analytics, "max_effort_baseline", "analytics.max_effort_baseline"),
    (control, "forward_backward_sweep", "control.forward_backward_sweep"),
    (control, "brute_force_optimal", "control.brute_force_optimal"),
]
COUNTERS = [
    (control, "spawner_recruit", "env.spawner_recruit"),
    (control, "catchability", "env.catchability"),
    (control, "evaluate_schedule", "control.evaluate_schedule"),
]


class Tracer:
    """Records spans and counts while installed; one instance per benchmark run."""

    def __init__(self):
        self.names = [name for _, _, name in SPANS]
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counts = {name: 0 for _, _, name in COUNTERS}
        self.minibatch_max = 0
        self.current = -1
        self.op_id = -1
        self._next_op = 0

    def begin_op(self) -> None:
        """Tag the spans that follow with a fresh operation id."""
        self.op_id = self._next_op
        self._next_op += 1

    def _span(self, name: str, fn, after=None):
        name_id = self._name_id[name]
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            parent = self.current
            self.name.append(name_id)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self.end.append(math.nan)
            self.current = idx
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.current = parent
            if after is not None:
                after(args)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_minibatch_max(self, args) -> None:
        # the most minibatch steps this update's epochs allow, before the KL stop
        agent, traj = args[0], args[1]
        hyper = agent.hyper
        self.minibatch_max += hyper.epochs_per_update * math.ceil(
            len(traj) / hyper.minibatch_size
        )

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in SPANS:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                after = self._count_minibatch_max if name == "learner.update" else None
                setattr(owner, attr, self._span(name, fn, after))
            for owner, attr, name in COUNTERS:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._counter(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def mark(self) -> tuple[int, dict, int]:
        """Position to diff a unit's spans and counts against."""
        return len(self.start), dict(self.counts), self.minibatch_max

    def unit_layers(self, mark: tuple[int, dict, int]) -> dict:
        """Per-layer calls, durations and self times of the spans since ``mark``.

        Self time is a span's duration minus the durations of its direct
        child spans; counted-only calls stay in their caller's self time.
        """
        first, counts0, minibatch0 = mark
        # copies, not views: a view would stop the arrays from growing
        name = np.array(self.name[first:])
        dur = np.array(self.end[first:]) - np.array(self.start[first:])
        parent = np.array(self.parent[first:]) - first
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        layers = {}
        for i, layer in enumerate(self.names):
            sel = name == i
            layers[layer] = {
                "calls": int(sel.sum()),
                "busy_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
                "durations": dur[sel],
            }
        for layer, n in self.counts.items():
            layers[layer] = {"calls": n - counts0[layer]}
        layers["learner.minibatch"] = {"max": self.minibatch_max - minibatch0}
        return layers

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent),
            op=np.array(self.op),
        )
