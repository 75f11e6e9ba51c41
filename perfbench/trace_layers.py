"""Per-layer spans for the traced benchmark run, recorded from outside the
program.

Layers are named after grainflow's modules.  The tracer times:

* ``scheme``: ``scheme.run`` as the workload calls it (``verify.run`` too,
  which is how ``nu_limit_study`` reaches the time loop);
* ``vstep``, ``thetastep``, ``energy``: ``v_step``, ``theta_step`` and
  ``free_energy`` as ``scheme.run`` calls them;
* ``model.gamma_prox``, ``model.grad_g``, ``model.mobilities``: through a
  timed ``ModelSpec`` handed to the program;
* ``model.constants``: ``cli.build_model``, whose cost is the sampling of
  the constants L and c*;
* ``cli.output``: the output sink's calls, or the sweep table's write.

A span's self time is its duration minus the time of the spans it encloses.
Iteration counts come from the ``StepReport`` of every step.  Spans are kept
as running sums in memory.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time

from grainflow import ModelSpec, energy, scheme, verify

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.total = {}
        self.self_time = {}
        self.calls = {}
        self.counts = {"steps": 0, "outer_iters": 0, "inner_iters": 0, "pdhg_sweeps": 0}
        self._stack = []  # [name, start, time of enclosed spans]

    @contextlib.contextmanager
    def span(self, name):
        frame = [name, _clock(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = _clock() - frame[1]
            self._stack.pop()
            if self._stack:
                self._stack[-1][2] += duration
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = self.self_time.get(name, 0.0) + duration - frame[2]
            self.calls[name] = self.calls.get(name, 0) + 1

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return timed

    def _time_loop(self, fn):
        def timed(*args, **kwargs):
            with self.span("scheme"):
                traj = fn(*args, **kwargs)
            for rep in traj.reports:
                self.counts["steps"] += 1
                self.counts["outer_iters"] += rep.v_outer_iters
                self.counts["inner_iters"] += rep.v_inner_iters
                self.counts["pdhg_sweeps"] += rep.theta_iters
            return traj
        return timed

    @contextlib.contextmanager
    def instrument(self):
        """Replaces the solver entry points the time loop looks up, and the
        time loop itself, by timed wrappers; restores them on exit."""
        patches = [
            (scheme, "v_step", self.wrap("vstep", scheme.v_step)),
            (scheme, "theta_step", self.wrap("thetastep", scheme.theta_step)),
            (scheme, "free_energy", self.wrap("energy", scheme.free_energy)),
            (energy, "free_energy", self.wrap("energy", energy.free_energy)),
            (scheme, "run", self._time_loop(scheme.run)),
            (verify, "run", self._time_loop(verify.run)),
        ]
        saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
        try:
            for module, name, fn in patches:
                setattr(module, name, fn)
            yield self
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    def timed_model(self, model: ModelSpec) -> ModelSpec:
        fields = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}
        return TimedModel(**fields, tracer=self)

    def timed_sink(self, sink):
        return TimedSink(sink, self)

    def metrics(self, wall_s: float, outdir: str) -> dict:
        """The per-layer figures of one round, keyed by metric name, as
        (value, unit) pairs."""
        t, s, c, n = self.total, self.self_time, self.calls, self.counts
        inner, sweeps = n["inner_iters"], n["pdhg_sweeps"]
        return {
            "scheme.steps": (n["steps"], "count"),
            "scheme.self_s": (s.get("scheme", 0.0), "s"),
            "vstep.s": (t.get("vstep", 0.0), "s"),
            "vstep.self_s": (s.get("vstep", 0.0), "s"),
            "vstep.outer_iters": (n["outer_iters"], "count"),
            "vstep.inner_iters": (inner, "count"),
            "vstep.us_per_inner_iter": (1e6 * t.get("vstep", 0.0) / max(inner, 1), "us"),
            "model.gamma_prox.s": (t.get("model.gamma_prox", 0.0), "s"),
            "model.gamma_prox.calls": (c.get("model.gamma_prox", 0), "count"),
            "model.mobilities.s": (t.get("model.mobilities", 0.0), "s"),
            "model.grad_g.s": (t.get("model.grad_g", 0.0), "s"),
            "model.constants_s": (t.get("model.constants", 0.0), "s"),
            "thetastep.s": (t.get("thetastep", 0.0), "s"),
            "thetastep.pdhg_sweeps": (sweeps, "count"),
            "thetastep.us_per_sweep": (1e6 * t.get("thetastep", 0.0) / max(sweeps, 1), "us"),
            "energy.s": (t.get("energy", 0.0), "s"),
            "cli.output_s": (t.get("cli.output", 0.0), "s"),
            "cli.output_bytes": (_tree_bytes(outdir), "count"),
            "traced.wall_s": (wall_s, "s"),
        }


@dataclasses.dataclass(frozen=True)
class TimedModel(ModelSpec):
    """A ModelSpec whose prox, coupling gradient and mobilities are timed."""

    tracer: Tracer = dataclasses.field(default=None, compare=False, repr=False)

    def gamma_prox(self, lam, r):
        with self.tracer.span("model.gamma_prox"):
            return super().gamma_prox(lam, r)

    def grad_g(self, w, eta):
        with self.tracer.span("model.grad_g"):
            return super().grad_g(w, eta)

    def mobilities(self, w, eta):
        with self.tracer.span("model.mobilities"):
            return super().mobilities(w, eta)


class TimedSink:
    """The output sink seen through the time loop's sink hook, timed."""

    def __init__(self, sink, tracer: Tracer):
        self._sink = sink
        self._tracer = tracer

    def write_initial(self, state, energy_):
        with self._tracer.span("cli.output"):
            self._sink.write_initial(state, energy_)

    def on_step(self, rep, energy_):
        with self._tracer.span("cli.output"):
            self._sink.on_step(rep, energy_)

    def on_snapshot(self, step, state):
        with self._tracer.span("cli.output"):
            self._sink.on_snapshot(step, state)

    def close(self):
        with self._tracer.span("cli.output"):
            self._sink.close()


def _tree_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())
