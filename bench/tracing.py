"""Per-layer spans recorded from outside the program.

A span wraps one function at the name its caller looks up, for example
``hris_sim.aoa.steering_vector`` (the binding ``aoa`` calls) rather than
``hris_sim.arrays.steering_vector``.  Calls a layer makes to itself are
therefore not counted; calls into it from another layer are.  A lookup site
that no longer exists is skipped, so a layer the program stops calling reads
as zero calls.

Spans are aggregated in memory per phase ("setup" for the 1-trial warm-up
run, "run" for the measured run): calls, seconds, self seconds (the span
minus the time of the spans it directly caused), raised exceptions, bytes,
and how often each span was the direct parent of another.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import ExitStack, contextmanager

# span name -> lookup sites "module:attribute".
SITES = {
    "aoa.ml_estimate": ("hris_sim.aoa:ml_estimate",),
    "aoa.crlb_elevation": ("hris_sim.aoa:crlb_elevation",),
    "aoa.grid_response": ("hris_sim.aoa:grid_response",),
    "arrays.steering_vector": ("hris_sim.aoa:steering_vector",),
    "arrays.steering_grid": ("hris_sim.aoa:steering_grid",),
    "chest.lstsq": ("numpy.linalg:lstsq",),
    "chest.hris_estimate_H": ("hris_sim.chest:hris_estimate_H",),
    "chest.bs_estimate_G": ("hris_sim.chest:bs_estimate_G",),
    "chest.cascaded_ls_baseline": ("hris_sim.chest:cascaded_ls_baseline",),
    "chest.cascaded_nmse": ("hris_sim.chest:cascaded_nmse",),
    "chest.build_pilot_schedule": ("hris_sim.chest:build_pilot_schedule",),
    "hris.build_signals": ("hris_sim.chest:build_signals",),
    "hris.combiner_schedule": ("hris_sim.chest:combiner_schedule",
                               "hris_sim.aoa:combiner_schedule"),
    "rng.substream": ("hris_sim.aoa:substream", "hris_sim.chest:substream"),
    "rng.complex_normal": ("hris_sim.aoa:complex_normal",
                           "hris_sim.chest:complex_normal"),
    "channels.draw_channels": ("hris_sim.chest:draw_channels",),
    "channels.save_matrix": ("hris_sim.runner:save_matrix",),
    "parallel.map_trials": ("hris_sim.aoa:map_trials", "hris_sim.chest:map_trials"),
    "runner.write_csv": ("hris_sim.runner:write_csv",),
}

CALLS, SECONDS, SELF, RAISED, BYTES = range(5)


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# span name -> bytes attributed to one call.  complex_normal returns
# complex128 arrays, 16 B per entry.
_BYTES = {
    "rng.complex_normal": lambda args, kwargs, result: result.nbytes,
    "channels.save_matrix": _written_bytes,
    "runner.write_csv": _written_bytes,
}


@contextmanager
def rebound(sites, make_wrapper):
    """Replace the binding at each existing site by make_wrapper(original).

    Yields the number of sites replaced and restores them on exit.
    """
    undo = []
    for site in sites:
        module_name, attr = site.split(":")
        module = sys.modules.get(module_name)
        if module is None or not hasattr(module, attr):
            continue
        original = getattr(module, attr)
        setattr(module, attr, make_wrapper(original))
        undo.append((module, attr, original))
    try:
        yield len(undo)
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


class Tracer:
    """Aggregating span recorder; one per traced process."""

    def __init__(self):
        self.phase = "setup"
        self.stats: dict[tuple, list] = {}
        self.parents: dict[tuple, int] = {}
        self._stack: list[list] = []

    def wrap(self, name: str, fn):
        size = _BYTES.get(name)

        def span(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            raised = False
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                entry = self.stats.setdefault((self.phase, name), [0, 0.0, 0.0, 0, 0])
                entry[CALLS] += 1
                entry[SECONDS] += elapsed
                entry[SELF] += elapsed - frame[1]
                entry[RAISED] += raised
                if self._stack:
                    parent = self._stack[-1]
                    parent[1] += elapsed
                    key = (self.phase, parent[0], name)
                    self.parents[key] = self.parents.get(key, 0) + 1
            if size is not None:
                entry[BYTES] += size(args, kwargs, return_value)
            return return_value

        return span

    @contextmanager
    def installed(self):
        """Wrap every lookup site in SITES for the duration of the block."""
        with ExitStack() as stack:
            for name, sites in SITES.items():
                stack.enter_context(
                    rebound(sites, lambda fn, name=name: self.wrap(name, fn)))
            yield self

    def _get(self, phase, name, field):
        entry = self.stats.get((phase, name))
        return entry[field] if entry else 0

    def per_trial(self, name, field, n_trials):
        return self._get("run", name, field) / n_trials

    def total(self, name, field):
        return self._get("setup", name, field) + self._get("run", name, field)

    def share(self, name):
        """Seconds in a span over seconds in map_trials, measured run."""
        trials = self._get("run", "parallel.map_trials", SECONDS)
        return self._get("run", name, SECONDS) / trials if trials else 0.0

    def children_per_call(self, parent, child):
        calls = self._get("run", parent, CALLS)
        return self.parents.get(("run", parent, child), 0) / calls if calls else 0.0

    def hit_ratio(self):
        """Estimation cells of the measured run whose schedule was cached."""
        cells = self._get("run", "chest.hris_estimate_H", CALLS)
        builds = self._get("run", "chest.build_pilot_schedule", CALLS)
        return 1.0 - builds / cells if cells else 0.0


def _per_trial(name, field, unit):
    return unit, lambda t, n: t.per_trial(name, field, n)


def _total(name, field, unit):
    return unit, lambda t, n: t.total(name, field)


# Per-layer metric -> (unit, value from a tracer and the measured trial count).
# Units ending in "/trial" cover the measured run only; "s", "B" and "count"
# are totals over the traced process (warm-up run plus measured run), which is
# where set-up work such as grid tables and schedule builds shows.
LAYER_METRICS = {
    "aoa.ml_estimate.calls": _per_trial("aoa.ml_estimate", CALLS, "calls/trial"),
    "aoa.ml_estimate.self_s": _per_trial("aoa.ml_estimate", SELF, "s/trial"),
    "aoa.ml_estimate.share": ("ratio", lambda t, n: t.share("aoa.ml_estimate")),
    "aoa.evals_per_estimate": ("evals/call", lambda t, n: t.children_per_call(
        "aoa.ml_estimate", "arrays.steering_vector")),
    "aoa.crlb_elevation.calls": _per_trial("aoa.crlb_elevation", CALLS, "calls/trial"),
    "aoa.crlb_elevation.s": _per_trial("aoa.crlb_elevation", SECONDS, "s/trial"),
    "aoa.grid_response.s": _total("aoa.grid_response", SECONDS, "s"),
    "arrays.steering_vector.calls": _per_trial("arrays.steering_vector", CALLS,
                                               "calls/trial"),
    "arrays.steering_vector.s": _per_trial("arrays.steering_vector", SECONDS, "s/trial"),
    "arrays.steering_grid.s": _total("arrays.steering_grid", SECONDS, "s"),
    "chest.lstsq.calls": _per_trial("chest.lstsq", CALLS, "calls/trial"),
    "chest.lstsq.s": _per_trial("chest.lstsq", SECONDS, "s/trial"),
    "chest.lstsq.share": ("ratio", lambda t, n: t.share("chest.lstsq")),
    "chest.hris_estimate_H.calls": _per_trial("chest.hris_estimate_H", CALLS,
                                              "calls/trial"),
    "chest.hris_estimate_H.self_s": _per_trial("chest.hris_estimate_H", SELF, "s/trial"),
    "chest.bs_estimate_G.calls": _per_trial("chest.bs_estimate_G", CALLS, "calls/trial"),
    "chest.bs_estimate_G.self_s": _per_trial("chest.bs_estimate_G", SELF, "s/trial"),
    "chest.cascaded_ls_baseline.calls": _per_trial("chest.cascaded_ls_baseline", CALLS,
                                                   "calls/trial"),
    "chest.cascaded_ls_baseline.self_s": _per_trial("chest.cascaded_ls_baseline", SELF,
                                                    "s/trial"),
    "chest.cascaded_nmse.s": _per_trial("chest.cascaded_nmse", SECONDS, "s/trial"),
    "chest.baseline_infeasible": _per_trial("chest.cascaded_ls_baseline", RAISED,
                                            "raises/trial"),
    "chest.schedule_builds": _total("chest.build_pilot_schedule", CALLS, "count"),
    "chest.schedule_hit_ratio": ("ratio", lambda t, n: t.hit_ratio()),
    "hris.build_signals.calls": _per_trial("hris.build_signals", CALLS, "calls/trial"),
    "hris.build_signals.s": _per_trial("hris.build_signals", SECONDS, "s/trial"),
    "hris.combiner_schedule.calls": _total("hris.combiner_schedule", CALLS, "count"),
    "hris.combiner_schedule.s": _total("hris.combiner_schedule", SECONDS, "s"),
    "rng.substream.calls": _per_trial("rng.substream", CALLS, "calls/trial"),
    "rng.substream.s": _per_trial("rng.substream", SECONDS, "s/trial"),
    "rng.complex_normal.calls": _per_trial("rng.complex_normal", CALLS, "calls/trial"),
    "rng.complex_normal.s": _per_trial("rng.complex_normal", SECONDS, "s/trial"),
    "rng.complex_normal.bytes": _per_trial("rng.complex_normal", BYTES, "B/trial"),
    "channels.draw_channels.calls": _per_trial("channels.draw_channels", CALLS,
                                               "calls/trial"),
    "channels.draw_channels.s": _per_trial("channels.draw_channels", SECONDS, "s/trial"),
    "channels.save_matrix.bytes": _total("channels.save_matrix", BYTES, "B"),
    "channels.save_matrix.s": _total("channels.save_matrix", SECONDS, "s"),
    "parallel.map_trials.s": _per_trial("parallel.map_trials", SECONDS, "s/trial"),
    "config.parse_config_tree.s": _total("config.parse_config_tree", SECONDS, "s"),
    "runner.write_csv.s": _total("runner.write_csv", SECONDS, "s"),
    "runner.write_csv.bytes": _total("runner.write_csv", BYTES, "B"),
    "runner.run.self_s": _total("runner.run", SELF, "s"),
}


def layer_metrics(tracer: Tracer, n_trials: int) -> dict:
    return {name: value(tracer, n_trials) for name, (_, value) in LAYER_METRICS.items()}
