"""Span tracing of the program's layers, installed from outside.

:func:`install` wraps the public functions of each ``preforge`` module in a
recorder.  Several modules import names from others (``cli`` imports
``solve_numeric``, ``solver`` imports ``verify`` and ``certify_wigner``), so
each wrapper replaces the original in every ``preforge`` namespace that holds
it.  Spans are kept in flat arrays (name, start, end, parent) and written out
with :meth:`Tracer.save`; self time is a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(counts, out, args, seconds)``
        turns its return value into counts."""
        nid = self._id(name)
        stack, starts, ends = self._stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(self.counts, out, args, ends[idx] - starts[idx])
            return out

        return traced

    def patch_function(self, module, attr, name, after=None):
        original = getattr(module, attr)
        traced = self.wrap(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "preforge" or mod_name.startswith("preforge."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._patches.append((mod, key, original))

    def patch_method(self, cls, attr, name, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self.wrap(name, raw.__func__, after))
        else:
            traced = self.wrap(name, raw, after)
        setattr(cls, attr, traced)
        self._patches.append((cls, attr, raw))

    def restore(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def totals(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds)."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        own = np.bincount(nid, weights=dur - children, minlength=n)
        return {name: (int(calls[i]), float(total[i]), float(own[i])) for i, name in enumerate(self.names)}

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _count_solve(counts, out, args, seconds):
    counts["solver.starts"] += out.diagnostics["n_starts"]
    counts["solver.converged"] += out.diagnostics["n_converged"]
    counts["solver.accepted"] += out.diagnostics["n_accepted"]
    if not out.ensembles:
        counts["solver.empty_solve_s"] += seconds


def _count_len(key, arg=False):
    def after(counts, out, args, seconds):
        counts[key] += len(args[0] if arg else out)

    return after


def _count_simulate(counts, out, args, seconds):
    counts["trajectory.jumps"] += out.n_jumps
    counts["trajectory.simulated_time"] += out.total_time


def _count_unconditional(counts, out, args, seconds):
    counts["trajectory.trajectories"] += out.n_trajectories


def install(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics need."""
    from preforge import algebra, cli, constraints, measurement, mespec, model, solver, symmetry, trajectory

    tracer.patch_method(constraints.ConstraintSystem, "residual", "constraints.residual")
    tracer.patch_method(constraints.ConstraintSystem, "jacobian", "constraints.jacobian")
    tracer.patch_method(constraints.Ensemble, "from_states_kappa", "constraints.ensemble")
    for builder in ("build_full", "build_subspace_reduced", "build_wigner_reduced"):
        tracer.patch_function(constraints, builder, "constraints.build")
    tracer.patch_function(constraints, "verify", "constraints.verify")
    tracer.patch_function(solver, "solve_numeric", "solver.solve", _count_solve)
    tracer.patch_function(solver, "dedup", "solver.dedup", _count_len("solver.dedup_in", arg=True))
    tracer.patch_function(solver, "family_equivalent", "solver.family_equivalent")
    tracer.patch_function(solver, "analytic_k2", "solver.analytic")
    tracer.patch_function(solver, "solve_wigner_family", "solver.analytic")
    tracer.patch_function(
        symmetry, "find_invariant_subspaces", "symmetry.subspaces", _count_len("symmetry.subspaces_found")
    )
    tracer.patch_function(
        symmetry, "find_wigner_symmetries", "symmetry.wigner", _count_len("symmetry.wigner_found")
    )
    tracer.patch_function(symmetry, "certify_wigner", "symmetry.certify")
    tracer.patch_function(symmetry, "subspace_from_span", "symmetry.span")
    tracer.patch_function(algebra, "eig_full", "algebra.eig_full")
    tracer.patch_function(model, "vectorize", "model.vectorize")
    tracer.patch_function(mespec, "load_me_spec", "mespec.load")
    tracer.patch_function(mespec, "load_catalog", "mespec.load")
    tracer.patch_function(measurement, "synthesize", "measurement.synthesize")
    tracer.patch_function(trajectory, "simulate", "trajectory.simulate", _count_simulate)
    tracer.patch_function(trajectory, "unconditional_check", "trajectory.unconditional", _count_unconditional)
    tracer.patch_function(cli, "main", "cli.command")


def layer_metrics(tracer: Tracer, rounds: int, output_bytes: float) -> dict:
    """Per-layer values per traced round, as (value, unit)."""
    totals = defaultdict(lambda: (0, 0.0, 0.0), tracer.totals())
    counts = tracer.counts

    def calls(name):
        return totals[name][0] / rounds

    def seconds(name):
        return totals[name][1] / rounds

    def own(name):
        return totals[name][2] / rounds

    def per(num, den):
        return num / den if den else 0.0

    starts = counts["solver.starts"] / rounds
    out = {
        "constraints.residual_calls": (calls("constraints.residual"), "count"),
        "constraints.residual_s": (seconds("constraints.residual"), "s"),
        "constraints.jacobian_calls": (calls("constraints.jacobian"), "count"),
        "constraints.jacobian_s": (seconds("constraints.jacobian"), "s"),
        "constraints.build_s": (seconds("constraints.build"), "s"),
        "constraints.verify_calls": (calls("constraints.verify"), "count"),
        "constraints.verify_s": (seconds("constraints.verify"), "s"),
        "constraints.ensemble_calls": (calls("constraints.ensemble"), "count"),
        "constraints.ensemble_s": (seconds("constraints.ensemble"), "s"),
        "solver.solve_calls": (calls("solver.solve"), "count"),
        "solver.solve_s": (seconds("solver.solve"), "s"),
        "solver.solve_self_s": (own("solver.solve"), "s"),
        "solver.empty_solve_s": (counts["solver.empty_solve_s"] / rounds, "s"),
        "solver.starts": (starts, "count"),
        "solver.converged": (counts["solver.converged"] / rounds, "count"),
        "solver.accepted": (counts["solver.accepted"] / rounds, "count"),
        "solver.accept_ratio": (per(counts["solver.accepted"] / rounds, starts), "ratio"),
        "solver.residual_per_start": (per(calls("constraints.residual"), starts), "calls/start"),
        "solver.jacobian_per_start": (per(calls("constraints.jacobian"), starts), "calls/start"),
        "solver.dedup_s": (seconds("solver.dedup"), "s"),
        "solver.dedup_in": (counts["solver.dedup_in"] / rounds, "count"),
        "solver.family_equivalent_calls": (calls("solver.family_equivalent"), "count"),
        "solver.family_equivalent_s": (seconds("solver.family_equivalent"), "s"),
        "solver.analytic_s": (seconds("solver.analytic"), "s"),
        "symmetry.subspaces_s": (seconds("symmetry.subspaces"), "s"),
        "symmetry.subspaces_found": (counts["symmetry.subspaces_found"] / rounds, "count"),
        "symmetry.wigner_s": (seconds("symmetry.wigner"), "s"),
        "symmetry.wigner_found": (counts["symmetry.wigner_found"] / rounds, "count"),
        "symmetry.certify_calls": (calls("symmetry.certify"), "count"),
        "symmetry.certify_s": (seconds("symmetry.certify"), "s"),
        "symmetry.span_s": (seconds("symmetry.span"), "s"),
        "algebra.eig_full_calls": (calls("algebra.eig_full"), "count"),
        "algebra.eig_full_s": (seconds("algebra.eig_full"), "s"),
        "model.vectorize_calls": (calls("model.vectorize"), "count"),
        "model.vectorize_s": (seconds("model.vectorize"), "s"),
        "mespec.load_s": (seconds("mespec.load"), "s"),
        "measurement.synthesize_calls": (calls("measurement.synthesize"), "count"),
        "measurement.synthesize_s": (seconds("measurement.synthesize"), "s"),
        "trajectory.simulate_s": (seconds("trajectory.simulate"), "s"),
        "trajectory.s_per_jump": (
            per(totals["trajectory.simulate"][1], counts["trajectory.jumps"]),
            "s/jump",
        ),
        "trajectory.simulated_time": (counts["trajectory.simulated_time"] / rounds, "1/gamma"),
        "trajectory.unconditional_s": (seconds("trajectory.unconditional"), "s"),
        "trajectory.s_per_trajectory": (
            per(totals["trajectory.unconditional"][1], counts["trajectory.trajectories"]),
            "s/trajectory",
        ),
        "cli.command_s": (seconds("cli.command"), "s"),
        "cli.self_s": (own("cli.command"), "s"),
        "cli.output_bytes": (output_bytes, "B"),
        "trace.spans": (len(tracer.start) / rounds, "count"),
    }
    return out
