"""In-memory spans and work counters around calls into ltnet's modules.

Nothing inside the library is edited.  ``Tracer.install`` replaces each
function at the place its caller looks it up (``ltnet.cli.certify_hierarchy``,
``ltnet.stability.compose_maps``, ``ltnet.hierarchy.rk4_integrate``,
``ltnet.equilibria.linprog``, ...) with a wrapper that records a span
(name, start, end, parent, job) and bumps the work counters of that call;
``Tracer.uninstall`` puts the originals back.  Per-pass metrics are then
derived from the spans: total time, self time (duration minus the time
covered by child spans) and call count per span name, plus the counters.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> the places its function is looked up by callers
SITES = {
    "stability.certify_hierarchy": [("ltnet.cli", "certify_hierarchy"),
                                    ("ltnet.stability", "certify_hierarchy")],
    "stability.ges_certificate": [("ltnet.stability", "ges_certificate")],
    "stability.spectral_radius": [("ltnet.stability", "spectral_radius")],
    "stability.empirical_decay_check": [("ltnet.stability", "empirical_decay_check")],
    "control.multilayer_controls": [("ltnet.cli", "multilayer_controls")],
    "hierarchy.epsilon_sweep": [("ltnet.cli", "epsilon_sweep")],
    "hierarchy.simulate_hierarchy": [("ltnet.hierarchy", "simulate_hierarchy")],
    "hierarchy.reference_trajectory": [("ltnet.hierarchy", "reference_trajectory")],
    "hierarchy.rom_simulate": [("ltnet.hierarchy", "rom_simulate")],
    "network.simulate": [("ltnet.stability", "simulate"), ("ltnet.network", "simulate")],
    "network.rk4_integrate": [("ltnet.network", "rk4_integrate"),
                              ("ltnet.hierarchy", "rk4_integrate")],
    "equilibria.equilibrium_map": [("ltnet.stability", "equilibrium_map"),
                                   ("ltnet.equilibria", "equilibrium_map")],
    "equilibria.compose_maps": [("ltnet.stability", "compose_maps"),
                                ("ltnet.equilibria", "compose_maps")],
    "equilibria.max_gain_matrix": [("ltnet.stability", "max_gain_matrix"),
                                   ("ltnet.equilibria", "max_gain_matrix")],
    "equilibria.linprog": [("ltnet.equilibria", "linprog")],
    "equilibria.eval": [("ltnet.equilibria:PiecewiseAffineMap", "eval"),
                        ("ltnet.equilibria:PiecewiseAffineMap", "__call__")],
    "equilibria.eval_many": [("ltnet.equilibria:PiecewiseAffineMap", "eval_many")],
    "io.load_hierarchy": [("ltnet.io", "load_hierarchy")],
    "io.write_report": [("ltnet.cli", "write_report")],
    "sysid.fit": [("ltnet.sysid", "fit")],
    "sysid.simulate_candidates": [("ltnet.sysid:SysIdProblem", "simulate_candidates")],
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _n_patterns(m):
    m = np.asarray(m, dtype=float)
    return int(np.prod([2 if np.isinf(v) else 3 for v in m]))


def _count_simulate_candidates(c, args, kwargs, out):
    problem, Z = args[0], np.atleast_2d(_arg(args, kwargs, 1, "Z"))
    rows = Z.shape[0] * len(problem.conditions)
    c["sysid.simulate_candidates.rows"] += rows
    c["sysid.simulate_candidates.candidate_steps"] += (
        rows * (problem.K - 1) * problem.sim_substeps)
    c["sysid.objective_calls" if Z.shape[0] == 1 else "sysid.gradient_calls"] += 1


def _count_equilibrium_map(c, args, kwargs, out):
    c["equilibria.equilibrium_map.patterns"] += _n_patterns(_arg(args, kwargs, 1, "m"))
    c["equilibria.equilibrium_map.pieces"] += len(out)
    c["equilibria.equilibrium_map.region_rows"] += sum(p.G.shape[0] for p in out.pieces)


def _count_compose_maps(c, args, kwargs, out):
    inner = _arg(args, kwargs, 0, "inner")
    c["equilibria.compose_maps.candidates"] += (
        len(inner) * _n_patterns(_arg(args, kwargs, 5, "m")))
    c["equilibria.compose_maps.pieces_kept"] += len(out)


def _count_eval_many(c, args, kwargs, out):
    pa_map = args[0]
    k = out.shape[0]
    c["equilibria.eval_many.points"] += k
    c["equilibria.eval_many.rows_scanned"] += k * sum(p.G.shape[0] for p in pa_map.pieces)


COUNTS = {
    "sysid.simulate_candidates": _count_simulate_candidates,
    "equilibria.equilibrium_map": _count_equilibrium_map,
    "equilibria.compose_maps": _count_compose_maps,
    "equilibria.eval_many": _count_eval_many,
    "equilibria.eval": lambda c, a, k, out: c.update({"equilibria.eval.points": 1}),
    "hierarchy.simulate_hierarchy": lambda c, a, k, out: c.update(
        {"hierarchy.simulate_hierarchy.steps": out[0].samples.shape[0] - 1}),
    "hierarchy.reference_trajectory": lambda c, a, k, out: c.update(
        {"hierarchy.reference_trajectory.points": out.samples.shape[0]}),
    "hierarchy.rom_simulate": lambda c, a, k, out: c.update(
        {"hierarchy.rom_simulate.steps": out.samples.shape[0] - 1}),
    "network.simulate": lambda c, a, k, out: c.update(
        {"network.simulate.steps": out.samples.shape[0] - 1}),
    "network.rk4_integrate": lambda c, a, k, out: c.update(
        {"network.rk4_integrate.steps": _arg(a, k, 4, "n_steps")}),
    "io.write_report": lambda c, a, k, out: c.update({"io.report_bytes": len(out) + 1}),
}

# the per-layer metrics reported by a traced run, with their units; a
# metric whose layer a workload never calls reads 0 on that workload
_TIMED = [
    "sysid.fit", "sysid.simulate_candidates",
    "hierarchy.simulate_hierarchy", "hierarchy.epsilon_sweep",
    "hierarchy.reference_trajectory", "hierarchy.rom_simulate",
    "network.simulate", "network.rk4_integrate",
    "stability.certify_hierarchy", "stability.ges_certificate",
    "stability.spectral_radius", "stability.empirical_decay_check",
    "control.multilayer_controls",
    "equilibria.equilibrium_map", "equilibria.compose_maps", "equilibria.linprog",
    "equilibria.eval", "equilibria.eval_many", "equilibria.max_gain_matrix",
    "io.load_hierarchy", "io.write_report",
    "cli.certify", "cli.synthesize", "cli.recruit",
]
PER_LAYER = [("import.ltnet.s", "s"), ("import.ltnet_cli.s", "s")]
for _name in _TIMED:
    PER_LAYER += [(f"{_name}.s", "s"), (f"{_name}.self_s", "s"), (f"{_name}.calls", "count")]
PER_LAYER += [
    ("sysid.simulate_candidates.rows", "count"),
    ("sysid.simulate_candidates.candidate_steps", "count"),
    ("sysid.simulate_candidates.ns_per_candidate_step", "ns"),
    ("sysid.objective_calls", "count"),
    ("sysid.gradient_calls", "count"),
    ("hierarchy.simulate_hierarchy.steps", "count"),
    ("hierarchy.simulate_hierarchy.us_per_step", "us"),
    ("hierarchy.reference_trajectory.points", "count"),
    ("hierarchy.rom_simulate.steps", "count"),
    ("network.simulate.steps", "count"),
    ("network.rk4_integrate.steps", "count"),
    ("equilibria.equilibrium_map.patterns", "count"),
    ("equilibria.equilibrium_map.pieces", "count"),
    ("equilibria.equilibrium_map.region_rows", "count"),
    ("equilibria.compose_maps.candidates", "count"),
    ("equilibria.compose_maps.lp_calls", "count"),
    ("equilibria.compose_maps.lp_s", "s"),
    ("equilibria.compose_maps.pieces_kept", "count"),
    ("equilibria.compose_maps.keep_ratio", "ratio"),
    ("equilibria.eval.points", "count"),
    ("equilibria.eval.us_per_point", "us"),
    ("equilibria.eval_many.points", "count"),
    ("equilibria.eval_many.us_per_point", "us"),
    ("equilibria.eval_many.rows_scanned", "count"),
    ("io.report_bytes", "B"),
    ("trace.spans", "count"),
    ("trace.counter_drift", "count"),
    ("trace.untraced_run_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_ratio", "x"),
]
# units of timings, which vary from run to run; every other per-layer metric
# is a work count (or a ratio of two) and must repeat exactly
TIME_UNITS = {"s", "us", "ns", "x"}


def _resolve(where):
    mod, _, cls = where.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, job id]."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.job = None
        self._stack = []
        self._saved = []

    def install(self):
        for name, sites in SITES.items():
            for where, attr in sites:
                owner = _resolve(where)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        cli = importlib.import_module("ltnet.cli")
        self._saved.append((cli, "run", cli.run))
        cli.run = self._wrap(lambda args: f"cli.{args[0].command}", cli.run)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        count = COUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _Span(tracer, name(args) if callable(name) else name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(tracer.counters, args, kwargs, out)
            return out

        return wrapper

    def span(self, label):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, label)

    def take_pass(self, first_span):
        """Per-layer metrics of the spans recorded since first_span."""
        spans = self.spans[first_span:]
        child = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                child[parent] += end - start
        total, self_s, calls = defaultdict(float), defaultdict(float), Counter()
        for k, (name, start, end, parent, _) in enumerate(spans, start=first_span):
            total[name] += end - start
            self_s[name] += end - start - child[k]
            calls[name] += 1
        out = {}
        for name in _TIMED:
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        for key, _unit in PER_LAYER:
            if key not in out:
                out[key] = self.counters.get(key, 0)
        out["equilibria.compose_maps.lp_calls"] = calls["equilibria.linprog"]
        out["equilibria.compose_maps.lp_s"] = total["equilibria.linprog"]
        out["trace.spans"] = len(spans)

        def per(num, den, scale):
            return num * scale / den if den else 0.0

        out["sysid.simulate_candidates.ns_per_candidate_step"] = per(
            out["sysid.simulate_candidates.s"],
            out["sysid.simulate_candidates.candidate_steps"], 1e9)
        out["hierarchy.simulate_hierarchy.us_per_step"] = per(
            out["hierarchy.simulate_hierarchy.s"], out["hierarchy.simulate_hierarchy.steps"], 1e6)
        out["equilibria.eval.us_per_point"] = per(
            out["equilibria.eval.s"], out["equilibria.eval.points"], 1e6)
        out["equilibria.eval_many.us_per_point"] = per(
            out["equilibria.eval_many.s"], out["equilibria.eval_many.points"], 1e6)
        out["equilibria.compose_maps.keep_ratio"] = per(
            out["equilibria.compose_maps.pieces_kept"], out["equilibria.compose_maps.candidates"], 1.0)
        self.counters.clear()
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


class _Span:
    def __init__(self, tracer, label):
        self.tracer, self.label = tracer, label

    def __enter__(self):
        t = self.tracer
        self.rec = [self.label, 0.0, 0.0, t._stack[-1] if t._stack else -1, t.job]
        t._stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec[1] = time.perf_counter()

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False
