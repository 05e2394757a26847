"""Multilayer hierarchies and timescale-separation experiments.

Layers are chained linear-threshold networks with strictly decreasing
time constants; layer i receives W_up x_{i-1} from above, W_down x_{i+1}
from below, its background c_i and the control B_i u_i:

    tau_i x_i' = -x_i + [W_ii x_i + W_i,i-1 x_{i-1} + W_i,i+1 x_{i+1}
                         + B_i u_i + c_i]_0^m_i.

As the timescale ratios eps_i = tau_{i+1}/tau_i shrink, a controlled
lower layer is slaved to the quasi-steady reference
(0, h_i^+(W_up^{++} x_{i-1}(t) + c_i^+)) built from the composed
equilibrium maps, and the top layer approaches the reduced-order model
that replaces the layers below by their equilibrium map.  Both models
run through network._clipped_run, on its block path, with the online
feedforward or the slaved map as its drive terms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import stability
from .equilibria import NotCertified, PiecewiseAffineMap
from .network import (AffinePiece, LTNetwork, Trajectory, _as_readonly, _clipped_run,
                      _initial_state, _step_count)
from .network import rk4_integrate  # noqa: F401  perfbench/tracing.py wraps the core here too

__all__ = [
    "Hierarchy",
    "TrackingReport",
    "simulate_hierarchy",
    "reference_trajectory",
    "tracking_error",
    "epsilon_sweep",
    "rom_simulate",
]


@dataclass(frozen=True, eq=False)
class Hierarchy:
    """Chain of layers with inter-layer weights.

    W_down[i-1] and W_up[i-1] are the blocks between layers i and i+1, for
    i = 1..N-1, in the order coupling documents; coupling(i) hands out
    their task-relevant parts.  The top layer must have r = 0, every lower
    layer r < n, and time constants must strictly decrease.  The blocks are
    held read-only, copied unless they already are (network._as_readonly),
    so certification, the hierarchy's stability.certify_hierarchy, is
    computed on first read and kept; synthesis and the epsilon sweep read it.
    """

    layers: tuple
    W_down: tuple
    W_up: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        N = len(layers)
        if N < 1:
            raise ValueError("hierarchy needs at least one layer")
        W_down = tuple(_as_readonly(Wd) for Wd in self.W_down)
        W_up = tuple(_as_readonly(Wu) for Wu in self.W_up)
        if len(W_down) != N - 1 or len(W_up) != N - 1:
            raise ValueError("need N-1 inter-layer blocks in each direction")
        for i in range(N - 1):
            na, nb = layers[i].n, layers[i + 1].n
            if W_down[i].shape != (na, nb):
                raise ValueError(f"W_down[{i}] must be ({na}, {nb})")
            if W_up[i].shape != (nb, na):
                raise ValueError(f"W_up[{i}] must be ({nb}, {na})")
            if not (np.all(np.isfinite(W_down[i])) and np.all(np.isfinite(W_up[i]))):
                raise ValueError(f"W_down[{i}] and W_up[{i}] must be finite")
        if layers[0].r != 0:
            raise ValueError("top layer cannot have inhibited nodes (r1 = 0)")
        for i, la in enumerate(layers[1:], start=2):
            if la.r == la.n:
                raise ValueError(
                    f"layer {i} has every node inhibited (r = n = {la.n}); "
                    "a lower layer needs a task-relevant node"
                )
        taus = [la.tau for la in layers]
        if any(t2 >= t1 for t1, t2 in zip(taus, taus[1:])):
            raise ValueError(f"time constants must strictly decrease, got {taus}")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "W_down", W_down)
        object.__setattr__(self, "W_up", W_up)

    @property
    def N(self) -> int:
        return len(self.layers)

    def coupling(self, i: int) -> tuple:
        """Layer i's task-relevant blocks against the layer below, 1-based:
        (W_ii^{++}, W_i,i+1^{++}, W_i+1,i^{++}, c_{i+1}^+) as views, the
        last three None for the bottom layer.  W_down[i-1] is W_{i,i+1}
        (layer i's drive from layer i+1), W_up[i-1] is W_{i+1,i} (layer
        i+1's drive from layer i).  Control synthesis reads their inhibited
        rows ([:r, ...]), not these ++ blocks, so it indexes them itself."""
        N = len(self.layers)
        if not 1 <= i <= N:
            raise ValueError(f"layer must be 1..{N}, got {i}")
        p = self.layers[i - 1].plus
        Wii = self.layers[i - 1].W[p, p]
        if i == N:
            return Wii, None, None, None
        below = self.layers[i]
        q = below.plus
        return Wii, self.W_down[i - 1][p, q], self.W_up[i - 1][q, p], below.c[q]

    def laws(self, controls) -> list:
        """One law or None per layer, each of controls (ControlLaws or None)
        on the layer it names.  ValueError refuses a layer outside 1..N, a
        second law for a layer, K or ubar without B, and for B (n, p) a K
        other than (p, n) or a constant ubar other than (p,)."""
        laws = [None] * self.N
        for law in filter(None, controls or ()):
            k, K, ubar = law.layer, law.K, law.ubar
            if not 1 <= k <= self.N:
                raise ValueError(f"a control law names layer {k}; no such layer in 1..{self.N}")
            if laws[k - 1] is not None:
                raise ValueError(f"layer {k}: a second control entry for the layer")
            B = self.layers[k - 1].B
            if B is None and (K is not None or ubar is not None):
                raise ValueError(f"layer {k}: the layer has no B, so it takes no K or ubar")
            if K is not None and K.shape != B.T.shape:
                raise ValueError(f"layer {k}: K must have shape {B.T.shape}, got {K.shape}")
            if isinstance(ubar, np.ndarray) and ubar.shape != (p := B.shape[1:]):
                raise ValueError(f"layer {k}: ubar must have shape {p}, got {ubar.shape}")
            laws[k - 1] = law
        return laws

    @cached_property
    def certification(self):
        return stability.certify_hierarchy(self)

    @property
    def eps(self) -> tuple:
        """Timescale ratios eps_i = tau_{i+1} / tau_i."""
        taus = [la.tau for la in self.layers]
        return tuple(t2 / t1 for t1, t2 in zip(taus, taus[1:]))

    def with_eps(self, eps: float) -> "Hierarchy":
        """Copy with every ratio set to eps, holding tau_1 fixed."""
        if not 0 < eps < 1:
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
        tau = self.layers[0].tau
        new_layers = [self.layers[0]]
        for la in self.layers[1:]:
            tau = tau * eps
            new_layers.append(replace(la, tau=tau))
        return Hierarchy(tuple(new_layers), self.W_down, self.W_up)

    def slices(self):
        """State slices of each layer in the stacked vector."""
        out, start = [], 0
        for la in self.layers:
            out.append(slice(start, start + la.n))
            start += la.n
        return out


def simulate_hierarchy(
    h: Hierarchy,
    controls: Optional[Sequence] = None,
    x0: Optional[Sequence] = None,
    t_span=(0.0, 10.0),
    dt: Optional[float] = None,
) -> list:
    """Integrate all layers jointly with one fixed RK4 step (rk4_integrate).

    controls, when given, lists ControlLaws (entries may be None), which
    h.laws places and checks.  x0 lists per-layer initial states in
    [0, m] (zeros by default).  dt is as in simulate, for the smallest
    layer time constant.  Returns one Trajectory per layer; a layer with
    B and a law logs the applied u(t), zeros for a law without K or ubar.

    When every callable ubar is an OnlineFeedforward, the closed loop is
    piecewise affine, and the run takes rk4_integrate's block path on
    pieces whose rows hold every node's drive and each feedforward's rows.
    """
    N = h.N
    taus = np.concatenate([np.full(la.n, la.tau) for la in h.layers])
    ms = np.concatenate([la.m for la in h.layers])
    sl = h.slices()
    t0, dt, n_steps = _step_count(t_span, dt, min(la.tau for la in h.layers))
    if x0 is None:
        x0 = [np.zeros(la.n) for la in h.layers]
    if len(x0) != N:
        raise ValueError(f"x0 holds {len(x0)} layer states, but the hierarchy has {N} layers")
    X0 = np.concatenate([_initial_state(x, la.m, f"x0 of layer {i}")
                         for i, (x, la) in enumerate(zip(x0, h.layers), start=1)])
    laws = h.laws(controls)

    # stack the layer and inter-layer blocks into one matrix; feedback
    # gains fold into the diagonal blocks and constant feedforward into
    # the offset, leaving online feedforward as drive terms
    n_tot = X0.size
    Wtot = np.zeros((n_tot, n_tot))
    ctot = np.concatenate([la.c for la in h.layers])
    online = []
    for i, la in enumerate(h.layers):
        Wtot[sl[i], sl[i]] = la.W
        if i > 0:
            Wtot[sl[i], sl[i - 1]] = h.W_up[i - 1]
        if i < N - 1:
            Wtot[sl[i], sl[i + 1]] = h.W_down[i]
        K, ubar = (None, None) if laws[i] is None else (laws[i].K, laws[i].ubar)
        if K is not None:
            Wtot[sl[i], sl[i]] += la.B @ K
        if callable(ubar):
            online.append((sl[i], sl[i - 1] if i > 0 else None, la.B, ubar))
        elif ubar is not None:
            ctot[sl[i]] += la.B @ ubar

    samples = _clipped_run(Wtot, ctot, ms, taus, X0, t0, dt, n_steps, online)
    times = t0 + dt * np.arange(n_steps + 1)
    out = []
    for i, (la, law) in enumerate(zip(h.layers, laws)):
        x, above = samples[:, sl[i]], samples[:, sl[i - 1]] if i > 0 else None
        log = None
        if law is not None and la.B is not None:
            empty = law.K is None and law.ubar is None
            log = np.zeros((times.size, la.p)) if empty else law.input_log(times, x, above)
        out.append(Trajectory(t0=t0, dt=dt, samples=x, input_log=log))
    return out


def reference_trajectory(
    h: Hierarchy,
    upper_traj: Trajectory,
    layer: int,
    pa_map: PiecewiseAffineMap,
) -> Trajectory:
    """Quasi-steady reference (0, h_i^+(W_up^{++} x_{i-1}(t) + c_i^+)).

    pa_map is the composed task-relevant equilibrium map h_i^+ of the
    layer, as certified by stability.certify_hierarchy (its maps[layer]).
    Sampled at the upper trajectory's times.
    """
    if not 2 <= layer <= h.N:
        raise ValueError(f"layer must be 2..{h.N}")
    net = h.layers[layer - 1]
    above = h.layers[layer - 2]
    _, _, Wup_pp, c_plus = h.coupling(layer - 1)
    drive = upper_traj.samples[:, above.plus] @ Wup_pp.T + c_plus
    plus_vals = pa_map.eval_many(drive)
    samples = np.zeros((plus_vals.shape[0], net.n))
    samples[:, net.plus] = plus_vals
    return Trajectory(t0=upper_traj.t0, dt=upper_traj.dt, samples=samples)


def tracking_error(traj: Trajectory, ref: Trajectory, window) -> float:
    """Sup over the window of the euclidean distance to the reference."""
    if abs(traj.dt - ref.dt) > 1e-12 or abs(traj.t0 - ref.t0) > 1e-12:
        raise ValueError("trajectory and reference must share their time grid")
    mask = traj.window(*window)
    if not np.any(mask):
        raise ValueError(f"window {window} contains no samples")
    diff = traj.samples[mask] - ref.samples[mask]
    return float(np.max(np.linalg.norm(diff, axis=1)))


@dataclass(frozen=True)
class TrackingReport:
    """Per-epsilon tracking errors and inhibited residuals of a sweep.

    errors[layer] and inhibited[layer] are lists aligned with eps_list;
    the monotone flags record whether each sequence is nonincreasing.
    """

    eps_list: tuple
    window: tuple
    errors: dict
    inhibited: dict
    errors_monotone: dict
    inhibited_monotone: dict

    def to_dict(self):
        return {
            "eps": list(self.eps_list),
            "window": list(self.window),
            "tracking_errors": {str(k): v for k, v in self.errors.items()},
            "inhibited_norms": {str(k): v for k, v in self.inhibited.items()},
            "tracking_monotone": {str(k): v for k, v in self.errors_monotone.items()},
            "inhibited_monotone": {str(k): v for k, v in self.inhibited_monotone.items()},
        }


def epsilon_sweep(
    h: Hierarchy,
    controls,
    eps_list: Sequence[float],
    x0=None,
    window=None,
    dt_factor: float = 50.0,
) -> TrackingReport:
    """Rescale the hierarchy over eps_list and measure slaving quality.

    For each eps the layer time constants are reset to tau_1 * eps^(i-1),
    the controlled hierarchy is simulated from t = 0 to the later of the
    window's end and 10 tau_1, and every layer below the top
    is compared against its quasi-steady reference over the window
    (default [2 tau_1, 10 tau_1]); inhibited nodes are scored by their
    sup norm over the same window.  The references read the maps h_i^+ of
    h.certification (the maps do not depend on tau), and a hierarchy that
    fails it is refused with NotCertified, as multilayer_controls refuses
    it, naming the first layer below the top without a map, or else layer 1.
    """
    if len(eps_list) == 0:
        raise ValueError("eps_list is empty: there is nothing to sweep")
    cert = h.certification
    if missing := sorted(set(range(2, h.N + 1)) - set(cert.maps)):
        raise NotCertified(f"layer {missing[0]} has no certified map")
    if not cert.all_passed:
        raise NotCertified("layer 1 is not certified bounded")
    tau1 = h.layers[0].tau
    if window is None:
        window = (2.0 * tau1, 10.0 * tau1)
    t_end = max(window[1], 10.0 * tau1)
    errors = {i: [] for i in range(2, h.N + 1)}
    inhibited = {i: [] for i in range(2, h.N + 1) if h.layers[i - 1].r > 0}
    for eps in eps_list:
        h_eps = h.with_eps(float(eps))
        dt = min(la.tau for la in h_eps.layers) / dt_factor
        trajs = simulate_hierarchy(h_eps, controls, x0, (0.0, t_end), dt)
        for i in range(2, h.N + 1):
            net = h_eps.layers[i - 1]
            ref = reference_trajectory(h_eps, trajs[i - 2], i, cert.maps[i])
            errors[i].append(tracking_error(trajs[i - 1], ref, window))
            if net.r > 0:
                mask = trajs[i - 1].window(*window)
                resid = np.linalg.norm(trajs[i - 1].samples[mask][:, : net.r], axis=1)
                inhibited[i].append(float(np.max(resid)))
    def monotone(seq):
        return all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))

    return TrackingReport(
        eps_list=tuple(float(e) for e in eps_list),
        window=tuple(window),
        errors=errors,
        inhibited=inhibited,
        errors_monotone={i: monotone(v) for i, v in errors.items()},
        inhibited_monotone={i: monotone(v) for i, v in inhibited.items()},
    )


class _SlavedLayer:
    """The reduced model's drive term x -> h(W x + c), h the composed
    map below: piece(x), the core's hint, names h's first piece covering
    d = W x + c by its index and builds it pulled back through x.  _last
    holds the last state located, as (its bytes, d, the piece's index),
    so a state that the drive and the hint both read is located once."""

    def __init__(self, pa_map, W, c):
        self.pa_map, self.W, self.c, self._last = pa_map, W, c, (None,)

    def _at(self, x):
        if self._last[0] != (key := x.tobytes()):
            d = self.W @ x + self.c
            self._last = key, d, self.pa_map._locate(d)
        return self._last[1:]

    def __call__(self, t, x):
        d, k = self._at(x)
        return self.pa_map.F[k] @ d + self.pa_map.f[k]

    def piece(self, x):
        pa, k = self.pa_map, self._at(x)[1]
        F, G, g = pa.F[k], pa.G[pa.ends[k] : pa.ends[k + 1]], pa.g[pa.ends[k] : pa.ends[k + 1]]
        return k.to_bytes(8, "little"), lambda: AffinePiece(
            F @ self.W, F @ self.c + pa.f[k], G @ self.W, G @ self.c + g)


def rom_simulate(
    h: Hierarchy,
    pa_map: PiecewiseAffineMap,
    x0=None,
    t_span=(0.0, 10.0),
    dt: Optional[float] = None,
) -> Trajectory:
    """Reduced-order model of the top layer.

    The layers below are replaced by the composed task-relevant map
    h_2^+, so the top layer evolves as

        tau_1 x' = -x + [W_11^{++} x + W_12^{++} h_2^+(W_21^{++} x + c_2^+) + c_1^+]_0^m.

    x0 (zeros by default) must lie in [0, m]; dt is as in simulate, for
    tau_1.  The run takes rk4_integrate's block path on pieces whose rows
    hold the top layer's drive and the covering piece of h_2^+.
    """
    if h.N < 2:
        raise ValueError("reduced model needs a layer below the top")
    top = h.layers[0]  # the top layer has r = 0: x is all of it
    t0, dt, n_steps = _step_count(t_span, dt, top.tau)
    x0 = _initial_state(np.zeros(top.n) if x0 is None else x0, top.m, "x0 of layer 1")
    _, Wdn, Wup, c_below = h.coupling(1)
    samples = _clipped_run(top.W, top.c, top.m, top.tau, x0, t0, dt, n_steps,
                           [(slice(None), slice(None), Wdn, _SlavedLayer(pa_map, Wup, c_below))])
    return Trajectory(t0=t0, dt=dt, samples=samples)
