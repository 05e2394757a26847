"""Linear-threshold network dynamics.

A network of n nodes evolves according to

    tau * dx/dt = -x + [W x + d]_0^m

where [v]_0^m clips v elementwise to the box [0, m].  Ceiling entries may
be finite or unbounded; unbounded ceilings are represented by ``np.inf``
(the saturated regime is then structurally impossible for those nodes,
never approximated by a large float).  The box [0, m] is forward invariant,
so trajectories started inside it stay inside it.

Integration uses classic fixed-step fourth-order Runge-Kutta with a
projection of each completed step back onto the box, which removes the
O(dt^5) excursions that the clipped vector field can otherwise produce at
the boundary.  rk4_integrate is the one fixed-step core: simulate, the
stacked hierarchy (hierarchy.simulate_hierarchy) and the reduced-order
model (hierarchy.rom_simulate) all step through it, and so does
identification (sysid.SysIdProblem.simulate_candidates), which steps a
batch of candidate networks as one (candidates x conditions, n) state
and records the stages for its adjoint gradient from inside f and
project.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "UNBOUNDED",
    "LTNetwork",
    "Trajectory",
    "clip_box",
    "rhs",
    "rk4_integrate",
    "simulate",
]

# marker for unbounded ceilings; kept as a module name so intent is explicit
UNBOUNDED = np.inf


def clip_box(v, m):
    """Clip v elementwise to the box [0, m].

    Entries of m may be np.inf, in which case only the lower bound acts.
    """
    v = np.asarray(v, dtype=float)
    return np.minimum(np.maximum(v, 0.0), m)


def _as_readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LTNetwork:
    """Immutable linear-threshold network.

    Parameters
    ----------
    W : (n, n) array
        Recurrent weights.
    c : (n,) array
        Constant background input.
    m : (n,) array
        Activation ceilings; entries are positive or np.inf.
    tau : float
        Time constant (positive).
    B : (n, p) array, optional
        Input matrix for external controls.  Only the first ``r`` rows may
        be nonzero when the node set is partitioned.
    r : int
        Number of leading task-irrelevant (inhibition-target) nodes; the
        remaining n - r nodes are task-relevant.
    """

    W: np.ndarray
    c: np.ndarray
    m: np.ndarray
    tau: float = 1.0
    B: Optional[np.ndarray] = None
    r: int = 0

    def __post_init__(self):
        W = _as_readonly(self.W)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError(f"W must be square, got shape {W.shape}")
        n = W.shape[0]
        c = _as_readonly(np.broadcast_to(np.asarray(self.c, dtype=float), (n,)))
        m = _as_readonly(np.broadcast_to(np.asarray(self.m, dtype=float), (n,)))
        if np.any(m <= 0):
            raise ValueError("ceiling entries must be positive (or np.inf)")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        B = self.B
        if B is not None:
            B = _as_readonly(B)
            if B.ndim != 2 or B.shape[0] != n:
                raise ValueError(f"B must be (n, p), got shape {B.shape}")
        if not 0 <= self.r <= n:
            raise ValueError(f"r must lie in [0, {n}], got {self.r}")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def p(self) -> int:
        return 0 if self.B is None else self.B.shape[1]

    # index helpers for the task-irrelevant (minus) / task-relevant (plus)
    # partition; the first r nodes are the inhibition targets
    @property
    def minus(self) -> slice:
        return slice(0, self.r)

    @property
    def plus(self) -> slice:
        return slice(self.r, self.n)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled trajectory.

    samples[k] is the state at time t0 + k*dt.  input_log, when present,
    holds the applied input vector at the same sample times (total drive
    for plain simulations, control vectors for controlled runs).
    """

    t0: float
    dt: float
    samples: np.ndarray
    input_log: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_readonly(self.samples))
        if self.input_log is not None:
            object.__setattr__(self, "input_log", _as_readonly(self.input_log))

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.samples.shape[0])

    def window(self, t_lo: float, t_hi: float) -> np.ndarray:
        """Boolean mask of samples with t_lo <= t <= t_hi."""
        t = self.times
        return (t >= t_lo - 1e-12) & (t <= t_hi + 1e-12)


def rhs(net: LTNetwork, x, d_ext) -> np.ndarray:
    """Vector field tau^-1 * (-x + [W x + d_ext]_0^m).

    d_ext is the total external input (background c folded in by the
    caller when applicable).
    """
    x = np.asarray(x, dtype=float)
    return (-x + clip_box(net.W @ x + d_ext, net.m)) / net.tau


def _resolve_input(net: LTNetwork, input) -> Callable[[float], np.ndarray]:
    if input is None:
        const = net.c

        return lambda t: const
    if callable(input):
        return input
    const = np.broadcast_to(np.asarray(input, dtype=float), (net.n,))
    return lambda t: const


def rk4_integrate(f, x0, t0, dt, n_steps, project=None):
    """Classic RK4 on dx/dt = f(t, x) with an optional per-step projection.

    The state may have any shape; returns the (n_steps + 1,) + x0.shape
    array of states at t0 + k*dt, including the initial state.
    """
    x = np.array(x0, dtype=float)
    out = np.empty((n_steps + 1,) + x.shape)
    out[0] = x
    t = t0
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(n_steps):
        k1 = f(t, x)
        k2 = f(t + half, x + half * k1)
        k3 = f(t + half, x + half * k2)
        k4 = f(t + dt, x + dt * k3)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if project is not None:
            x = project(x)
        t = t0 + (k + 1) * dt
        out[k + 1] = x
    return out


def _step_count(t_span, dt):
    """(t0, n_steps) of a run over t_span with fixed step dt > 0."""
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError(f"empty time span {t_span}")
    n_steps = int(round((t1 - t0) / dt))
    if n_steps < 1:
        raise ValueError("t_span shorter than one step")
    return t0, n_steps


def simulate(
    net: LTNetwork,
    x0,
    input: Union[None, Sequence, Callable[[float], np.ndarray]] = None,
    t_span=(0.0, 10.0),
    dt: Optional[float] = None,
) -> Trajectory:
    """Integrate the network from x0 over t_span.

    Parameters
    ----------
    x0 : (n,) array
        Initial state; must lie in the box [0, m].
    input : None, vector, or callable t -> vector
        Total external input d(t).  None uses the constant background c.
    t_span : (t0, t1)
        Integration interval.
    dt : float, optional
        Fixed step; defaults to tau / 50 and must satisfy dt <= tau / 20.

    Returns
    -------
    Trajectory with samples at every accepted step and the applied input
    logged at the same times.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (net.n,):
        raise ValueError(f"x0 must have shape ({net.n},), got {x0.shape}")
    if np.any(x0 < -1e-12) or np.any(x0 > net.m + 1e-12):
        raise ValueError("x0 lies outside the box [0, m]")
    if dt is None:
        dt = net.tau / 50.0
    if not 0 < dt <= net.tau / 20.0 + 1e-15:
        raise ValueError(f"dt={dt} must satisfy 0 < dt <= tau/20 = {net.tau / 20.0}")
    t0, n_steps = _step_count(t_span, dt)

    d_of = _resolve_input(net, input)

    def f(t, x):
        return rhs(net, x, d_of(t))

    samples = rk4_integrate(
        f, clip_box(x0, net.m), t0, dt, n_steps, project=lambda x: clip_box(x, net.m)
    )
    d_log = np.array([d_of(t0 + k * dt) for k in range(n_steps + 1)], dtype=float)
    return Trajectory(t0=t0, dt=dt, samples=samples, input_log=d_log)
