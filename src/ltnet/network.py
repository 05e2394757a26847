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
the boundary.  rk4_integrate is the one fixed-step core and _clipped_run
the one clipped field, tau x' = -x + [W x + c + terms]_0^m, each term
adding B u(t, x[src]) to some rows: simulate with a None or constant
input, simulate with a callable input (one term, the input itself), the
stacked hierarchy (hierarchy.simulate_hierarchy, whose terms are online
feedforward) and the reduced-order model (hierarchy.rom_simulate, whose
term is the slaved layer's map) run through it.  Besides _clipped_run,
only identification (sysid.SysIdProblem._simulate) steps
through the core, with a batch of candidate networks as one
(candidates x conditions, n) state.

Piecewise-affine block stepping.  A time-invariant clipped field is
affine on each clip regime (ZERO, LINEAR, SATURATED), and inside one
regime an RK4 step is exactly x -> R x + r, with R the RK4 stability
polynomial of h F.  rk4_integrate takes an optional hint,
piece(x) -> (key, build), that names the piece holding x and builds it
on demand as an AffinePiece: the field F y + f on the rows G y + g >= 0
that _regime_rows writes for each clip argument.  With the hint the core
advances up to BLOCK_STEPS = 64 steps with one stacked product, checks
every post-step state and all four stage states of every step against
the rows, keeps the steps before the first one that leaves the piece,
that project moves or that is not finite, and takes that step with the
plain RK4 code.  The checks allow a slack of _KINK_SLACK = 1e-12 times
the size of the terms: a node inhibited to exactly zero drive sees
+-1e-16 in floats, and both pieces agree at a kink.  Each call caches
the block maps of up to _PIECE_CACHE = 16 pieces.  _clipped_run passes
the hint when every term answers it too, u.piece(x_src) -> (key, build);
block results agree with plain stepping to about 1e-13.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "ZERO",
    "LINEAR",
    "SATURATED",
    "AffinePiece",
    "LTNetwork",
    "Trajectory",
    "clip_box",
    "rhs",
    "rk4_integrate",
    "simulate",
]

# clip regimes of a node's drive; the integer order defines the
# lexicographic tie-break between equilibrium pieces
ZERO, LINEAR, SATURATED = 0, 1, 2

# steps advanced per stacked product by the piecewise-affine block path
BLOCK_STEPS = 64
# relative slack of the block path's kink and projection checks: about
# 4 500 ulps of the terms' size, far below any change of regime that matters
_KINK_SLACK = 1e-12
# distinct pieces whose block maps one integration keeps
_PIECE_CACHE = 16
_REGION_TOL = 1e-9  # slack when testing membership y in {G y + g >= 0}


def clip_box(v, m):
    """Clip v elementwise to the box [0, m].

    Entries of m may be np.inf, in which case only the lower bound acts.
    """
    v = np.asarray(v, dtype=float)
    return np.minimum(np.maximum(v, 0.0), m)


def _as_readonly(a):
    """a as a read-only float array: a itself when it already is a
    C-contiguous one and the array owning its memory is read-only too, so
    nothing can write to it; else a read-only C-ordered copy, which a
    second call keeps."""
    if (type(a) is np.ndarray and not a.flags.writeable and a.dtype == float
            and a.flags.c_contiguous
            and (a.base is None or type(a.base) is np.ndarray and not a.base.flags.writeable)):
        return a
    out = np.array(a, dtype=float, order="C")
    out.setflags(write=False)
    return out


def _integer(v) -> bool:
    """ltnet's one integer rule: a Python or NumPy integer, no bool or float."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _real(v) -> bool:
    """ltnet's one real-number rule: a Python or NumPy int or float, no bool."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


@contextlib.contextmanager
def _float_field(name):
    """Re-raise the OverflowError of an integer beyond float range, met while
    reading field name as floats, as a ValueError that names the field."""
    try:
        yield
    except OverflowError as e:
        raise ValueError(f"{name} must be finite: {e}") from None


@dataclass(frozen=True, eq=False)
class AffinePiece:
    """One affine piece y -> F y + f valid on {y : G y + g >= 0}.

    label names the piece; for an equilibrium map it is the generating
    switching pattern as a tuple of regime codes, and for a composed map
    the concatenation (inner label, outer pattern).
    """

    F: np.ndarray
    f: np.ndarray
    G: np.ndarray
    g: np.ndarray
    label: tuple = ()

    def __post_init__(self):
        for name in ("F", "f", "G", "g"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))
        object.__setattr__(self, "label", tuple(self.label))

    def contains(self, y) -> bool:
        return bool(np.all(self.G @ y + self.g >= -_REGION_TOL))


@dataclass(frozen=True, eq=False)
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
        Time constant, a positive finite number; held as a Python float.
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
        with _float_field("W"):
            W = _as_readonly(self.W)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError(f"W must be square, got shape {W.shape}")
        n = W.shape[0]
        with _float_field("c"):
            c = _as_readonly(np.broadcast_to(np.asarray(self.c, dtype=float), (n,)))
        with _float_field("m"):
            m = _as_readonly(np.broadcast_to(np.asarray(self.m, dtype=float), (n,)))
        if not np.all(m > 0):
            raise ValueError("ceiling entries must be positive (or np.inf)")
        if not _real(self.tau):
            raise ValueError(f"tau must be a number, got {self.tau!r}")
        with _float_field("tau"):
            tau = float(self.tau)
        if not 0 < tau < np.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        B = self.B
        if B is not None:
            with _float_field("B"):
                B = _as_readonly(B)
            if B.ndim != 2 or B.shape[0] != n:
                raise ValueError(f"B must be (n, p), got shape {B.shape}")
        for name, a in (("W", W), ("c", c), ("B", B)):
            if a is not None and not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite")
        if not _integer(self.r):
            raise ValueError(f"r must be an integer, got {self.r!r}")
        if not 0 <= self.r <= n:
            raise ValueError(f"r must lie in [0, {n}], got {self.r}")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "r", int(self.r))  # JSON writes no NumPy integer

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


@dataclass(frozen=True, eq=False)
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


def _clip_regime(d, m) -> np.ndarray:
    """Clip regime of each drive entry against [0, m]: ZERO at the floor,
    LINEAR in the linear range, SATURATED at the ceiling."""
    return (d > 0).astype(np.int8) + (d > m)


def _regime_rows(A, a, regime, m):
    """Rows G y + g >= 0 that hold each clip argument A y + a in its regime.

    A is (..., n, k), a and regime are (..., n), and m broadcasts against
    a.  Returns node-major candidate rows G (..., 2n, k), g (..., 2n) and
    keep (..., 2n): a node's first row is A y + a <= 0 at Zero, >= 0 at
    Linear and >= m at Saturated; its second, A y + a <= m, is kept only
    at Linear under a finite m.
    """
    zero, lin, sat = (regime == r for r in (ZERO, LINEAR, SATURATED))
    G = np.empty(A.shape[:-1] + (2,) + A.shape[-1:])  # (..., n, 2, k), written in place
    G[..., 1, :] = -A
    G[..., 0, :] = np.where(zero[..., None], G[..., 1, :], A)
    g = np.empty(a.shape + (2,))
    g[..., 0] = np.where(zero, -a, np.where(sat, a - m, a))
    g[..., 1] = m - a
    keep = np.ones(a.shape + (2,), dtype=bool)
    keep[..., 1] = lin & np.isfinite(m)
    rows = a.shape[:-1] + (2 * a.shape[-1],)
    return G.reshape(rows + A.shape[-1:]), g.reshape(rows), keep.reshape(rows)


def _clip_piece(Wd, cd, m, tau, regime, kinks=()) -> AffinePiece:
    """Piece of the field y -> (-y + [Wd y + cd]_0^m) / tau in a clip regime.

    Its rows hold every node's drive Wd y + cd in its regime.  tau is a
    scalar or one time constant per node.  kinks adds rows (G, g) of
    further conditions, for drives that are themselves piecewise affine.
    """
    on, sat = regime == LINEAR, regime == SATURATED
    tau = np.broadcast_to(tau, regime.shape)
    F = (np.where(on[:, None], Wd, 0.0) - np.eye(regime.size)) / tau[:, None]
    f = np.where(on, cd, np.where(sat, m, 0.0)) / tau
    G, g, keep = _regime_rows(Wd, cd, regime, m)
    G, g = (np.concatenate(col) for col in zip((G[keep], g[keep]), *kinks))
    return AffinePiece(F, f, G, g)


class _BlockStepper:
    """RK4 on one affine piece, BLOCK_STEPS steps per stacked product.

    On z = [y; 1] each RK4 stage state and the step itself are matrices:
    the step is M, so x_{k+j} = (M^j z_k)[:n].  The block maps of the
    pieces one integration meets are cached, at most _PIECE_CACHE of them.
    """

    def __init__(self, dt, project):
        self.dt, self.project, self.maps = dt, project, {}

    def _build(self, piece, steps):
        n = piece.f.size
        eye = np.eye(n + 1)
        Fk = np.column_stack([piece.F, piece.f])  # f(y) = Fk z

        def stage(S, c):  # y + c f(S z)
            T = eye.copy()
            T[:n] += c * (Fk @ S)
            return T

        S2 = stage(eye, 0.5 * self.dt)
        S3 = stage(S2, 0.5 * self.dt)
        S4 = stage(S3, self.dt)
        M = stage(eye + 2.0 * (S2 + S3) + S4, self.dt / 6.0)
        P = eye[None]  # M^0 .. M^steps by doubling
        while len(P) <= steps:
            P = np.concatenate([P, P @ (P[-1] @ M)])
        powers = P[: steps + 1].reshape(-1, n + 1)
        Gz = np.column_stack([piece.G, piece.g])
        # slack: _KINK_SLACK times the terms' size, |g| + |G| max|y|
        tol0 = _KINK_SLACK * (1.0 + np.abs(piece.g))
        tol1 = _KINK_SLACK * np.abs(piece.G).sum(axis=1)
        # rows at the four stage states of the step from z, negated: a row
        # holds while (z @ stages) stays at most its slack
        stages = -np.vstack([Gz, Gz @ S2, Gz @ S3, Gz @ S4]).T
        return powers, stages, tol0, tol1

    def advance(self, key, build, x, out):
        """Fill a prefix of out (size, n) with the steps from x that stay
        on the piece named key (built by build() with M^0 .. M^size when
        not cached: a run's sizes never grow); returns its length."""
        size, n = out.shape
        maps = self.maps.get(key)
        if maps is None:
            if len(self.maps) >= _PIECE_CACHE:
                del self.maps[next(iter(self.maps))]
            maps = self.maps[key] = self._build(build(), size)
        powers, stages, tol0, tol1 = maps
        z = np.concatenate([x, [1.0]])
        Z = (powers[: (size + 1) * (n + 1)] @ z).reshape(size + 1, n + 1)  # z_k .. z_{k+size}
        X = Z[1:, :n]
        g = (Z[:-1] @ stages).reshape(size, 4, tol0.size)
        top = np.abs(Z[:, :n]).max(axis=1)  # NaN stays NaN and fails below
        top = np.maximum(top[1:], top[:-1])
        tol = tol0 + np.multiply.outer(top, tol1)
        ok = (g <= tol[:, None]).reshape(size, -1).all(axis=1) & np.isfinite(top)
        Xp = self.project(X)
        if (Xp != X).any():
            ok &= (np.abs(Xp - X) <= _KINK_SLACK * (1.0 + np.abs(X))).all(axis=1)
            X = Xp
        taken = size if ok.all() else int(np.argmin(ok))
        out[:taken] = X[:taken]
        return taken


def rk4_integrate(f, x0, t0, dt, n_steps, project=None, piece=None):
    """Classic RK4 on dx/dt = f(t, x) with an optional per-step projection.

    The state may have any shape; returns the (n_steps + 1,) + x0.shape
    array of states at t0 + k*dt, including the initial state.

    piece, the piecewise-affine hint, is for time-invariant f on a 1-D
    state: piece(x) returns (key, build) for the piece holding x, where
    key names the piece (equal keys, equal pieces) and build() returns
    it as an AffinePiece; f(t, y) must equal F y + f wherever its rows
    G y + g >= 0 (see _regime_rows) hold.  With the hint the core
    advances runs of one piece BLOCK_STEPS steps per stacked product and
    takes the step that leaves a piece with the plain code below;
    project must then be given and accept a (steps, n) stack of states.

    The plain code steps in place: every stage state, and then the
    step's update x + dt/6 (k1 + 2 (k2 + k3) + k4), is built in one
    reused buffer with the operations of that expression in its order
    (the bits of the expression).  So f's result must not be (a view
    of) its argument, and neither f nor project may keep the argument
    past the call.
    """
    x = np.array(x0, dtype=float)
    out = np.empty((n_steps + 1,) + x.shape)
    out[0] = x
    y = np.empty(x.shape)  # each stage state, then the step's update
    half = 0.5 * dt
    sixth = dt / 6.0
    # the same scalars as 0-d arrays for the in-place operations: NumPy
    # takes them faster than floats, with the same bits
    a_half, a_dt, a_two, a_sixth = map(np.array, (half, dt, 2.0, sixth))
    blocks = None if piece is None else _BlockStepper(dt, project)
    k = 0
    while k < n_steps:
        if blocks is not None:
            size = min(BLOCK_STEPS, n_steps - k)
            taken = blocks.advance(*piece(x), x, out[k + 1 : k + 1 + size])
            k += taken
            x = out[k]
            if taken == size:
                continue
        t = t0 + k * dt
        k1 = f(t, x)
        np.multiply(k1, a_half, out=y)
        y += x
        k2 = f(t + half, y)
        np.multiply(k2, a_half, out=y)
        y += x
        k3 = f(t + half, y)
        np.multiply(k3, a_dt, out=y)
        y += x
        k4 = f(t + dt, y)
        np.add(k2, k3, out=y)
        y *= a_two
        y += k1
        y += k4
        y *= a_sixth
        y += x
        k += 1
        out[k] = y if project is None else project(y)
        x = out[k]
    return out


def _initial_state(x0, m, what="x0"):
    """x0 clipped onto the box [0, m] from within 1e-12 of it; ValueError,
    naming x0 as what, for any other shape or point (NaN included)."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != m.shape:
        raise ValueError(f"{what} has shape {x0.shape}, but the layer has {m.size} nodes")
    if not np.all((x0 >= -1e-12) & (x0 <= m + 1e-12)):
        raise ValueError(f"{what} lies outside the box [0, m]")
    return clip_box(x0, m)


def _step_count(t_span, dt, tau):
    """(t0, dt, n_steps) of a fixed-step run over t_span; tau is the run's
    smallest time constant, and dt defaults to tau / 50, at most tau / 20."""
    if dt is None:
        dt = tau / 50.0
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if dt > tau / 20.0 + 1e-15:
        raise ValueError(f"dt={dt} exceeds tau/20 = {tau / 20.0}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not np.isfinite(t0) or not np.isfinite(t1):
        raise ValueError(f"t_span must be finite, got {t_span}")
    if not t1 > t0:
        raise ValueError(f"empty time span {t_span}")
    n_steps = int(round((t1 - t0) / dt))
    if n_steps < 1:
        raise ValueError("t_span shorter than one step")
    return t0, dt, n_steps


def _clipped_run(W, c, m, tau, x0, t0, dt, n_steps, terms=()):
    """States of tau x' = -x + [W x + c + terms]_0^m on the box [0, m].

    A term (dst, src, B, u) adds B @ u(t, x[src]) to the drive's rows dst
    (u(t, None) when src is None, and u itself when B is None); tau is a
    scalar or one per node.  When every u reads x[src] and answers the
    core's hint, u.piece(x_src) -> (key, build), so does the run: its key
    joins the regime's and the terms' keys, and its build folds the
    terms' pieces into W and c and adds their rows.
    """

    def drive(t, x):
        d = W @ x + c
        for dst, src, B, u in terms:
            v = u(t, None if src is None else x[src])
            d[dst] += v if B is None else B @ v
        return d

    def f(t, x):
        return (-x + clip_box(drive(t, x), m)) / tau

    piece = None
    if all(src is not None and hasattr(u, "piece") for _, src, _, u in terms):

        def piece(x):
            regime = _clip_regime(drive(t0, x), m)
            hints = [u.piece(x[src]) for _, src, _, u in terms]
            key = regime.tobytes() + b"".join(k for k, _ in hints)

            def build():
                Wd, cd, kinks = W.copy(), c.copy(), []
                for (dst, src, B, _), (_, build_term) in zip(terms, hints):
                    p = build_term()
                    Wd[dst, src] += B @ p.F
                    cd[dst] += B @ p.f
                    G = np.zeros((p.g.size, x.size))
                    G[:, src] = p.G
                    kinks.append((G, p.g))
                return _clip_piece(Wd, cd, m, tau, regime, kinks)

            return key, build

    return rk4_integrate(f, x0, t0, dt, n_steps, lambda x: clip_box(x, m), piece)


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
    logged at the same times.  A None or constant input makes the field
    time-invariant, and the run takes the piecewise-affine block path.
    """
    x0 = _initial_state(x0, net.m)
    t0, dt, n_steps = _step_count(t_span, dt, net.tau)
    if callable(input):
        # on a -0.0 background, the bitwise additive identity, the drive is
        # W x + input(t) to the bit
        samples = _clipped_run(net.W, np.full(net.n, -0.0), net.m, net.tau, x0, t0, dt, n_steps,
                               [(slice(None), None, None, lambda t, _: input(t))])
        d_log = np.array([input(t0 + k * dt) for k in range(n_steps + 1)], dtype=float)
    else:
        d = net.c if input is None else np.broadcast_to(np.asarray(input, dtype=float), (net.n,))
        samples = _clipped_run(net.W, d, net.m, net.tau, x0, t0, dt, n_steps)
        d_log = np.tile(d, (n_steps + 1, 1))
    return Trajectory(t0=t0, dt=dt, samples=samples, input_log=d_log)
