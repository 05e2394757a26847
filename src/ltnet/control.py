"""Selective inhibition and recruitment control synthesis.

Layer inputs decompose as u(t) = K x(t) + ubar(t).  The feedback gain K
cancels the recurrent drive onto the task-irrelevant (first r) nodes, and
the feedforward term dominates the remaining excitation from the layer
above and the background, so the inhibited nodes see nonpositive total
input and decay as tau x' = -x.  The task-relevant nodes are untouched
(the controlled rows of B vanish there) and get recruited through the
surviving weights.

For a bilayer, exact cancellation needs at least as many independent
input channels as inhibited nodes (p >= r); the gain then solves
B^- K = -[W^-- W^-+] exactly.  In a deeper hierarchy the layers between
top and bottom must also dominate the worst-case drive routed through the
slaved layer below, which the gain inequalities express through the
composed map's gain bound.  Only the gain LP of _dominating_gain loads SciPy:
it goes through equilibria.linprog, ltnet's one LP entry, looked up there at
each call.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import equilibria
from .equilibria import NotCertified, max_gain_matrix
from .network import LINEAR, ZERO, AffinePiece, LTNetwork, _as_readonly, _integer, _regime_rows

__all__ = [
    "ControlLaw",
    "InfeasibleExact",
    "NegativeControl",
    "OnlineFeedforward",
    "feedback_gain_bilayer",
    "feedforward_bilayer",
    "multilayer_controls",
]

_RESIDUAL_TOL = 1e-10


class InfeasibleExact(Exception):
    """Exact row cancellation is not solvable with the given B."""


class NegativeControl(Exception):
    """Synthesis produced a control with negative entries."""


def _clip_plus(a):
    return np.maximum(np.asarray(a, dtype=float), 0.0)


@dataclass(frozen=True, eq=False)
class ControlLaw:
    """Input law u(t) = K x(t) + ubar for one layer.

    ubar is None, a constant vector, or a callable (t, x_above) -> vector
    evaluated online from the live state of the layer above.  mode is one
    of 'feedback-only', 'feedforward-only', 'combined'.  layer is an integer
    and K and a constant ubar are finite; Hierarchy.laws checks them
    against the layer's B.  A law with neither K nor ubar applies no input.
    """

    layer: int
    K: Optional[np.ndarray]
    ubar: Union[None, np.ndarray, Callable]
    mode: str

    def __post_init__(self):
        if not _integer(self.layer):
            raise ValueError(f"layer must be an integer, got {self.layer!r}")
        object.__setattr__(self, "layer", int(self.layer))  # JSON writes no NumPy integer
        if self.mode not in ("feedback-only", "feedforward-only", "combined"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("K", "ubar"):
            if (a := getattr(self, name)) is None or (name == "ubar" and callable(a)):
                continue
            object.__setattr__(self, name, a := _as_readonly(a))
            if not np.all(np.isfinite(a)):
                raise ValueError(f"layer {self.layer}: {name} must be finite")

    def input_at(self, t, x, x_above=None) -> np.ndarray:
        """Evaluate u(t) for layer state x and upper-layer state x_above."""
        parts = []
        if self.K is not None:
            parts.append(self.K @ x)
        if self.ubar is not None:
            parts.append(self.ubar(t, x_above) if callable(self.ubar) else self.ubar)
        if not parts:
            return np.zeros(0)
        return sum(parts)

    def input_log(self, times, x, x_above=None) -> np.ndarray:
        """input_at along a trajectory: row k is u(times[k]) for state
        x[k] and upper-layer state x_above[k].  Computed as a few stacked
        products, except that a user's callable ubar is called per sample."""
        if callable(self.ubar) and not isinstance(self.ubar, OnlineFeedforward):
            above = [None] * len(times) if x_above is None else x_above
            return np.array([self.input_at(*args) for args in zip(times, x, above)])
        parts = []
        if self.K is not None:
            parts.append(x @ self.K.T)
        if isinstance(self.ubar, OnlineFeedforward):
            parts.append(self.ubar.many(x_above))
        elif self.ubar is not None:
            parts.append(np.broadcast_to(self.ubar, (len(times), self.ubar.size)))
        return sum(parts)


def _exact_solve(A, b, subject) -> np.ndarray:
    """Minimum-norm least-squares X of A X = b, refused with InfeasibleExact,
    naming subject, unless every residual is at most _RESIDUAL_TOL."""
    X, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = float(np.max(np.abs(A @ X - b)))
    if not resid <= _RESIDUAL_TOL:
        raise InfeasibleExact(f"{subject} residual {resid:.2e} exceeds 1e-10")
    return X


def feedback_gain_bilayer(net: LTNetwork) -> np.ndarray:
    """Gain K zeroing the inhibited rows of W + B K.

    Requires p >= r and full row rank of the inhibited block of B; the
    minimum-norm least-squares solution is returned and the residual is
    checked against 1e-10.
    """
    r = net.r
    if r == 0:
        return np.zeros((net.p, net.n))
    if net.B is None or net.p < r:
        raise InfeasibleExact(
            f"exact cancellation needs p >= r, got p={net.p}, r={r}"
        )
    B_minus = net.B[:r, :]
    if np.all(B_minus == 0):
        raise InfeasibleExact("inhibited rows of B are zero")
    return _exact_solve(B_minus, -net.W[:r, :], "cancellation")


def feedforward_bilayer(net: LTNetwork, xbar1, nu, W21) -> np.ndarray:
    """Constant feedforward dominating worst-case drive onto inhibited nodes.

    Solves

        B^- ubar = -[W^-- W^-+]_+ nu - [W21^-+]_+ xbar1 - [c^-]_+

    where [.]_+ is the elementwise positive part, nu is the monotone
    bound on this layer's state (already evaluated at xbar1) and xbar1
    bounds the task-relevant state of the layer above.  With any
    admissible trajectory below those bounds the inhibited nodes then
    receive nonpositive total input.  Raises NegativeControl if the
    least-squares ubar has negative entries.
    """
    r = net.r
    if r == 0:
        return np.zeros(net.p)
    if net.B is None or np.all(net.B[:r, :] == 0):
        raise InfeasibleExact("inhibited rows of B are zero")
    nu = np.asarray(nu, dtype=float)
    xbar1 = np.asarray(xbar1, dtype=float)
    # with r1 = 0 the whole upper layer is task-relevant, so the relevant
    # inter-layer block is simply the inhibited rows of W21
    if W21 is None:
        inter = np.zeros(r)
    else:
        W21 = np.atleast_2d(np.asarray(W21, dtype=float))
        inter = _clip_plus(W21[:r, :]) @ xbar1
    target = -_clip_plus(net.W[:r, :]) @ nu - inter - _clip_plus(net.c[:r])
    ubar = _exact_solve(net.B[:r, :], target, "feedforward")
    if not np.all(ubar >= -1e-12):
        raise NegativeControl(f"feedforward has negative entries: {ubar}")
    return _clip_plus(ubar)


def _dominating_gain(B_minus, rhs) -> np.ndarray:
    """K (p x n) with B^- K <= rhs elementwise, tight where feasible.

    With p >= r the equality system is solved exactly.  Otherwise each
    column is found by a small linear program minimizing the total
    inhibition surplus subject to elementwise dominance.
    """
    r, p = B_minus.shape
    n = rhs.shape[1]
    if p >= r:
        with contextlib.suppress(InfeasibleExact):
            return _exact_solve(B_minus, rhs, "gain")
    K = np.empty((p, n))
    free = np.full((p, 2), [-np.inf, np.inf])
    for j in range(n):
        # minimize sum of surplus (rhs_j - B^- k), i.e. maximize sum B^- k
        res = equilibria.linprog(-np.sum(B_minus, axis=0), B_minus, rhs[:, j], free)
        if res.status != 0:
            raise InfeasibleExact(f"no dominating gain for column {j}")
        K[:, j] = res.x
    return K


@dataclass(frozen=True, eq=False)
class OnlineFeedforward:
    """Feedforward ubar(t, x_above) of a layer tracking the layer above.

    ubar = [pinv min(target, 0)]_+ with target = -W_up_minus x_above -
    c_minus, so that B^- ubar <= target elementwise over the layer's
    inhibited (first r) rows when B^- has full row rank and pinv <= 0
    elementwise; demands that are already nonpositive are met with zero
    surplus.  Without the sign condition the clip can drop an entry that
    B^- needs: B^- = [-1, 0.5] has pinv = (-0.8, 0.4)^T, and B^- ubar =
    0.8 target > target where target < 0.  Such layers are not refused;
    ROADMAP.md item 1 describes the fix.  It ignores t and is
    piecewise affine in x_above: piece(x_above) answers rk4_integrate's
    hint, (key, build) of the AffinePiece holding x_above, which makes it
    a drive term that network._clipped_run can block-step (see
    simulate_hierarchy).  Its rows
    G x_above + g >= 0, built by network._regime_rows, hold the target
    rows and the rows of pinv min(target, 0) at their signs: each is a
    clip argument under an unbounded ceiling, LINEAR where it is
    nonnegative (target) or positive (pinv min(target, 0)), ZERO
    elsewhere.
    """

    pinv: np.ndarray
    W_up_minus: np.ndarray
    c_minus: np.ndarray

    def __post_init__(self):
        for name in ("pinv", "W_up_minus", "c_minus"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))

    def __call__(self, t, x_above):
        target = -self.W_up_minus @ np.asarray(x_above, dtype=float) - self.c_minus
        return _clip_plus(self.pinv @ np.minimum(target, 0.0))

    def many(self, X_above) -> np.ndarray:
        """ubar for a stack of upper-layer states, one per row."""
        target = -np.asarray(X_above, dtype=float) @ self.W_up_minus.T - self.c_minus
        return _clip_plus(np.minimum(target, 0.0) @ self.pinv.T)

    def piece(self, x_above):
        """(key, build) of the affine piece x_above -> F x_above + f of
        ubar holding x_above: key names it, build() returns it."""
        target = -self.W_up_minus @ np.asarray(x_above, dtype=float) - self.c_minus
        # target < 0 selects the rows that pinv min(target, 0) reads, and
        # then ubar's rows are its positive entries
        neg = target < 0
        pos = self.pinv @ np.minimum(target, 0.0) > 0

        def build():
            P = self.pinv * neg  # pinv min(target, 0) = P target on the piece
            PW, Pc = -P @ self.W_up_minus, -P @ self.c_minus
            # sign kinks are clip regimes under an unbounded ceiling
            regime = np.where(np.concatenate([~neg, pos]), LINEAR, ZERO)
            G, g, keep = _regime_rows(np.vstack([-self.W_up_minus, PW]),
                                      np.concatenate([-self.c_minus, Pc]), regime, np.inf)
            return AffinePiece(PW * pos[:, None], Pc * pos, G[keep], g[keep])

        return neg.tobytes() + pos.tobytes(), build


def _online_feedforward(hierarchy, layer):
    """OnlineFeedforward of a layer (1-based, below the top, with B)."""
    net = hierarchy.layers[layer - 1]
    r = net.r
    return OnlineFeedforward(
        pinv=np.linalg.pinv(net.B[:r, :]),
        W_up_minus=hierarchy.W_up[layer - 2][:r, :],
        c_minus=net.c[:r],
    )


def multilayer_controls(hierarchy) -> list:
    """Synthesize per-layer control laws from a certified hierarchy.

    Unless every layer of hierarchy.certification passed (all_passed) no
    law is synthesized and NotCertified is raised.  Its composed-map gain
    bounds enter the gain inequalities of the layers between top and
    bottom.  A lower layer with r > 0 inhibition targets but no B is
    refused with InfeasibleExact, as feedback_gain_bilayer refuses it.
    Returns one ControlLaw per layer (layer 1 and layers with r = 0 are
    uncontrolled).
    Gains satisfy, elementwise,

        B_N^- K_N  = -[W_NN^-- W_NN^-+]                   (bottom layer)
        B_i^- K_i <= -|W_ii^-:| - |W_i,i+1^-+| Fbar_{i+1} |W_i+1,i^+:|

    with equality whenever p_i >= r_i, and the feedforward parts track
    the layer above online:  B_i^- ubar_i(t) <= -W_i,i-1^-: x_{i-1}(t) - c_i^-.
    """
    if not hierarchy.certification.all_passed:
        raise NotCertified("hierarchy failed certification; no controls")
    N = hierarchy.N
    laws = [ControlLaw(layer=1, K=None, ubar=None, mode="feedback-only")]
    for i in range(2, N + 1):
        net = hierarchy.layers[i - 1]
        r = net.r
        if r == 0:
            laws.append(ControlLaw(layer=i, K=None, ubar=None, mode="feedback-only"))
            continue
        if net.B is None:
            raise InfeasibleExact(f"layer {i} has r = {r} inhibition targets but no B; "
                                  "exact cancellation needs p >= r")
        B_minus = net.B[:r, :]
        if i == N:
            rhs = -net.W[:r, :]
        else:
            below = hierarchy.layers[i]
            Wdn_mp = hierarchy.W_down[i - 1][:r, below.plus]
            Wup_p = hierarchy.W_up[i - 1][below.plus, :]
            Fbar = max_gain_matrix(hierarchy.certification.maps[i + 1])
            rhs = -np.abs(net.W[:r, :]) - np.abs(Wdn_mp) @ Fbar @ np.abs(Wup_p)
        K = _dominating_gain(B_minus, rhs)
        ubar = _online_feedforward(hierarchy, i)
        laws.append(ControlLaw(layer=i, K=K, ubar=ubar, mode="combined"))
    return laws
