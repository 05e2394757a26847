"""Oracles and random-instance generators shared across the test modules."""

from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest


def clip01m(v, m):
    return np.minimum(np.maximum(v, 0.0), m)


def fixed_point(W, m, d, iters=200000, tol=1e-13):
    """Brute-force equilibrium oracle: iterate x <- clip(Wx + d) to a tolerance.

    Only valid when rho(|W|) < 1, which every caller guarantees.
    """
    W = np.asarray(W, dtype=float)
    d = np.asarray(d, dtype=float)
    x = np.zeros(len(d))
    for _ in range(iters):
        x_new = clip01m(W @ x + d, m)
        if np.max(np.abs(x_new - x)) <= tol:
            return x_new
        x = x_new
    raise RuntimeError("fixed-point oracle did not converge")


def joint_fixed_point(W1, W2, W3, cbar, m_out, Win, m_in, cprime,
                      iters=200000, tol=1e-13):
    """Equilibrium oracle for an interconnected pair.

    Outer block: x = clip(W1 x + W2 y + cprime, m_out)
    Inner block: y = clip(Win y + W3 x + cbar, m_in)
    """
    x = np.zeros(np.asarray(W1).shape[0])
    y = np.zeros(np.asarray(Win).shape[0])
    for _ in range(iters):
        y_new = clip01m(np.asarray(Win) @ y + np.asarray(W3) @ x + cbar, m_in)
        x_new = clip01m(np.asarray(W1) @ x + np.asarray(W2) @ y_new + cprime, m_out)
        gap = max(np.max(np.abs(x_new - x)), np.max(np.abs(y_new - y)))
        x, y = x_new, y_new
        if gap <= tol:
            return x, y
    raise RuntimeError("joint fixed-point oracle did not converge")


def random_contractive(rng, n_max=5, rho_lo=0.2, rho_hi=0.85, p_inf=0.5):
    """Random (W, m) with rho(|W|) drawn from [rho_lo, rho_hi], mixed ceilings."""
    n = int(rng.integers(1, n_max + 1))
    W = rng.normal(size=(n, n))
    rho = np.max(np.abs(np.linalg.eigvals(np.abs(W))))
    if rho > 1e-12:
        W *= rng.uniform(rho_lo, rho_hi) / rho
    m = np.where(rng.random(n) < p_inf, np.inf, rng.uniform(0.5, 3.0, size=n))
    return W, m


def pattern_piece_oracle(W, m, sigma, off):
    """(F, f, G, g) of pattern sigma for x = [W x + off + d]_0^m, or None if
    singular: one pattern at a time, with a Python loop over the nodes for
    the region rows.  The stacked piece builder must match it bit for bit."""
    from ltnet.equilibria import _SINGULAR_RCOND, LINEAR, SATURATED, ZERO

    n = W.shape[0]
    s = np.asarray(sigma)
    lin, sat = s == LINEAR, s == SATURATED
    A = np.eye(n) - lin[:, None] * W  # I - S_l W
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > _SINGULAR_RCOND:
        return None
    F = np.linalg.solve(A, np.diag(lin.astype(float)))
    sat_m = np.zeros(n)  # S_s m, 0 where S_s vanishes even under m_i = inf
    sat_m[sat] = m[sat]
    f = np.linalg.solve(A, sat_m + lin * off)

    # regime conditions on z = W(F d + f) + off + d, written as G d + g >= 0
    WF_I = W @ F + np.eye(n)
    Wf = W @ f + off
    G_rows, g_rows = [], []
    for i, r in enumerate(sigma):
        if r == ZERO:
            G_rows.append(-WF_I[i])
            g_rows.append(-Wf[i])
        elif r == LINEAR:
            G_rows.append(WF_I[i])
            g_rows.append(Wf[i])
            if np.isfinite(m[i]):
                G_rows.append(-WF_I[i])
                g_rows.append(m[i] - Wf[i])
        else:  # SATURATED
            G_rows.append(WF_I[i])
            g_rows.append(Wf[i] - m[i])
    return F, f, np.array(G_rows), np.array(g_rows)


def rho_oracle(M):
    """Dense-eigensolver spectral radius reference."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(M, dtype=float)))))


def lc_hierarchy(w_bottom=0.01):
    """Three-layer chain whose middle layer carries the composite test."""
    from ltnet import Hierarchy, LTNetwork

    layers = (
        LTNetwork(np.array([[0.0]]), np.array([1.0]), np.array([1.0]), tau=3.36),
        LTNetwork(np.array([[0.83, 0.0], [0.76, 0.0]]), np.array([0.5, 0.5]),
                  np.full(2, np.inf), tau=1.68),
        LTNetwork(np.array([[w_bottom]]), np.array([0.5]), np.array([np.inf]),
                  tau=0.7),
    )
    W_down = (np.array([[0.0, 0.0]]), np.array([[0.04], [0.58]]))
    W_up = (np.array([[0.2], [0.0]]), np.array([[0.01, 0.0]]))
    return Hierarchy(layers, W_down, W_up)


def recruitment_hierarchy():
    """Certifiable three-layer system with one inhibition target per lower layer.

    Layer 1 has finite ceilings; layers 2 and 3 each expose node 0 to a
    single inhibitory input channel.  All recruited blocks are certifiable,
    so the full control synthesis applies.
    """
    from ltnet import Hierarchy, LTNetwork

    layer1 = LTNetwork(
        W=np.array([[0.0, -0.9], [0.8, 0.0]]),
        c=np.array([2.5, 1.5]),
        m=np.array([8.0, 8.0]),
        tau=1.0,
    )
    layer2 = LTNetwork(
        W=np.array([
            [0.2, 0.4, 0.3],
            [0.1, 0.25, -0.2],
            [0.15, 0.1, 0.2],
        ]),
        c=np.array([0.5, 1.2, 0.8]),
        m=np.array([5.0, 6.0, 6.0]),
        tau=0.3,
        B=np.array([[-1.0], [0.0], [0.0]]),
        r=1,
    )
    layer3 = LTNetwork(
        W=np.array([
            [0.1, 0.2, 0.1],
            [0.05, 0.2, 0.15],
            [0.08, 0.1, 0.1],
        ]),
        c=np.array([0.3, 0.9, 0.7]),
        m=np.full(3, np.inf),
        tau=0.09,
        B=np.array([[-1.0], [0.0], [0.0]]),
        r=1,
    )
    W_down = (
        np.array([[0.2, 0.1, 0.15], [0.0, 0.2, 0.1]]),
        np.array([[0.05, 0.0, 0.0], [0.0, 0.3, 0.2], [0.0, 0.1, 0.25]]),
    )
    W_up = (
        np.array([[0.4, 0.2], [0.5, 0.1], [0.2, 0.4]]),
        np.array([[0.3, -0.2, 0.1], [0.0, 0.4, 0.2], [0.0, 0.3, 0.35]]),
    )
    return Hierarchy((layer1, layer2, layer3), W_down, W_up)


def reference_rk4(f, x0, t0, dt, n_steps, project=None):
    """Textbook classic RK4 with a per-step projection, one new array per
    operation in the expression form x + dt/6 (k1 + 2 (k2 + k3) + k4): the
    arithmetic that rk4_integrate without a hint does in place, operation
    for operation."""
    x = np.array(x0, dtype=float)
    out = [x]
    half, sixth = 0.5 * dt, dt / 6.0
    for k in range(n_steps):
        t = t0 + k * dt
        k1 = f(t, x)
        k2 = f(t + half, x + half * k1)
        k3 = f(t + half, x + half * k2)
        k4 = f(t + dt, x + dt * k3)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if project is not None:
            x = project(x)
        out.append(x)
    return np.array(out)


@contextmanager
def rk4_calls(drop_hint=False):
    """Spy on ltnet's RK4 core.

    Yields a list with one record per call: .f, the caller's field,
    .piece, the piecewise-affine hint it passed (None when unhinted), and
    .f_calls, how many times the core evaluated f.  With drop_hint every
    call steps plainly, as if its caller had passed no hint.
    """
    from ltnet import hierarchy, network, sysid

    core = network.rk4_integrate
    calls = []

    def spy(f, x0, t0, dt, n_steps, project=None, piece=None):
        record = SimpleNamespace(f=f, piece=piece, f_calls=0)
        calls.append(record)

        def counted(t, x):
            record.f_calls += 1
            return f(t, x)

        return core(counted, x0, t0, dt, n_steps, project, None if drop_hint else piece)

    with pytest.MonkeyPatch.context() as mp:
        for module in (network, hierarchy, sysid):
            mp.setattr(module, "rk4_integrate", spy)
        yield calls


@contextmanager
def captured_lps():
    """A list that gets (c, A_ub, b_ub, bounds) of every LP that ltnet
    solves through its one LP entry, equilibria.linprog, while open."""
    from ltnet import equilibria

    entry = equilibria.linprog
    lps = []

    def capture(c, A_ub, b_ub, bounds):
        lps.append((c, A_ub, b_ub, bounds))
        return entry(c, A_ub, b_ub, bounds)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equilibria, "linprog", capture)
        yield lps


def assert_solved_as_linprog_solves(lps):
    """equilibria.linprog is optimal on each LP exactly where
    scipy.optimize.linprog(method="highs") is, with the same bytes of x."""
    from scipy.optimize import linprog

    from ltnet import equilibria

    for c, A_ub, b_ub, bounds in lps:
        want = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
        got = equilibria.linprog(c, A_ub, b_ub, bounds)
        assert (got.status == 0) == (want.status == 0)
        if want.status == 0:
            assert got.x.tobytes() == want.x.tobytes()


W_OSC = np.array([
    [0.0, -0.8, -1.7],
    [-1.0, 0.0, -0.5],
    [-0.7, -1.8, 0.0],
])


def random_controlled_hierarchy(rng, n_layers):
    """An oscillating top layer over n_layers - 1 recruited layers.

    Each lower layer inhibits its node 0 through one or two channels,
    with the gain that cancels the node's recurrent row and the online
    feedforward, so that node's drive is zero up to rounding.  The
    channels also reach node 1, so the feedforward's pattern shapes a
    task-relevant drive; the last node has a finite ceiling and a large
    background.  Returns (hierarchy, laws).
    """
    from ltnet import ControlLaw, Hierarchy, LTNetwork, feedback_gain_bilayer
    from ltnet.control import _online_feedforward

    layers = [LTNetwork(W_OSC * rng.uniform(0.9, 1.1), np.array([11.0, 10.0, 10.0]),
                        np.full(3, np.inf), tau=3.3)]
    W_down, W_up = [], []
    for i in range(1, n_layers):
        n = int(rng.integers(2, 4))
        m = np.where(rng.random(n) < 0.5, rng.uniform(1.0, 3.0, size=n), np.inf)
        m[-1] = 1.0
        c = rng.uniform(-0.5, 1.0, size=n)
        c[-1] = 4.0
        B = np.zeros((n, int(rng.integers(1, 3))))
        B[0] = [-1.0, 0.5][: B.shape[1]]
        B[1] = rng.uniform(0.2, 0.6, size=B.shape[1])
        layers.append(LTNetwork(rng.normal(scale=0.3, size=(n, n)), c, m,
                                tau=layers[-1].tau * rng.uniform(0.15, 0.3), B=B, r=1))
        W_up.append(rng.normal(scale=0.4, size=(n, layers[-2].n)))
        Wd = rng.normal(scale=0.1, size=(layers[-2].n, n))
        if i > 1:
            Wd[0] = 0.0  # keep the inhibited node above at zero drive
        W_down.append(Wd)
    h = Hierarchy(tuple(layers), tuple(W_down), tuple(W_up))
    laws = [None] + [
        ControlLaw(i + 1, feedback_gain_bilayer(la), _online_feedforward(h, i + 1), "combined")
        for i, la in enumerate(h.layers) if i > 0
    ]
    return h, laws


def value_and_grad(z, problem):
    """sysid._values_and_grads of one parameter vector: (f, g)."""
    from ltnet.sysid import _values_and_grads

    F, G = _values_and_grads(z[None, :], problem)
    return float(F[0]), G[0]


def sequential_fit(problem, n_starts=32, seed=0, maxiter=300, target_r2=None):
    """Multi-start fit one start after another, each on value_and_grad alone:
    the loop sysid.fit ran before its starts moved in lock-step.  Returns
    (z, f, starts, best_start, n_starts); fit must match it exactly."""
    from scipy.optimize import minimize

    from ltnet.sysid import (_PENALTY, AllStartsFailed, _flatten_constant_pairs, objective,
                             predict, r_squared)

    lo, hi = problem.bounds()
    rng = np.random.default_rng(seed)
    best = None
    records = []
    for s in range(n_starts):
        z0 = rng.uniform(lo, hi)
        res = minimize(
            value_and_grad,
            z0,
            args=(problem,),
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(lo, hi)),
            options={"maxiter": maxiter, "ftol": 1e-12, "gtol": 1e-10},
        )
        z_s, f_s = _flatten_constant_pairs(res.x, float(res.fun), problem, lo, hi)
        records.append((s, f_s, "ok" if res.success else str(res.message)))
        usable = np.isfinite(f_s) and f_s < 0.5 * _PENALTY
        if usable and (best is None or f_s < best[1]):
            best = (s, f_s, z_s)
            if target_r2 is not None:
                est = predict(z_s, problem)
                if r_squared(problem.data, est) >= target_r2:
                    break
    if best is None:
        raise AllStartsFailed("no start produced a finite objective")
    s_best, _, z_best = best
    return z_best, objective(z_best, problem)[0], tuple(records), s_best, len(records)
