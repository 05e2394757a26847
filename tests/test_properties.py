"""Property-based checks (hypothesis): maps against fixed-point solvers,
and the affine pieces of the block path against the fields they stand for."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ltnet import (
    LTNetwork,
    OnlineFeedforward,
    clip_box,
    compose_maps,
    equilibrium_map,
    ges_certificate,
    max_gain_matrix,
    rhs,
    solve_equilibrium_iterative,
)
from ltnet.network import _clip_piece, _clip_regime

from helpers import joint_fixed_point


@st.composite
def contractive_networks(draw):
    """(W, m, D): rho(|W|) <= 0.9, n <= 4, mixed ceilings, a few inputs."""
    n = draw(st.integers(1, 4))
    W = draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    rho = np.max(np.abs(np.linalg.eigvals(np.abs(W))))
    if rho > 0.9:
        W *= 0.9 / rho
    ceiling = st.one_of(st.just(np.inf), st.floats(0.5, 3.0))
    m = np.array(draw(st.lists(ceiling, min_size=n, max_size=n)))
    D = draw(arrays(np.float64, (3, n), elements=st.floats(-5.0, 5.0)))
    return W, m, D


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(contractive_networks())
def test_map_eval_agrees_with_iterative_solver(case):
    W, m, D = case
    pa = equilibrium_map(W, m)
    for d in D:
        np.testing.assert_allclose(
            pa.eval(d), solve_equilibrium_iterative(W, m, d), rtol=0, atol=1e-8
        )


def _rho(M):
    return np.max(np.abs(np.linalg.eigvals(M)))


@st.composite
def contractive_pairs(draw):
    """Inner (Win, m_in) and outer (W1, W2, W3, cbar, m_out) layers, n <= 3
    each, scaled so that the composite test matrix, bounded with the
    Neumann gain (I - |Win|)^-1 >= every inner |F|, has rho <= 0.9; plus
    a few outer inputs."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    weights = st.floats(-1.0, 1.0)
    Win = draw(arrays(np.float64, (k, k), elements=weights))
    if _rho(np.abs(Win)) > 0.8:
        Win *= 0.8 / _rho(np.abs(Win))
    W1 = draw(arrays(np.float64, (n, n), elements=weights))
    W2 = draw(arrays(np.float64, (n, k), elements=weights))
    W3 = draw(arrays(np.float64, (k, n), elements=weights))
    gain = np.linalg.inv(np.eye(k) - np.abs(Win))
    rho = _rho(np.abs(W1) + np.abs(W2) @ gain @ np.abs(W3))
    if rho > 0.9:  # a factor a scales the test matrix by at most a
        W1, W2, W3 = (A * (0.9 / rho) for A in (W1, W2, W3))
    ceiling = st.one_of(st.just(np.inf), st.floats(0.5, 3.0))
    m_in = np.array(draw(st.lists(ceiling, min_size=k, max_size=k)))
    m_out = np.array(draw(st.lists(ceiling, min_size=n, max_size=n)))
    cbar = draw(arrays(np.float64, (k,), elements=st.floats(-2.0, 2.0)))
    D = draw(arrays(np.float64, (8, n), elements=st.floats(-5.0, 5.0)))
    return Win, m_in, W1, W2, W3, cbar, m_out, D


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(contractive_pairs())
def test_composite_eval_many_agrees_with_joint_fixed_point(case):
    Win, m_in, W1, W2, W3, cbar, m_out, D = case
    inner = equilibrium_map(Win, m_in)
    cert = ges_certificate(W1, W2, W3, max_gain_matrix(inner))
    assert cert.passed
    composite = compose_maps(inner, W1, W2, W3, cbar, m_out, certificate=cert)
    for d, x in zip(D, composite.eval_many(D)):
        want, _ = joint_fixed_point(W1, W2, W3, cbar, m_out, Win, m_in, d)
        np.testing.assert_allclose(x, want, rtol=0, atol=1e-8)


@st.composite
def clipped_fields(draw):
    """(net, d, x): n <= 4, mixed ceilings, a state in the box [0, m]
    (often on its floor or ceiling) and a drive offset d."""
    n = draw(st.integers(1, 4))
    W = draw(arrays(np.float64, (n, n), elements=st.floats(-2.0, 2.0)))
    ceiling = st.one_of(st.just(np.inf), st.floats(0.5, 3.0))
    m = np.array(draw(st.lists(ceiling, min_size=n, max_size=n)))
    net = LTNetwork(W=W, c=np.zeros(n), m=m, tau=draw(st.floats(0.1, 10.0)))
    d = draw(arrays(np.float64, (n,), elements=st.floats(-5.0, 5.0)))
    x = clip_box(draw(arrays(np.float64, (n,), elements=st.floats(-1.0, 4.0))), m)
    return net, d, x


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(clipped_fields())
def test_clip_piece_holds_the_state_and_equals_the_field(case):
    net, d, x = case
    regime = _clip_regime(net.W @ x + d, net.m)
    piece = _clip_piece(net.W, d, net.m, net.tau, regime)
    assert piece.contains(x)
    np.testing.assert_allclose(piece.F @ x + piece.f, rhs(net, x, d), rtol=0, atol=1e-12)


@st.composite
def feedforwards(draw):
    """(OnlineFeedforward, x_above): r, p <= 3 inhibited rows and input
    channels, n_above <= 4 upper-layer nodes."""
    r, p, n_above = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    weights = st.floats(-2.0, 2.0)
    B_minus = draw(arrays(np.float64, (r, p), elements=weights))
    ff = OnlineFeedforward(
        pinv=np.linalg.pinv(B_minus),
        W_up_minus=draw(arrays(np.float64, (r, n_above), elements=weights)),
        c_minus=draw(arrays(np.float64, (r,), elements=weights)),
    )
    return ff, draw(arrays(np.float64, (n_above,), elements=st.floats(0.0, 4.0)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(feedforwards())
def test_feedforward_piece_holds_the_state_and_equals_ubar(case):
    ff, x_above = case
    piece = ff.piece(x_above)[1]()
    assert piece.contains(x_above)
    np.testing.assert_allclose(piece.F @ x_above + piece.f, ff(0.0, x_above),
                               rtol=0, atol=1e-12)
