"""Control synthesis: exact cancellation gains and dominating feedforward."""

from dataclasses import replace

import numpy as np
import pytest

from ltnet import (
    ControlLaw,
    Hierarchy,
    InfeasibleExact,
    LTNetwork,
    NegativeControl,
    NotCertified,
    certify_hierarchy,
    feedback_gain_bilayer,
    feedforward_bilayer,
    max_gain_matrix,
    multilayer_controls,
)

from helpers import (assert_solved_as_linprog_solves, captured_lps, lc_hierarchy,
                     recruitment_hierarchy)

W_RECRUIT = np.array([[0.0, 0.9, 1.2], [0.7, 0.0, 1.0], [0.8, 0.2, 0.0]])


def recruited_layer():
    return LTNetwork(W_RECRUIT, np.array([2.0, 3.5, 2.5]), np.full(3, np.inf),
                     tau=1.65, B=np.array([[-1.0], [0.0], [0.0]]), r=1)


def test_feedforward_refuses_nan_bounds():
    # before: the NaN residual passed the residual check and [nan] came back
    with pytest.raises(InfeasibleExact, match="feedforward residual nan exceeds 1e-10"):
        feedforward_bilayer(recruited_layer(), np.zeros(3), np.full(3, np.nan), np.zeros((3, 3)))


def test_control_law_modes_and_eval():
    with pytest.raises(ValueError, match="mode"):
        ControlLaw(layer=2, K=None, ubar=None, mode="open-loop")
    law = ControlLaw(layer=2, K=np.array([[1.0, 0.0]]), ubar=np.array([0.5]),
                     mode="combined")
    np.testing.assert_allclose(law.input_at(0.0, np.array([2.0, 3.0])), [2.5])
    ff = ControlLaw(layer=2, K=None, ubar=lambda t, xa: np.array([t + xa[0]]),
                    mode="feedforward-only")
    np.testing.assert_allclose(ff.input_at(1.0, np.zeros(2), np.array([2.0])), [3.0])
    empty = ControlLaw(layer=1, K=None, ubar=None, mode="feedback-only")
    assert empty.input_at(0.0, np.zeros(2)).size == 0


def test_a_law_without_gain_or_feedforward_logs_empty_rows():
    # before: input_log returned the integer 0
    empty = ControlLaw(layer=1, K=None, ubar=None, mode="feedback-only")
    times, x = np.arange(3.0), np.zeros((3, 2))
    log = empty.input_log(times, x)
    assert isinstance(log, np.ndarray) and log.shape == (3, 0) and log.dtype == float
    for t, row, state in zip(times, log, x):
        np.testing.assert_array_equal(row, empty.input_at(t, state))


def test_feedback_gain_single_channel():
    K = feedback_gain_bilayer(recruited_layer())
    np.testing.assert_allclose(K, [[0.0, 0.9, 1.2]], atol=1e-14)
    net = recruited_layer()
    closed = net.W + net.B @ K
    np.testing.assert_allclose(closed[0], np.zeros(3), atol=1e-14)
    np.testing.assert_array_equal(closed[1:], net.W[1:])


def test_feedback_gain_identity_channels():
    W = np.array([[0.3, -0.5, 0.2], [0.1, 0.2, 0.4], [0.0, 0.1, 0.2]])
    net = LTNetwork(W, np.zeros(3), np.full(3, np.inf),
                    B=np.vstack([np.eye(2), np.zeros((1, 2))]), r=2)
    K = feedback_gain_bilayer(net)
    np.testing.assert_allclose(K, -W[:2, :], atol=1e-14)


def test_feedback_gain_edge_cases():
    W = np.array([[0.3, 0.1], [0.2, 0.1]])
    no_targets = LTNetwork(W, np.zeros(2), np.full(2, np.inf),
                           B=np.ones((2, 1)), r=0)
    np.testing.assert_array_equal(feedback_gain_bilayer(no_targets),
                                  np.zeros((1, 2)))
    with pytest.raises(InfeasibleExact, match="p >= r"):
        feedback_gain_bilayer(
            LTNetwork(W, np.zeros(2), np.full(2, np.inf),
                      B=np.array([[1.0], [1.0]]), r=2)
        )
    with pytest.raises(InfeasibleExact, match="zero"):
        feedback_gain_bilayer(
            LTNetwork(W, np.zeros(2), np.full(2, np.inf),
                      B=np.array([[0.0], [1.0]]), r=1)
        )


def test_feedback_gain_random_exact_rows():
    rng = np.random.default_rng(83)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, min(3, n) + 1))
        p = r + int(rng.integers(0, 2))
        B = rng.normal(size=(n, p))
        net = LTNetwork(rng.normal(size=(n, n)), np.zeros(n), np.full(n, np.inf),
                        B=B, r=r)
        K = feedback_gain_bilayer(net)
        closed = net.W + B @ K
        assert np.max(np.abs(closed[:r])) < 1e-12


def test_feedforward_scalar_recipe():
    net = LTNetwork(np.array([[0.5]]), np.array([0.0]), np.array([np.inf]),
                    B=np.array([[-1.0]]), r=1)
    ubar = feedforward_bilayer(net, xbar1=np.zeros(0), nu=np.array([4.0]), W21=None)
    np.testing.assert_allclose(ubar, [2.0], atol=1e-14)


def test_feedforward_zero_when_nothing_excites():
    net = LTNetwork(np.array([[-0.5, -0.2], [0.1, 0.3]]), np.array([-1.0, 0.5]),
                    np.full(2, np.inf), B=np.array([[-1.0], [0.0]]), r=1)
    ubar = feedforward_bilayer(net, xbar1=np.array([2.0]), nu=np.array([3.0, 3.0]),
                               W21=np.array([[-0.4], [0.2]]))
    np.testing.assert_array_equal(ubar, [0.0])


def test_feedforward_rejects_wrong_channel_sign():
    net = LTNetwork(np.array([[0.5]]), np.array([0.0]), np.array([np.inf]),
                    B=np.array([[1.0]]), r=1)
    with pytest.raises(NegativeControl):
        feedforward_bilayer(net, xbar1=np.zeros(0), nu=np.array([4.0]), W21=None)


def test_feedforward_without_targets_or_inhibited_rows():
    no_targets = LTNetwork(W_RECRUIT, np.zeros(3), np.full(3, np.inf), B=np.zeros((3, 2)))
    np.testing.assert_array_equal(
        feedforward_bilayer(no_targets, np.zeros(0), np.ones(3), None), np.zeros(2))
    silent = LTNetwork(W_RECRUIT, np.zeros(3), np.full(3, np.inf), B=np.zeros((3, 1)), r=1)
    with pytest.raises(InfeasibleExact, match="inhibited rows of B are zero"):
        feedforward_bilayer(silent, np.zeros(0), np.ones(3), None)


def test_feedforward_drive_domination():
    # with u = K x + ubar the inhibited node's total input stays nonpositive
    # whenever the states respect the bounds used in the synthesis
    net = recruited_layer()
    K = feedback_gain_bilayer(net)
    xbar1 = np.array([6.0, 6.0, 6.0])
    nu = np.array([0.0, 7.5, 4.0])
    W21 = -np.eye(3)
    ubar = feedforward_bilayer(net, xbar1, nu, W21)
    rng = np.random.default_rng(97)
    for _ in range(200):
        x = rng.uniform(0.0, 1.0, size=3) * nu
        x1 = rng.uniform(0.0, 1.0, size=3) * xbar1
        u = K @ x + ubar
        drive = net.W @ x + W21 @ x1 + net.c + net.B @ u
        assert drive[0] <= 1e-10


def test_multilayer_reduces_to_bilayer():
    W2 = W_RECRUIT
    layers = (
        LTNetwork(np.array([[0.0, -0.8, -1.7], [-1.0, 0.0, -0.5],
                            [-0.7, -1.8, 0.0]]),
                  np.array([11.0, 10.0, 10.0]), np.full(3, np.inf), tau=3.3),
        recruited_layer(),
    )
    h_ = Hierarchy(layers, (np.zeros((3, 3)),), (-np.eye(3),))
    laws = multilayer_controls(h_)
    assert laws[0].layer == 1 and laws[0].K is None and laws[0].ubar is None
    np.testing.assert_allclose(laws[1].K, feedback_gain_bilayer(layers[1]),
                               atol=1e-14)
    assert laws[1].mode == "combined" and callable(laws[1].ubar)
    # online feedforward dominates the upper drive plus background exactly
    x1 = np.array([3.0, 1.0, 2.0])
    u = laws[1].ubar(0.0, x1)
    demand = -(-np.eye(3))[:1, :] @ x1 - layers[1].c[:1]
    np.testing.assert_allclose(layers[1].B[:1, :] @ u, np.minimum(demand, 0.0),
                               atol=1e-12)
    assert np.all(u >= 0.0)


def test_multilayer_middle_layer_inequality():
    h = recruitment_hierarchy()
    cert = certify_hierarchy(h)
    assert cert.all_passed
    laws = multilayer_controls(h)

    mid = h.layers[1]
    Fbar = max_gain_matrix(cert.maps[3])
    Wdn = h.W_down[1][:1, 1:]
    Wup = h.W_up[1][1:, :]
    rhs = -np.abs(mid.W[:1, :]) - np.abs(Wdn) @ Fbar @ np.abs(Wup)
    np.testing.assert_allclose(mid.B[:1, :] @ laws[1].K, rhs, atol=1e-10)

    bot = h.layers[2]
    np.testing.assert_allclose(bot.B[:1, :] @ laws[2].K, -bot.W[:1, :],
                               atol=1e-10)


def test_dominating_gain_underactuated():
    # one channel drives two inhibition targets: the synthesized gain must
    # dominate columnwise with at least one binding row
    W2 = np.array([[0.0, 0.2, 0.3], [0.1, 0.0, 0.2], [0.2, 0.1, 0.0]])
    layers = (
        LTNetwork(np.array([[0.0]]), np.array([1.0]), np.array([2.0]), tau=1.0),
        LTNetwork(W2, np.ones(3), np.full(3, np.inf), tau=0.4,
                  B=np.array([[-1.0], [-1.0], [0.0]]), r=2),
    )
    h = Hierarchy(
        layers, (np.zeros((1, 3)),), (np.array([[0.3], [0.2], [0.1]]),)
    )
    cert = certify_hierarchy(h)
    assert cert.all_passed
    with captured_lps() as lps:
        laws = multilayer_controls(h)
    # one gain LP per column, through the patched entry, solved as linprog solves it
    assert len(lps) == 3
    assert_solved_as_linprog_solves(lps)
    K = laws[1].K
    assert K.shape == (1, 3)
    B_minus = layers[1].B[:2, :]
    rhs = -W2[:2, :]
    slack = rhs - B_minus @ K
    assert np.all(slack >= -1e-9)
    assert np.all(slack.min(axis=0) <= 1e-9)


def test_multilayer_controls_refuses_a_failing_certification():
    # before: three laws for the first hierarchy, whose bottom layer fails,
    # and a bare KeyError(3) for the second, whose middle layer needs the
    # bottom layer's missing map
    bottom = recruitment_hierarchy().layers[2]
    raised = bottom.W.copy()
    raised[bottom.plus, bottom.plus] += 3.0
    deep = recruitment_hierarchy()
    deep = Hierarchy((*deep.layers[:2], replace(bottom, W=raised)), deep.W_down, deep.W_up)
    for h in (lc_hierarchy(w_bottom=1.5), deep):
        cert = certify_hierarchy(h)
        assert not cert.all_passed
        with pytest.raises(NotCertified, match="hierarchy failed certification; no controls"):
            multilayer_controls(h)


@pytest.mark.parametrize("layer", [2.0, 1.5, True])
def test_control_law_refuses_a_non_integer_layer(layer):
    # before: ControlLaw(layer=2.0) built, and simulate_hierarchy then
    # indexed its laws with it and raised TypeError
    with pytest.raises(ValueError, match=f"^layer must be an integer, got {layer!r}$"):
        ControlLaw(layer=layer, K=None, ubar=None, mode="feedback-only")
    # a NumPy integer is taken, and held as the int that JSON writes
    law = ControlLaw(layer=np.int64(2), K=None, ubar=None, mode="feedback-only")
    assert type(law.layer) is int and law.layer == 2
