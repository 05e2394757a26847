"""Hierarchy integration, quasi-steady references, sweeps, reduced models."""

import hashlib
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ltnet import (
    ControlLaw,
    Hierarchy,
    LTNetwork,
    NotCertified,
    OnlineFeedforward,
    certify_hierarchy,
    clip_box,
    epsilon_sweep,
    equilibria,
    feedback_gain_bilayer,
    feedforward_bilayer,
    multilayer_controls,
    reference_trajectory,
    rom_simulate,
    simulate,
    simulate_hierarchy,
    sysid,
    tracking_error,
)
from ltnet import io as ltio
from ltnet import network
from ltnet.network import LINEAR, ZERO, rk4_integrate

from helpers import (
    joint_fixed_point,
    lc_hierarchy,
    random_controlled_hierarchy,
    recruitment_hierarchy,
    reference_rk4,
    rk4_calls,
)

W_OSC = np.array([
    [0.0, -0.8, -1.7],
    [-1.0, 0.0, -0.5],
    [-0.7, -1.8, 0.0],
])
W_RECRUIT = np.array([[0.0, 0.9, 1.2], [0.7, 0.0, 1.0], [0.8, 0.2, 0.0]])


def oscillator_bilayer():
    layers = (
        LTNetwork(W_OSC, np.array([11.0, 10.0, 10.0]), np.full(3, np.inf), tau=3.3),
        LTNetwork(W_RECRUIT, np.array([2.0, 3.5, 2.5]), np.full(3, np.inf),
                  tau=1.65, B=np.array([[-1.0], [0.0], [0.0]]), r=1),
    )
    return Hierarchy(layers, (np.zeros((3, 3)),), (-np.eye(3),))


def test_hierarchy_validation():
    l1 = LTNetwork(np.zeros((2, 2)), np.zeros(2), np.full(2, np.inf), tau=1.0)
    l2 = LTNetwork(np.zeros((3, 3)), np.zeros(3), np.full(3, np.inf), tau=0.5)
    with pytest.raises(ValueError, match="W_down"):
        Hierarchy((l1, l2), (np.zeros((3, 2)),), (np.zeros((3, 2)),))
    with pytest.raises(ValueError, match="W_up"):
        Hierarchy((l1, l2), (np.zeros((2, 3)),), (np.zeros((2, 3)),))
    with pytest.raises(ValueError, match="blocks"):
        Hierarchy((l1, l2), (), ())
    with pytest.raises(ValueError, match="decrease"):
        Hierarchy(
            (l1, LTNetwork(np.zeros((3, 3)), np.zeros(3), np.full(3, np.inf), tau=1.0)),
            (np.zeros((2, 3)),), (np.zeros((3, 2)),),
        )
    with pytest.raises(ValueError, match="r1"):
        Hierarchy(
            (LTNetwork(np.zeros((2, 2)), np.zeros(2), np.full(2, np.inf),
                       B=np.ones((2, 1)), r=1), l2),
            (np.zeros((2, 3)),), (np.zeros((3, 2)),),
        )


def test_eps_and_rescaling():
    h = lc_hierarchy()
    np.testing.assert_allclose(h.eps, (0.5, 0.7 / 1.68))
    scaled = h.with_eps(0.1)
    np.testing.assert_allclose([la.tau for la in scaled.layers],
                               [3.36, 0.336, 0.0336])
    # weights and inputs are untouched
    np.testing.assert_array_equal(scaled.layers[1].W, h.layers[1].W)
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError, match="eps"):
            h.with_eps(bad)
    assert h.slices() == [slice(0, 1), slice(1, 3), slice(3, 4)]


def test_single_layer_matches_simulate():
    net = LTNetwork(np.array([[0.5]]), np.array([1.0]), np.array([np.inf]), tau=2.0)
    h = Hierarchy((net,), (), ())
    joint = simulate_hierarchy(h, x0=[np.array([0.5])], t_span=(0.0, 5.0))
    alone = simulate(net, np.array([0.5]), t_span=(0.0, 5.0))
    assert np.max(np.abs(joint[0].samples - alone.samples)) < 1e-12


def test_stacked_matches_manual_rk4():
    h = lc_hierarchy()
    x0 = [np.array([0.2]), np.array([1.0, 0.5]), np.array([0.1])]
    dt = 0.01

    taus = np.array([3.36, 1.68, 1.68, 0.7])
    ms = np.concatenate([la.m for la in h.layers])
    cs = np.concatenate([la.c for la in h.layers])
    Wfull = np.zeros((4, 4))
    Wfull[0:1, 0:1] = h.layers[0].W
    Wfull[0:1, 1:3] = h.W_down[0]
    Wfull[1:3, 0:1] = h.W_up[0]
    Wfull[1:3, 1:3] = h.layers[1].W
    Wfull[1:3, 3:4] = h.W_down[1]
    Wfull[3:4, 1:3] = h.W_up[1]
    Wfull[3:4, 3:4] = h.layers[2].W

    def f(t, x):
        return (-x + clip_box(Wfull @ x + cs, ms)) / taus

    x = np.concatenate(x0)
    manual = [x.copy()]
    for k in range(200):
        t = k * dt
        k1 = f(t, x)
        k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = f(t + dt, x + dt * k3)
        x = clip_box(x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4), ms)
        manual.append(x.copy())
    trajs = simulate_hierarchy(h, x0=x0, t_span=(0.0, 2.0), dt=dt)
    got = np.hstack([t.samples for t in trajs])
    assert np.max(np.abs(got - np.array(manual))) < 1e-12


def test_controlled_bilayer_silences_inhibited_node():
    h = oscillator_bilayer()
    net2 = h.layers[1]
    K = feedback_gain_bilayer(net2)
    nu = np.array([0.0, 7.5, 4.0])  # monotone bound on the recruited block
    ubar = feedforward_bilayer(net2, np.full(3, 6.0), nu, -np.eye(3))
    law = ControlLaw(layer=2, K=K, ubar=ubar, mode="combined")
    x0 = [np.array([2.0, 6.0, 3.0]), np.array([6.0, 0.1, 0.1])]
    trajs = simulate_hierarchy(h, [None, law], x0, (0.0, 10 * net2.tau),
                               dt=net2.tau / 50.0)
    inhibited = trajs[1].samples[:, 0]
    assert inhibited[-1] <= 1e-3 * inhibited[0]
    # the logged input is the applied total control, always nonnegative
    assert trajs[1].input_log.shape == (len(trajs[1].times), 1)
    assert np.all(trajs[1].input_log >= -1e-12)


def test_a_law_controls_the_layer_it_names():
    # before: [laws[1]] put layer 2's law on layer 1, which has no B, and
    # the inhibited node peaked at 0.755 after t = 2 with no input log
    h = ltio.load_hierarchy(Path(ltio.__file__).parent / "fixtures" / "example_oscillator.json")
    laws = multilayer_controls(h)
    x0 = [np.array([2.0, 6.0, 3.0]), np.array([0.5, 0.1, 0.1])]
    full, alone = (simulate_hierarchy(h, given, x0, (0.0, 5.0), 0.01)
                   for given in (laws, [laws[1]]))
    for a, b in zip(full, alone):
        assert a.samples.tobytes() == b.samples.tobytes()
    assert alone[1].input_log.tobytes() == full[1].input_log.tobytes()
    for given, match in (([laws[1], replace(laws[0], layer=3)], "names layer 3; no such layer in 1..2"),
                         ([replace(laws[0], layer=0)], "names layer 0; no such layer in 1..2"),
                         ([laws[1], laws[1]], "layer 2: a second control entry for the layer")):
        with pytest.raises(ValueError, match=match):
            simulate_hierarchy(h, given, x0, (0.0, 1.0), 0.01)


def test_the_library_refuses_the_laws_load_controls_refuses():
    # before: the law on layer 2, which has no B, was dropped silently, and
    # the (3, 3) K and (2,) ubar raised NumPy's matmul mismatch
    for h, law, message in (
        (lc_hierarchy(), ControlLaw(2, [[5.0, 5.0]], [3.0], "combined"),
         "layer 2: the layer has no B, so it takes no K or ubar"),
        (recruitment_hierarchy(), ControlLaw(2, np.ones((3, 3)), None, "feedback-only"),
         "layer 2: K must have shape (1, 3), got (3, 3)"),
        (recruitment_hierarchy(), ControlLaw(3, None, [0.5, 0.5], "feedforward-only"),
         "layer 3: ubar must have shape (1,), got (2,)"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate_hierarchy(h, [law], t_span=(0.0, 1.0))
    for K, ubar, name in (([[np.nan, 0.0, 0.0]], None, "K"), (None, [np.inf], "ubar")):
        with pytest.raises(ValueError, match=f"^layer 2: {name} must be finite$"):
            ControlLaw(2, K, ubar, "combined")


def test_an_empty_law_logs_zeros_for_each_input():
    # before: the log of a law with neither K nor ubar had no columns
    net = LTNetwork(np.zeros((1, 1)), np.array([1.0]), np.array([np.inf]), B=np.ones((1, 2)))
    h = Hierarchy((net,), (), ())
    controlled, free = (simulate_hierarchy(h, laws, t_span=(0.0, 10.0))
                        for laws in ([ControlLaw(1, None, None, "feedback-only")], None))
    assert controlled[0].input_log.shape == (501, 2) and not np.any(controlled[0].input_log)
    assert controlled[0].samples.tobytes() == free[0].samples.tobytes()
    assert free[0].input_log is None


def test_coupling_refuses_a_layer_outside_the_hierarchy():
    h = recruitment_hierarchy()
    for i in (0, 4):
        with pytest.raises(ValueError, match=f"^layer must be 1..3, got {i}$"):
            h.coupling(i)


def test_reference_trajectory_bottom_layer():
    h = oscillator_bilayer()
    trajs = simulate_hierarchy(h, x0=[np.array([2.0, 6.0, 3.0]), np.zeros(3)],
                               t_span=(0.0, 10.0), dt=0.03)
    ref = reference_trajectory(h, trajs[0], 2, certify_hierarchy(h).maps[2])
    net = h.layers[1]
    assert np.all(ref.samples[:, 0] == 0.0)  # inhibited row pinned at zero
    # every sample solves the recruited fixed-point equation given x1(t)
    Wpp = net.W[1:, 1:]
    drive = trajs[0].samples @ h.W_up[0][1:, :].T + net.c[1:]
    resid = ref.samples[:, 1:] - np.maximum(
        ref.samples[:, 1:] @ Wpp.T + drive, 0.0
    )
    assert np.max(np.abs(resid)) < 1e-8


def test_reference_trajectory_scalar_chain():
    layers = (
        LTNetwork(np.zeros((1, 1)), np.array([2.0]), np.array([np.inf]), tau=1.0),
        LTNetwork(np.array([[0.5]]), np.array([0.3]), np.array([np.inf]), tau=0.4),
    )
    h = Hierarchy(layers, (np.zeros((1, 1)),), (np.array([[0.6]]),))
    trajs = simulate_hierarchy(h, t_span=(0.0, 8.0), dt=0.008)
    bottom = certify_hierarchy(h).maps[2]
    ref = reference_trajectory(h, trajs[0], 2, bottom)
    # h(d) = 2 d on the active branch
    expected = 2.0 * (0.6 * trajs[0].samples[:, 0] + 0.3)
    np.testing.assert_allclose(ref.samples[:, 0], expected, atol=1e-10)
    with pytest.raises(ValueError, match="layer"):
        reference_trajectory(h, trajs[0], 3, bottom)


def test_tracking_error_basics():
    h = oscillator_bilayer()
    trajs = simulate_hierarchy(h, t_span=(0.0, 2.0), dt=0.02)
    assert tracking_error(trajs[1], trajs[1], (0.5, 1.5)) == 0.0
    other = simulate_hierarchy(h, t_span=(0.0, 2.0), dt=0.04)
    with pytest.raises(ValueError, match="grid"):
        tracking_error(trajs[1], other[1], (0.5, 1.5))
    with pytest.raises(ValueError, match="window"):
        tracking_error(trajs[1], trajs[1], (5.0, 6.0))


def test_epsilon_sweep_tightens_slaving():
    h = oscillator_bilayer()
    net2 = h.layers[1]
    K = feedback_gain_bilayer(net2)
    ubar = feedforward_bilayer(net2, np.full(3, 6.0), np.array([0.0, 7.5, 4.0]),
                               -np.eye(3))
    law = ControlLaw(layer=2, K=K, ubar=ubar, mode="combined")
    x0 = [np.array([2.0, 6.0, 3.0]), np.array([0.02, 0.1, 0.1])]
    report = epsilon_sweep(h, [None, law], (0.5, 0.25), x0=x0)
    assert report.errors_monotone[2]
    assert report.inhibited_monotone[2]
    assert report.errors[2][1] < report.errors[2][0]
    assert report.inhibited[2][-1] < 1e-3
    blob = report.to_dict()
    assert blob["eps"] == [0.5, 0.25]
    assert blob["tracking_monotone"]["2"] is True


def test_epsilon_sweep_refuses_an_empty_eps_list():
    # before: a report of empty error lists with every layer "monotone"
    h = oscillator_bilayer()
    with pytest.raises(ValueError, match="eps_list is empty"):
        epsilon_sweep(h, None, [])


def test_epsilon_sweep_reads_only_certified_maps():
    # layer 2 fails (rho 2), so certification gives it no map; before, the
    # sweep built one and reported sqrt(2) at each eps, "monotone", for a
    # layer that sits at (1, 1) against a reference on the (0, 0) branch
    layers = (
        LTNetwork(np.zeros((1, 1)), np.ones(1), np.array([2.0]), tau=1.0),
        LTNetwork(np.array([[0.0, 2.0], [2.0, 0.0]]), np.full(2, -0.5), np.ones(2), tau=0.5),
    )
    h = Hierarchy(layers, (np.zeros((1, 2)),), (np.full((2, 1), 0.1),))
    cert = certify_hierarchy(h)
    assert cert.maps == {}
    with pytest.raises(NotCertified, match="layer 2 has no certified map"):
        epsilon_sweep(h, None, [0.5, 0.1], x0=[[1.0], [1.0, 1.0]])


def test_epsilon_sweep_stationary_at_equilibrium():
    h = lc_hierarchy()
    # the top layer settles at its ceiling; the pair below at the joint
    # fixed point driven by it
    x1 = np.array([1.0])
    x2, x3 = joint_fixed_point(
        h.layers[1].W, h.W_down[1], h.W_up[1], h.layers[2].c,
        np.full(2, np.inf), h.layers[2].W, np.array([np.inf]),
        h.W_up[0] @ x1 + h.layers[1].c,
    )
    report = epsilon_sweep(h, None, (0.5, 0.2), x0=[x1, x2, x3])
    for i in (2, 3):
        assert max(report.errors[i]) < 1e-6
    assert report.inhibited == {}


def test_rom_matches_decoupled_top_layer():
    h = oscillator_bilayer()
    cert = certify_hierarchy(h)
    x0 = np.array([2.0, 6.0, 3.0])
    rom = rom_simulate(h, cert.maps[2], x0=x0, t_span=(0.0, 20.0))
    alone = simulate(h.layers[0], x0, t_span=(0.0, 20.0))
    # downward coupling is zero here, so the reduced model is exact
    assert np.max(np.abs(rom.samples - alone.samples)) < 1e-12


def test_rom_tracks_full_system_at_small_eps():
    layers = (
        LTNetwork(np.zeros((1, 1)), np.array([1.0]), np.array([3.0]), tau=1.0),
        LTNetwork(np.array([[0.2, 0.1], [0.1, 0.3]]), np.array([0.5, 0.4]),
                  np.full(2, np.inf), tau=0.02),
    )
    h = Hierarchy(layers, (np.array([[0.4, 0.3]]),),
                  (np.array([[0.5], [0.2]]),))
    cert = certify_hierarchy(h)
    assert cert.all_passed
    full = simulate_hierarchy(h, t_span=(0.0, 10.0), dt=0.0004)
    rom = rom_simulate(h, cert.maps[2], t_span=(0.0, 10.0), dt=0.02)
    stride = round(0.02 / 0.0004)
    gap = np.max(np.abs(full[0].samples[::stride, 0] - rom.samples[:, 0]))
    assert gap < 5e-2
    with pytest.raises(ValueError, match="layer below"):
        rom_simulate(Hierarchy((layers[0],), (), ()), cert.maps[2])


def test_rom_refuses_a_map_of_the_wrong_size():
    # layer 2 has r = 1, so h_2^+ reads 2 numbers, not 3
    h = oscillator_bilayer()
    wrong = equilibria.equilibrium_map(0.1 * W_RECRUIT, np.full(3, np.inf))
    with pytest.raises(ValueError, match=r"domain_dim = 3; got an array of shape \(2,\)"):
        rom_simulate(h, wrong)


def test_time_span_checks_are_shared():
    h = oscillator_bilayer()
    cert = certify_hierarchy(h)
    dt = h.layers[0].tau / 50.0
    one = rom_simulate(h, cert.maps[2], t_span=(0.0, dt))
    assert one.samples.shape == (2, 3)
    with pytest.raises(ValueError, match="shorter than one step"):
        rom_simulate(h, cert.maps[2], t_span=(0.0, 0.001))
    for t_span in [(1.0, 0.0), (1.0, 1.0)]:
        with pytest.raises(ValueError, match="empty time span"):
            rom_simulate(h, cert.maps[2], t_span=t_span)
        with pytest.raises(ValueError, match="empty time span"):
            simulate_hierarchy(h, t_span=t_span)
        with pytest.raises(ValueError, match="empty time span"):
            simulate(h.layers[0], np.zeros(3), t_span=t_span)
    with pytest.raises(ValueError, match="shorter than one step"):
        simulate_hierarchy(h, t_span=(0.0, 1e-5))
    # before: "cannot convert float infinity to integer", "empty time span"
    for t_span in [(0.0, np.inf), (0.0, np.nan), (-np.inf, 1.0)]:
        with pytest.raises(ValueError, match=r"t_span must be finite, got \("):
            rom_simulate(h, cert.maps[2], t_span=t_span)
        with pytest.raises(ValueError, match=r"t_span must be finite, got \("):
            simulate_hierarchy(h, t_span=t_span)
        with pytest.raises(ValueError, match=r"t_span must be finite, got \("):
            simulate(h.layers[0], np.zeros(3), t_span=t_span)
    for dt in [0.0, -0.1, np.nan]:
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            rom_simulate(h, cert.maps[2], dt=dt)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            simulate_hierarchy(h, dt=dt)
    # dt <= tau/20 for the run's smallest tau: tau_1 = 3.3 for the reduced
    # model (which ran any dt before), 1.65 for the stacked layers
    with pytest.raises(ValueError, match=r"dt=5.0 exceeds tau/20 = 0.16"):
        rom_simulate(h, cert.maps[2], dt=5.0)
    with pytest.raises(ValueError, match=r"dt=5.0 exceeds tau/20 = 0.08"):
        simulate_hierarchy(h, dt=5.0)
    assert rom_simulate(h, cert.maps[2], t_span=(0.0, 0.33), dt=0.165).samples.shape == (3, 3)


def test_wrong_length_initial_states_are_refused():
    # before: a one-number state was broadcast to every node of its layer
    h = oscillator_bilayer()
    cert = certify_hierarchy(h)
    with pytest.raises(ValueError, match=r"x0 of layer 1 has shape \(1,\), but the layer has 3 nodes"):
        simulate_hierarchy(h, x0=[np.array([1.0]), np.zeros(3)])
    with pytest.raises(ValueError, match=r"x0 of layer 2 has shape \(4,\), but the layer has 3 nodes"):
        simulate_hierarchy(h, x0=[np.zeros(3), np.zeros(4)])
    with pytest.raises(ValueError, match="x0 holds 3 layer states, but the hierarchy has 2 layers"):
        simulate_hierarchy(h, x0=[np.zeros(3)] * 3)
    with pytest.raises(ValueError, match=r"x0 of layer 1 has shape \(1,\), but the layer has 3 nodes"):
        rom_simulate(h, cert.maps[2], x0=[2.0])


def test_initial_states_outside_the_box_are_refused():
    # before: both integrators clipped such a state onto the box silently
    h = oscillator_bilayer()
    cert = certify_hierarchy(h)
    bad = np.array([-5.0, 1.0, 1.0])
    with pytest.raises(ValueError, match=r"x0 of layer 1 lies outside the box \[0, m\]"):
        simulate_hierarchy(h, x0=[bad, np.zeros(3)])
    with pytest.raises(ValueError, match=r"x0 of layer 2 lies outside the box \[0, m\]"):
        simulate_hierarchy(h, x0=[np.zeros(3), np.array([0.0, np.nan, 1.0])])
    with pytest.raises(ValueError, match=r"x0 of layer 1 lies outside the box \[0, m\]"):
        rom_simulate(h, cert.maps[2], x0=bad)
    with pytest.raises(ValueError, match=r"x0 lies outside the box \[0, m\]"):
        simulate(h.layers[0], bad)


def _assert_close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed, n_layers", [(0, 2), (9, 2), (9, 3)])
def test_block_path_matches_plain_stepping(seed, n_layers):
    rng = np.random.default_rng(seed)
    h, laws = random_controlled_hierarchy(rng, n_layers)
    # inhibited nodes start on the box floor, the last ones on their ceiling
    x0 = [np.clip(rng.uniform(0.0, 2.0, size=la.n), 0.0, la.m) for la in h.layers]
    for x, la in zip(x0[1:], h.layers[1:]):
        x[0], x[-1] = 0.0, la.m[-1]
    dt = h.layers[-1].tau / 50.0
    args = (h, laws, x0, (0.0, 3000 * dt), dt)
    with rk4_calls() as hinted_calls:
        hinted = simulate_hierarchy(*args)
    with rk4_calls(drop_hint=True) as plain_calls:
        plain = simulate_hierarchy(*args)
    for a, b in zip(hinted, plain):
        _assert_close(a.samples, b.samples)
        if b.input_log is not None:
            _assert_close(a.input_log, b.input_log)
    X = np.hstack([t.samples for t in plain])
    # the patterns switch: the block path cut some blocks and stepped
    # plainly there, and took every other step in blocks
    assert 4 <= hinted_calls[0].f_calls <= plain_calls[0].f_calls / 50
    piece = hinted_calls[0].piece
    keys = [piece(x)[0] for x in X]
    assert len(set(keys)) >= 3
    # the inhibited node of layer 2 sits at exactly zero drive, which floats
    # see as +-1e-16: it chatters between the floor and the linear regime
    la, law, (s1, s2, *_) = h.layers[1], laws[1], h.slices()
    drive = (X[:, s2] @ (la.W + la.B @ law.K)[0] + X[:, s1] @ h.W_up[0][0] + la.c[0]
             + law.ubar.many(X[:, s1]) @ la.B[0])
    if n_layers > 2:
        drive += X[:, h.slices()[2]] @ h.W_down[1][0]
    chatter = np.abs(drive) < 1e-14
    assert chatter.sum() > 100
    # a piece's key starts with the int8 drive regimes, one byte per node
    regime = [piece(x)[0][h.slices()[1].start] for x in X[chatter]]
    assert {ZERO, LINEAR} <= set(regime)
    # states rest on the floor, up to the chatter, and on a finite ceiling
    assert np.max(hinted[1].samples[:, 0]) < 1e-15
    assert np.any(hinted[1].samples[:, -1] == h.layers[1].m[-1])


# SHA-256 of every layer's samples and input log, in layer order (NumPy 2.4
# with OpenBLAS, x86-64): random controlled hierarchies over 3 000 steps,
# and the recruitment hierarchy with and without its synthesized controls
_HIERARCHY_SHA256 = {
    "random-0-2": "4ce29577e9e9cebdcdb8676359cda4f527cf1b5073adb0e6bf2c2d3ffbb84c63",
    "random-9-3": "58303e925288a4480b02fa0c24a230b556bc8de6ba365000068e0861b90f3269",
    "recruitment": "88bb7d2e5c97a137026d61af6709199948d451ee632786abfdc94280e149e9a7",
    "recruitment-uncontrolled": "0177d98b12a5af4d8938f51fcc9ec7d6260051a12f9c6a1c094316617ece01ea",
}


@pytest.mark.parametrize("case", sorted(_HIERARCHY_SHA256))
def test_simulate_hierarchy_outputs_are_pinned(case):
    if case.startswith("random"):
        _, seed, n_layers = case.split("-")
        h, laws = random_controlled_hierarchy(np.random.default_rng(int(seed)), int(n_layers))
        dt = h.layers[-1].tau / 50.0
        trajs = simulate_hierarchy(h, laws, None, (0.0, 3000 * dt), dt)
    else:
        h = recruitment_hierarchy()
        laws = multilayer_controls(h) if case == "recruitment" else None
        x0 = [np.array([1.0, 2.0]), np.array([0.5, 1.0, 0.2]), np.array([0.3, 0.1, 0.4])]
        trajs = simulate_hierarchy(h, laws, x0, (0.0, 10.0))
    digest = hashlib.sha256()
    for traj in trajs:
        digest.update(traj.samples.tobytes())
        if traj.input_log is not None:
            digest.update(traj.input_log.tobytes())
    assert digest.hexdigest() == _HIERARCHY_SHA256[case]


def test_unhinted_callers_step_plainly():
    h, laws = random_controlled_hierarchy(np.random.default_rng(3), 3)
    ff = laws[1].ubar
    user_laws = [None, ControlLaw(2, laws[1].K, lambda t, xa: ff(t, xa), "combined"), laws[2]]

    dt = h.layers[-1].tau / 50.0
    cert = certify_hierarchy(oscillator_bilayer())
    problem = sysid.SysIdProblem(
        (1,), [sysid.WeightEntry("W11", 0, 0, "+", 1.0)], [], ("base",), (0,), tf=1.0)
    z = np.mean(problem.bounds(), axis=0)
    with rk4_calls() as calls:
        simulate_hierarchy(h, user_laws, t_span=(0.0, 10 * dt), dt=dt)
        simulate(h.layers[0], np.zeros(3), lambda t: np.full(3, t), t_span=(0.0, 1.0))
        problem.simulate_candidates(z)
        rom_simulate(oscillator_bilayer(), cert.maps[2], t_span=(0.0, 1.0))
        simulate_hierarchy(h, laws, t_span=(0.0, 10 * dt), dt=dt)
    assert [c.piece is None for c in calls] == [True] * 3 + [False] * 2


def test_rom_takes_the_block_path():
    h = recruitment_hierarchy().with_eps(0.3)
    cert = certify_hierarchy(h)
    dt = min(la.tau for la in h.layers) / 50.0
    args = (h, cert.maps[2], None, (0.0, 10.0 * h.layers[0].tau), dt)
    with rk4_calls() as hinted_calls:
        hinted = rom_simulate(*args)
    with rk4_calls(drop_hint=True) as plain_calls:
        plain = rom_simulate(*args)
    assert hinted.samples.shape == (5557, 2)
    _assert_close(hinted.samples, plain.samples)
    assert hinted_calls[0].f_calls * 1000 <= plain_calls[0].f_calls
    # the slaved map's pieces change along the run
    piece = hinted_calls[0].piece
    assert len({piece(x)[0] for x in plain.samples}) >= 2


def test_certify_control_sweep_and_rom_read_maps_through_their_stacks():
    # none of these builds a map's AffinePiece views
    h = recruitment_hierarchy()
    maps = h.certification.maps
    laws = multilayer_controls(h)
    epsilon_sweep(h, laws, (0.5,))
    rom_simulate(h, maps[2], t_span=(0.0, 0.5))
    for pa in maps.values():
        pa.eval(np.zeros(pa.domain_dim))
        pa.eval_many(np.zeros((3, pa.domain_dim)))
    assert len(maps) == 2
    assert all("pieces" not in vars(pa) for pa in maps.values())
    assert len(maps[2].pieces) == len(maps[2]) and "pieces" in vars(maps[2])


def test_one_step_rom_builds_two_powers_and_locates_once(monkeypatch):
    builds, located = [], []
    build, locate = network._BlockStepper._build, equilibria.PiecewiseAffineMap._locate

    def spy_build(self, piece, steps):
        builds.append(build(self, piece, steps))
        return builds[-1]

    def spy_locate(self, d):
        located.append(d)
        return locate(self, d)

    monkeypatch.setattr(network._BlockStepper, "_build", spy_build)
    monkeypatch.setattr(equilibria.PiecewiseAffineMap, "_locate", spy_locate)
    h = oscillator_bilayer()
    cert = certify_hierarchy(h)
    x0 = np.array([2.0, 6.0, 3.0])
    with rk4_calls() as calls:
        rom = rom_simulate(h, cert.maps[2], x0, (0.0, h.layers[0].tau / 50.0))
    assert calls[0].f_calls == 0 and len(builds) == 1 and len(located) == 1
    powers = builds[0][0].reshape(-1, 4, 4)  # M^0 and M^1 on z = [x; 1]
    assert powers.shape == (2, 4, 4)
    np.testing.assert_array_equal(powers[0], np.eye(4))
    np.testing.assert_array_equal((powers[1] @ np.append(x0, 1.0))[:3], rom.samples[1])


def test_plain_core_is_the_reference_loop():
    # without a hint, rk4_integrate steps the hierarchy's field as
    # step-by-step RK4 does, bit for bit
    h, laws = random_controlled_hierarchy(np.random.default_rng(5), 3)
    dt = h.layers[-1].tau / 50.0
    with rk4_calls() as calls:
        simulate_hierarchy(h, laws, t_span=(0.0, dt), dt=dt)
    ms = np.concatenate([la.m for la in h.layers])
    x0 = np.linspace(0.0, 1.0, ms.size)
    run = (calls[0].f, x0, 0.0, dt, 300, lambda X: clip_box(X, ms))
    assert rk4_integrate(*run).tobytes() == reference_rk4(*run).tobytes()


def test_input_log_is_input_at_per_sample():
    h = recruitment_hierarchy()
    laws = multilayer_controls(h)
    K, ff = laws[1].K, laws[1].ubar
    assert isinstance(ff, OnlineFeedforward)
    variants = [
        laws,
        [None, ControlLaw(2, K, np.array([0.7]), "combined"), laws[2]],
        [None, ControlLaw(2, None, lambda t, xa: ff(t, xa) + t, "feedforward-only"),
         ControlLaw(3, K, None, "feedback-only")],
    ]
    x0 = [np.array([1.0, 2.0]), np.array([0.5, 1.0, 0.2]), np.array([0.3, 0.1, 0.4])]
    for laws_ in variants:
        trajs = simulate_hierarchy(h, laws_, x0, (0.0, 2.0), 0.0018)
        for i in (1, 2):
            law, traj, above = laws_[i], trajs[i], trajs[i - 1]
            per_sample = np.array([law.input_at(t, x, xa) for t, x, xa in
                                   zip(traj.times, traj.samples, above.samples)])
            assert traj.input_log.shape == per_sample.shape
            _assert_close(traj.input_log, per_sample)


def test_hierarchy_and_online_feedforward_freeze_their_blocks():
    W_up = -np.eye(3)
    h = Hierarchy(oscillator_bilayer().layers, (np.zeros((3, 3)),), (W_up,))
    ff = multilayer_controls(h)[1].ubar
    x = np.array([1.0, 2.0, 3.0])
    before = ff(0.0, x)
    W_up[0, 0] = 5.0  # the caller's array, after construction
    for a in (*h.W_down, *h.W_up, ff.pinv, ff.W_up_minus, ff.c_minus):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 5.0
    np.testing.assert_array_equal(h.W_up[0], -np.eye(3))
    assert ff(0.0, x).tobytes() == before.tobytes()


def test_block_stepper_evicts_cached_pieces_without_changing_the_run(monkeypatch):
    h = oscillator_bilayer()
    laws = multilayer_controls(h)
    build = network._BlockStepper._build

    def run(cache):
        builds = []

        def counted(self, piece, steps):
            builds.append(steps)
            return build(self, piece, steps)

        monkeypatch.setattr(network, "_PIECE_CACHE", cache)
        monkeypatch.setattr(network._BlockStepper, "_build", counted)
        trajs = simulate_hierarchy(h, laws, t_span=(0.0, 40.0))
        logs = [None if t.input_log is None else t.input_log.tobytes() for t in trajs]
        return len(builds), [t.samples.tobytes() for t in trajs], logs

    kept, evicted = run(network._PIECE_CACHE), run(1)
    # the run meets 4 pieces, and with one cached it builds 2 of them again
    assert (kept[0], evicted[0]) == (4, 6)
    assert kept[1:] == evicted[1:]
