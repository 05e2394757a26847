"""Simulation layer: clipping, vector field, integrator accuracy, invariants."""

import hashlib
import re

import numpy as np
import pytest

from ltnet import LTNetwork, Trajectory, clip_box, rhs, simulate
from ltnet import io as ltio
from ltnet.network import AffinePiece, _as_readonly, rk4_integrate

from helpers import clip01m, fixed_point, random_contractive, reference_rk4, rk4_calls

# purely inhibitory layer that sustains an oscillation
W_OSC = np.array([
    [0.0, -0.8, -1.7],
    [-1.0, 0.0, -0.5],
    [-0.7, -1.8, 0.0],
])
C_OSC = np.array([11.0, 10.0, 10.0])


def test_clip_box_examples():
    out = clip_box([-1.0, 0.5, 7.0], np.array([np.inf, np.inf, 5.0]))
    np.testing.assert_array_equal(out, [0.0, 0.5, 5.0])
    v = np.array([0.0, 0.25, 1.0])
    np.testing.assert_array_equal(clip_box(v, np.ones(3)), v)
    assert clip_box([3.0], [1.0])[0] == 1.0


def test_rhs_scalar_values():
    net = LTNetwork(np.array([[0.5]]), np.array([1.0]), np.array([np.inf]))
    assert rhs(net, np.array([2.0]), np.array([1.0]))[0] == 0.0
    capped = LTNetwork(np.zeros((1, 1)), np.array([5.0]), np.array([1.0]), tau=2.0)
    assert rhs(capped, np.array([0.0]), np.array([5.0]))[0] == 0.5


def test_scalar_closed_form():
    # below the ceiling and above zero the dynamics are linear, so
    # x(t) = 2 (1 - exp(-t / (2 tau))) exactly
    for tau in (1.0, 3.3):
        net = LTNetwork(np.array([[0.5]]), np.array([1.0]), np.array([np.inf]), tau=tau)
        traj = simulate(net, [0.0], t_span=(0.0, 10.0 * tau), dt=tau / 100.0)
        exact = 2.0 * (1.0 - np.exp(-0.5 * traj.times / tau))
        assert np.max(np.abs(traj.samples[:, 0] - exact)) < 1e-6


def test_equilibrium_is_stationary():
    rng = np.random.default_rng(7)
    for _ in range(10):
        W, m = random_contractive(rng, n_max=4)
        n = W.shape[0]
        d = rng.normal(scale=2.0, size=n)
        xstar = fixed_point(W, m, d)
        net = LTNetwork(W, np.zeros(n), m)
        traj = simulate(net, xstar, input=d, t_span=(0.0, 5.0), dt=1.0 / 50.0)
        assert np.max(np.abs(traj.samples - xstar)) < 1e-9


def test_box_invariance_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        W, m = random_contractive(rng, n_max=5, rho_hi=1.4)
        n = W.shape[0]
        amp = rng.uniform(0.5, 3.0, size=n)
        freq = rng.uniform(0.3, 2.0)
        net = LTNetwork(W, np.zeros(n), m, tau=0.7)
        x0 = clip01m(rng.uniform(0.0, 2.0, size=n), m)
        traj = simulate(
            net, x0, input=lambda t: amp * np.sin(freq * t), t_span=(0.0, 4.0)
        )
        assert np.all(traj.samples >= 0.0)
        assert np.all(traj.samples <= np.broadcast_to(m, traj.samples.shape))


def test_field_lipschitz_bound():
    rng = np.random.default_rng(3)
    for _ in range(50):
        W, m = random_contractive(rng, n_max=5, rho_hi=1.2)
        n = W.shape[0]
        net = LTNetwork(W, np.zeros(n), m, tau=1.3)
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        d = rng.normal(size=n)
        lhs = np.linalg.norm(rhs(net, x, d) - rhs(net, y, d))
        bound = (1.0 + np.linalg.norm(W, 2)) / net.tau * np.linalg.norm(x - y)
        assert lhs <= bound + 1e-12


def test_sustained_oscillation():
    net = LTNetwork(W_OSC, C_OSC, np.full(3, np.inf), tau=1.0)
    traj = simulate(net, [2.0, 6.0, 3.0], t_span=(0.0, 60.0))
    late = traj.samples[traj.window(30.0, 60.0)]
    # no settling: every node keeps swinging with O(1) amplitude
    assert np.all(late.max(axis=0) - late.min(axis=0) > 1.0)


def test_half_step_reference():
    net = LTNetwork(W_OSC, C_OSC, np.full(3, np.inf), tau=3.3)
    x0 = [2.0, 6.0, 3.0]
    coarse = simulate(net, x0, t_span=(0.0, 33.0))
    fine = simulate(net, x0, t_span=(0.0, 33.0), dt=net.tau / 100.0)
    assert np.max(np.abs(coarse.samples - fine.samples[::2])) < 1e-4


def test_step_halving_order():
    net = LTNetwork(W_OSC, C_OSC, np.full(3, np.inf), tau=1.0)
    x0 = np.array([2.0, 6.0, 3.0])

    def run(dt):
        # horizon ends before the first switching-surface crossing so the
        # integrator shows its smooth-regime order
        return simulate(net, x0, t_span=(0.0, 3.0), dt=dt).samples

    ref = run(1.0 / 800.0)
    err_coarse = np.max(np.abs(run(1.0 / 50.0) - ref[::16]))
    err_fine = np.max(np.abs(run(1.0 / 100.0) - ref[::8]))
    assert err_coarse >= 4.0 * err_fine


def test_input_logging():
    net = LTNetwork(np.zeros((2, 2)), np.array([1.0, 2.0]), np.full(2, np.inf))
    traj = simulate(net, [0.0, 0.0], t_span=(0.0, 1.0))
    np.testing.assert_array_equal(
        traj.input_log, np.tile(net.c, (len(traj.times), 1))
    )
    ramp = simulate(net, [0.0, 0.0], input=lambda t: np.array([t, 0.0]),
                    t_span=(0.0, 1.0))
    np.testing.assert_allclose(ramp.input_log[:, 0], ramp.times)


def test_trajectory_times_window():
    traj = Trajectory(t0=1.0, dt=0.5, samples=np.zeros((5, 2)))
    np.testing.assert_allclose(traj.times, [1.0, 1.5, 2.0, 2.5, 3.0])
    np.testing.assert_array_equal(
        traj.window(1.5, 2.5), [False, True, True, True, False]
    )
    assert traj.samples.flags.writeable is False


def test_rk4_integrate_exponential():
    out = rk4_integrate(lambda t, x: -x, np.array([1.0]), 0.0, 0.01, 100)
    assert out.shape == (101, 1)
    assert abs(out[-1, 0] - np.exp(-1.0)) < 1e-10
    # a (B, n) state steps as B independent rows, bit for bit
    X0 = np.random.default_rng(0).uniform(-1.0, 1.0, size=(3, 2))

    def f(t, x):
        return np.cos(t) - x * np.abs(x)

    def project(x):
        return np.maximum(x, -0.5)

    batch = rk4_integrate(f, X0, 0.0, 0.05, 40, project)
    assert batch.shape == (41, 3, 2)
    for b, x0 in enumerate(X0):
        np.testing.assert_array_equal(batch[:, b], rk4_integrate(f, x0, 0.0, 0.05, 40, project))


_A = np.array([[0.3, -1.2, 0.5], [0.8, 0.1, -0.4], [-0.6, 0.9, 0.2]])
# (field, x0, project) of a 1-D state with project, an (R, n) stack without
# it, and a 0-d state
_TEXTBOOK_RUNS = {
    "1-D, project": (lambda t, x: np.tanh(_A @ x) * np.cos(t) - x,
                     np.array([0.4, -0.2, 1.3]), lambda x: np.clip(x, -0.3, 1.0)),
    "(R, n), no project": (lambda t, X: np.sin(X @ _A.T + t) - 0.5 * X,
                           np.linspace(-1.0, 1.0, 12).reshape(4, 3), None),
    "0-d": (lambda t, x: np.cos(t) - x * np.abs(x), np.array(0.7), None),
}


@pytest.mark.parametrize("case", sorted(_TEXTBOOK_RUNS))
def test_plain_core_equals_textbook_rk4(case):
    # the in-place plain path keeps the textbook expression's bits
    f, x0, project = _TEXTBOOK_RUNS[case]
    run = (f, x0, 0.1, 0.037, 200, project)
    got = rk4_integrate(*run)
    assert got.shape == (201,) + x0.shape
    assert got.tobytes() == reference_rk4(*run).tobytes()


def test_network_validation():
    W = np.zeros((2, 2))
    with pytest.raises(ValueError, match="square"):
        LTNetwork(np.zeros((2, 3)), np.zeros(2), np.full(2, np.inf))
    with pytest.raises(ValueError, match="positive"):
        LTNetwork(W, np.zeros(2), np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="tau"):
        LTNetwork(W, np.zeros(2), np.full(2, np.inf), tau=0.0)
    with pytest.raises(ValueError, match="r must"):
        LTNetwork(W, np.zeros(2), np.full(2, np.inf), r=3)
    with pytest.raises(ValueError, match="B must"):
        LTNetwork(W, np.zeros(2), np.full(2, np.inf), B=np.zeros((3, 1)), r=1)
    net = LTNetwork(W, np.zeros(2), np.full(2, np.inf), B=np.zeros((2, 2)), r=1)
    assert net.p == 2 and net.minus == slice(0, 1) and net.plus == slice(1, 2)


@pytest.mark.parametrize("r", [1.5, 1.0, True])
def test_network_refuses_a_non_integer_r(r):
    # before: r = 1.5 built a network whose plus, slice(1.5, 2), raised
    # TypeError on first use
    with pytest.raises(ValueError, match=f"^r must be an integer, got {r!r}$"):
        LTNetwork(np.zeros((2, 2)), 0.0, np.inf, r=r)
    # a NumPy integer is taken, and held as the int that JSON writes
    net = LTNetwork(np.zeros((2, 2)), 0.0, np.inf, r=np.int64(1))
    assert net.plus == slice(1, 2) and type(net.r) is int


def test_simulate_validation():
    net = LTNetwork(np.zeros((2, 2)), np.zeros(2), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="box"):
        simulate(net, [2.0, 0.0])
    with pytest.raises(ValueError, match="dt"):
        simulate(net, [0.5, 0.5], dt=net.tau / 10.0)
    with pytest.raises(ValueError, match="shape"):
        simulate(net, [0.5])
    with pytest.raises(ValueError, match="time span"):
        simulate(net, [0.5, 0.5], t_span=(1.0, 1.0))


def test_callable_input_run_is_pinned():
    # a time-varying input steps plainly through rhs; SHA-256 of the samples
    # and the input log (NumPy 2.4 with OpenBLAS, x86-64)
    net = LTNetwork(W_OSC, C_OSC, np.array([np.inf, 6.0, np.inf]), tau=1.0)
    traj = simulate(net, [2.0, 6.0, 3.0], lambda t: C_OSC + 3.0 * np.sin(t), (0.0, 30.0))
    digest = hashlib.sha256(traj.samples.tobytes() + traj.input_log.tobytes()).hexdigest()
    assert digest == "060b301a3f307de9147a121eac1a9ab31df8d5023c85aea9a08fee93736c74b0"


def _hinted_and_plain(*args):
    with rk4_calls() as calls:
        hinted = simulate(*args)
    with rk4_calls(drop_hint=True):
        plain = simulate(*args)
    assert calls[0].piece is not None
    return hinted, plain, calls[0]


def test_constant_input_block_path_matches_plain_stepping():
    rng = np.random.default_rng(11)
    for _ in range(8):
        W, m = random_contractive(rng, n_max=5)
        n = W.shape[0]
        m[0] = 1.5
        d = rng.normal(scale=2.0, size=n)
        d[0] = 5.0  # node 0 pushes against its finite ceiling
        net = LTNetwork(W, np.zeros(n), m, tau=0.8)
        x0 = clip01m(rng.uniform(0.0, 2.0, size=n), m)
        x0[0] = m[0]
        # from x0, and resting at the equilibrium on the floor and ceiling
        for x_start in (x0, fixed_point(W, m, d)):
            hinted, plain, _ = _hinted_and_plain(net, x_start, d, (0.0, 30.0))
            np.testing.assert_allclose(hinted.samples, plain.samples, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(hinted.input_log, plain.input_log)
    # None uses the background c
    net = LTNetwork(W_OSC, C_OSC, np.full(3, np.inf), tau=1.0)
    hinted, plain, _ = _hinted_and_plain(net, [2.0, 6.0, 3.0], None, (0.0, 60.0))
    np.testing.assert_allclose(hinted.samples, plain.samples, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("depth", [None, 1e-8])
def test_block_path_cuts_at_a_single_stage_crossing(depth):
    # nodes 0 and 1 rotate about (10, 10); node 2 reads x_0 + b, which is
    # positive at every step's endpoints but negative at one stage state,
    # by about 1e-3 or by depth
    w = 2.0
    W = np.array([[1.0, -w, 0.0], [w, 1.0, 0.0], [1.0, 0.0, 0.0]])
    net = LTNetwork(W, np.zeros(3), np.full(3, np.inf), tau=1.0)
    x0, dt, n_steps = np.array([10.0, 8.0, 0.0]), 0.05, 100
    stages = []

    def f(t, x):
        stages.append(x[0])
        return rhs(net, x, np.array([10.0 * w, -10.0 * w, 0.0]))

    ends = reference_rk4(f, x0, 0.0, dt, n_steps, lambda x: clip_box(x, net.m))[:, 0]
    b = 1e-4 - ends.min() if depth is None else -depth - min(stages)
    crossed = np.array(stages).reshape(n_steps, 4) + b < 0.0
    assert crossed.sum() == 1 and crossed.any(axis=1).sum() == 1
    d = np.array([10.0 * w, -10.0 * w, b])
    hinted, plain, call = _hinted_and_plain(net, x0, d, (0.0, n_steps * dt), dt)
    np.testing.assert_allclose(hinted.samples, plain.samples, rtol=1e-12, atol=1e-12)
    assert call.f_calls == 4  # the block path stepped plainly across the crossing only


def test_hinted_core_steps_plainly_where_project_acts():
    # dx/dt = -1 on one piece without kinks: the block path must not run
    # past the floor that project enforces
    whole_line = AffinePiece(np.zeros((1, 1)), np.array([-1.0]), np.zeros((0, 1)), np.zeros(0))
    run = (lambda t, x: np.full_like(x, -1.0), np.array([1.0]), 0.0, 0.03, 100,
           lambda x: np.maximum(x, 0.0))
    got = rk4_integrate(*run, piece=lambda x: (b"", lambda: whole_line))
    np.testing.assert_allclose(got, reference_rk4(*run), rtol=0.0, atol=1e-12)
    assert got[-1, 0] == 0.0


def test_piece_does_not_see_later_writes_by_its_caller():
    F, f, G, g = np.eye(2), np.zeros(2), np.ones((3, 2)), np.ones(3)
    shown = F.view()
    shown.setflags(write=False)  # read-only, but its owner is writeable
    piece = AffinePiece(shown, f, G, g)
    F[0, 0], f[0], G[0, 0], g[0] = 5.0, 5.0, 5.0, 5.0
    np.testing.assert_array_equal(piece.F, np.eye(2))
    np.testing.assert_array_equal(piece.f, np.zeros(2))
    np.testing.assert_array_equal(piece.G, np.ones((3, 2)))
    np.testing.assert_array_equal(piece.g, np.ones(3))
    assert not any(a.flags.writeable for a in (piece.F, piece.f, piece.G, piece.g))
    # a read-only float64 array whose owner is read-only is kept, not copied
    frozen = np.arange(6.0).reshape(3, 2).copy()
    frozen.setflags(write=False)
    kept = AffinePiece(frozen[:2], frozen[2], frozen, frozen[:, 0].copy())
    assert kept.G is frozen and kept.F.base is frozen and kept.f.base is frozen


def test_a_read_only_copy_is_c_ordered_and_kept_by_a_second_call():
    a = np.random.default_rng(0).random((3, 4)).T  # F-ordered
    once = _as_readonly(a)
    assert once.flags.c_contiguous and not once.flags.writeable
    np.testing.assert_array_equal(once, a)
    assert _as_readonly(once) is once
    assert LTNetwork(a[:3], np.zeros(3), np.ones(3)).W.flags.c_contiguous


def test_tau_is_a_real_number_held_as_a_python_float(tmp_path):
    # before: an np.float32 tau built a network that dump_network could not
    # write, True built one whose file load_network refused, and "1" raised
    # TypeError from the range check
    net = LTNetwork(np.zeros((1, 1)), [0.0], [1.0], tau=np.float32(0.5))
    assert type(net.tau) is float and net.tau == 0.5
    ltio.dump_network(net, tmp_path / "net.json")
    assert ltio.load_network(tmp_path / "net.json").tau == 0.5
    for tau in (True, "1"):
        with pytest.raises(ValueError, match=f"^tau must be a number, got {re.escape(repr(tau))}$"):
            LTNetwork(np.zeros((1, 1)), [0.0], [1.0], tau=tau)
