"""Rate preprocessing, timescales, permutation tests, structured fitting."""

import hashlib
import re
import sys
import threading

import numpy as np
import pytest
from helpers import sequential_fit
from scipy.special import ndtr
from test_acceptance import true_two_channel_parameters

from ltnet import sysid
from ltnet.sysid import (
    InputSignal,
    NonPositiveCorrelations,
    SimulationDiverged,
    SysIdProblem,
    WeightEntry,
    autocorr_timescale,
    bin_rates,
    fit,
    fit_exponential_decay,
    gaussian_smooth,
    objective,
    objective_terms,
    predict,
    r_squared,
    randomization_test,
    simulate_candidate,
    two_channel_hierarchy_structure,
)


def test_bin_rates_empty_and_regular():
    centers, rates = bin_rates([], (0.0, 1.0), 0.1)
    np.testing.assert_allclose(centers, 0.05 + 0.1 * np.arange(10))
    np.testing.assert_array_equal(rates, np.zeros(10))

    spikes = 0.05 + 0.1 * np.arange(10)  # one spike in every bin
    _, rates = bin_rates(spikes, (0.0, 1.0), 0.1)
    np.testing.assert_array_equal(rates, np.full(10, 10.0))

    with pytest.raises(ValueError, match="window"):
        bin_rates([0.5], (1.0, 0.0), 0.1)


def test_bin_rates_poisson_mean():
    rng = np.random.default_rng(101)
    rate = 20.0
    spikes = np.sort(rng.uniform(0.0, 10.0, size=rng.poisson(rate * 10.0)))
    _, rates = bin_rates(spikes, (0.0, 10.0), 0.5)
    stderr = np.sqrt(rate / 10.0)  # Poisson count noise on the global mean
    assert abs(rates.mean() - rate) < 3.0 * stderr


def test_gaussian_smooth_constant_and_mass():
    const = np.full(200, 3.7)
    np.testing.assert_allclose(gaussian_smooth(const, sigma=5.0), const,
                               atol=1e-10)
    impulse = np.zeros(201)
    impulse[100] = 1.0
    out = gaussian_smooth(impulse, sigma=3.0)
    np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)
    assert out[100] == out.max()
    with pytest.raises(ValueError, match="sigma"):
        gaussian_smooth(const, sigma=0.0)


def test_gaussian_smooth_sinusoid_attenuation():
    omega, sigma = 0.2, 2.0
    t = np.arange(3000, dtype=float)
    y = np.sin(omega * t)
    smoothed = gaussian_smooth(y, sigma)
    factor = np.exp(-0.5 * (sigma * omega) ** 2)
    interior = slice(50, -50)
    err = np.max(np.abs(smoothed[interior] - factor * y[interior]))
    assert err < 0.01  # matches the analytic attenuation within 1%


def test_gaussian_smooth_rows():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(3, 120))
    out = gaussian_smooth(X, sigma=2.5)
    for i in range(3):
        np.testing.assert_allclose(out[i], gaussian_smooth(X[i], sigma=2.5))


def test_fit_exponential_decay_exact():
    k = np.arange(30)
    rho_bar = 0.8 * np.exp(-k / 5.0)
    A, tau = fit_exponential_decay(rho_bar, range(1, 16))
    assert abs(A - 0.8) < 1e-6 * 0.8
    assert abs(tau - 5.0) < 1e-6 * 5.0


def test_fit_exponential_decay_rejects_bad_input():
    with pytest.raises(NonPositiveCorrelations):
        fit_exponential_decay(-np.ones(10), range(1, 8))
    growing = 0.1 * np.exp(np.arange(10) / 4.0)
    with pytest.raises(NonPositiveCorrelations, match="decay"):
        fit_exponential_decay(growing, range(1, 8))


def ar1_trials(rng, tau_bins, n_trials=500, n_bins=40):
    phi = np.exp(-1.0 / tau_bins)
    noise = rng.normal(size=(n_trials, n_bins))
    X = np.empty((n_trials, n_bins))
    X[:, 0] = noise[:, 0]
    for t in range(1, n_bins):
        X[:, t] = phi * X[:, t - 1] + np.sqrt(1 - phi**2) * noise[:, t]
    return X


def test_autocorr_timescale_ar1():
    rng = np.random.default_rng(2024)
    tau_bins, bin_width = 3.0, 0.2
    A, tau = autocorr_timescale(ar1_trials(rng, tau_bins), bin_width,
                                range(1, 11))
    assert abs(tau - tau_bins * bin_width) < 0.1 * tau_bins * bin_width
    assert 0.5 < A <= 1.5


def test_autocorr_timescale_orders_speeds():
    rng = np.random.default_rng(77)
    _, tau_fast = autocorr_timescale(ar1_trials(rng, 1.0), 1.0, range(1, 6))
    _, tau_slow = autocorr_timescale(ar1_trials(rng, 3.0), 1.0, range(1, 6))
    assert tau_fast < tau_slow
    with pytest.raises(ValueError, match="n_trials"):
        autocorr_timescale(np.zeros((2, 10)), 1.0, range(1, 4))


def test_randomization_identical_samples():
    a = np.arange(20, dtype=float)
    assert randomization_test(a, a.copy(), n_perm=499) == 1.0


def test_randomization_detects_separation():
    rng = np.random.default_rng(11)
    a = rng.normal(0.0, 1.0, size=50)
    b = rng.normal(3.0, 1.0, size=50)
    assert randomization_test(a, b, n_perm=1999) < 0.01


def test_randomization_symmetric_and_validates():
    rng = np.random.default_rng(13)
    a = rng.normal(size=30)
    b = rng.normal(0.4, 1.0, size=30)
    assert randomization_test(a, b, seed=5) == randomization_test(b, a, seed=5)
    with pytest.raises(ValueError, match="nonempty"):
        randomization_test(np.zeros(0), np.ones(3))


def test_input_signal_values():
    rule = InputSignal("rule-A", "rule", {"on": ("A",)})
    t = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(rule.values("A", t), np.ones(3))
    np.testing.assert_array_equal(rule.values("B", t), np.zeros(3))

    cell = InputSignal("elapsed", "time_cell", {"t0": -7.0})
    np.testing.assert_allclose(
        cell.values("A", np.array([-7.0, -1.0, 0.0, 3.0])),
        [14.0, 8.0, 0.0, 0.0],
    )

    pulse = InputSignal("stim", "pulse", {"window": (0.0, 1.5), "sigma": 1.0})
    got = pulse.values("A", t)
    np.testing.assert_allclose(got, ndtr(t) - ndtr(t - 1.5), atol=1e-12)

    const = InputSignal("bias", "const", {"value": 2.5})
    np.testing.assert_array_equal(const.values("A", t), np.full(3, 2.5))

    with pytest.raises(ValueError, match="kind"):
        InputSignal("bad", "sawtooth")
    # malformed params are refused when the signal is made, not when a fit runs
    with pytest.raises(ValueError, match="window"):
        InputSignal("stim", "pulse", {"sigma": 1.0})
    with pytest.raises(ValueError, match="sigma"):
        InputSignal("stim", "pulse", {"window": (0.0, 1.5), "sigma": 0.0})
    with pytest.raises(ValueError, match="t0"):
        InputSignal("elapsed", "time_cell", {})
    with pytest.raises(ValueError, match="window"):
        InputSignal("stim", "pulse", {"window": [[0.0, 1.0], 1.5]})
    with pytest.raises(ValueError, match="'on'"):
        InputSignal("rule-A", "rule", {"on": "A"})
    # any two-number sequence is a window, any collection an 'on' list
    array_pulse = InputSignal("stim", "pulse", {"window": np.array([0.0, 1.5]), "sigma": 1.0})
    np.testing.assert_array_equal(array_pulse.values("A", t), got)
    set_rule = InputSignal("rule-A", "rule", {"on": frozenset({"A"})})
    np.testing.assert_array_equal(set_rule.values("A", t), np.ones(3))
    np.testing.assert_array_equal(set_rule.values("B", t), np.zeros(3))


def test_weight_entry_intervals():
    assert WeightEntry("W11", 0, 0, "+", 2.0).interval() == (0.0, 2.0)
    assert WeightEntry("W11", 0, 0, "-", 2.0).interval() == (-2.0, 0.0)
    assert WeightEntry("W11", 0, 0).interval() == (-1.5, 1.5)


def scalar_problem(t0=0.0, tf=5.0):
    structure = [
        WeightEntry("W11", 0, 0, "+", 1.0),
        WeightEntry("U1", 0, 0, "+", 6.0),
    ]
    inputs = [InputSignal("drive", "pulse", {"window": (0.0, 2.0), "sigma": 1.0})]
    return SysIdProblem((1,), structure, inputs, ("base",), (0,),
                        t0=t0, tf=tf, T=0.1)


def test_problem_layout_two_channel():
    layer_sizes, structure, inputs, manifest = two_channel_hierarchy_structure()
    assert layer_sizes == (2, 4, 2)
    assert len(structure) == 30 and len(inputs) == 5 and manifest == tuple(range(8))
    problem = SysIdProblem(layer_sizes, structure, inputs, ("A", "B"), manifest)
    assert problem.dim == 30 + 3 + 8 + 16
    assert problem.K == 141
    names = problem.param_names()
    assert len(names) == problem.dim
    assert names[0] == "W11[0,1]" and names[30] == "tau1"
    lo, hi = problem.bounds()
    assert lo.shape == (problem.dim,) and np.all(lo < hi)

    z = np.zeros(problem.dim)
    z[0] = -0.4        # W11[0,1]
    z[2] = 0.5         # W12[0,0]
    z[22] = 4.0        # U1[0,0]
    z[30:33] = (3.36, 1.68, 0.7)
    W, U, tau, c, X0 = problem.unpack(z)
    assert W.shape == (1, 8, 8) and U.shape == (1, 8, 5)
    assert W[0, 0, 1] == -0.4
    assert W[0, 0, 2] == 0.5   # W12 column offset lands in layer 2
    assert U[0, 0, 0] == 4.0
    np.testing.assert_array_equal(
        tau[0], [3.36, 3.36, 1.68, 1.68, 1.68, 1.68, 0.7, 0.7]
    )
    assert X0.shape == (1, 2, 8)


def test_problem_rejects_nonadjacent_blocks():
    with pytest.raises(ValueError, match="skips"):
        SysIdProblem((1, 1, 1), [WeightEntry("W13", 0, 0)], [], ("a",), (0,))
    with pytest.raises(ValueError, match="out of range"):
        SysIdProblem((1,), [WeightEntry("W11", 1, 0)], [], ("a",), (0,))


def test_simulate_candidate_scalar_analytic():
    problem = SysIdProblem(
        (1,), [WeightEntry("U1", 0, 0, "+", 6.0)],
        [InputSignal("on", "const", {"value": 1.0})],
        ("base",), (0,), t0=0.0, tf=5.0, T=0.1,
    )
    z = np.array([2.0, 1.0, 0.0, 0.0])  # gain, tau, c, x0
    states = simulate_candidate(z, problem)
    t = problem.t0 + problem.T * np.arange(problem.K)
    exact = 2.0 * (1.0 - np.exp(-t))
    assert set(states) == {"base"}
    assert states["base"].shape == (problem.K, 1)
    assert np.max(np.abs(states["base"][:, 0] - exact)) < 1e-6


def test_objective_perfect_offset_and_decomposition():
    problem = scalar_problem()
    z = np.array([0.5, 2.0, 1.0, 0.3, 0.2])  # w, gain, tau, c, x0
    clean = predict(z, problem)
    problem.attach_data(clean)
    f, f_sse, f_corr, f_var = objective(z, problem)
    assert f < 1e-9 and f_sse < 1e-10 and f_corr < 1e-10 and f_var < 1e-6

    delta = 0.1
    shifted = SysIdProblem(
        problem.layer_sizes, problem.structure, problem.inputs,
        problem.conditions, problem.manifest,
        data={"base": clean["base"] + delta}, t0=problem.t0, tf=problem.tf,
        T=problem.T,
    )
    f, f_sse, f_corr, f_var = objective(z, shifted)
    # a pure offset is pure sum-of-squares: correlation and spread agree
    np.testing.assert_allclose(f_sse, problem.K * delta**2, rtol=1e-10)
    assert f_corr < 1e-10 and f_var < 1e-8
    np.testing.assert_allclose(f, f_sse + 250.0 * f_corr + 150.0 * f_var)


def test_objective_terms_hand_example():
    est = np.array([[1.0, 2.0, 3.0]])
    ref = np.array([[1.1, 1.9, 3.2]])
    f_sse, f_corr, f_var = objective_terms(est, ref)
    np.testing.assert_allclose(f_sse, 0.01 + 0.01 + 0.04)
    r = np.corrcoef(est[0], ref[0])[0, 1]
    np.testing.assert_allclose(f_corr, 1.0 - r)
    np.testing.assert_allclose(f_var, abs(est[0].std(ddof=1) - ref[0].std(ddof=1)))


def test_objective_terms_flat_conventions():
    flat = np.ones((1, 5))
    assert objective_terms(flat, flat)[1] == 0.0  # both flat: corr 1
    varying = np.array([[0.0, 1.0, 2.0, 3.0, 4.0]])
    assert objective_terms(flat, varying)[1] == 1.0  # one flat: corr 0


def test_objective_terms_batch_equals_separate_calls():
    rng = np.random.default_rng(3)
    est = rng.uniform(0.0, 2.0, size=(4, 6, 30))
    est[1, 2] = 0.5  # a flat estimate
    ref = rng.uniform(0.0, 2.0, size=(6, 30))
    ref[4] = 1.0  # a flat reference
    batched = objective_terms(est, ref)
    for part in batched:
        assert part.shape == (4,)
    for p in range(4):
        assert tuple(v[p] for v in batched) == objective_terms(est[p], ref)


def test_objective_is_objective_terms_of_predict():
    layer_sizes, structure, inputs, manifest = two_channel_hierarchy_structure()
    problem = SysIdProblem(layer_sizes, structure, inputs, ("A", "B"), manifest,
                           x0_max=2.0)
    truth, z = interior_points(problem, 60, 2)
    problem.attach_data(noisy_data(problem, truth, 61))
    est = predict(z, problem)
    stack = lambda series: np.concatenate([series[c].T for c in problem.conditions])
    f_sse, f_corr, f_var = objective_terms(stack(est), stack(problem.data))
    got = objective(z, problem)
    np.testing.assert_allclose(got[1:], (f_sse, f_corr, f_var), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got[0], f_sse + problem.gamma1 * f_corr
                               + problem.gamma2 * f_var, rtol=1e-12)


def test_objective_divergence():
    problem = SysIdProblem(
        (1,), [WeightEntry("W11", 0, 0, "free", 3.0)], [],
        ("base",), (0,), t0=0.0, tf=5.0, T=0.1,
        data={"base": np.zeros((51, 1))},
    )
    z = np.array([3.0, 0.3, 2.0, 1.0])
    with pytest.raises(SimulationDiverged):
        objective(z, problem)


def test_divergence_is_flagged_per_candidate():
    problem = SysIdProblem(
        (1,), [WeightEntry("W11", 0, 0, "free", 3.0)], [],
        ("base",), (0,), t0=0.0, tf=5.0, T=0.1,
    )
    diverging = np.array([3.0, 0.3, 2.0, 1.0])  # the z of test_objective_divergence
    stable = np.array([0.5, 1.0, 1.0, 0.5])
    states, diverged = problem.simulate_candidates(np.vstack([diverging, stable]))
    solo, solo_diverged = problem.simulate_candidates(stable)
    assert diverged.tolist() == [True, False] and not solo_diverged[0]
    np.testing.assert_array_equal(states[1], solo[0])
    np.testing.assert_array_equal(states[0], np.zeros_like(states[0]))


def stagewise_rk4(problem, z, cond, clip=True):
    """Every RK4 step of one candidate under one condition, stage by stage
    from the signal definitions: the (steps + 1, n) reference states."""
    W, U, tau, c, X0 = (a[0] for a in problem.unpack(z))
    sub = problem.sim_substeps
    dt = problem.T / sub

    def f(t, x):
        u = np.array([float(s.values(cond, t)) for s in problem.inputs])
        return (-x + np.maximum(W @ x + U @ u + c, 0.0)) / tau

    x = X0[problem.conditions.index(cond)]
    steps = [x]
    for k in range((problem.K - 1) * sub):
        t = problem.t0 + k * dt
        k1 = f(t, x)
        k2 = f(t + dt / 2, x + dt / 2 * k1)
        k3 = f(t + dt / 2, x + dt / 2 * k2)
        k4 = f(t + dt, x + dt * k3)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if clip:
            x = np.maximum(x, 0.0)
        steps.append(x)
    return np.array(steps)


def test_simulate_candidates_matches_stagewise_rk4():
    structure = [
        WeightEntry("W11", 0, 0, "+", 0.8),
        WeightEntry("W12", 0, 1, "-", 1.0),
        WeightEntry("W21", 0, 0, "+", 1.0),
        WeightEntry("W22", 0, 1, "free", 0.5),
        WeightEntry("W22", 1, 0, "free", 0.5),
        WeightEntry("U1", 0, 0, "+", 4.0),
        WeightEntry("U2", 1, 1, "+", 4.0),
    ]
    inputs = [InputSignal("cue", "rule", {"on": ("on",)}),
              InputSignal("stim", "pulse", {"window": (0.5, 2.0), "sigma": 0.5})]
    problem = SysIdProblem((1, 2), structure, inputs, ("on", "off"), (0, 2),
                           t0=-1.0, tf=3.0, T=0.1, tau_bounds=[(0.3, 0.6), (1.5, 3.0)],
                           sim_substeps=3)
    lo, hi = problem.bounds()
    Z = np.random.default_rng(7).uniform(lo, hi, size=(3, lo.size))
    states, diverged = problem.simulate_candidates(Z)
    assert not diverged.any()
    for p, z in enumerate(Z):
        for ci, cond in enumerate(problem.conditions):
            expect = stagewise_rk4(problem, z, cond)[::3]
            np.testing.assert_allclose(states[p, ci], expect, rtol=0.0, atol=1e-12)


def switch_off_problem(gain_bound, off_at, tau_lo, sim_substeps):
    """A scalar node driven by a pulse that is on at t0 = 0 and switches
    off sharply at off_at; its z is (gain, tau, c, x0)."""
    return SysIdProblem(
        (1,), [WeightEntry("U1", 0, 0, "+", gain_bound)],
        [InputSignal("drive", "pulse", {"window": (-1.0, off_at), "sigma": 1e-3})],
        ("base",), (0,), t0=0.0, tf=1.0, T=0.1, tau_bounds=[(tau_lo, 1.0)],
        sim_substeps=sim_substeps,
    )


def test_post_step_clip_acts_when_dt_exceeds_two_tau():
    # dt = 0.1 = 2.5 tau: the drive switching off inside the first step
    # takes the RK4 update below zero, and the clip must lift it to 0
    problem = switch_off_problem(5.0, off_at=0.02, tau_lo=0.01, sim_substeps=1)
    z = np.array([2.0, 0.04, 0.5, 0.0])  # gain, tau, c, x0
    assert problem.T > 2 * z[1]
    unclipped = stagewise_rk4(problem, z, "base", clip=False)
    assert unclipped[1, 0] < -1.0
    states, diverged = problem.simulate_candidates(z)
    assert not diverged[0]
    assert states[0, 0, 1, 0] == 0.0
    np.testing.assert_allclose(states[0, 0], stagewise_rk4(problem, z, "base"),
                               rtol=0.0, atol=1e-12)


def test_divergence_between_samples_is_flagged():
    # two RK4 steps per sample: a gain of 2e9 switched off at t = 0.05
    # lifts the state above the limit at the first step (t = 0.05) only;
    # every sample, from t = 0.1 on, is back below it
    problem = switch_off_problem(1e10, off_at=0.05, tau_lo=0.01, sim_substeps=2)
    z = np.array([2e9, 0.03, 0.0, 0.0])
    steps = stagewise_rk4(problem, z, "base")[:, 0]
    assert steps[1] > sysid._DIVERGENCE_LIMIT
    assert np.all(np.abs(steps[::2]) <= sysid._DIVERGENCE_LIMIT)
    states, diverged = problem.simulate_candidates(z)
    assert diverged[0]
    np.testing.assert_array_equal(states[0], np.zeros_like(states[0]))


def test_r_squared_conventions():
    data = {"a": np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])}
    assert r_squared(data, {k: v.copy() for k, v in data.items()}) == 1.0
    means = {"a": np.tile(data["a"].mean(axis=0), (3, 1))}
    assert abs(r_squared(data, means)) < 1e-12


def test_fit_recovers_scalar_model():
    problem = scalar_problem()
    z_true = np.array([0.5, 2.0, 1.0, 0.3, 0.2])
    problem.attach_data(predict(z_true, problem))
    report = fit(problem, n_starts=12, seed=3, maxiter=300, target_r2=0.995)
    assert report.r2 >= 0.995
    est = predict(report.z, problem)
    assert np.max(np.abs(est["base"] - problem.data["base"])) < 0.1
    assert report.best_start < report.n_starts <= 12
    assert all(len(rec) == 3 for rec in report.starts)


@pytest.mark.parametrize("budget, message", [
    (dict(n_starts=0), "n_starts must be an integer >= 1, got 0"),
    (dict(n_starts=-2), "n_starts must be an integer >= 1, got -2"),
    (dict(n_starts=True), "n_starts must be an integer >= 1, got True"),
    (dict(n_starts=2.0), "n_starts must be an integer >= 1, got 2.0"),
    (dict(maxiter=-1), "maxiter must be an integer >= 0, got -1"),
    (dict(maxiter=1.5), "maxiter must be an integer >= 0, got 1.5"),
    (dict(maxiter=False), "maxiter must be an integer >= 0, got False"),
    (dict(target_r2=float("nan")), "target_r2 must be None or a finite number, got nan"),
    (dict(target_r2=float("inf")), "target_r2 must be None or a finite number, got inf"),
    (dict(target_r2="0.9"), "target_r2 must be None or a finite number, got '0.9'"),
])
def test_fit_rejects_a_bad_budget(budget, message):
    problem = scalar_problem()
    problem.attach_data(predict(np.array([0.5, 2.0, 1.0, 0.3, 0.2]), problem))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit(problem, **{"n_starts": 1, "maxiter": 2, **budget})


def test_fit_takes_numpy_integers_and_zero_iterations():
    problem = scalar_problem()
    problem.attach_data(predict(np.array([0.5, 2.0, 1.0, 0.3, 0.2]), problem))
    report = fit(problem, n_starts=np.int64(2), seed=0, maxiter=np.int32(0), target_r2=1)
    assert report.n_starts <= 2


def test_fit_is_deterministic():
    problem = SysIdProblem(
        (2,), [], [], ("flat",), (0, 1), t0=0.0, tf=3.0, T=0.1,
        data={"flat": np.tile([1.2, 0.7], (31, 1))},
    )
    a = fit(problem, n_starts=2, seed=9, maxiter=60)
    b = fit(problem, n_starts=2, seed=9, maxiter=60)
    np.testing.assert_array_equal(a.z, b.z)
    assert a.starts == b.starts and a.f == b.f


def test_fit_constant_data_recovers_background():
    # nonnegative backgrounds keep the rectifier out of its dead zone, so
    # every start can descend to the exact constants
    problem = SysIdProblem(
        (2,), [], [], ("flat",), (0, 1), t0=0.0, tf=3.0, T=0.1,
        c_bounds=(0.0, 5.0),
        data={"flat": np.tile([1.2, 0.7], (31, 1))},
    )
    report = fit(problem, n_starts=16, seed=0, maxiter=300)
    assert report.f < 1e-6
    W, _, _, c, X0 = problem.unpack(report.z)
    np.testing.assert_array_equal(W[0], np.zeros((2, 2)))  # nothing freed
    np.testing.assert_allclose(c[0], [1.2, 0.7], atol=1e-3)
    np.testing.assert_allclose(X0[0, 0], [1.2, 0.7], atol=1e-3)


# -- exact gradient ------------------------------------------------------------


def central_differences(z, problem):
    """Central differences with step 1e-6 max(|z|, 1), in one batched call."""
    h = 1e-6 * np.maximum(np.abs(z), 1.0)
    steps = np.diag(h)
    F = sysid._objective_batch(np.vstack([z + steps, z - steps]), problem)[0]
    return (F[: z.size] - F[z.size :]) / (2.0 * h)


def noisy_data(problem, z, seed):
    rng = np.random.default_rng(seed)
    clean = predict(z, problem)
    return {c: v + 0.05 * rng.standard_normal(v.shape) for c, v in clean.items()}


def interior_points(problem, seed, count):
    lo, hi = problem.bounds()
    rng = np.random.default_rng(seed)
    return lo + (hi - lo) * rng.uniform(0.1, 0.9, size=(count, lo.size))


def assert_gradient_matches(problem, z):
    f, g = sysid._value_and_grad(z, problem)
    assert f == objective(z, problem)[0]  # the same f, bit for bit
    fd = central_differences(z, problem)
    assert np.all(np.isfinite(fd))
    assert np.max(np.abs(g - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_gradient_two_channel_matches_central_differences():
    layer_sizes, structure, inputs, manifest = two_channel_hierarchy_structure()
    problem = SysIdProblem(layer_sizes, structure, inputs, ("A", "B"), manifest,
                           x0_max=2.0)
    truth, *points = interior_points(problem, 40, 4)
    problem.attach_data(noisy_data(problem, truth, 41))
    for z in points:
        assert_gradient_matches(problem, z)


def test_gradient_substeps_and_conditions():
    structure = [
        WeightEntry("W11", 0, 0, "+", 0.8),
        WeightEntry("W11", 0, 1, "-", 1.0),
        WeightEntry("W11", 1, 0, "free", 1.0),
        WeightEntry("U1", 0, 0, "+", 4.0),
        WeightEntry("U1", 1, 1, "+", 4.0),
    ]
    inputs = [InputSignal("cue", "rule", {"on": ("on",)}),
              InputSignal("stim", "pulse", {"window": (0.5, 2.0), "sigma": 0.5})]
    problem = SysIdProblem((2,), structure, inputs, ("on", "off"), (0, 1),
                           t0=0.0, tf=4.0, T=0.1, sim_substeps=3)
    truth, *points = interior_points(problem, 50, 4)
    problem.attach_data(noisy_data(problem, truth, 51))
    for z in points:
        assert_gradient_matches(problem, z)


def test_gradient_through_the_post_step_clip():
    # dt = 0.1 = 2.5 tau: the clip lifts the first step's update to 0 (see
    # test_post_step_clip_acts_when_dt_exceeds_two_tau), so an adjoint that
    # passes that update on unclipped misses tau's derivative by far
    problem = switch_off_problem(5.0, off_at=0.02, tau_lo=0.01, sim_substeps=1)
    problem.attach_data({"base": 0.5 + 0.3 * np.sin(np.arange(11.0))[:, None]})
    assert_gradient_matches(problem, np.array([2.0, 0.04, 0.5, 0.0]))


def test_gradient_of_diverged_candidate_is_zero():
    problem = SysIdProblem(
        (1,), [WeightEntry("W11", 0, 0, "free", 3.0)], [],
        ("base",), (0,), t0=0.0, tf=5.0, T=0.1,
        data={"base": np.zeros((51, 1))},
    )
    f, g = sysid._value_and_grad(np.array([3.0, 0.3, 2.0, 1.0]), problem)
    assert f == sysid._PENALTY
    np.testing.assert_array_equal(g, np.zeros(4))


def test_gradient_flat_series_is_finite():
    problem = SysIdProblem(
        (2,), [], [], ("flat",), (0, 1), t0=0.0, tf=3.0, T=0.1,
        data={"flat": np.tile([1.25, 0.5], (31, 1))},
    )
    # tau, c, x0: the first node sits at its background (a flat estimate of a
    # flat reference), the second decays towards it
    z = np.array([2.0, 1.25, 0.5, 1.25, 1.5])
    f, g = sysid._value_and_grad(z, problem)
    assert f == objective(z, problem)[0]
    assert np.all(np.isfinite(g)) and np.any(g != 0.0)
    # both estimates flat at the data: f = 0, f_var = 0, zero-variance pairs
    z = np.array([2.0, 1.25, 0.5, 1.25, 0.5])
    f, g = sysid._value_and_grad(z, problem)
    assert objective(z, problem) == (0.0, 0.0, 0.0, 0.0)
    np.testing.assert_array_equal(g, np.zeros(5))


def test_flatten_constant_pairs_lands_on_the_flat_estimate():
    problem = SysIdProblem(
        (2,), [], [], ("flat",), (0, 1), t0=0.0, tf=3.0, T=0.1,
        c_bounds=(0.0, 5.0),
        data={"flat": np.tile([1.2, 0.7], (31, 1))},
    )
    lo, hi = problem.bounds()
    # backgrounds at the data, initial states 1e-9 off them: every estimate
    # still varies, so f_corr = 1
    z = np.array([4.0, 1.2, 0.7, 1.2 + 1e-9, 0.7 - 2e-9])
    f = objective(z, problem)[0]
    assert f > problem.gamma1
    z_new, f_new = sysid._flatten_constant_pairs(z, f, problem, lo, hi)
    assert f_new == objective(z_new, problem)[0] < 1e-12
    # a varying reference leaves the point alone
    problem.attach_data({"flat": np.column_stack([np.linspace(0, 1, 31)] * 2)})
    f = objective(z, problem)[0]
    z_same, f_same = sysid._flatten_constant_pairs(z, f, problem, lo, hi)
    assert z_same is z and f_same == f


# -- lock-step starts ------------------------------------------------------------


def two_channel_problem(noise_seed):
    """The benchmark's fit problem: test_08's ground truth, its rates with
    Gaussian noise of 2% of each series' sd, clipped at zero."""
    layer_sizes, structure, inputs, manifest = two_channel_hierarchy_structure()
    problem = SysIdProblem(layer_sizes, structure, inputs, ("A", "B"), manifest,
                           x0_max=2.0)
    rng = np.random.default_rng(noise_seed)
    clean = predict(true_two_channel_parameters(), problem)
    problem.attach_data({
        c: np.maximum(v + rng.normal(scale=0.02 * v.std(axis=0), size=v.shape), 0.0)
        for c, v in clean.items()})
    return problem


def assert_rows_match_batches_of_one(problem, Z):
    F, G = sysid._values_and_grads(Z, problem)
    assert F.shape == (len(Z),) and G.shape == Z.shape
    for z, f, g in zip(Z, F, G):
        f1, g1 = sysid._value_and_grad(z, problem)
        assert f == f1
        assert np.array_equal(g, g1)
    return F, G


@pytest.mark.parametrize("P", [1, 3, 8])
def test_values_and_grads_rows_equal_batches_of_one(P):
    problem = two_channel_problem(60)
    assert_rows_match_batches_of_one(problem, interior_points(problem, 61, P))


# SHA-256 of the (F, G) bytes of _values_and_grads on the first P rows of a
# fixed two-channel batch (NumPy 2.4 with OpenBLAS, x86-64)
_GRADIENT_SHA256 = {
    1: "b7750c0b3700c276dff4c766a816497ab4247b4c23ce6075fde34d030583b7dd",
    2: "4e646514d8f9e614456a1c521148e8254fa48b6d21d41d8ca195dc667f9b500c",
    3: "651ba93dd706e175edb81c23beda06776a924da2c0207892359af0c12f0066b1",
    8: "e5b148ad406caf779cb9e34ff9be3ef4eeaa525ffdd4561777df518e8c239efa",
}
# SHA-256 of SysIdProblem._simulate's trajectory (every RK4 step's state)
# on the first P rows of the same batch
_TRAJECTORY_SHA256 = {
    1: "723444708d0b033ae67766b5d00f1e527c09d99d9232b443d4ce4ac558adfa8d",
    3: "e0085f77eaafcf3c482491b6ed65ba582935c95bcea2b1c31d62bc3ae93d6ec7",
}


def pinned_batch(problem):
    return 0.8 * true_two_channel_parameters() + 0.2 * interior_points(problem, 64, 8)


@pytest.mark.parametrize("P", [1, 2, 3, 8])
def test_values_and_grads_bytes_are_pinned(P):
    problem = two_channel_problem(60)
    F, G = sysid._values_and_grads(pinned_batch(problem)[:P], problem)
    assert np.all(F != sysid._PENALTY)
    assert hashlib.sha256(F.tobytes() + G.tobytes()).hexdigest() == _GRADIENT_SHA256[P]


@pytest.mark.parametrize("P", [1, 3])
def test_simulate_trajectory_bytes_are_pinned(P):
    problem = two_channel_problem(60)
    traj = problem._simulate(pinned_batch(problem)[:P])[0]
    assert traj.shape == (281, P, 2, 8)
    assert hashlib.sha256(traj.tobytes()).hexdigest() == _TRAJECTORY_SHA256[P]


def flat_pairs_problem():
    """The two-channel problem with three constant reference series."""
    problem = two_channel_problem(60)
    data = {c: v.copy() for c, v in problem.data.items()}
    data["A"][:, 1] = 0.3
    data["B"][:, 4] = 0.0
    data["B"][:, 6] = 1.1
    problem.attach_data(data)
    return problem


def test_flatten_constant_pairs_step_is_pinned(monkeypatch):
    # the Jacobian of the three flat pairs' standard deviations, handed to
    # lstsq, and the step taken, recorded when each pair had an adjoint
    # pass of its own
    problem = flat_pairs_problem()
    z = pinned_batch(problem)[0]
    lo, hi = problem.bounds()
    lstsq = np.linalg.lstsq
    seen = []

    def spy(A, b, rcond=None):
        seen.append(A.copy())
        return lstsq(A, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    f = objective(z, problem)[0]
    z_new, f_new = sysid._flatten_constant_pairs(z, f, problem, lo, hi)
    (J,) = seen
    assert J.shape == (3, problem.dim)
    assert hashlib.sha256(J.tobytes()).hexdigest() == \
        "cc59aa2ee330fd45d8cff325f29401db3da7d4d84304638d50af1d9b19a553db"
    assert (f, f_new) == (42069.99265215086, 10034.424386493989)
    assert hashlib.sha256(z_new.tobytes()).hexdigest() == \
        "4ab1fcd55a49883eefdf20226966e48d43a8511f82ca68aff2bd7a641ee7e18a"


def test_adjoint_rows_equal_rows_alone():
    # several functions of one trajectory (the flat pairs' standard
    # deviations) in one sweep, and every candidate of a batch in one sweep
    problem = flat_pairs_problem()
    Z = pinned_batch(problem)[:3]
    _, _, est, _, traj = sysid._objective_batch(Z, problem)
    grad_est = np.random.default_rng(5).normal(size=(3, 4) + est.shape[1:])
    together = sysid._adjoint(Z, problem, traj, grad_est)
    assert together.shape == (3, 4, problem.dim)
    for q, r in np.ndindex(3, 4):
        alone = sysid._adjoint(Z[q : q + 1], problem, traj[:, q : q + 1],
                               grad_est[q : q + 1, r : r + 1])
        assert together[q, r].tobytes() == alone[0, 0].tobytes()


def test_a_warm_round_allocates_little():
    import tracemalloc

    problem = two_channel_problem(60)
    Z = pinned_batch(problem)[:2]
    work = sysid._AdjointWork(problem, 2)
    want = sysid._values_and_grads(Z, problem, work)  # warm: pages and caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = sysid._values_and_grads(Z, problem, work)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    assert peak <= 1.5e6  # the adjoint's P alone is 2.3 MB at P = 2


def test_fit_calls_in_two_threads_equal_their_sequential_results():
    problem = two_channel_problem(0)
    runs = [dict(n_starts=2, seed=0, maxiter=4), dict(n_starts=3, seed=1, maxiter=3)]
    want = [fit(problem, **kw) for kw in runs]
    got = [None, None]

    def run(i):
        got[i] = fit(problem, **runs[i])

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(2)]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two windows' rounds often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads), "fit deadlocked"
    for a, b in zip(got, want):
        assert a.z.tobytes() == b.z.tobytes()
        assert (a.f, a.starts, a.best_start) == (b.f, b.starts, b.best_start)


def test_fit_keeps_no_adjoint_buffers(monkeypatch):
    import gc
    import weakref

    problem = scalar_problem()
    problem.attach_data(predict(np.array([0.5, 2.0, 1.0, 0.3, 0.2]), problem))
    made = []

    class Tracked(sysid._AdjointWork):
        def __init__(self, *args):
            super().__init__(*args)
            made.append([weakref.ref(self)] + [weakref.ref(a) for a in vars(self).values()])

    monkeypatch.setattr(sysid, "_AdjointWork", Tracked)
    fit(problem, n_starts=10, seed=3, maxiter=10, target_r2=0.99)  # torn down early
    fit(problem, n_starts=9, seed=4, maxiter=2)
    assert len(made) == 3  # one set per window: one window, then two
    gc.collect()
    assert not [ref for refs in made for ref in refs if ref() is not None]


def test_values_and_grads_diverged_row_leaves_its_neighbours_alone():
    problem = SysIdProblem(
        (1,), [WeightEntry("W11", 0, 0, "free", 3.0)], [],
        ("base",), (0,), t0=0.0, tf=5.0, T=0.1,
        data={"base": np.linspace(0.0, 1.0, 51)[:, None]},
    )
    Z = np.array([[0.2, 1.0, 0.5, 0.1], [3.0, 0.3, 2.0, 1.0], [-0.5, 2.0, 1.0, 0.8]])
    F, G = assert_rows_match_batches_of_one(problem, Z)
    assert F[1] == sysid._PENALTY and F[0] != sysid._PENALTY != F[2]
    np.testing.assert_array_equal(G[1], np.zeros(4))
    assert np.any(G[0] != 0.0) and np.any(G[2] != 0.0)


def test_values_and_grads_scalar_problem():
    problem = scalar_problem()
    problem.attach_data(noisy_data(problem, np.array([0.5, 2.0, 1.0, 0.3, 0.2]), 62))
    assert_rows_match_batches_of_one(problem, interior_points(problem, 63, 5))


def assert_fit_matches_sequential_starts(problem, switch_interval=None, **kwargs):
    """fit against helpers.sequential_fit; with switch_interval, fit runs
    with the interpreter switching threads that often (seconds)."""
    saved = sys.getswitchinterval()
    sys.setswitchinterval(switch_interval or saved)
    try:
        report = fit(problem, **kwargs)
    finally:
        sys.setswitchinterval(saved)
    z, f, starts, best_start, n_starts = sequential_fit(problem, **kwargs)
    assert report.z.tobytes() == z.tobytes()
    assert report.f == f and report.starts == starts
    assert (report.best_start, report.n_starts) == (best_start, n_starts)
    return report


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_matches_sequential_starts_two_channel(seed):
    # the benchmark's budget: two starts of four iterations each
    problem = two_channel_problem(seed)
    assert_fit_matches_sequential_starts(problem, n_starts=2, seed=seed, maxiter=4)


def test_fit_matches_sequential_starts_across_windows_and_early_stop():
    problem = scalar_problem()
    problem.attach_data(predict(np.array([0.5, 2.0, 1.0, 0.3, 0.2]), problem))
    # more starts than one window, every one of them run, with more
    # threads than cores and frequent thread switches
    report = assert_fit_matches_sequential_starts(problem, switch_interval=1e-5,
                                                  n_starts=9, seed=4, maxiter=8)
    assert report.n_starts == 9 > sysid._LOCKSTEP
    # target_r2 stops at the first start that reaches it, here start 0:
    # starts 1-7 of its window are torn down and dropped
    report = assert_fit_matches_sequential_starts(problem, n_starts=12, seed=4,
                                                  maxiter=40, target_r2=0.99)
    assert report.n_starts == 1
    # here start 5 reaches it, in the window of starts 0-7: starts 6 and 7
    # are torn down and dropped
    report = assert_fit_matches_sequential_starts(problem, n_starts=12, seed=3,
                                                  maxiter=10, target_r2=0.99)
    assert (report.best_start, report.n_starts) == (5, 6)


def test_fit_windows_hold_eight_starts_under_an_early_stop(monkeypatch):
    problem = scalar_problem()
    problem.attach_data(predict(np.array([0.5, 2.0, 1.0, 0.3, 0.2]), problem))
    minimize_window = sysid._minimize_window
    sizes = []

    def recording(Z0, *args):
        sizes.append(len(Z0))
        return minimize_window(Z0, *args)

    monkeypatch.setattr(sysid, "_minimize_window", recording)
    fit(problem, n_starts=17, seed=4, maxiter=1)
    assert sizes == [8, 8, 1]
    sizes.clear()
    fit(problem, n_starts=17, seed=4, maxiter=1, target_r2=2.0)  # never reached
    assert sizes == [8, 8, 1]


def test_fit_matches_sequential_starts_constant_data():
    problem = SysIdProblem(
        (2,), [], [], ("flat",), (0, 1), t0=0.0, tf=3.0, T=0.1,
        c_bounds=(0.0, 5.0),
        data={"flat": np.tile([1.2, 0.7], (31, 1))},
    )
    assert_fit_matches_sequential_starts(problem, n_starts=10, seed=0, maxiter=40)


def test_fit_terms_equal_objective_and_the_r2_of_predict():
    problem = two_channel_problem(60)
    Z = 0.8 * true_two_channel_parameters() + 0.2 * interior_points(problem, 4, 3)
    for z in [*Z, true_two_channel_parameters()]:
        rates = {c: np.ascontiguousarray(v) for c, v in predict(z, problem).items()}
        want = (*objective(z, problem), r_squared(problem.data, rates))
        assert sysid._fit_terms(z, problem) == want  # exact float equality


def test_fit_reports_without_extra_objective_or_predict_passes(monkeypatch):
    problem = scalar_problem()
    problem.attach_data(predict(np.array([0.5, 2.0, 1.0, 0.3, 0.2]), problem))
    runs = [dict(n_starts=3, seed=1, maxiter=8), dict(n_starts=12, seed=3, maxiter=10,
                                                      target_r2=0.99)]
    want = [fit(problem, **kw) for kw in runs]

    def forbidden(*args, **kwargs):
        raise AssertionError("fit ran a second forward pass for its report")

    monkeypatch.setattr(sysid, "objective", forbidden)
    monkeypatch.setattr(sysid, "predict", forbidden)
    for kw, report in zip(runs, want):
        got = fit(problem, **kw)
        assert (got.f, got.f_sse, got.f_corr, got.f_var, got.r2, got.starts) == \
            (report.f, report.f_sse, report.f_corr, report.f_var, report.r2, report.starts)


def fit_in_a_thread(problem, **kwargs):
    """Run fit in a helper thread joined with a timeout, so that a deadlock
    fails the test instead of hanging the suite; returns what fit raised."""
    caught = []

    def call_fit():
        try:
            fit(problem, **kwargs)
        except Exception as e:
            caught.append(e)

    helper = threading.Thread(target=call_fit, daemon=True)
    helper.start()
    helper.join(timeout=60.0)
    assert not helper.is_alive(), "fit deadlocked"
    return caught


def test_fit_failing_evaluation_neither_hangs_nor_leaks_threads(monkeypatch):
    problem = scalar_problem()
    problem.attach_data(predict(np.array([0.5, 2.0, 1.0, 0.3, 0.2]), problem))
    evaluate = sysid._values_and_grads
    calls = []

    def failing(Z, problem, work):
        calls.append(len(Z))
        if len(calls) == 3:
            raise RuntimeError("evaluation failed")
        return evaluate(Z, problem, work)

    monkeypatch.setattr(sysid, "_values_and_grads", failing)
    before = threading.active_count()
    caught = fit_in_a_thread(problem, n_starts=5, seed=0, maxiter=50)
    assert [str(e) for e in caught] == ["evaluation failed"]
    assert calls == [5, 5, 5]  # every start waits on one batched evaluation
    assert threading.active_count() == before


def test_fit_reraises_a_failing_start(monkeypatch):
    import scipy.optimize

    problem = scalar_problem()
    problem.attach_data(predict(np.array([0.5, 2.0, 1.0, 0.3, 0.2]), problem))
    minimize = scipy.optimize.minimize

    def start_1_fails(fun, x0, args, **kwargs):
        if args == (1,):  # the start index the window passes its objective
            fun(x0, *args)
            raise FloatingPointError("start 1 failed")
        return minimize(fun, x0, args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", start_1_fails)
    before = threading.active_count()
    caught = fit_in_a_thread(problem, n_starts=3, seed=0, maxiter=5)
    assert [str(e) for e in caught] == ["start 1 failed"]
    assert threading.active_count() == before


def test_fit_early_stop_joins_the_torn_down_window():
    problem = scalar_problem()
    problem.attach_data(predict(np.array([0.5, 2.0, 1.0, 0.3, 0.2]), problem))
    before = threading.active_count()
    report = fit(problem, n_starts=12, seed=3, maxiter=10, target_r2=0.99)
    assert (report.best_start, report.n_starts) == (5, 6)  # start 6 was torn down
    assert threading.active_count() == before


def test_closing_a_window_after_its_first_result_joins_every_thread(monkeypatch):
    import scipy.optimize

    problem = scalar_problem()
    problem.attach_data(predict(np.array([0.5, 2.0, 1.0, 0.3, 0.2]), problem))
    minimize = scipy.optimize.minimize

    def start_0_returns_at_once(fun, x0, args, **kwargs):
        if args == (0,):
            f, _ = fun(x0, *args)
            return scipy.optimize.OptimizeResult(x=x0, fun=f, success=True)
        return minimize(fun, x0, args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", start_0_returns_at_once)
    lo, hi = problem.bounds()
    Z0 = list(np.random.default_rng(5).uniform(lo, hi, size=(4, len(lo))))
    before = threading.active_count()
    seen = []

    def first_result_then_close():
        window = sysid._minimize_window(Z0, problem, lo, hi, 50)
        seen.append(next(window))
        seen.append(threading.active_count())
        window.close()

    helper = threading.Thread(target=first_result_then_close, daemon=True)
    helper.start()
    helper.join(timeout=60.0)
    assert not helper.is_alive(), "closing the window deadlocked"
    first, alive = seen
    assert first.x is Z0[0]
    assert alive >= before + 4  # the helper and starts 1-3, waiting on their replies
    assert threading.active_count() == before
