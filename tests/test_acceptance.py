"""End-to-end acceptance checks at pinned tolerances.

Ten numbered checks covering the full pipeline: bilayer reproduction,
published-value certification, equilibrium and composition oracles,
contraction envelopes, Lipschitz bounds, control synthesis, structured
identification round trip, timescale recovery and permutation-test
statistics.  Each check appends one summary line to the terminal report
before asserting, so the pass/fail ledger is printed even on failure.
"""

import time

import numpy as np

from conftest import ACCEPTANCE_LINES
from helpers import (
    fixed_point,
    joint_fixed_point,
    random_contractive,
    recruitment_hierarchy,
)
from ltnet import Hierarchy, LTNetwork, sysid
from ltnet.control import ControlLaw, feedback_gain_bilayer, multilayer_controls
from ltnet.equilibria import (
    compose_maps,
    equilibrium_map,
    lipschitz_constant,
    max_gain_matrix,
)
from ltnet.hierarchy import epsilon_sweep, simulate_hierarchy
from ltnet.stability import empirical_decay_check, ges_certificate


def record(num, label, ok):
    ACCEPTANCE_LINES.append(f"[{'PASS' if ok else 'FAIL'}] {num:2d}. {label}")
    return ok


_CORPUS = None


def oracle_corpus():
    """200 seeded contractive networks with their equilibrium maps."""
    global _CORPUS
    if _CORPUS is None:
        rng = np.random.default_rng(2718)
        nets = []
        for _ in range(200):
            W, m = random_contractive(rng)
            nets.append((W, m, equilibrium_map(W, m)))
        _CORPUS = nets
    return _CORPUS


def input_radius(m):
    return 2.0 * (1.0 + np.max(m[np.isfinite(m)], initial=1.0))


def bilayer_oscillator():
    W1 = np.array([[0.0, -0.8, -1.7], [-1.0, 0.0, -0.5], [-0.7, -1.8, 0.0]])
    W2 = np.array([[0.0, 0.9, 1.2], [0.7, 0.0, 1.0], [0.8, 0.2, 0.0]])
    osc = LTNetwork(W1, np.array([11.0, 10.0, 10.0]), np.full(3, np.inf), tau=3.3)
    exc = LTNetwork(W2, np.array([2.0, 3.5, 2.5]), np.full(3, np.inf), tau=1.65,
                    B=np.array([[-1.0], [0.0], [0.0]]), r=1)
    return Hierarchy((osc, exc), (np.zeros((3, 3)),), (-np.eye(3),))


def test_01_bilayer_inhibition_and_tracking():
    # oscillating inhibitory layer recruits an excitatory pair below it;
    # constant drive u = 5 silences the third node across the sweep
    t_start = time.perf_counter()
    h = bilayer_oscillator()
    laws = [ControlLaw(1, None, None, "feedback-only"),
            ControlLaw(2, None, np.array([5.0]), "feedforward-only")]
    x0 = [np.array([2.0, 6.0, 3.0]), np.array([0.02, 0.1, 0.1])]
    report = epsilon_sweep(h, laws, [0.5, 0.1, 0.05, 0.02], x0=x0,
                           window=(6.6, 33.0), dt_factor=100.0)
    elapsed = time.perf_counter() - t_start
    errs = report.errors[2]
    inhibited = report.inhibited[2][0]
    ratio = errs[2] / errs[0]
    strict = errs[0] > errs[1] > errs[3]
    ok = inhibited < 1e-3 and ratio <= 0.3 and strict and elapsed < 10.0
    record(1, "bilayer oscillator: inhibition and epsilon tracking", ok)
    assert inhibited < 1e-3
    assert ratio <= 0.3
    assert strict
    assert elapsed < 10.0


def test_02_published_certificates():
    Fbar3 = np.array([[1.0 / 0.99]])
    bottom = ges_certificate(np.array([[0.01]]))
    lc = ges_certificate(np.array([[0.83, 0.0], [0.76, 0.0]]),
                         np.array([[0.04], [0.58]]), np.array([[0.01, 0.0]]),
                         Fbar3)
    pd = ges_certificate(np.array([[0.12, 0.0], [0.56, 0.0]]),
                         np.array([[0.39], [0.02]]), np.array([[0.0047, 0.0]]),
                         Fbar3)
    ok = (
        abs(lc.rho - 0.83) <= 0.005
        and abs(pd.rho - 0.12) <= 0.005
        and abs(bottom.rho - 0.01) <= 0.005
        and lc.passed and pd.passed and bottom.passed
    )
    record(2, "case-study spectral radii 0.83 / 0.12 / 0.01 within 5e-3", ok)
    assert abs(lc.rho - 0.83) <= 0.005
    assert abs(pd.rho - 0.12) <= 0.005
    assert abs(bottom.rho - 0.01) <= 0.005
    assert lc.passed and pd.passed and bottom.passed


def test_03_equilibrium_oracle_agreement():
    t_start = time.perf_counter()
    corpus = oracle_corpus()
    rng = np.random.default_rng(101)
    worst = 0.0
    for W, m, pa_map in corpus:
        D = rng.uniform(-1.0, 1.0, size=(100, W.shape[0])) * input_radius(m)
        vals = pa_map.eval_many(D)
        for d, v in zip(D, vals):
            x_star = fixed_point(W, m, d, tol=1e-11)
            worst = max(worst, float(np.max(np.abs(v - x_star))))
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-8 and elapsed < 60.0
    record(3, f"200-network equilibrium oracle, worst gap {worst:.2e}", ok)
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_04_composition_oracle_agreement():
    rng = np.random.default_rng(1234)
    built = 0
    worst = 0.0
    while built < 50:
        Win, m_in = random_contractive(rng, n_max=4)
        W1, m_out = random_contractive(rng, n_max=4, rho_hi=0.7)
        n_in, n_out = Win.shape[0], W1.shape[0]
        W2 = rng.uniform(-0.5, 0.5, size=(n_out, n_in)) / n_in
        W3 = rng.uniform(-0.5, 0.5, size=(n_in, n_out)) / n_out
        cbar = rng.uniform(-1.0, 2.0, size=n_in)
        inner = equilibrium_map(Win, m_in)
        cert = ges_certificate(W1, W2, W3, max_gain_matrix(inner))
        if not cert.passed:
            continue
        composite = compose_maps(inner, W1, W2, W3, cbar, m_out, cert)
        D = rng.uniform(-1.0, 1.0, size=(20, n_out)) * input_radius(m_out)
        vals = composite.eval_many(D)
        for d, v in zip(D, vals):
            x, _ = joint_fixed_point(W1, W2, W3, cbar, m_out, Win, m_in, d)
            worst = max(worst, float(np.max(np.abs(v - x))))
        built += 1

    lc = ges_certificate(np.array([[0.83, 0.0], [0.76, 0.0]]),
                         np.array([[0.04], [0.58]]), np.array([[0.01, 0.0]]),
                         np.array([[1.0 / 0.99]]))
    gain_ok = np.array_equal(np.round(lc.test_matrix, 2),
                             [[0.83, 0.0], [0.77, 0.0]])
    ok = worst <= 1e-8 and gain_ok
    record(4, f"50 composed maps vs joint oracle, worst gap {worst:.2e}", ok)
    assert worst <= 1e-8
    assert gain_ok


def test_05_contraction_envelopes():
    rng = np.random.default_rng(505)
    worst_margin = 0.0
    all_passed = True
    for k, (W, m, _) in enumerate(oracle_corpus()):
        net = LTNetwork(W, rng.uniform(-1.0, 2.0, size=W.shape[0]), m, tau=1.0)
        cert = ges_certificate(net.W, tau=net.tau)
        assert cert.passed
        report = empirical_decay_check(net, cert, trials=2, horizon=5.0,
                                       dt=net.tau / 100.0, seed=k)
        worst_margin = max(worst_margin, report.worst_margin)
        all_passed = all_passed and report.passed
    ok = all_passed and worst_margin <= 1.0 + 1e-6
    record(5, f"decay envelopes on all 200, worst margin {worst_margin:.9f}", ok)
    assert all_passed
    assert worst_margin <= 1.0 + 1e-6


def test_06_lipschitz_bounds():
    rng = np.random.default_rng(606)
    violations = 0
    for W, m, pa_map in oracle_corpus():
        L = lipschitz_constant(pa_map)
        radius = input_radius(m)
        A = rng.uniform(-radius, radius, size=(1000, W.shape[0]))
        B = rng.uniform(-radius, radius, size=(1000, W.shape[0]))
        gap = np.linalg.norm(pa_map.eval_many(A) - pa_map.eval_many(B), axis=1)
        dist = np.linalg.norm(A - B, axis=1)
        violations += int(np.sum(gap > L * dist * (1 + 1e-9) + 1e-12))
    ok = violations == 0
    record(6, "Lipschitz constants, 1000 input pairs per map, 0 violations", ok)
    assert violations == 0


def test_07_control_synthesis():
    # exact row cancellation whenever the channels can match the rows
    rng = np.random.default_rng(1113)
    worst_row = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n))
        p = r + int(rng.integers(0, 3))
        B = rng.normal(size=(n, p))
        net = LTNetwork(rng.normal(size=(n, n)), np.zeros(n),
                        np.full(n, np.inf), B=B, r=r)
        K = feedback_gain_bilayer(net)
        closed = net.W + B @ K
        worst_row = max(worst_row, float(np.max(np.abs(closed[:r]))))

    # synthesized controls silence the inhibited partitions of the
    # three-layer recruitment hierarchy within ten time constants
    h = recruitment_hierarchy()
    laws = multilayer_controls(h)
    x0 = [np.array([1.0, 1.5]), np.array([2.0, 1.0, 0.8]),
          np.array([2.0, 0.5, 0.6])]
    trajs = simulate_hierarchy(h, laws, x0, (0.0, 4.0), h.layers[2].tau / 50.0)
    residuals = {}
    for i in (2, 3):
        net = h.layers[i - 1]
        traj = trajs[i - 1]
        mask = traj.times >= 10.0 * net.tau
        late = np.linalg.norm(traj.samples[mask][:, : net.r], axis=1)
        initial = np.linalg.norm(x0[i - 1][: net.r])
        residuals[i] = float(late.max()) / initial
    ok = worst_row < 1e-10 and all(v < 1e-3 for v in residuals.values())
    record(7, f"feedback zeroing {worst_row:.1e}; closed-loop inhibition "
              f"{max(residuals.values()):.1e} of initial", ok)
    assert worst_row < 1e-10
    for i in (2, 3):
        assert residuals[i] < 1e-3


def true_two_channel_parameters():
    # ground truth obeying every sign and bound of the reference structure
    weights = [-0.4, -0.4, 0.5, 0.5, -0.6, -0.6,
               0.5, 0.5, 0.4, 0.4, -0.3, -0.3,
               0.25, 0.25, 0.35, 0.35,
               0.45, 0.45, -0.5, -0.5,
               0.3, 0.3,
               4.0, 4.0, 2.0, 2.0, 0.25, 0.25, 3.0, 3.0]
    return np.concatenate([weights, [3.36, 1.68, 0.70],
                           np.full(8, 0.2), np.full(16, 0.1)])


def test_08_sysid_round_trip():
    t_start = time.perf_counter()
    layer_sizes, structure, inputs, manifest = sysid.two_channel_hierarchy_structure()
    # trials start near rest, so the initial-state box is pinned a priori
    # instead of the data-driven default (2x the peak rate)
    problem = sysid.SysIdProblem(layer_sizes, structure, inputs, ("A", "B"),
                                 manifest, x0_max=2.0)
    z_true = true_two_channel_parameters()
    problem.attach_data(sysid.predict(z_true, problem))
    report = sysid.fit(problem, n_starts=32, seed=0, maxiter=300, target_r2=0.95)
    elapsed = time.perf_counter() - t_start
    ok = report.r2 >= 0.95 and elapsed < 600.0
    record(8, f"two-channel identification R^2 = {report.r2:.4f} "
              f"in {report.n_starts} starts, {elapsed:.1f} s", ok)
    assert report.r2 >= 0.95
    assert elapsed < 600.0


def ar1_trials(rng, tau_bins, n_trials=500, n_bins=40):
    phi = np.exp(-1.0 / tau_bins)
    noise = rng.normal(size=(n_trials, n_bins))
    X = np.empty((n_trials, n_bins))
    X[:, 0] = noise[:, 0]
    for t in range(1, n_bins):
        X[:, t] = phi * X[:, t - 1] + np.sqrt(1 - phi**2) * noise[:, t]
    return X


def test_09_timescale_recovery():
    lags = np.arange(30)
    rho_bar = 0.8 * np.exp(-lags / 5.0)
    A, tau = sysid.fit_exponential_decay(rho_bar, range(1, 11))
    exact = abs(A - 0.8) / 0.8 < 1e-6 and abs(tau - 5.0) / 5.0 < 1e-6

    # lags are restricted to where the averaged correlation resolves
    # above the 1/sqrt(n_trials) noise floor
    rng = np.random.default_rng(5)
    A, tau = sysid.autocorr_timescale(ar1_trials(rng, 3.0), 0.2, range(1, 7))
    rel = abs(tau - 0.6) / 0.6

    rng = np.random.default_rng(99)
    _, tau_fast = sysid.autocorr_timescale(ar1_trials(rng, 1.0), 1.0, range(1, 6))
    _, tau_slow = sysid.autocorr_timescale(ar1_trials(rng, 3.0), 1.0, range(1, 6))
    ordered = tau_fast < tau_slow
    ok = exact and rel < 0.1 and ordered
    record(9, f"timescales: exact decay, AR(1) within {rel:.3f}, "
              f"{tau_fast:.2f} < {tau_slow:.2f}", ok)
    assert exact
    assert rel < 0.1
    assert ordered


def test_10_permutation_statistics():
    a = np.arange(20, dtype=float)
    p_same = sysid.randomization_test(a, a.copy(), n_perm=499, seed=0)

    rng = np.random.default_rng(7)
    p_sep = sysid.randomization_test(rng.standard_normal(25),
                                     rng.standard_normal(25) + 3.0,
                                     n_perm=1999, seed=1)

    rng = np.random.default_rng(2025)
    ps = np.sort([
        sysid.randomization_test(rng.standard_normal(12),
                                 rng.standard_normal(12),
                                 n_perm=199, seed=int(rng.integers(2**31)))
        for _ in range(1000)
    ])
    grid = np.arange(1, 1001) / 1000.0
    ks = max(float(np.max(np.abs(ps - grid))),
             float(np.max(np.abs(ps - grid + 1e-3))))
    ok = p_same == 1.0 and p_sep < 0.01 and ks < 0.05
    record(10, f"permutation test: p=1 identical, p={p_sep:.4f} at 3 sigma, "
               f"null KS {ks:.3f}", ok)
    assert p_same == 1.0
    assert p_sep < 0.01
    assert ks < 0.05
