"""Spectral certificates: Perron pairs, layer tests, hierarchy walks."""

import hashlib
import json

import numpy as np
import pytest

from ltnet import (
    Hierarchy,
    LTNetwork,
    NotCertified,
    certify_hierarchy,
    empirical_decay_check,
    ges_certificate,
    spectral_radius,
    weighted_norm,
)

from helpers import lc_hierarchy, recruitment_hierarchy, rho_oracle


def test_spectral_radius_against_eigensolver():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        M = rng.uniform(0.0, 1.0, size=(n, n))
        if rng.random() < 0.3:
            M[rng.random(size=(n, n)) < 0.5] = 0.0  # sparse, often reducible
        rho, _ = spectral_radius(M)
        ref = rho_oracle(M)
        assert abs(rho - ref) <= 1e-8 * max(1.0, ref)


def test_spectral_radius_imprimitive_cycle():
    # plain power iteration would oscillate here; the +I shift must not
    P = np.zeros((4, 4))
    P[0, 1] = P[1, 2] = P[2, 3] = P[3, 0] = 1.0
    rho, alpha = spectral_radius(P)
    assert abs(rho - 1.0) < 1e-8
    np.testing.assert_allclose(alpha, 0.25, atol=1e-8)


def test_spectral_radius_left_vector():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        M = rng.uniform(0.1, 1.0, size=(n, n))  # strictly positive: irreducible
        rho, alpha = spectral_radius(M)
        np.testing.assert_allclose(alpha @ M, rho * alpha, atol=1e-7 * rho)


def jordan_type(lam, n, s, perm=None):
    """lam I + s N (N the upper shift), optionally permuted: defective."""
    J = lam * np.eye(n) + s * np.eye(n, k=1)
    if perm is not None:
        P = np.eye(n)[perm]
        J = P @ J @ P.T
    return J


@pytest.mark.parametrize("lam, n, s, perm", [
    (0.9, 2, 1.0, None),
    (0.5, 3, 1.0, None),
    (0.99, 4, 0.3, None),
    (0.0, 3, 1.0, None),
    (0.7, 5, 2.0, [3, 0, 4, 1, 2]),
    (0.9, 2, 1.0, [1, 0]),
])
def test_spectral_radius_jordan_blocks(lam, n, s, perm):
    # defective matrices, on which an iterative estimate converges like 1/k
    M = jordan_type(lam, n, s, perm)
    rho, alpha = spectral_radius(M)
    assert abs(rho - rho_oracle(M)) <= 1e-8
    assert np.all(alpha >= 0) and abs(alpha.sum() - 1.0) < 1e-12


def test_passing_certificates_have_sound_bounds():
    # every passing certificate carries alpha > 0 whose Collatz-Wielandt
    # bound on the (regularized) test matrix is the certified factor
    rng = np.random.default_rng(97)
    passed = dict.fromkeys(("dense", "triangular", "sparse", "jordan"), 0)
    for k in range(240):
        kind = tuple(passed)[k % 4]
        n = int(rng.integers(1, 8))
        if kind == "jordan":
            M = jordan_type(rng.uniform(0.0, 1.0), n, rng.uniform(0.0, 2.0),
                            rng.permutation(n))
        else:
            M = rng.uniform(0.0, 1.0, size=(n, n))
            if kind == "triangular":
                M = np.triu(M)
            elif kind == "sparse":
                M[rng.random(size=(n, n)) < 0.6] = 0.0
            rho = rho_oracle(M)
            if rho > 0:
                M *= rng.uniform(0.3, 1.2) / rho
        tau = rng.uniform(0.5, 3.0)
        cert = ges_certificate(M, tau=tau)
        if not cert.passed:
            continue
        passed[kind] += 1
        test = cert.test_matrix + cert.mu * np.ones((n, n))
        assert np.all(cert.alpha > 0)
        bound = np.max(test.T @ cert.alpha / cert.alpha)
        assert bound <= 1.0 - cert.rate * tau + 1e-15
        assert 1.0 - cert.rate * tau < 1.0 - 1e-9
        # the oracle itself drifts by ~1e-11 on near-defective matrices
        assert rho_oracle(test) <= bound + 1e-9
    assert min(passed.values()) >= 20, passed


def test_spectral_radius_validation():
    with pytest.raises(ValueError, match="square"):
        spectral_radius(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        spectral_radius(np.array([[-0.1]]))


def test_certificate_isolated_layers():
    cert = ges_certificate(np.zeros((3, 3)), tau=2.0)
    # reducible matrix: reported rho carries the tiny mu regularization
    assert cert.passed and cert.rho <= 3e-6 and abs(cert.rate - 0.5) < 1e-5

    cert = ges_certificate(np.diag([1.5, 0.2]))
    assert not cert.passed and cert.rho > 1.4

    # rho exactly one must not pass
    assert not ges_certificate(np.array([[1.0]])).passed


def test_certificate_composite_values():
    Fbar = np.array([[1.0 / 0.99]])
    lc = ges_certificate(np.array([[0.83, 0.0], [0.76, 0.0]]),
                         np.array([[0.04], [0.58]]), np.array([[0.01, 0.0]]), Fbar)
    assert lc.passed
    assert abs(lc.rho - 0.83) <= 0.005
    np.testing.assert_array_equal(np.round(lc.test_matrix, 2),
                                  [[0.83, 0.0], [0.77, 0.0]])

    pd = ges_certificate(np.array([[0.12, 0.0], [0.56, 0.0]]),
                         np.array([[0.39], [0.02]]), np.array([[0.0047, 0.0]]), Fbar)
    assert pd.passed
    assert abs(pd.rho - 0.12) <= 0.005


def test_certificate_alpha_properties():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        M = rng.uniform(0.0, 0.8 / n, size=(n, n))
        if rng.random() < 0.5:
            M = np.triu(M)  # force reducibility
        cert = ges_certificate(M)
        assert abs(cert.alpha.sum() - 1.0) < 1e-12
        assert np.all(cert.alpha > 0.0)
        test = cert.test_matrix + cert.mu * np.ones((n, n))
        np.testing.assert_allclose(cert.alpha @ test, cert.rho * cert.alpha,
                                   atol=1e-7)
        np.testing.assert_array_equal(cert.test_matrix, np.abs(M))


def test_certificate_monotone_in_scaling():
    rng = np.random.default_rng(59)
    for _ in range(20):
        W = rng.normal(size=(4, 4))
        s = rng.uniform(0.1, 0.9)
        full = ges_certificate(W)
        scaled = ges_certificate(s * W)
        assert scaled.rho <= full.rho + 1e-8


def test_certificate_validation():
    with pytest.raises(ValueError, match="together"):
        ges_certificate(np.zeros((2, 2)), W2=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="nonnegative"):
        ges_certificate(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)),
                        np.array([[-1.0]]))
    with pytest.raises(ValueError, match="tau"):
        ges_certificate(np.zeros((1, 1)), tau=0.0)
    assert set(ges_certificate(np.zeros((1, 1))).to_dict()) == {
        "rho", "alpha", "mu", "rate", "pass"
    }


def test_weighted_norm():
    assert weighted_norm(np.array([1.0, 1.0]), np.array([1.0, -2.0])) == 3.0
    assert weighted_norm(np.array([0.3, 0.7]), np.zeros(2)) == 0.0
    rng = np.random.default_rng(71)
    for _ in range(30):
        alpha = rng.uniform(0.1, 1.0, size=3)
        u, v = rng.normal(size=3), rng.normal(size=3)
        assert weighted_norm(alpha, u + v) <= (
            weighted_norm(alpha, u) + weighted_norm(alpha, v) + 1e-12
        )
    with pytest.raises(ValueError, match="positive"):
        weighted_norm(np.array([0.0, 1.0]), np.ones(2))


def test_certify_hierarchy_chain():
    cert = certify_hierarchy(lc_hierarchy())
    assert cert.all_passed
    assert sorted(cert.maps) == [2, 3]
    assert abs(cert.certificates[1].rho - 0.01) <= 0.005
    assert abs(cert.certificates[0].rho - 0.83) <= 0.005
    assert cert.layer1_bounded and cert.layer1_certificate is None


def test_certify_hierarchy_stops_at_failure():
    cert = certify_hierarchy(lc_hierarchy(w_bottom=1.5))
    assert not cert.certificates[1].passed
    assert not cert.certificates[0].passed
    assert cert.maps == {}
    assert not cert.all_passed


def test_certify_hierarchy_inhibitory_top():
    W1 = np.array([[0.0, -0.8, -1.7], [-1.0, 0.0, -0.5], [-0.7, -1.8, 0.0]])
    W2 = np.array([[0.0, 0.9, 1.2], [0.7, 0.0, 1.0], [0.8, 0.2, 0.0]])
    layers = (
        LTNetwork(W1, np.array([11.0, 10.0, 10.0]), np.full(3, np.inf), tau=3.3),
        LTNetwork(W2, np.array([2.0, 3.5, 2.5]), np.full(3, np.inf), tau=1.65,
                  B=np.array([[-1.0], [0.0], [0.0]]), r=1),
    )
    h = Hierarchy(layers, (np.zeros((3, 3)),), (-np.eye(3),))
    cert = certify_hierarchy(h)
    # recruited block of the lower layer: rho = sqrt(0.2)
    assert abs(cert.certificates[0].rho - np.sqrt(0.2)) < 1e-6
    assert cert.layer1_bounded  # ceilings are infinite but the layer only inhibits
    assert cert.all_passed


def test_empirical_decay_scalar():
    net = LTNetwork(np.array([[0.5]]), np.array([1.0]), np.array([np.inf]))
    cert = ges_certificate(net.W, tau=net.tau)
    report = empirical_decay_check(net, cert, trials=5, horizon=5.0)
    assert report.passed and report.n_trials == 5
    assert report.worst_margin <= 1.0 + 1e-6


def test_empirical_decay_skips_a_start_at_the_equilibrium():
    # every start lies in [0, 1e-14], within 1e-12 of x* = 0, so no trial
    # is scored and the worst margin stays 0 (a scored one starts at 1)
    net = LTNetwork(np.zeros((1, 1)), np.zeros(1), np.array([1e-14]))
    cert = ges_certificate(net.W, tau=net.tau)
    report = empirical_decay_check(net, cert, trials=3, horizon=1.0)
    assert report.passed and report.n_trials == 3 and report.worst_margin == 0.0


def test_empirical_decay_recruited_pair():
    net = LTNetwork(np.array([[0.0, 1.0], [0.2, 0.0]]), np.array([3.5, 2.5]),
                    np.full(2, np.inf), tau=1.65)
    cert = ges_certificate(net.W, tau=net.tau)
    assert empirical_decay_check(net, cert, trials=5, horizon=6.0).passed


def test_empirical_decay_refuses_failed_certificate():
    net = LTNetwork(np.array([[1.5]]), np.array([1.0]), np.array([1.0]))
    cert = ges_certificate(net.W)
    with pytest.raises(NotCertified):
        empirical_decay_check(net, cert)


def _unbounded_top(h, w, down):
    """h under an unbounded top layer: every weight of its W set to w, its
    ceilings lifted, and every entry of W_down[0] set to down."""
    top = h.layers[0]
    top = LTNetwork(np.full_like(top.W, w), top.c, np.full(top.n, np.inf), tau=top.tau)
    W_down = (np.full_like(h.W_down[0], down),) + h.W_down[1:]
    return Hierarchy((top,) + h.layers[1:], W_down, h.W_up)


def _scalar_chain(weights, couplings):
    """A chain of unbounded scalar layers with self-weights weights and
    equal down/up couplings between neighbours."""
    layers = tuple(LTNetwork(np.array([[w]]), np.array([1.0]), np.array([np.inf]),
                             tau=4.0 / 2**k) for k, w in enumerate(weights))
    blocks = tuple(np.array([[v]]) for v in couplings)
    return Hierarchy(layers, blocks, blocks)


def _certify_walk_cases():
    W1 = np.array([[0.0, -0.8, -1.7], [-1.0, 0.0, -0.5], [-0.7, -1.8, 0.0]])
    inhibitory = Hierarchy(
        (LTNetwork(W1, np.array([11.0, 10.0, 10.0]), np.full(3, np.inf), tau=3.3),
         LTNetwork(np.array([[0.0, 0.9, 1.2], [0.7, 0.0, 1.0], [0.8, 0.2, 0.0]]),
                   np.array([2.0, 3.5, 2.5]), np.full(3, np.inf), tau=1.65,
                   B=np.array([[-1.0], [0.0], [0.0]]), r=1)),
        (np.zeros((3, 3)),), (-np.eye(3),))
    return {
        "finite-top": recruitment_hierarchy(),
        "inhibitory-top": inhibitory,
        "composite-pass": _unbounded_top(recruitment_hierarchy(), 0.1, 0.05),
        "composite-fail": _unbounded_top(lc_hierarchy(), 0.9, 0.5),
        "no-map-2": _unbounded_top(lc_hierarchy(w_bottom=1.5), 0.3, 0.5),
        "failing-middle": _scalar_chain([0.2, 0.3, 0.5, 0.5], [0.2, 0.3, 1.0]),
    }


# each case's layer passes, top first, and the SHA-256 of its certify
# report's JSON bytes followed by every map's labels, F, f, G, g and ends
# in layer order (NumPy 2.4 with OpenBLAS, x86-64): one hierarchy per
# outcome of the layer-1 test, and one with a middle layer above a failure
_CERTIFY_WALK = {
    "composite-fail": ([False, True, True],
                       "54c66f9a467c4e060e9637fb5859c05f87376bcaff01c5d46d6f6ab920625ade"),
    "composite-pass": ([True, True, True],
                       "c780b0e5f30676b22c48b09772393cc8a3b1bb42726843fc97cdb8a7ccb69019"),
    "failing-middle": ([False, False, False, True],
                       "2a9902b3718ffb016623de9b5cfefd012e53587cd02929b50abcc2a17856af89"),
    "finite-top": ([True, True, True],
                   "6b23734da87ec5a3da6d5e799112793bfc43de4bec462c5ce6b9bb6c3209d91c"),
    "inhibitory-top": ([True, True],
                       "204e64d4224a84b3f2b4c73e2de26417368d671bc4f5438d3077c230582ab2bb"),
    "no-map-2": ([False, False, False],
                 "31570202546759183dcf3fedd17b21bec23ca51401a02ca2407aec6b3c7becb1"),
}


@pytest.mark.parametrize("case", sorted(_CERTIFY_WALK))
def test_certify_walk_outputs_are_pinned(case):
    passes, sha = _CERTIFY_WALK[case]
    cert = certify_hierarchy(_certify_walk_cases()[case])
    report = cert.to_dict()
    assert [e["pass"] for e in report["layers"]] == passes
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    for i in sorted(cert.maps):
        pa = cert.maps[i]
        digest.update(repr(pa.labels).encode())
        for a in (pa.F, pa.f, pa.G, pa.g, pa.ends):
            digest.update(a.tobytes())
    assert digest.hexdigest() == sha
