"""Global exponential stability certificates for linear-threshold layers.

A layer interconnected with a slaved lower layer through an equilibrium
map h is globally exponentially stable whenever the nonnegative test
matrix

    M = |W1| + |W2| Fbar |W3|

has spectral radius rho < 1, where Fbar is the elementwise gain bound of
h.  For any alpha > 0 the dynamics contract in ||v||_alpha = alpha^T |v|
with the Collatz-Wielandt factor b = max_i (M^T alpha)_i / alpha_i >= rho,
giving the continuous-time envelope

    ||x(t) - x*||_alpha <= ||x(0) - x*||_alpha * exp(-(1 - b) t / tau).

alpha is the left Perron vector of M (b = rho up to rounding); pass/fail
and the rate are read from b, so they are sound whatever rounding the
eigen-solver leaves.  When a weight is at or below 1e-9 (M reducible),
M is regularized by mu * 11^T, mu = min(1e-6, (1 - rho) / (4n)), and rho,
alpha and the rate refer to that upper bound of M.  At a Jordan block of
size k mu moves rho by about mu^(1/k), so a defective M near 1 can fail.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import equilibria
from .network import LTNetwork, _as_readonly, simulate
from .equilibria import NotCertified, compose_maps, equilibrium_map, max_gain_matrix

__all__ = [
    "GESCertificate",
    "HierarchyCertification",
    "DecayReport",
    "spectral_radius",
    "ges_certificate",
    "certify_hierarchy",
    "weighted_norm",
    "empirical_decay_check",
]

_RHO_MARGIN = 1e-9  # a contraction bound within this of 1 counts as failed


def spectral_radius(M):
    """Spectral radius and left Perron vector of a nonnegative matrix.

    One dense eigendecomposition of M^T: rho is the eigenvalue with the
    largest real part (the Perron root, for a nonnegative matrix), alpha
    the modulus of its eigenvector scaled to sum 1.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got {M.shape}")
    if np.any(M < 0):
        raise ValueError("test matrix must be nonnegative")
    lam, V = np.linalg.eig(M.T)
    k = int(np.argmax(lam.real))
    alpha = np.abs(V[:, k])
    return max(float(lam[k].real), 0.0), alpha / alpha.sum()


@dataclass(frozen=True, eq=False)
class GESCertificate:
    """Contraction certificate for one layer.

    test_matrix is stored unregularized; rho and alpha refer to
    M + mu 11^T, and passed and rate = (1 - b) / tau to its
    Collatz-Wielandt bound b at alpha (see the module docstring), so the
    decay envelope built from alpha and rate is always valid.
    """

    test_matrix: np.ndarray
    rho: float
    alpha: np.ndarray
    mu: float
    rate: float
    passed: bool

    def __post_init__(self):
        for name in ("test_matrix", "alpha"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))

    def to_dict(self):
        return {
            "rho": self.rho,
            "alpha": self.alpha.tolist(),
            "mu": self.mu,
            "rate": self.rate,
            "pass": self.passed,
        }


def ges_certificate(
    W1,
    W2=None,
    W3=None,
    Fbar=None,
    tau: float = 1.0,
) -> GESCertificate:
    """Certificate for the layer test matrix |W1| + |W2| Fbar |W3|.

    W2, W3 and Fbar may be omitted for an isolated layer.  Fbar must be
    elementwise nonnegative.  A failing certificate is returned, not
    raised; a contraction bound within 1e-9 of 1 counts as failed.
    """
    W1 = np.atleast_2d(np.asarray(W1, dtype=float))
    M = np.abs(W1)
    if W2 is not None or W3 is not None or Fbar is not None:
        if W2 is None or W3 is None or Fbar is None:
            raise ValueError("W2, W3 and Fbar must be supplied together")
        W2 = np.atleast_2d(np.asarray(W2, dtype=float))
        W3 = np.atleast_2d(np.asarray(W3, dtype=float))
        Fbar = np.atleast_2d(np.asarray(Fbar, dtype=float))
        if np.any(Fbar < 0):
            raise ValueError("Fbar must be elementwise nonnegative")
        M = M + np.abs(W2) @ Fbar @ np.abs(W3)
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")

    mu = 0.0
    rho, alpha = spectral_radius(M)
    if alpha.min() <= 1e-9:  # a reducible M's Perron vector can vanish
        mu = min(1e-6, (1.0 - rho) / (4 * M.shape[0])) if rho < 1.0 else 1e-6
        rho, alpha = spectral_radius(M + mu)
    # Collatz-Wielandt: >= rho(M + mu 11^T) for any alpha > 0
    bound = float(np.max((M + mu).T @ alpha / alpha))
    passed = bound < 1.0 - _RHO_MARGIN
    rate = (1.0 - bound) / tau
    return GESCertificate(
        test_matrix=M, rho=rho, alpha=alpha, mu=mu, rate=rate, passed=passed
    )


def weighted_norm(alpha, v) -> float:
    """Perron-weighted norm alpha^T |v|."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0):
        raise ValueError("alpha must be strictly positive")
    return float(alpha @ np.abs(v))


@dataclass(frozen=True, eq=False)
class HierarchyCertification:
    """Bottom-up certification of a hierarchy's task-relevant blocks.

    certificates[i] is the layer-(i+2) .. layer-N chain entry, ordered
    top to bottom starting at layer 2; maps[i] is the matching composed
    task-relevant equilibrium map (h_i^+).  layer1_bounded records the
    top-layer boundedness check: trivially true under a finite ceiling
    or a purely inhibitory layer, otherwise the same composite spectral
    condition as the layers below.
    """

    certificates: tuple
    maps: dict
    layer1_bounded: bool
    layer1_certificate: Optional[GESCertificate]

    @property
    def all_passed(self) -> bool:
        return self.layer1_bounded and all(c.passed for c in self.certificates)

    def certificate_for(self, layer: int) -> GESCertificate:
        return self.certificates[layer - 2]


def certify_hierarchy(hierarchy) -> HierarchyCertification:
    """Certify every layer of a hierarchy, composing maps bottom-up.

    Layer N is checked through rho(|W_NN^{++}|) < 1; each layer above it
    through rho(|W_ii^{++}| + |W_i,i+1^{++}| Fbar_{i+1} |W_i+1,i^{++}|) < 1
    with Fbar_{i+1} the gain bound of the composed map below.  Composition
    stops at the first failing layer (maps above it cannot be certified
    unique); the returned object still reports every computed certificate.
    """
    N = hierarchy.N
    if N < 2:
        raise ValueError("hierarchy certification needs at least two layers")
    certs: dict[int, GESCertificate] = {}
    maps: dict[int, equilibria.PiecewiseAffineMap] = {}

    bot = hierarchy.layers[-1]
    Wpp = bot.W[bot.plus, bot.plus]
    certs[N] = ges_certificate(Wpp, tau=bot.tau)
    if certs[N].passed:
        maps[N] = equilibrium_map(Wpp, bot.m[bot.plus])

    for i in range(N - 1, 1, -1):
        net = hierarchy.layers[i - 1]
        below = hierarchy.layers[i]
        Wii = net.W[net.plus, net.plus]
        Wdn = hierarchy.W_down[i - 1][net.plus, below.plus]
        Wup = hierarchy.W_up[i - 1][below.plus, net.plus]
        if i + 1 not in maps:
            # layer below failed: the composite test matrix is unavailable,
            # so this layer cannot be certified either
            certs[i] = replace(ges_certificate(Wii, tau=net.tau), passed=False)
            continue
        Fbar = max_gain_matrix(maps[i + 1])
        certs[i] = ges_certificate(Wii, Wdn, Wup, Fbar, tau=net.tau)
        if certs[i].passed:
            maps[i] = compose_maps(
                maps[i + 1],
                Wii,
                Wdn,
                Wup,
                below.c[below.plus],
                net.m[net.plus],
                certificate=certs[i],
            )

    top = hierarchy.layers[0]
    layer1_cert = None
    if np.all(np.isfinite(top.m[top.plus])):
        layer1_bounded = True
    elif np.all(top.W <= 0) and np.all(hierarchy.W_down[0] <= 0):
        # purely inhibitory top layer: the drive never exceeds [c]_+, so
        # the box [0, max(x(0), [c]_+)] is forward invariant
        layer1_bounded = True
    else:
        Wii = top.W[top.plus, top.plus]
        Wdn = hierarchy.W_down[0][top.plus, hierarchy.layers[1].plus]
        Wup = hierarchy.W_up[0][hierarchy.layers[1].plus, top.plus]
        if 2 in maps:
            layer1_cert = ges_certificate(
                Wii, Wdn, Wup, max_gain_matrix(maps[2]), tau=top.tau
            )
            layer1_bounded = layer1_cert.passed
        else:
            layer1_bounded = False
    return HierarchyCertification(
        certificates=tuple(certs[i] for i in range(2, N + 1)),
        maps=maps,
        layer1_bounded=layer1_bounded,
        layer1_certificate=layer1_cert,
    )


@dataclass(frozen=True)
class DecayReport:
    """Outcome of an empirical envelope check (falsification only: passing
    trials support but never prove the certificate)."""

    passed: bool
    n_trials: int
    worst_margin: float  # max over samples of ||x - x*||_alpha / envelope


def empirical_decay_check(
    net: LTNetwork,
    certificate: GESCertificate,
    trials: int = 5,
    horizon: float = 5.0,
    dt: Optional[float] = None,
    seed: int = 0,
) -> DecayReport:
    """Simulate random initial conditions and test the certified envelope.

    Each trial draws x0 in the box, integrates under the constant
    background input, and verifies

        ||x(t) - x*||_alpha <= ||x(0) - x*||_alpha exp(-rate t) (1 + 1e-6)

    at every sample.  Refuses (NotCertified) on a failing certificate.
    """
    if not certificate.passed:
        raise NotCertified("empirical check refused: certificate did not pass")
    rng = np.random.default_rng(seed)
    x_star = equilibria.solve_equilibrium_iterative(net.W, net.m, net.c, tol=1e-13)
    if dt is None:
        dt = net.tau / 200.0
    alpha = certificate.alpha
    worst = 0.0
    span = horizon * net.tau
    hi = np.where(np.isfinite(net.m), net.m, 2.0 * np.max(np.abs(x_star)) + 5.0)
    for _ in range(trials):
        x0 = rng.uniform(0.0, hi)
        traj = simulate(net, x0, None, (0.0, span), dt)
        err0 = weighted_norm(alpha, x0 - x_star)
        if err0 < 1e-12:
            continue
        errs = np.abs(traj.samples - x_star) @ alpha
        env = err0 * np.exp(-certificate.rate * (traj.times - traj.t0))
        worst = max(worst, float(np.max(errs / env)))
    return DecayReport(passed=worst <= 1.0 + 1e-6, n_trials=trials, worst_margin=worst)
