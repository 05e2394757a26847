"""Identification of layered linear-threshold models from firing rates.

The pipeline covers autocorrelation timescale estimation, permutation
tests, and fitting the free parameters of a structured hierarchy to
trial-averaged rates.

The unknown vector z stacks, in order: the free weights (recurrent and
input-gain entries listed in the structure), the layer time constants,
the background inputs, and the initial state per condition.  Candidate
models are integrated with fixed-step RK4 on the stacked system and
sampled on the data grid; fit minimizes

    f = f_SSE + gamma1 * f_corr + gamma2 * f_var

with (f_SSE, f_corr, f_var) = objective_terms(est, ref), the one
definition of these terms: f_SSE the summed squared error, f_corr = 1 -
mean sample Pearson correlation over (node, condition) pairs, and f_var
the 4-norm of the standard-deviation mismatches.  Sample statistics use
the K-1 convention throughout.  Multi-start bounded quasi-Newton
minimization (L-BFGS-B) searches the box with the exact gradient of this
discretized objective: a discrete adjoint, i.e. one forward RK4 pass
whose stages write their slopes in place, its stages evaluated again
from the stored steps and its step Jacobians built from them, and one
reverse sweep through the stages, the ReLU and the post-step clip that
takes every candidate of a round at once.  At kinks the ReLU
and clip derivatives are 1 where the argument is > 0, pairs with a
zero-variance series get a zero correlation gradient, a zero standard
deviation a zero derivative, f_var = 0 a zero variance gradient, and a
diverged candidate the penalty value with a zero gradient.  Because a
constant reference series is matched by f_corr only by an exactly
constant estimate, each start ends with one Newton step that tries to
make such estimates exactly constant.  The starts run in lock-step
windows of 8, one thread per start's L-BFGS-B.
They share only queues: the calling thread evaluates every candidate
posted on its inbox in one batched forward pass and replies to each
start with its row's value and gradient, so each start sees, bit for
bit, the values it would see alone, and fit returns what one start
after another would.  The adjoint's arrays (about 1.6 MB a candidate
on the two-channel problem) are buffers of the window, sized to its
starts and reused by every round, so their pages are faulted in once
per window; they go when the window closes.  SciPy is imported only by
fit (minimize), not by this module: 'pulse' inputs evaluate Cephes's
ndtr here, with the bits of SciPy's ndtr.
"""

from __future__ import annotations

import contextlib
import math
import re
import threading
import warnings
from collections.abc import Collection
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .network import _as_readonly, _integer, _real, rk4_integrate

__all__ = [
    "InputSignal",
    "WeightEntry",
    "SysIdProblem",
    "FitReport",
    "NonPositiveCorrelations",
    "SimulationDiverged",
    "AllStartsFailed",
    "fit_exponential_decay",
    "autocorr_timescale",
    "randomization_test",
    "objective_terms",
    "objective",
    "r_squared",
    "fit",
    "predict",
    "two_channel_hierarchy_structure",
]

_DIVERGENCE_LIMIT = 1e9
_PENALTY = 1e12
_FLAT = 1e-12  # a series whose centred 2-norm is below this is constant
_LOCKSTEP = 8  # fit's starts minimized together, one forward pass per round
_BLOCK = re.compile(r"W(\d)(\d)|U(\d+)")  # a structure entry's block name


class NonPositiveCorrelations(Exception):
    """No positive average correlations available for the timescale fit."""


class SimulationDiverged(Exception):
    """A candidate model left the admissible state range."""


class AllStartsFailed(Exception):
    """Every optimization start failed to produce a finite objective."""


# ---------------------------------------------------------------------------
# intrinsic timescale
# ---------------------------------------------------------------------------


def fit_exponential_decay(rho_bar, lags):
    """Least-squares fit of A * exp(-k / tau) to rho_bar over the lags.

    The fit is linear in log space and uses only lags with positive
    averaged correlation.  Each lag must be an integer in
    0..len(rho_bar) - 1.  Returns (A, tau) in lag units.
    """
    rho_bar, lags = np.asarray(rho_bar, dtype=float), list(lags)
    if not all(_integer(k) and 0 <= k < len(rho_bar) for k in lags):
        raise ValueError(f"lags must be integers in 0..{len(rho_bar) - 1}, got {lags}")
    vals = rho_bar[lags]
    keep = vals > 0
    if keep.sum() < 2:
        raise NonPositiveCorrelations(
            "need at least two positive averaged correlations to fit a decay"
        )
    k = np.array(lags, dtype=float)[keep]
    y = np.log(vals[keep])
    slope, intercept = np.polyfit(k, y, 1)
    if slope >= 0:
        raise NonPositiveCorrelations("averaged correlations do not decay")
    return float(np.exp(intercept)), float(-1.0 / slope)


def autocorr_timescale(trial_rates, bin_width, fit_lags):
    """Intrinsic timescale from across-trial bin correlations.

    trial_rates is (n_trials, n_bins).  The Pearson correlation between
    every pair of bins is computed across trials, averaged over pairs at
    equal lag |k1 - k2| = k, and A * exp(-k / tau) is fitted to the
    averages over fit_lags, at least two distinct lags.  Returns (A, tau)
    with tau in time units.
    """
    R = np.asarray(trial_rates, dtype=float)
    if R.ndim != 2 or R.shape[0] < 3:
        raise ValueError("trial_rates must be (n_trials >= 3, n_bins)")
    if not np.all(np.isfinite(R)):
        raise ValueError("trial_rates must be finite")
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise ValueError(f"bin_width must be a finite number > 0, got {bin_width}")
    fit_lags = list(fit_lags)
    if len(set(fit_lags)) < 2:
        raise ValueError(f"need at least two fit lags, got {fit_lags}")
    if not all(0 <= k < R.shape[1] for k in fit_lags):
        raise ValueError(f"fit lags must lie in 0..{R.shape[1] - 1} for {R.shape[1]} bins; "
                         f"got {min(fit_lags)}..{max(fit_lags)}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # constant bins -> nan
        C = np.corrcoef(R, rowvar=False)
    n_bins = C.shape[0]
    rho_bar = np.empty(n_bins)
    for k in range(n_bins):
        diag = np.diagonal(C, offset=k)
        good = np.isfinite(diag)
        rho_bar[k] = diag[good].mean() if good.any() else np.nan
    A, tau_lags = fit_exponential_decay(np.nan_to_num(rho_bar, nan=-1.0), fit_lags)
    return A, tau_lags * bin_width


# ---------------------------------------------------------------------------
# permutation test
# ---------------------------------------------------------------------------


def randomization_test(a, b, n_perm: int = 1999, seed: int = 0) -> float:
    """Two-sided permutation test for a difference in means.

    The pooled sample is sorted before label shuffling, so the p-value is
    invariant to swapping a and b.  Returns
    (1 + #{|perm stat| >= |observed|}) / (1 + n_perm).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("both samples must be finite")
    if not _integer(n_perm):
        raise ValueError(f"n_perm must be an integer, got {n_perm!r}")
    if n_perm < 1:
        raise ValueError(f"n_perm must be at least 1, got {n_perm}")
    observed = abs(a.mean() - b.mean())
    pooled = np.sort(np.concatenate([a, b]))
    na = a.size
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(n_perm):
        perm = rng.permutation(pooled)
        stat = abs(perm[:na].mean() - perm[na:].mean())
        if stat >= observed - 1e-15:
            count += 1
    return (1 + count) / (1 + n_perm)


# ---------------------------------------------------------------------------
# problem definition
# ---------------------------------------------------------------------------


def _finite_number(v):
    return _real(v) and math.isfinite(v)


def _pair_of_numbers(v):
    """True for any two-element sequence (list, tuple, array) of finite numbers."""
    try:
        return np.shape(v) == (2,) and all(map(_finite_number, v))
    except ValueError:  # a ragged nesting
        return False


# Cephes ndtr, erf and erfc (S. L. Moshier, Methods and Programs for
# Mathematical Functions, 1989), the code behind SciPy's ndtr: the same
# coefficients, operation order and the branches _ndtr reaches, with math.exp
# for the C library's exp, give SciPy's bits for every non-NaN argument (np.exp
# may take a SIMD path that differs from it in the last bit).  _ndtr1 calls
# _erf only with |x| < 1/sqrt(2) and _erfc only with x >= 1/sqrt(2).  Q, S and U
# hold Cephes's implied leading 1 (its p1evl): 1 * x is x exactly.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 0.70710678118654752440


def _polevl(x, coef):
    """Horner's rule, highest degree first."""
    a = coef[0]
    for c in coef[1:]:
        a = a * x + c
    return a


def _erf(x):
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(x):
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        return z * _polevl(x, _ERFC_P) / _polevl(x, _ERFC_Q)
    return z * _polevl(x, _ERFC_R) / _polevl(x, _ERFC_S)


def _ndtr1(a):
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


def _ndtr(a) -> np.ndarray:
    """The standard normal CDF of each element of a, as SciPy's ndtr gives it."""
    a = np.asarray(a, dtype=float)
    return np.array([_ndtr1(v) for v in a.ravel().tolist()]).reshape(a.shape)


@dataclass(frozen=True)
class InputSignal:
    """One known exogenous signal.

    kind is one of:
      'rule'       1 under the conditions listed in params['on'], else 0
      'time_cell'  |t0| - t on [t0, 0), 0 afterwards (params['t0'])
      'pulse'      square pulse on params['window'] convolved with a
                   Gaussian of params['sigma'] (difference of CDFs)
      'const'      params['value'] (default 1)

    Construction refuses an unknown kind and missing or malformed params
    with ValueError.
    """

    name: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        p = self.params
        if not isinstance(p, dict):
            raise ValueError(f"params must be an object, got {p!r}")
        if self.kind == "rule":
            on = p.get("on")
            if not isinstance(on, Collection) or isinstance(on, (str, bytes)):
                raise ValueError(f"rule 'on' must be a collection of conditions, got {on!r}")
        elif self.kind == "time_cell":
            if not _finite_number(p.get("t0")):
                raise ValueError(f"time_cell t0 must be a finite number, got {p.get('t0')!r}")
        elif self.kind == "pulse":
            window, sigma = p.get("window"), p.get("sigma", 1.0)
            if not _pair_of_numbers(window):
                raise ValueError(f"pulse window must be two finite numbers, got {window!r}")
            if window[0] > window[1]:
                raise ValueError(f"pulse window must not end before it starts, got {window!r}")
            if not (_finite_number(sigma) and sigma > 0):
                raise ValueError(f"pulse sigma must be finite and > 0, got {sigma!r}")
        elif self.kind == "const":
            if not _finite_number(p.get("value", 1.0)):
                raise ValueError(f"const value must be a finite number, got {p.get('value')!r}")
        else:
            raise ValueError(f"unknown signal kind {self.kind!r}")

    def values(self, condition: str, times) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        if self.kind == "rule":
            on = 1.0 if condition in self.params["on"] else 0.0
            return np.full_like(t, on)
        if self.kind == "time_cell":
            t0 = float(self.params["t0"])
            # literal ramp: |t0| - t before the reference time, 0 after
            return np.where(t < 0.0, abs(t0) - t, 0.0)
        if self.kind == "pulse":
            a, b = self.params["window"]
            s = float(self.params.get("sigma", 1.0))
            return _ndtr((t - a) / s) - _ndtr((t - b) / s)
        return np.full_like(t, float(self.params.get("value", 1.0)))  # const


@dataclass(frozen=True)
class WeightEntry:
    """One free weight: block 'Wij' (layer i from layer j) or 'Ui' (input
    gains of layer i); row/col are 0-based within the block; sign is '+',
    '-' or 'free'."""

    block: str
    row: int
    col: int
    sign: str = "free"
    bound: float = 1.5

    def interval(self):
        if self.sign == "+":
            return (0.0, self.bound)
        if self.sign == "-":
            return (-self.bound, 0.0)
        return (-self.bound, self.bound)


class SysIdProblem:
    """Structured identification problem.

    Parameters
    ----------
    layer_sizes : sizes of the stacked layers (top first).
    structure : free WeightEntry list; everything not listed is zero.
    inputs : known exogenous InputSignal list (columns of the gain blocks).
    conditions : experimental condition labels, at least one.
    manifest : global state indices (0..n-1) with measurements.
    data : condition -> (K, len(manifest)) rate array on the grid
        t0 + k*T; may be None until attached.
    t0, tf, T : data window and sampling step (finite, t0 < tf, T > 0).
    tau_bounds : per-layer (lo, hi) for the time constants, 0 < lo <= hi < inf.
    c_bounds, x0_max : bounds for backgrounds (finite lo <= hi) and initial states.
    gamma1, gamma2 : objective weights (correlation and variance terms), finite, >= 0.
    sim_substeps : integration steps per data sample (dt = T / substeps).
    """

    data = None  # attach_data sets data and _ref
    _ref = None

    def __init__(
        self,
        layer_sizes,
        structure,
        inputs,
        conditions,
        manifest,
        data=None,
        t0=-7.0,
        tf=7.0,
        T=0.1,
        tau_bounds=None,
        c_bounds=(-3.0, 5.0),
        x0_max=None,
        gamma1=250.0,
        gamma2=150.0,
        sim_substeps=2,
    ):
        if not all(_integer(s) and s >= 1 for s in layer_sizes):
            raise ValueError(f"layer_sizes must be integers >= 1, got {layer_sizes!r}")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.N = len(self.layer_sizes)
        self.n = sum(self.layer_sizes)
        self.structure = tuple(structure)
        self.inputs = tuple(inputs)
        self.conditions = tuple(conditions)
        if not self.conditions:
            raise ValueError("conditions must name at least one condition, got none")
        if not all(_integer(i) and 0 <= i < self.n for i in manifest):
            raise ValueError(f"manifest indices must be in 0..{self.n - 1}, got {manifest!r}")
        self.manifest = tuple(int(i) for i in manifest)
        if not (_finite_number(t0) and _finite_number(tf) and t0 < tf):
            raise ValueError(f"t0 and tf must be finite with t0 < tf, got {t0!r} and {tf!r}")
        if not (_finite_number(T) and T > 0.0):
            raise ValueError(f"T must be finite and > 0, got {T!r}")
        self.t0, self.tf, self.T = float(t0), float(tf), float(T)
        self.K = int(round((self.tf - self.t0) / self.T)) + 1
        for name, value in (("gamma1", gamma1), ("gamma2", gamma2)):
            if not (_finite_number(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        self.gamma1, self.gamma2 = float(gamma1), float(gamma2)
        if not (_integer(sim_substeps) and sim_substeps >= 1):
            raise ValueError(f"sim_substeps must be a positive integer, got {sim_substeps!r}")
        self.sim_substeps = int(sim_substeps)
        if x0_max is not None:
            if not (_finite_number(x0_max) and x0_max > 0.0):
                raise ValueError(f"x0_max must be positive and finite, got {x0_max!r}")
            x0_max = float(x0_max)
        if tau_bounds is None:
            tau_bounds = [(0.3, 10.0)] * self.N
        self.tau_bounds = [tuple(map(float, tb)) for tb in tau_bounds]
        if len(self.tau_bounds) != self.N:
            raise ValueError("need one tau bound pair per layer")
        for raw, tb in zip(tau_bounds, self.tau_bounds):
            if not (_pair_of_numbers(raw) and 0.0 < tb[0] <= tb[1]):
                raise ValueError(f"tau_bounds pairs must hold 0 < lo <= hi < inf, got {tb}")
        self.c_bounds = tuple(map(float, c_bounds))
        if not (_pair_of_numbers(c_bounds) and self.c_bounds[0] <= self.c_bounds[1]):
            raise ValueError(f"c_bounds must be finite with lo <= hi, got {self.c_bounds}")
        self._x0_max = x0_max
        if data is not None:
            self.attach_data(data)
        self._layer_offsets = np.cumsum([0] + list(self.layer_sizes))
        self._node_layer = np.concatenate(
            [np.full(sz, i) for i, sz in enumerate(self.layer_sizes)]
        )
        self._index_structure()

    # -- data ---------------------------------------------------------------

    def attach_data(self, data):
        data = {c: np.asarray(v, dtype=float) for c, v in data.items()}
        for c in self.conditions:
            if c not in data:
                raise ValueError(f"missing data for condition {c!r}")
            if data[c].shape != (self.K, len(self.manifest)):
                raise ValueError(
                    f"data[{c!r}] must be ({self.K}, {len(self.manifest)}), "
                    f"got {data[c].shape}"
                )
        self.data = data
        # a (C, nm, K) view of one C-ordered (K, C nm) array, whose sums run
        # in sample order: fit's results hang on their last bits
        ref = np.stack([data[c] for c in self.conditions], axis=1).reshape(self.K, -1)
        self._ref = ref.T.reshape(len(self.conditions), -1, self.K)
        if self._x0_max is None:
            peak = max(float(np.max(v)) for v in data.values())
            self._x0_max = 2.0 * max(peak, 1.0)

    @property
    def x0_max(self):
        return 2.0 if self._x0_max is None else self._x0_max

    # -- parameter vector layout -------------------------------------------

    def _index_structure(self):
        n, n_sig = self.n, len(self.inputs)
        w_flat, u_flat = [], []
        for k, e in enumerate(self.structure):
            where = f"structure entry {k}"
            for name in ("row", "col"):
                if not _integer(v := getattr(e, name)):
                    raise ValueError(f"{where} {name} must be an integer, got {v!r}")
            block = _BLOCK.fullmatch(e.block) if isinstance(e.block, str) else None
            layers = [int(v) - 1 for v in block.groups() if v] if block else []
            if not (block and all(0 <= i < self.N for i in layers)):
                raise ValueError(f"{where}: block must be W<i><j> or U<i> with layers "
                                 f"1..{self.N}, got {e.block!r}")
            if e.sign not in ("+", "-", "free"):
                raise ValueError(f"{where}: sign must be '+', '-' or 'free', got {e.sign!r}")
            if not (_finite_number(e.bound) and e.bound > 0):
                raise ValueError(f"{where}: bound must be finite and > 0, got {e.bound!r}")
            gr = self._global_row(layers[0], e.row, f"{where} row")
            if e.block[0] == "U":
                if not 0 <= e.col < n_sig:
                    raise ValueError(f"{where} col {e.col} out of range for {n_sig} inputs")
                u_flat.append((len(w_flat) + len(u_flat), gr * n_sig + e.col))
            else:
                if abs(layers[0] - layers[1]) > 1:
                    raise ValueError(f"{where}: block {e.block} skips a layer")
                gc = self._global_row(layers[1], e.col, f"{where} col")
                w_flat.append((len(w_flat) + len(u_flat), gr * n + gc))
        # (z positions, flat indices into W or U), each (2, k)
        self._w_slots, self._u_slots = (np.array(s, dtype=np.intp).reshape(-1, 2).T
                                        for s in (w_flat, u_flat))
        self.n_weights = len(self.structure)
        self.off_tau = self.n_weights
        self.off_c = self.off_tau + self.N
        self.off_x0 = self.off_c + self.n
        self.dim = self.off_x0 + self.n * len(self.conditions)

    def _global_row(self, layer_idx, row, what):
        if not 0 <= row < self.layer_sizes[layer_idx]:
            raise ValueError(f"{what} {row} out of range for layer {layer_idx + 1}")
        return int(self._layer_offsets[layer_idx] + row)

    def bounds(self):
        lo, hi = [], []
        for e in self.structure:
            a, b = e.interval()
            lo.append(a)
            hi.append(b)
        for a, b in self.tau_bounds:
            lo.append(a)
            hi.append(b)
        lo += [self.c_bounds[0]] * self.n
        hi += [self.c_bounds[1]] * self.n
        lo += [0.0] * (self.n * len(self.conditions))
        hi += [self.x0_max] * (self.n * len(self.conditions))
        return np.array(lo), np.array(hi)

    def param_names(self):
        names = [f"{e.block}[{e.row},{e.col}]" for e in self.structure]
        names += [f"tau{i + 1}" for i in range(self.N)]
        names += [f"c[{i}]" for i in range(self.n)]
        for c in self.conditions:
            names += [f"x0:{c}[{i}]" for i in range(self.n)]
        return names

    def unpack(self, Z):
        """Batched unpack: Z (P, dim) -> (W (P,n,n), U (P,n,s), tau (P,n),
        c (P,n), X0 (P,C,n))."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        P = Z.shape[0]
        n, n_sig, C = self.n, len(self.inputs), len(self.conditions)
        W = np.zeros((P, n * n))
        U = np.zeros((P, n * n_sig))
        (wz, wf), (uz, uf) = self._w_slots, self._u_slots
        W[:, wf], U[:, uf] = Z[:, wz], Z[:, uz]
        tau_layers = Z[:, self.off_tau : self.off_tau + self.N]
        tau = tau_layers[:, self._node_layer]
        c = Z[:, self.off_c : self.off_c + n]
        X0 = Z[:, self.off_x0 :].reshape(P, C, n)
        return W.reshape(P, n, n), U.reshape(P, n, n_sig), tau, c, X0

    # -- simulation ---------------------------------------------------------

    @cached_property
    def _stage_signals(self):
        """(dt, n_steps, exogenous signals at RK4 stage times (C, S, n_sig))."""
        dt = self.T / self.sim_substeps
        n_steps = (self.K - 1) * self.sim_substeps
        stage_t = self.t0 + 0.5 * dt * np.arange(2 * n_steps + 1)
        sig = np.stack(
            [
                np.column_stack([s.values(c, stage_t) for s in self.inputs])
                if self.inputs
                else np.zeros((stage_t.size, 0))
                for c in self.conditions
            ]
        )
        return dt, n_steps, sig

    def _stage_field(self, Z):
        """The stacked field of the candidates Z, one row per (candidate,
        condition), p C + i for candidate p under condition i: (W (P C, n, n),
        drive at every stage time (S, P C, n), tau (P C, n), X0 (P C, n))."""
        W, U, tau, c, X0 = self.unpack(Z)
        C, n = len(self.conditions), self.n
        _, _, sig = self._stage_signals
        # drive at every stage time: d = U sig + c, laid out (S, P, C, n)
        drive = np.einsum("csk,pnk->spcn", sig, U)
        drive += c[:, None, :]
        return (np.repeat(W, C, axis=0), drive.reshape(sig.shape[1], -1, n),
                np.repeat(tau, C, axis=0), X0.reshape(-1, n))

    def _simulate(self, Z):
        """(traj, states, diverged) of the candidates Z: traj is every RK4
        step's state, (n_steps + 1, P, C, n), and (states, diverged) are
        simulate_candidates' results."""
        W, drive, tau, X0 = self._stage_field(Z)
        dt, n_steps, _ = self._stage_signals
        inv_half = 2.0 / dt  # stage times are multiples of dt / 2 from t0 = 0

        def f(t, X):
            k = np.empty(X.shape)
            return _stage(W, X, drive[round(t * inv_half)], tau, k, k)

        with np.errstate(over="ignore", invalid="ignore"):
            traj = rk4_integrate(f, X0, 0.0, dt, n_steps, lambda Y: np.maximum(Y, 0.0))
        traj = traj.reshape(n_steps + 1, -1, len(self.conditions), self.n)
        # each candidate's extremes, reduced without a trajectory-sized
        # temporary; a NaN propagates to both and fails both tests
        top, bottom = traj.max(axis=(0, 2, 3)), traj.min(axis=(0, 2, 3))
        diverged = ~((top <= _DIVERGENCE_LIMIT) & (bottom >= -_DIVERGENCE_LIMIT))
        # a contiguous copy, as the objective's reductions expect (a strided
        # view changes their summation order)
        states = np.ascontiguousarray(np.moveaxis(traj[:: self.sim_substeps], 0, 2))
        states[diverged] = 0.0
        return traj, states, diverged

    def simulate_candidates(self, Z):
        """Simulate a batch of parameter vectors under every condition.

        Returns (states (P, C, K, n), diverged (P,) bool).  A candidate
        has diverged when any state of any of its conditions is
        non-finite or above _DIVERGENCE_LIMIT at any RK4 step; its states
        are returned as zeros.
        """
        return self._simulate(Z)[1:]


def _stage(W, X, d, tau, a, k):
    """The stacked field at the states X (..., n), with W (..., n, n)
    broadcast against them: writes the ReLU argument a = W X + d into a and
    the slope (max(a, 0) - X) / tau into k, which may be a, and returns k.
    W X is one BLAS matrix-vector product per row, so each row is computed
    as it would be in a batch of one."""
    np.matmul(W, X[..., None], out=a[..., None])
    a += d
    np.maximum(a, 0.0, out=k)
    k -= X
    k /= tau
    return k


# ---------------------------------------------------------------------------
# objective and fit quality
# ---------------------------------------------------------------------------


def _pearson_rows(est, ref):
    """Sample correlation along the last axis; zero-variance pairs map to
    1 when both signals are constant and 0 when only one is."""
    est_c = est - est.mean(axis=-1, keepdims=True)
    ref_c = ref - ref.mean(axis=-1, keepdims=True)
    se = np.sqrt((est_c**2).sum(axis=-1))
    sr = np.sqrt((ref_c**2).sum(axis=-1))
    num = (est_c * ref_c).sum(axis=-1)
    flat_e = se < _FLAT
    flat_r = sr < _FLAT
    denom = np.where(flat_e | flat_r, 1.0, se * sr)
    corr = num / denom
    corr = np.where(flat_e & flat_r, 1.0, corr)
    corr = np.where(flat_e ^ flat_r, 0.0, corr)
    return corr


def objective_terms(est, ref):
    """Objective components (f_sse, f_corr, f_var) of aligned rate arrays.

    This is the objective fit minimizes.  est, ref : (..., pairs, K)
    arrays; each of the pairs rows is one (condition, node) series of K
    samples.  The last two axes are reduced and the leading axes
    broadcast, so each component has the broadcast leading shape (a
    scalar for (pairs, K) inputs).
    """
    est = np.asarray(est, dtype=float)
    ref = np.asarray(ref, dtype=float)
    f_sse = ((est - ref) ** 2).sum(axis=(-2, -1))
    f_corr = 1.0 - _pearson_rows(est, ref).mean(axis=-1)
    sd_e = est.std(axis=-1, ddof=1)
    sd_r = ref.std(axis=-1, ddof=1)
    f_var = (((sd_e - sd_r) ** 4).sum(axis=-1)) ** 0.25
    return f_sse, f_corr, f_var


def objective(z, problem: SysIdProblem):
    """Objective f = f_SSE + gamma1 f_corr + gamma2 f_var for one z.

    Raises SimulationDiverged when the candidate leaves the admissible
    range.  Returns (f, f_sse, f_corr, f_var).
    """
    return _fit_terms(np.asarray(z, dtype=float), problem)[:4]


def _objective_batch(Z, problem: SysIdProblem):
    """objective_terms of every row of Z.

    Returns (f (P,), (f_sse, f_corr, f_var) each (P,), est, diverged (P,),
    traj), with est the (P, C, nm, K) manifest series compared with
    problem._ref and traj every RK4 step's state (SysIdProblem._simulate).
    Diverged or non-finite candidates get f = _PENALTY.
    """
    if problem.data is None:
        raise ValueError("problem has no attached data")
    traj, states, diverged = problem._simulate(Z)
    est = np.moveaxis(states[:, :, :, problem.manifest], 3, 2)
    P, K = est.shape[0], problem.K
    # (C nm, K) pair rows, a view with K the slowest axis: each reference
    # series is summed in sample order, as in _objective_state_grad (a
    # C-order copy sums pairwise, which moves the last bits of f)
    ref = problem._ref.reshape(-1, K)
    # C-order estimate rows, whatever P: the layout a batch of one has, so
    # each row is reduced in the same order as alone (with one condition or
    # one manifest node the reshape is a view, strided by P)
    parts = objective_terms(np.ascontiguousarray(est.reshape(P, -1, K)), ref)
    f_sse, f_corr, f_var = parts
    f = f_sse + problem.gamma1 * f_corr + problem.gamma2 * f_var
    f = np.where(diverged | ~np.isfinite(f), _PENALTY, f)
    return f, parts, est, diverged, traj


def _objective_state_grad(est, ref, problem: SysIdProblem):
    """d f / d est for one candidate; est and ref are (C, nm, K).

    Pairs where either series is flat (below _FLAT) get a zero
    correlation gradient, a zero standard deviation gets a zero
    derivative, and f_var = 0 a zero variance gradient.
    """
    K = est.shape[-1]
    grad = 2.0 * (est - ref)
    est_c = est - est.mean(axis=-1, keepdims=True)
    ref_c = ref - ref.mean(axis=-1, keepdims=True)
    se = np.sqrt((est_c**2).sum(axis=-1, keepdims=True))
    sr = np.sqrt((ref_c**2).sum(axis=-1, keepdims=True))
    live = (se >= _FLAT) & (sr >= _FLAT)
    se_l = np.where(live, se, 1.0)
    denom = se_l * np.where(live, sr, 1.0)
    corr = (est_c * ref_c).sum(axis=-1, keepdims=True) / denom
    dcorr = np.where(live, ref_c / denom - corr * est_c / se_l**2, 0.0)
    grad -= problem.gamma1 / live.size * dcorr
    # f_var = ||sd_e - sd_r||_4 with sd = ||x - mean|| / sqrt(K - 1)
    sd_e = se / math.sqrt(K - 1)
    dev = sd_e - sr / math.sqrt(K - 1)
    f_var = ((dev**4).sum()) ** 0.25
    if f_var > 0.0:
        dsd = np.divide(1.0, (K - 1) * sd_e, out=np.zeros_like(sd_e), where=sd_e > 0.0)
        grad += problem.gamma2 * (dev**3 / f_var**3) * dsd * est_c
    return grad


def _values_and_grads(Z, problem: SysIdProblem, work=None):
    """Objective values and exact gradients of the rows of Z (P, dim).

    One batched forward pass integrates every row, and one _adjoint call
    takes every row that is not penalized through one reverse sweep, in
    work (an _AdjointWork of at least P candidates; a fresh one by
    default), so row p gets the (f, g) of a batch of one, bit for bit.  A
    penalized row (diverged or non-finite f) gets a zero gradient.  Returns
    (F (P,), G (P, dim)).
    """
    F, _, est, _, traj = _objective_batch(Z, problem)
    G = np.zeros(Z.shape)
    live = np.flatnonzero(F != _PENALTY)
    if live.size:
        grad_est = np.stack([_objective_state_grad(est[p], problem._ref, problem)
                             for p in live])
        G[live] = _adjoint(Z[live], problem, traj[:, live], grad_est[:, None], work)[:, 0]
    return F, G


class _AdjointWork:
    """_adjoint's arrays for up to `candidates` candidates of one problem
    with up to `rows` adjoint rows each: the stage states, slopes and ReLU
    derivatives, the step Jacobians J and their factors P, PV and PD, and
    the adjoints of every step's pre-clip update.  One set serves every
    round of a fit window, each round taking the leading slices it needs,
    so the pages are faulted in once per window, not once per round."""

    def __init__(self, problem: SysIdProblem, candidates, rows=1):
        C, n = len(problem.conditions), problem.n
        _, n_steps, _ = problem._stage_signals
        stages = (candidates, n_steps, 4, C, n)
        self.XS, self.KS, self.V = (np.empty(stages) for _ in range(3))
        self.P = np.empty(stages + (n,))
        self.J = np.empty((candidates, n_steps, C, n, n))
        self.PS, self.PV, self.PD = (np.empty((n_steps, C, n, n)) for _ in range(3))
        self.lamY = np.empty((candidates, rows, n_steps, C, n))


def _adjoint(Z, problem: SysIdProblem, traj, grad_est, work=None):
    """Gradients in z of functions of the sampled manifest states.

    Z (Q, dim) holds candidates and traj (n_steps + 1, Q, C, n) their every
    RK4 step's state (SysIdProblem._simulate); grad_est (Q, R, C, nm, K)
    holds the derivatives of R functions with respect to each candidate's
    states.  Returns their (Q, R, dim) gradients.  This is the discrete
    adjoint of that fixed-step RK4: each candidate's stages are evaluated
    again from traj, all steps at once and each row as the forward pass had
    it, and its step Jacobians are built from them; then one reverse sweep
    takes every row of every candidate through the stages, the ReLU and the
    post-step clip (derivative 1 where the argument is > 0), and each row's
    sums over steps follow.  The arrays live in work, an _AdjointWork of at
    least Q candidates and R rows (a fresh one by default).  Nothing mixes
    rows, so each has the bits it would have alone.
    """
    Q, R = grad_est.shape[:2]
    if work is None:
        work = _AdjointWork(problem, Q, R)
    C, n = len(problem.conditions), problem.n
    dt, n_steps, sig = problem._stage_signals
    b = (dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0)  # weights of k1..k4 in the update
    c = (0.5 * dt, 0.5 * dt, dt)  # stage s + 1 starts at X + c[s] * k_s
    # drive samples: stage 1 reads 2k, stages 2 and 3 read 2k + 1, stage 4 reads 2k + 2
    reads = (slice(0, -1, 2), slice(1, None, 2), slice(1, None, 2), slice(2, None, 2))
    Wc, drive, tauc, _ = problem._stage_field(Z)
    itau = 1.0 / tauc[::C]  # (Q, n)
    XS, KS, V, P, J = work.XS[:Q], work.KS[:Q], work.V[:Q], work.P[:Q], work.J[:Q]
    eye = np.eye(n)
    # b_s I and the rows of 1 / tau as (C, n, n) blocks, so that each
    # product below runs over whole blocks rather than rows of n
    bI = [np.tile(w * eye, (C, 1, 1)) for w in b]
    PS, PV, PD = work.PS, work.PV, work.PD  # P_s, P_s diag(V_s) and D_s
    for q in range(Q):
        own = slice(q * C, (q + 1) * C)  # candidate q's rows of the field
        # stage states, slopes and ReLU arguments (steps, 4, C, n); the
        # arguments go to V, which then holds the ReLU derivatives over tau
        XS[q, :, 0] = traj[:-1, q]
        for s, r in enumerate(reads):
            _stage(Wc[own], XS[q, :, s], drive[r, own], tauc[own], V[q, :, s], KS[q, :, s])
            if s < 3:
                np.multiply(KS[q, :, s], c[s], out=XS[q, :, s + 1])
                XS[q, :, s + 1] += XS[q, :, 0]
        np.greater(V[q], 0.0, out=V[q])
        V[q] *= itau[q]
        itau_rows = np.tile(itau[q], (C, n, 1))
        # Row-vector Jacobians of every step, built for all steps at once:
        # dk_s = D_s dX_s with D_s = diag(V_s) W - diag(1 / tau), and the
        # adjoint of the pre-clip update Y maps to the stage slopes by P_s
        # and to the step's start by J = I + sum_s P_s D_s.
        J[q] = eye
        for s in (3, 2, 1, 0):
            if s == 3:
                PS[:] = bI[s]
            else:
                np.multiply(PD, c[s], out=PS)
                PS += bI[s]
            P[q, :, s] = PS
            np.multiply(PS, V[q, :, s, :, None, :], out=PV)
            np.matmul(PV.reshape(-1, n), Wc[q * C], out=PD.reshape(-1, n))
            np.multiply(PS, itau_rows, out=PV)
            PD -= PV
            J[q] += PD
    # the reverse sweep reads step-major views: step k of every row at once
    G = np.zeros((problem.K, Q, R, C, n))  # on the full state
    G[..., problem.manifest] = np.moveaxis(grad_est, -1, 0)
    clip = (traj[1:] > 0.0)[:, :, None]  # clip derivatives: max(Y, 0) > 0 exactly where Y > 0
    lamY = work.lamY[:Q, :R]  # adjoint of each step's pre-clip update
    lamYk, Jk = np.moveaxis(lamY, 2, 0), np.moveaxis(J, 1, 0)[:, :, None]
    lam = np.zeros((Q, R, C, n))  # adjoint of the state after step k
    sub = problem.sim_substeps
    for k in range(n_steps - 1, -1, -1):
        if (k + 1) % sub == 0:
            lam = lam + G[(k + 1) // sub]
        lamYk[k] = lam = lam * clip[k]
        lam = np.matmul(lam[..., None, :], Jk[k])[..., 0, :]
    lam = lam + G[0]
    g = np.empty((Q, R, problem.dim))
    (wz, wf), (uz, uf) = problem._w_slots, problem._u_slots
    # each row's sums over steps, stages and conditions are BLAS products
    # over stacked rows: (steps 4 C, n) stage rows and (C S, .) drive rows
    S = sig.shape[1]  # stage times, 2 n_steps + 1
    sig_rows = sig.reshape(C * S, sig.shape[2])  # no -1: sig has 0 columns without inputs
    for q, r in np.ndindex(Q, R):
        # adjoints of the stage slopes, lamY_k P_s row by row
        LK = np.matmul(lamY[q, r][:, None, :, None, :], P[q])[..., 0, :]
        LA = LK * V[q]  # adjoints of the ReLU arguments
        gW = (LA.reshape(-1, n).T @ XS[q].reshape(-1, n)).ravel()
        LD = np.zeros((C, S, n))  # adjoints of the drive samples
        for s, rd in enumerate(reads):
            LD[:, rd] += np.moveaxis(LA[:, s], 0, 1)
        gU = (LD.reshape(-1, n).T @ sig_rows).ravel()
        g_tau = -(LK * KS[q]).sum(axis=(0, 1, 2)) * itau[q]
        out = g[q, r]
        out[wz], out[uz] = gW[wf], gU[uf]
        out[problem.off_tau : problem.off_c] = np.bincount(
            problem._node_layer, weights=g_tau, minlength=problem.N
        )
        out[problem.off_c : problem.off_x0] = LD.sum(axis=(0, 1))
        out[problem.off_x0 :] = lam[q, r].ravel()
    return g


def _flatten_constant_pairs(z, f, problem: SysIdProblem, lo, hi):
    """Try one Newton step that makes the estimates of constant reference
    series exactly constant; keep it only if f drops.

    For a pair whose reference is constant, f_corr gives gamma1 / M back
    only when the estimate is exactly constant (below _FLAT).  No
    gradient sees that jump, and the standard deviation is a cone there,
    so a local search stalls just off it.  The step solves
    sd_p(z + dz) = 0 to first order for every such pair whose estimate
    still varies (minimum-norm dz from the adjoint gradients of sd_p, one
    adjoint row per pair over z's one trajectory).
    Returns (z, f), unchanged when there is no such pair.
    """
    ref = problem._ref
    ref_flat = np.linalg.norm(ref - ref.mean(axis=-1, keepdims=True), axis=-1) < _FLAT
    if not ref_flat.any():
        return z, f
    _, _, (est,), _, traj = _objective_batch(z[None, :], problem)
    est_c = est - est.mean(axis=-1, keepdims=True)
    se = np.linalg.norm(est_c, axis=-1)
    pairs = np.argwhere(ref_flat & (se >= _FLAT))
    if not len(pairs):
        return z, f
    d_se = np.zeros((len(pairs),) + est.shape)
    for row, (cond, node) in enumerate(pairs):
        d_se[row, cond, node] = est_c[cond, node] / se[cond, node]
    J = _adjoint(z[None, :], problem, traj, d_se[None])[0]
    dz = np.linalg.lstsq(J, -se[tuple(pairs.T)], rcond=None)[0]
    z_new = np.clip(z + dz, lo, hi)
    f_new = float(_objective_batch(z_new[None, :], problem)[0][0])
    return (z_new, f_new) if f_new < f else (z, f)


def r_squared(data, estimates) -> float:
    """Pooled coefficient of determination over nodes and conditions.

    data and estimates are dicts condition -> (K, n_nodes).  The total
    sum of squares is taken around each (node, condition) sample mean.
    """
    ss_res = 0.0
    ss_tot = 0.0
    for c, ref in data.items():
        ref = np.asarray(ref, dtype=float)
        est = np.asarray(estimates[c], dtype=float)
        ss_res += float(((ref - est) ** 2).sum())
        ss_tot += float(((ref - ref.mean(axis=0, keepdims=True)) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else -np.inf
    return 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FitReport:
    """Multi-start fit outcome; starts holds (index, f, status) triples."""

    z: np.ndarray
    f: float
    f_sse: float
    f_corr: float
    f_var: float
    r2: float
    n_starts: int
    best_start: int
    starts: tuple
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "z", _as_readonly(self.z))


def fit(
    problem: SysIdProblem,
    n_starts: int = 32,
    seed: int = 0,
    maxiter: int = 300,
    target_r2: Optional[float] = None,
) -> FitReport:
    """Multi-start bounded quasi-Newton fit of the problem's parameters.

    Starts are drawn uniformly inside the bounds from the seeded
    generator and minimized with L-BFGS-B on the exact gradient
    (_values_and_grads), in lock-step windows of _LOCKSTEP starts
    (_lockstep_starts) that share one batched forward pass per round, run
    in the calling thread (_minimize_window).
    Each start is then finished by _flatten_constant_pairs and the best
    final objective wins; taken in start order, the search stops early
    once target_r2 (when given) is reached, and later starts are dropped.
    Every start sees the values it would see alone, so the result is that
    of one start after another.  Deterministic for fixed (problem,
    n_starts, seed).  ValueError unless n_starts is an integer >= 1,
    maxiter an integer >= 0 and target_r2 None or a finite number.
    """
    if not (_integer(n_starts) and n_starts >= 1):
        raise ValueError(f"n_starts must be an integer >= 1, got {n_starts!r}")
    if not (_integer(maxiter) and maxiter >= 0):
        raise ValueError(f"maxiter must be an integer >= 0, got {maxiter!r}")
    if not (target_r2 is None or _finite_number(target_r2)):
        raise ValueError(f"target_r2 must be None or a finite number, got {target_r2!r}")
    lo, hi = problem.bounds()
    rng = np.random.default_rng(seed)
    best = terms = None
    records = []
    with contextlib.closing(_lockstep_starts(problem, n_starts, rng, lo, hi, maxiter)) as starts:
        for s, res in starts:
            z_s, f_s = _flatten_constant_pairs(res.x, float(res.fun), problem, lo, hi)
            records.append((s, f_s, "ok" if res.success else str(res.message)))
            usable = np.isfinite(f_s) and f_s < 0.5 * _PENALTY
            if usable and (best is None or f_s < best[1]):
                best, terms = (s, f_s, z_s), None
                if target_r2 is not None:
                    terms = _fit_terms(z_s, problem)
                    if terms[-1] >= target_r2:
                        break
    if best is None:
        raise AllStartsFailed("no start produced a finite objective")
    s_best, _, z_best = best
    f, f_sse, f_corr, f_var, r2 = terms or _fit_terms(z_best, problem)
    return FitReport(
        z=z_best,
        f=f,
        f_sse=f_sse,
        f_corr=f_corr,
        f_var=f_var,
        r2=r2,
        n_starts=len(records),
        best_start=s_best,
        starts=tuple(records),
        seed=seed,
    )


def _fit_terms(z, problem: SysIdProblem):
    """(f, f_sse, f_corr, f_var, r2) of one z from one forward pass: the
    values objective returns, and r_squared of predict's manifest series,
    handed over as C-contiguous (K, nm) arrays, the layout of the data."""
    f, parts, est, diverged, _ = _objective_batch(z[None, :], problem)
    if diverged[0]:
        raise SimulationDiverged("candidate trajectory diverged")
    rates = {c: np.ascontiguousarray(est[0, i].T) for i, c in enumerate(problem.conditions)}
    return float(f[0]), *(float(v[0]) for v in parts), r_squared(problem.data, rates)


def _lockstep_starts(problem, n_starts, rng, lo, hi, maxiter):
    """(start index, OptimizeResult) of every start in order, minimized
    window by window in windows of _LOCKSTEP starts; a window starts only
    once the caller asks past the window before it."""
    for first in range(0, n_starts, _LOCKSTEP):
        Z0 = [rng.uniform(lo, hi) for _ in range(min(_LOCKSTEP, n_starts - first))]
        yield from enumerate(_minimize_window(Z0, problem, lo, hi, maxiter), start=first)


class _Abandoned(Exception):
    """Raised in a start's objective when its window is torn down."""


def _minimize_window(Z0, problem: SysIdProblem, lo, hi, maxiter):
    """L-BFGS-B from every start of Z0 at once, yielding their results in
    start order.

    Each start runs minimize in a thread of its own, sharing only queues:
    its objective puts (s, z) on the inbox and waits on its own reply
    queue, and on return it puts (s, result), its OptimizeResult or the
    exception it raised.  Only the calling thread reads the inbox.  Once
    every start that has not returned has posted, it yields the results
    now due in start order (re-raising an exception in its place), then
    evaluates the posted z with one _values_and_grads call, in the
    window's one _AdjointWork, and replies to each start with its row.  On
    close it puts None on every reply queue, so a waiting objective raises
    _Abandoned, and joins every thread.
    """
    import queue

    from scipy.optimize import minimize

    inbox = queue.SimpleQueue()
    replies = [queue.SimpleQueue() for _ in Z0]

    def value_and_grad(z, s):
        inbox.put((s, z))
        if (answer := replies[s].get()) is None:
            raise _Abandoned
        return answer

    def run(s):
        try:
            result = minimize(
                value_and_grad,
                Z0[s],
                args=(s,),
                jac=True,
                method="L-BFGS-B",
                bounds=list(zip(lo, hi)),
                options={"maxiter": maxiter, "ftol": 1e-12, "gtol": 1e-10},
            )
        except BaseException as e:  # handed to the calling thread
            result = e
        inbox.put((s, result))

    work = _AdjointWork(problem, len(Z0))  # every round's adjoint arrays
    posted = {}  # start -> z awaiting its (f, g)
    results = {}  # start -> OptimizeResult or exception, not yet yielded
    given = 0  # starts yielded so far
    threads = []
    try:
        for s in range(len(Z0)):
            threads.append(threading.Thread(target=run, args=(s,), daemon=True))
            threads[-1].start()
        while given < len(Z0):
            # read the inbox until every start has posted, returned or been yielded
            while len(posted) + len(results) + given < len(Z0):
                s, message = inbox.get()
                (posted if isinstance(message, np.ndarray) else results)[s] = message
            while given in results:
                result = results.pop(given)
                if isinstance(result, BaseException):
                    raise result
                yield result
                given += 1
            if posted:
                starts = sorted(posted)
                Z = np.stack([posted.pop(s) for s in starts])
                F, G = _values_and_grads(Z, problem, work)
                for p, s in enumerate(starts):
                    replies[s].put((float(F[p]), G[p]))
    finally:
        for reply in replies:
            reply.put(None)
        for t in threads:
            t.join()


def predict(z, problem: SysIdProblem):
    """Manifest-node rate estimates of a parameter vector.

    Returns {condition: (K, n_manifest)} on the data grid.
    """
    states, diverged = problem.simulate_candidates(np.atleast_2d(z))
    if diverged[0]:
        raise SimulationDiverged("candidate trajectory diverged")
    return {c: states[0, i][:, problem.manifest] for i, c in enumerate(problem.conditions)}


# ---------------------------------------------------------------------------
# reference structure
# ---------------------------------------------------------------------------


def two_channel_hierarchy_structure():
    """Three-layer, two-preference-channel structure with E/I populations.

    The layout mirrors a cortical discrimination hierarchy: a slow
    inhibitory control layer (2 nodes), a middle layer with excitatory
    working-memory and inhibitory sensory-gating populations (4 nodes),
    and a fast excitatory sensory layer (2 nodes).  Within a channel,
    excitatory populations drive the same-preference inhibitory ones and
    themselves; inhibitory populations suppress the opposite channel.
    Rule cues gate the top layers, a ramping time signal feeds the middle
    excitatory nodes, and stimuli feed the bottom layer.

    Returns (layer_sizes, structure, inputs, manifest).
    """
    E = "+"
    I = "-"
    structure = [
        # top-layer lateral inhibition between the two channels
        WeightEntry("W11", 0, 1, I),
        WeightEntry("W11", 1, 0, I),
        # middle excitatory nodes drive the same-channel top inhibition
        WeightEntry("W12", 0, 0, E),
        WeightEntry("W12", 1, 1, E),
        # top inhibition suppresses the opposite-channel middle E node
        WeightEntry("W21", 0, 1, I),
        WeightEntry("W21", 1, 0, I),
        # middle layer: E self-loops, E -> same-channel I, I lateral
        WeightEntry("W22", 0, 0, E),
        WeightEntry("W22", 1, 1, E),
        WeightEntry("W22", 2, 0, E),
        WeightEntry("W22", 3, 1, E),
        WeightEntry("W22", 2, 3, I),
        WeightEntry("W22", 3, 2, I),
        # bottom E nodes feed the middle layer (memory and gating)
        WeightEntry("W23", 0, 0, E),
        WeightEntry("W23", 1, 1, E),
        WeightEntry("W23", 2, 0, E),
        WeightEntry("W23", 3, 1, E),
        # downward: middle E recruits same-channel bottom E, middle I
        # suppresses the opposite-channel bottom E
        WeightEntry("W32", 0, 0, E),
        WeightEntry("W32", 1, 1, E),
        WeightEntry("W32", 0, 3, I),
        WeightEntry("W32", 1, 2, I),
        # bottom self-excitation
        WeightEntry("W33", 0, 0, E),
        WeightEntry("W33", 1, 1, E),
        # input gains
        WeightEntry("U1", 0, 0, E, bound=6.0),
        WeightEntry("U1", 1, 1, E, bound=6.0),
        WeightEntry("U2", 0, 0, E, bound=6.0),
        WeightEntry("U2", 1, 1, E, bound=6.0),
        WeightEntry("U2", 0, 2, E, bound=1.0),
        WeightEntry("U2", 1, 2, E, bound=1.0),
        WeightEntry("U3", 0, 3, E, bound=6.0),
        WeightEntry("U3", 1, 4, E, bound=6.0),
    ]
    inputs = [
        InputSignal("rule-A", "rule", {"on": ("A",)}),
        InputSignal("rule-B", "rule", {"on": ("B",)}),
        InputSignal("elapsed", "time_cell", {"t0": -7.0}),
        InputSignal("stim-A", "pulse", {"window": (0.0, 1.5), "sigma": 1.0}),
        InputSignal("stim-B", "pulse", {"window": (0.5, 2.5), "sigma": 1.0}),
    ]
    layer_sizes = (2, 4, 2)
    manifest = tuple(range(8))
    return layer_sizes, structure, inputs, manifest
