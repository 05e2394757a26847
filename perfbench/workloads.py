"""The four benchmark workloads: inputs made from a seed, a fixed job list, checks.

A workload object is built once per process (set-up: inputs are made or
copied from the seed), then ``jobs()`` gives the job list of one pass as
(label, callable) pairs.  The first pass's outputs go through ``check``,
which compares them with an oracle outside the timed region; every later
pass must reproduce the first pass's outputs exactly (``same``).

Jobs call the library through its module attributes (``sysid.fit``,
``equilibria.compose_maps``, ...), so the traced run sees them.

Run this file as ``python3 perfbench/workloads.py --record`` from the
repository root to rewrite ``expected/sweep.json`` and ``expected/fit.json``
from the current code.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import warnings
from functools import partial
from pathlib import Path

import numpy as np

from ltnet import cli, equilibria, hierarchy, io, network, stability, sysid

HERE = Path(__file__).resolve().parent
TOL_MAP = 1e-8  # map answers against the fixed-point oracles (tests 03 and 04)


class CheckFailed(Exception):
    """A job's output disagrees with its oracle or its recorded value."""


def same(a, b) -> bool:
    """Exact equality of job outputs (nested dicts, lists, arrays, scalars)."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def _clip(v, m):
    return np.minimum(np.maximum(v, 0.0), m)


def joint_fixed_point(W1, W2, W3, cbar, m_out, Win, m_in, cprime, tol=1e-13):
    """Oracle for x = [W1 x + W2 y + c']_0^m_out, y = [Win y + W3 x + cbar]_0^m_in."""
    x, y = np.zeros(W1.shape[0]), np.zeros(Win.shape[0])
    for _ in range(200_000):
        y_new = _clip(Win @ y + W3 @ x + cbar, m_in)
        x_new = _clip(W1 @ x + W2 @ y_new + cprime, m_out)
        gap = max(np.max(np.abs(x_new - x)), np.max(np.abs(y_new - y)))
        x, y = x_new, y_new
        if gap <= tol:
            return x
    raise CheckFailed("joint fixed-point oracle did not converge")


def random_contractive(rng, n, n_finite, rho):
    """W with rho(|W|) = rho and n_finite randomly placed finite ceilings."""
    W = rng.normal(size=(n, n))
    W *= rho / np.max(np.abs(np.linalg.eigvals(np.abs(W))))
    m = np.full(n, np.inf)
    m[rng.permutation(n)[:n_finite]] = rng.uniform(0.5, 3.0, size=n_finite)
    return W, m


def input_radius(m):
    return 2.0 * (1.0 + np.max(m[np.isfinite(m)], initial=1.0))


# ---------------------------------------------------------------------------
# fit: structured identification at a fixed optimizer budget
# ---------------------------------------------------------------------------

# ground truth of the two-channel round trip (acceptance test 08)
Z_TRUE = np.concatenate([
    [-0.4, -0.4, 0.5, 0.5, -0.6, -0.6, 0.5, 0.5, 0.4, 0.4, -0.3, -0.3,
     0.25, 0.25, 0.35, 0.35, 0.45, 0.45, -0.5, -0.5, 0.3, 0.3,
     4.0, 4.0, 2.0, 2.0, 0.25, 0.25, 3.0, 3.0],
    [3.36, 1.68, 0.70], np.full(8, 0.2), np.full(16, 0.1)])
FIT_EXPECTED = HERE / "expected" / "fit.json"
TOL_TRAJ = 1e-9  # RK4 states against the recorded ones, relative plus absolute


class Fit:
    """Two sysid.fit jobs on the two-channel structure (57 parameters, 2 conditions,
    280 RK4 steps per simulation), 2 starts and 4 L-BFGS-B iterations each.

    Starts and budget are fixed, so every seed asks for the same optimizer
    work; the seed draws the measurement noise on the ground-truth rates.
    """

    FIT_SEEDS, STARTS, MAXITER = (0, 1), 2, 4
    NOISE = 0.02  # noise sd as a share of each rate series' sd

    def __init__(self, seed, workdir):
        sizes, structure, inputs, manifest = sysid.two_channel_hierarchy_structure()
        self.problem = sysid.SysIdProblem(sizes, structure, inputs, ("A", "B"),
                                          manifest, x0_max=2.0)
        rng = np.random.default_rng(seed)
        clean = sysid.predict(Z_TRUE, self.problem)
        self.problem.attach_data({
            c: np.maximum(v + rng.normal(scale=self.NOISE * v.std(axis=0), size=v.shape), 0.0)
            for c, v in clean.items()})

    def jobs(self):
        return [(f"fit[seed={s}]", lambda s=s: self._fit(s)) for s in self.FIT_SEEDS]

    def _fit(self, s):
        r = sysid.fit(self.problem, n_starts=self.STARTS, seed=s, maxiter=self.MAXITER)
        return {"z": np.array(r.z), "f": r.f, "f_sse": r.f_sse, "f_corr": r.f_corr,
                "f_var": r.f_var, "r2": r.r2, "starts": r.starts, "best": r.best_start}

    def check(self, label, out):
        self._check_trajectories()
        f = sysid.objective(out["z"], self.problem)[0]
        _require(f == out["f"], f"f {out['f']!r} != objective(z) {f!r}")
        _require(math.isfinite(out["r2"]) and out["r2"] <= 1.0, f"r2 {out['r2']!r}")
        f_ref, r2_ref = self._oracle(out["z"])
        _require(abs(f - f_ref) <= 1e-9 * abs(f_ref), f"f {f!r} != oracle {f_ref!r}")
        _require(abs(out["r2"] - r2_ref) <= 1e-9 * max(1.0, abs(r2_ref)),
                 f"r2 {out['r2']!r} != oracle {r2_ref!r}")

    def fixed_z(self):
        """Z_TRUE and the first start of each fit job: rows of one batch."""
        lo, hi = self.problem.bounds()
        return np.vstack([Z_TRUE] + [np.random.default_rng(s).uniform(lo, hi)
                                     for s in self.FIT_SEEDS])

    def _check_trajectories(self):
        """simulate_candidates on the fixed batch, and predict of Z_TRUE alone,
        agree with the states recorded in expected/fit.json."""
        want = np.array(json.loads(FIT_EXPECTED.read_text())["states"])  # (z, cond, K, n)
        states, diverged = self.problem.simulate_candidates(self.fixed_z())
        _require(not diverged.any(), f"fixed z diverged: {diverged}")
        single = sysid.predict(Z_TRUE, self.problem)
        single = np.stack([single[c] for c in self.problem.conditions])
        for what, got, exp in [("batch", states, want),
                               ("predict(Z_TRUE)", single, want[0][..., self.problem.manifest])]:
            _require(got.shape == exp.shape, f"{what}: shape {got.shape} != {exp.shape}")
            gap = float(np.max(np.abs(got - exp) - TOL_TRAJ * np.abs(exp)))
            _require(gap <= TOL_TRAJ, f"{what}: states off the recorded ones by {gap:.3e}")

    def _oracle(self, z):
        """Objective and R^2 of z written out from their definitions."""
        p = self.problem
        est = sysid.predict(z, p)
        e = np.stack([est[c].T for c in p.conditions])  # (condition, node, time)
        r = np.stack([p.data[c].T for c in p.conditions])
        f_sse = float(((e - r) ** 2).sum())
        corr = []
        for a, b in zip(e.reshape(-1, p.K), r.reshape(-1, p.K)):
            flat_a = np.linalg.norm(a - a.mean()) < 1e-12
            flat_b = np.linalg.norm(b - b.mean()) < 1e-12
            corr.append(1.0 if flat_a and flat_b else 0.0 if flat_a or flat_b
                        else np.corrcoef(a, b)[0, 1])
        f_var = float((((e.std(axis=-1, ddof=1) - r.std(axis=-1, ddof=1)) ** 4).sum()) ** 0.25)
        f = f_sse + p.gamma1 * (1.0 - np.mean(corr)) + p.gamma2 * f_var
        ss_tot = float(((r - r.mean(axis=-1, keepdims=True)) ** 2).sum())
        return float(f), 1.0 - f_sse / ss_tot


# ---------------------------------------------------------------------------
# sweep: the CLI's certify / synthesize / recruit on fixed hierarchies
# ---------------------------------------------------------------------------

SWEEP_CASES = {  # hierarchy file -> epsilon list of its recruit run
    "example_oscillator": "0.5,0.1",
    "case_study_lc": "0.5,0.3",
    "case_study_pd": "0.5,0.3",
    "recruitment_hierarchy": "0.5,0.3",
}
SWEEP_REL, SWEEP_ABS = 1e-6, 1e-9  # tolerance on recorded sweep floats
SWEEP_EXPECTED = HERE / "expected" / "sweep.json"


class Sweep:
    """certify, synthesize and recruit through the CLI on the three bundled
    fixtures and the 3-layer recruitment hierarchy, plus an empirical decay
    check of every certified layer.  The hierarchies and epsilon lists are
    fixed; the seed draws the decay checks' initial states.
    """

    DECAY_TRIALS = 2

    def __init__(self, seed, workdir):
        self.dir = Path(workdir)
        fixtures = Path(cli.__file__).parent / "fixtures"
        for case in SWEEP_CASES:
            src = HERE / "inputs" / f"{case}.json"
            shutil.copyfile(src if src.exists() else fixtures / f"{case}.json",
                            self.dir / f"{case}.json")
        self.decay_seed = int(np.random.default_rng(seed).integers(0, 2**31))

    def jobs(self):
        out = []
        for case, eps in SWEEP_CASES.items():
            h = str(self.dir / f"{case}.json")
            cert, ctl, rec = (str(self.dir / f"{case}.{kind}.json")
                              for kind in ("certify", "synthesize", "recruit"))
            out += [
                (f"{case}:certify", partial(_cli, ["certify", "--hierarchy", h], cert)),
                (f"{case}:synthesize", partial(_cli, ["synthesize", "--hierarchy", h], ctl)),
                (f"{case}:recruit", partial(_cli, ["recruit", "--hierarchy", h, "--controls",
                                                   ctl, "--eps", eps], rec)),
                (f"{case}:decay", partial(self._decay, h)),
            ]
        return out

    def _decay(self, path):
        """Envelope check of every certified layer's task-relevant block."""
        h = io.load_hierarchy(path)
        cert = stability.certify_hierarchy(h)
        passed = {}
        for i, c in enumerate(cert.certificates, start=2):
            if not c.passed:
                continue
            la = h.layers[i - 1]
            block = network.LTNetwork(la.W[la.plus, la.plus], la.c[la.plus],
                                      la.m[la.plus], tau=la.tau)
            rep = stability.empirical_decay_check(block, c, trials=self.DECAY_TRIALS,
                                                  seed=self.decay_seed + i)
            passed[str(i)] = rep.passed
        return passed

    def check(self, label, out):
        case, kind = label.split(":")
        if kind == "decay":
            _require(out and all(out.values()), f"envelope violated {out}")
            return
        _close(_recorded(kind, out), json.loads(SWEEP_EXPECTED.read_text())[case][kind])


def record_fit():
    """Rewrite the states the fit checks against, computed by the current code."""
    fit = Fit(0, None)
    states, diverged = fit.problem.simulate_candidates(fit.fixed_z())
    assert not diverged.any()
    doc = {"rows": "Z_TRUE, then the first start of fit seeds 0 and 1",
           "shape": "(z, condition, time, node)", "states": states.tolist()}
    FIT_EXPECTED.write_text(json.dumps(doc) + "\n")


def _cli(argv, report):
    rc = cli.main(argv + ["--out", report, "--force"])
    if rc != 0:
        raise CheckFailed(f"ltnet {argv[0]} exited {rc}")
    return json.loads(Path(report).read_text())


def _recorded(kind, report):
    """The fields of a sweep report that are compared with their recorded values."""
    if kind == "certify":
        return {"all_pass": report["all_pass"], "rho": [la.get("rho") for la in report["layers"]]}
    if kind == "synthesize":
        return {"K": [c["K"] for c in report["controls"]]}
    return {k: report[k] for k in ("tracking_monotone", "inhibited_monotone",
                                   "tracking_errors", "inhibited_norms")}


def record_sweep():
    """Rewrite the values the sweep checks against, computed by the current code."""
    expected = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for label, job in Sweep(0, tmp).jobs():
            case, kind = label.split(":")
            if kind != "decay":
                expected.setdefault(case, {})[kind] = _recorded(kind, job())
    SWEEP_EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def _close(got, exp):
    """Recorded floats agree within SWEEP_REL relative or SWEEP_ABS absolute."""
    if isinstance(exp, dict):
        _require(isinstance(got, dict) and got.keys() == exp.keys(), "keys changed")
        for k in exp:
            _close(got[k], exp[k])
    elif isinstance(exp, list):
        _require(isinstance(got, list) and len(got) == len(exp), "length changed")
        for g, e in zip(got, exp):
            _close(g, e)
    elif exp is None or isinstance(exp, (bool, str)):
        _require(got == exp, f"{got!r} != {exp!r}")
    else:
        _require(got is not None and abs(got - exp) <= SWEEP_ABS + SWEEP_REL * abs(exp),
                 f"{got!r} != recorded {exp!r}")


# ---------------------------------------------------------------------------
# map_build: equilibrium maps, certificates and compositions of random pairs
# ---------------------------------------------------------------------------


class MapBuild:
    """equilibrium_map, ges_certificate and compose_maps on 9 contractive pairs.

    The sizes and ceiling counts are fixed, because the candidate count grows
    as 3^n; the seed draws weights, ceiling values and query points.
    """

    # (inner n, outer n, finite ceilings inside, finite ceilings outside)
    SCHEDULE = [(2, 2, 1, 1), (3, 2, 1, 1), (2, 3, 1, 1), (3, 3, 1, 1), (3, 3, 1, 1),
                (3, 3, 2, 1), (3, 3, 2, 1), (4, 3, 2, 1), (3, 4, 1, 2)]
    QUERIES = 5

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.pairs = [self._pair(rng, *spec) for spec in self.SCHEDULE]

    @classmethod
    def _pair(cls, rng, n_in, n_out, f_in, f_out):
        # keep pairs whose composite passes with the Neumann gain bound
        # (I - |Win|)^-1, which dominates every piece's |F|; the library's
        # certificate uses the exact gain and so passes as well
        while True:
            Win, m_in = random_contractive(rng, n_in, f_in, rng.uniform(0.2, 0.85))
            W1, m_out = random_contractive(rng, n_out, f_out, rng.uniform(0.2, 0.7))
            W2 = rng.uniform(-0.5, 0.5, size=(n_out, n_in)) / n_in
            W3 = rng.uniform(-0.5, 0.5, size=(n_in, n_out)) / n_out
            cbar = rng.uniform(-1.0, 2.0, size=n_in)
            gain = np.linalg.inv(np.eye(n_in) - np.abs(Win))
            M = np.abs(W1) + np.abs(W2) @ gain @ np.abs(W3)
            if np.max(np.abs(np.linalg.eigvals(M))) < 0.99:
                break
        D = rng.uniform(-1.0, 1.0, size=(cls.QUERIES, n_out)) * input_radius(m_out)
        return dict(Win=Win, m_in=m_in, W1=W1, m_out=m_out, W2=W2, W3=W3, cbar=cbar, D=D)

    def jobs(self):
        return [(f"pair{k}{spec}", lambda p=p: self._build(p))
                for k, (spec, p) in enumerate(zip(self.SCHEDULE, self.pairs))]

    @staticmethod
    def _build(p):
        inner = equilibria.equilibrium_map(p["Win"], p["m_in"])
        cert = stability.ges_certificate(p["W1"], p["W2"], p["W3"],
                                         equilibria.max_gain_matrix(inner))
        composite = equilibria.compose_maps(inner, p["W1"], p["W2"], p["W3"], p["cbar"],
                                            p["m_out"], certificate=cert)
        return {"passed": cert.passed, "rho": cert.rho,
                "inner": _pieces(inner), "composite": _pieces(composite)}

    def check(self, label, out):
        _require(out["passed"], "certificate failed")
        p = self.pairs[int(label[4:label.index("(")])]
        composite = _as_map(out["composite"], len(p["m_out"]))
        for d, v in zip(p["D"], composite.eval_many(p["D"])):
            x = joint_fixed_point(p["W1"], p["W2"], p["W3"], p["cbar"], p["m_out"],
                                  p["Win"], p["m_in"], d)
            _require(np.max(np.abs(v - x)) <= TOL_MAP, f"composite off at {d}")


def _pieces(pa_map):
    return [(p.label, p.F, p.f, p.G, p.g) for p in pa_map.pieces]


def _as_map(pieces, n):
    return equilibria.PiecewiseAffineMap(
        pieces=tuple(equilibria.AffinePiece(F=F, f=f, G=G, g=g, label=lab)
                     for lab, F, f, G, g in pieces), domain_dim=n, output_dim=n)


# ---------------------------------------------------------------------------
# map_query: large equilibrium maps built once and read many times
# ---------------------------------------------------------------------------


class MapQuery:
    """Three n = 7-8 maps, each built once and then read about 10^3 times:
    single-point eval, rom_simulate (eval at every RK4 stage), eval_many in
    batches and reference_trajectory.  The networks are fixed and the seed
    draws the query points: eval's scan stops at the first piece whose region
    holds the point, so its cost depends on where a network's equilibria lie,
    and networks drawn per seed made the work of a pass differ by 20%.
    """

    NETS = [(7, 4), (8, 4), (8, 5)]  # (n, finite ceilings): 648, 1296, 1944 pieces
    NET_SEED = 0
    SINGLE, BATCHES, BATCH = 40, 2, 256
    # several short ROM runs from spread-out starts, so the pieces their
    # evaluations land on (and so the scan cost) vary less with the seed
    ROM_RUNS, ROM_STEPS, REF_SAMPLES = 16, 1, 400

    def __init__(self, seed, workdir):
        nets, points = np.random.default_rng(self.NET_SEED), np.random.default_rng(seed)
        self.cases = [self._case(nets, points, n, nf) for n, nf in self.NETS]
        self.maps = [None] * len(self.cases)

    @classmethod
    def _case(cls, rng, points, n, n_finite):
        W, m = random_contractive(rng, n, n_finite, rng.uniform(0.3, 0.8))
        R = input_radius(m)
        # an n-node top layer with box [0, 8]^n; the lower layer's drive
        # W_up x + c is centred on 0 over that box, so ROM and reference
        # queries spread over all regimes rather than a seed-dependent corner
        W_top, _ = random_contractive(rng, n, 0, 0.5)
        top = network.LTNetwork(W_top, rng.uniform(1.0, 3.0, size=n), np.full(n, 8.0), tau=1.0)
        W_up = rng.normal(scale=R / 8.0, size=(n, n))
        c = -W_up @ np.full(n, 4.0) + rng.uniform(-0.25, 0.25, size=n) * R
        below = network.LTNetwork(W, c, m, tau=0.1)
        W_down = rng.normal(scale=0.05, size=(n, n))
        h = hierarchy.Hierarchy((top, below), (W_down,), (W_up,))
        return dict(h=h, W=W, m=m, top=top,
                    x0=points.uniform(0.0, 8.0, size=n),
                    rom_x0=points.uniform(0.0, 8.0, size=(cls.ROM_RUNS, n)),
                    D=points.uniform(-1.0, 1.0, size=(cls.SINGLE, n)) * R,
                    batches=[points.uniform(-1.0, 1.0, size=(cls.BATCH, n)) * R
                             for _ in range(cls.BATCHES)])

    def jobs(self):
        out = []
        for k, c in enumerate(self.cases):
            out += [
                (f"net{k}:build", lambda k=k, c=c: self._build(k, c)),
                (f"net{k}:eval", lambda k=k, c=c: np.array([self.maps[k].eval(d) for d in c["D"]])),
                (f"net{k}:rom", lambda k=k, c=c: np.array([hierarchy.rom_simulate(
                    c["h"], self.maps[k], x0, (0.0, self.ROM_STEPS * c["top"].tau / 50.0)
                ).samples for x0 in c["rom_x0"]])),
                (f"net{k}:eval_many", lambda k=k, c=c: [self.maps[k].eval_many(B) for B in c["batches"]]),
                (f"net{k}:reference", lambda k=k, c=c: self._reference(k, c)),
            ]
        return out

    def _build(self, k, c):
        self.maps[k] = equilibria.equilibrium_map(c["W"], c["m"])
        return len(self.maps[k])

    def _reference(self, k, c):
        return hierarchy.reference_trajectory(c["h"], self._upper(c), 2, self.maps[k]).samples

    def _upper(self, c):
        """The top layer alone, simulated over REF_SAMPLES steps."""
        dt = c["top"].tau / 50.0
        return network.simulate(c["top"], c["x0"], None, (0.0, self.REF_SAMPLES * dt), dt)

    def _oracle(self, c, d):
        return equilibria.solve_equilibrium_iterative(c["W"], c["m"], d, tol=1e-12)

    def check(self, label, out):
        k, kind = int(label[3:label.index(":")]), label.split(":")[1]
        c = self.cases[k]
        if kind == "build":
            _require(out == np.prod([3 if np.isfinite(v) else 2 for v in c["m"]]),
                     f"{out} pieces")
            return
        got = np.vstack(out) if kind == "eval_many" else out
        if kind == "rom":
            want = np.array([self._rom_oracle(c, x0) for x0 in c["rom_x0"]])
        else:
            if kind == "eval":
                D = c["D"]
            elif kind == "eval_many":
                D = np.vstack(c["batches"])
            else:  # the reference's drive: layer 1's trajectory through W_up, plus c
                D = self._upper(c).samples @ c["h"].W_up[0].T + c["h"].layers[1].c
            want = np.array([self._oracle(c, d) for d in D])
        gap = float(np.max(np.abs(got - want)))
        _require(gap <= TOL_MAP, f"off by {gap:.3e}")

    def _rom_oracle(self, c, x0):
        """The reduced model stepped with fixed-point solves for the slaved layer."""
        h, top = c["h"], c["top"]
        below = h.layers[1]
        W12, W21 = h.W_down[0], h.W_up[0]

        def f(x):
            slaved = self._oracle(c, W21 @ x + below.c)
            return (-x + _clip(top.W @ x + W12 @ slaved + top.c, top.m)) / top.tau

        dt = top.tau / 50.0
        x = _clip(x0, top.m)
        out = [x]
        for _ in range(self.ROM_STEPS):
            k1 = f(x)
            k2 = f(x + 0.5 * dt * k1)
            k3 = f(x + 0.5 * dt * k2)
            k4 = f(x + dt * k3)
            x = _clip(x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4), top.m)
            out.append(x)
        return np.array(out)


WORKLOADS = {"fit": Fit, "sweep": Sweep, "map_build": MapBuild, "map_query": MapQuery}


def make(name, seed, workdir):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return WORKLOADS[name](seed, workdir)


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/workloads.py --record")
    record_sweep()
    record_fit()
