"""Command-line interface.

Subcommands map onto the library one-to-one: simulate, equilibrium,
certify, synthesize, recruit (epsilon sweeps), fit, timescale, rtest and
predict.  Exit codes: 0 on success (a failing stability certificate is
still a successful run and reports pass: false), 2 on validation errors
(malformed files or flags), 3 on numerical failures.  Every flag has an
environment-variable override with the LTNET_ prefix (e.g. LTNET_SEED);
explicit flags win.  Reports are deterministic for identical inputs and
seeds, and existing output files are never overwritten without --force.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import warnings

import numpy as np

from . import io as ltio
from .control import InfeasibleExact, NegativeControl, multilayer_controls
from .equilibria import (
    NoCoveringPiece,
    NotCertified,
    equilibrium_map,
    lipschitz_constant,
    max_gain_matrix,
)
from .hierarchy import epsilon_sweep, simulate_hierarchy
from .io import ValidationError, write_report
from .network import simulate
from .stability import certify_hierarchy
from . import sysid

__all__ = ["main", "run"]

_ENV_PREFIX = "LTNET_"

_NUMERICAL_ERRORS = (
    NotCertified,
    NoCoveringPiece,
    InfeasibleExact,
    NegativeControl,
    sysid.SimulationDiverged,
    sysid.AllStartsFailed,
    sysid.NonPositiveCorrelations,
    np.linalg.LinAlgError,
    FloatingPointError,
)


def _env(name, default=None):
    return os.environ.get(_ENV_PREFIX + name.upper().replace("-", "_"), default)


def _add(parser, flag, **kw):
    """Flag with an LTNET_* environment fallback."""
    name = flag.lstrip("-")
    env_val = _env(name)
    if env_val is not None:
        kw["default"] = env_val
        kw.pop("required", None)
    kw.setdefault("help", "")
    kw["help"] += f" [env {_ENV_PREFIX}{name.upper().replace('-', '_')}]"
    parser.add_argument(flag, **kw)


def _floats(text, count=None):
    vals = [float(v) for v in str(text).replace(",", " ").split()]
    if count is not None and len(vals) != count:
        raise ValidationError(f"expected {count} numbers, got {len(vals)} in {text!r}")
    return vals


def _parse_x0(text, n):
    if text is None:
        return np.zeros(n)
    if not os.path.exists(str(text)):
        return np.array(_floats(text, n))
    x0 = np.loadtxt(text, ndmin=1).ravel()
    if x0.size != n:
        raise ValidationError(f"expected {n} numbers, got {x0.size} in {str(text)!r}")
    return x0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ltnet",
        description="linear-threshold network hierarchies: simulation, "
        "equilibria, certification, recruitment control and identification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a single network")
    _add(p, "--net", required=True, help="network JSON")
    _add(p, "--x0", help="initial state (comma list or file)")
    _add(p, "--tspan", default="0,10", help="t0,t1")
    _add(p, "--dt", help="fixed step (default tau/50)")
    _add(p, "--out", required=True, help="trajectory CSV path")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("equilibrium", help="equilibrium map of a network")
    _add(p, "--net", required=True)
    _add(p, "--at", help="evaluate at this input instead of dumping the map")
    _add(p, "--out", required=True, help="JSON output path")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("certify", help="layerwise stability certificates")
    _add(p, "--hierarchy", required=True, help="hierarchy JSON")
    _add(p, "--out", help="report JSON path (stdout when omitted)")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("synthesize", help="inhibition/recruitment controls")
    _add(p, "--hierarchy", required=True)
    _add(p, "--out", required=True, help="controls JSON path")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("recruit", help="epsilon sweep with controls")
    _add(p, "--hierarchy", required=True)
    _add(p, "--controls", help="controls JSON (default: synthesize)")
    _add(p, "--eps", default="0.5,0.25,0.1", help="comma list of ratios")
    _add(p, "--x0", help="stacked initial state (comma list or file)")
    _add(p, "--window", help="t_lo,t_hi (default 2 tau1, 10 tau1)")
    _add(p, "--out", help="report JSON path (stdout when omitted)")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("fit", help="fit a structured model to rate data")
    _add(p, "--problem", required=True, help="problem JSON")
    _add(p, "--data", help="directory with per-condition rate CSVs")
    _add(p, "--seed", required=True, help="RNG seed (stochastic step)")
    _add(p, "--starts", default="32")
    _add(p, "--maxiter", default="300")
    _add(p, "--out", help="report JSON path (stdout when omitted)")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("timescale", help="autocorrelation timescale of trials")
    _add(p, "--data", required=True, help="CSV, one trial per row")
    _add(p, "--binwidth", default="0.2")
    _add(p, "--lags", default="1:10", help="lag range lo:hi")
    _add(p, "--out", help="report JSON path (stdout when omitted)")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("rtest", help="two-sided permutation test")
    _add(p, "--a", required=True, help="first sample (CSV or comma list)")
    _add(p, "--b", required=True, help="second sample")
    _add(p, "--n-perm", default="1999")
    _add(p, "--seed", required=True)
    _add(p, "--out", help="report JSON path (stdout when omitted)")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("predict", help="rates of a fitted parameter vector")
    _add(p, "--problem", required=True)
    _add(p, "--data", help="directory with per-condition rate CSVs")
    _add(p, "--params", required=True, help="fit report JSON (for its z)")
    _add(p, "--out", help="report JSON path (stdout when omitted)")
    p.add_argument("--force", action="store_true")

    return ap


_PROBLEM_KEYS = ("layer_sizes", "structure", "inputs", "conditions", "manifest")
_PROBLEM_OPTIONAL = ("t0", "tf", "T", "tau_bounds", "c_bounds", "x0_max",
                     "gamma1", "gamma2", "sim_substeps")
_STRUCTURE_KEYS = ("block", "row", "col", "sign", "bound")
_INPUT_KEYS = ("name", "kind", "params")


def _known_keys(path, where, entry, known):
    """Reject a key outside known, so that a misspelled optional key does
    not silently take its default."""
    unknown = sorted(set(entry) - set(known)) if isinstance(entry, dict) else []
    if unknown:
        raise ValidationError(f"{path}: {where} has unknown key {unknown[0]!r}")


def _input_signal(path, k, entry):
    try:
        return sysid.InputSignal(entry["name"], entry["kind"], entry.get("params", {}))
    except KeyError as e:
        raise ValidationError(f"{path}: inputs entry {k} is missing key {e}")
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{path}: inputs entry {k}: {e}")


def _load_problem(path, data_dir):
    obj = ltio._load_json(path)
    _known_keys(path, "problem", obj, _PROBLEM_KEYS + _PROBLEM_OPTIONAL)
    try:
        for k, e in enumerate(obj["structure"]):
            _known_keys(path, f"structure entry {k}", e, _STRUCTURE_KEYS)
        for k, s in enumerate(obj.get("inputs", [])):
            _known_keys(path, f"inputs entry {k}", s, _INPUT_KEYS)
        structure = [
            sysid.WeightEntry(
                e["block"],
                ltio._integer(e["row"], f"{path}: structure entry {j} row"),
                ltio._integer(e["col"], f"{path}: structure entry {j} col"),
                **{k: e[k] for k in ("sign", "bound") if k in e},
            )
            for j, e in enumerate(obj["structure"])
        ]
        inputs = [_input_signal(path, k, s) for k, s in enumerate(obj.get("inputs", []))]
        problem = sysid.SysIdProblem(
            layer_sizes=obj["layer_sizes"],
            structure=structure,
            inputs=inputs,
            conditions=obj["conditions"],
            manifest=obj["manifest"],
            **{k: obj[k] for k in _PROBLEM_OPTIONAL if k in obj},
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"{path}: bad problem definition: {e}")
    if data_dir is not None:
        data = {}
        for cond in problem.conditions:
            csv_path = os.path.join(data_dir, f"{cond}.csv")
            _, times, vals = ltio.rates_from_csv(csv_path)
            grid = problem.t0 + problem.T * np.arange(len(times))
            off = np.flatnonzero(~(np.abs(times - grid) <= 1e-9 * problem.T))
            if off.size:
                k = int(off[0])
                raise ValidationError(
                    f"{csv_path}: data row {k + 1}: t = {float(times[k])!r} is off the "
                    f"grid t0 + k*T (expected {float(grid[k])!r})"
                )
            data[cond] = vals
        try:
            problem.attach_data(data)
        except ValueError as e:
            raise ValidationError(str(e))
    return problem


def _csv_numbers(path, ndmin=0):
    """The numbers of a comma-separated file; an unreadable, malformed or
    empty file raises ValidationError naming it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # loadtxt only warns on an empty file
        try:
            return np.loadtxt(path, delimiter=",", ndmin=ndmin)
        except (OSError, ValueError, UserWarning) as e:
            raise ValidationError(f"{path}: {e}")


def _sample(text):
    if os.path.exists(str(text)):
        return _csv_numbers(text).ravel()
    return np.array(_floats(text))


def _emit(args, payload, command):
    out = getattr(args, "out", None)
    text = write_report(payload, command, out, getattr(args, "force", False))
    if out is None:
        print(text)


def run(args) -> int:
    cmd = args.command
    if cmd == "simulate":
        net = ltio.load_network(args.net)
        t0, t1 = _floats(args.tspan, 2)
        dt = float(args.dt) if args.dt is not None else None
        traj = simulate(net, _parse_x0(args.x0, net.n), None, (t0, t1), dt)
        ltio.trajectory_to_csv(traj, args.out, args.force)
        return 0

    if cmd == "equilibrium":
        net = ltio.load_network(args.net)
        pa_map = equilibrium_map(net.W, net.m)
        if args.at is not None:
            d = np.array(_floats(args.at, net.n))
            payload = {
                "at": d.tolist(),
                "value": pa_map.eval(d).tolist(),
                "lipschitz": lipschitz_constant(pa_map),
            }
        else:
            payload = {
                "pieces": pa_map.to_jsonable(),
                "lipschitz": lipschitz_constant(pa_map),
                "max_gain": max_gain_matrix(pa_map).tolist(),
            }
        _emit(args, payload, cmd)
        return 0

    if cmd == "certify":
        h = ltio.load_hierarchy(args.hierarchy)
        cert = certify_hierarchy(h)
        layers = [
            {
                "layer": 1,
                "check": "boundedness",
                "pass": cert.layer1_bounded,
                **(
                    cert.layer1_certificate.to_dict()
                    if cert.layer1_certificate is not None
                    else {}
                ),
            }
        ]
        for i, c in enumerate(cert.certificates, start=2):
            layers.append({"layer": i, **c.to_dict()})
        _emit(args, {"layers": layers, "all_pass": cert.all_passed}, cmd)
        return 0

    if cmd == "synthesize":
        h = ltio.load_hierarchy(args.hierarchy)
        cert = certify_hierarchy(h)
        if not cert.all_passed:
            raise NotCertified("hierarchy failed certification; no controls")
        laws = multilayer_controls(h, cert)
        write_report(
            {"controls": ltio.controls_to_jsonable(laws)}, cmd, args.out, args.force
        )
        return 0

    if cmd == "recruit":
        h = ltio.load_hierarchy(args.hierarchy)
        cert = certify_hierarchy(h)
        if 2 not in cert.maps:
            # reference trajectories need certified-unique equilibrium maps
            raise NotCertified("lower layers failed certification; cannot sweep")
        if args.controls is not None:
            laws = ltio.load_controls(args.controls, h)
        else:
            laws = multilayer_controls(h, cert)
        eps_list = _floats(args.eps)
        window = tuple(_floats(args.window, 2)) if args.window else None
        x0 = None
        if args.x0 is not None:
            flat = _parse_x0(args.x0, sum(la.n for la in h.layers))
            x0 = [flat[s] for s in h.slices()]
        report = epsilon_sweep(h, laws, eps_list, x0=x0, window=window, maps=cert.maps)
        _emit(args, report.to_dict(), cmd)
        return 0

    if cmd == "fit":
        problem = _load_problem(args.problem, args.data)
        report = sysid.fit(
            problem,
            n_starts=int(args.starts),
            seed=int(args.seed),
            maxiter=int(args.maxiter),
        )
        payload = {
            "z": report.z.tolist(),
            "names": problem.param_names(),
            "f": report.f,
            "f_sse": report.f_sse,
            "f_corr": report.f_corr,
            "f_var": report.f_var,
            "r2": report.r2,
            "n_starts": report.n_starts,
            "best_start": report.best_start,
            "seed": report.seed,
        }
        _emit(args, payload, cmd)
        return 0

    if cmd == "timescale":
        trials = _csv_numbers(args.data, ndmin=2)
        lo, hi = (int(v) for v in str(args.lags).split(":"))
        A, tau = sysid.autocorr_timescale(
            trials, float(args.binwidth), range(lo, hi + 1)
        )
        _emit(args, {"amplitude": A, "tau": tau}, cmd)
        return 0

    if cmd == "rtest":
        a, b = _sample(args.a), _sample(args.b)
        p = sysid.randomization_test(
            a, b, n_perm=int(getattr(args, "n_perm")), seed=int(args.seed)
        )
        _emit(args, {"p_value": p, "n_perm": int(getattr(args, "n_perm"))}, cmd)
        return 0

    if cmd == "predict":
        problem = _load_problem(args.problem, args.data)
        params = ltio._load_json(args.params)
        z = params.get("z") if isinstance(params, dict) else params
        try:
            z = np.array(z, dtype=float)
        except (TypeError, ValueError):
            z = None
        n = len(problem.param_names())
        if z is None or z.shape != (n,) or not np.all(np.isfinite(z)):
            raise ValidationError(f"{args.params}: z must be a list of {n} numbers")
        est = sysid.predict(z, problem)
        payload = {"estimates": {c: v.tolist() for c, v in est.items()}}
        if problem.data is not None:
            payload["r2"] = sysid.r_squared(problem.data, est)
        _emit(args, payload, cmd)
        return 0

    raise ValidationError(f"unknown command {cmd!r}")


# flags whose value is a comma list of numbers
_LIST_FLAGS = ("--at", "--x0", "--tspan", "--eps", "--window", "--a", "--b")


def _attach_negative_lists(argv):
    """Write `--at -1,-1` as `--at=-1,-1`.

    argparse reads a value that starts with '-' and is not a plain
    negative number as the next flag.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _LIST_FLAGS and re.match(r"-\.?\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_negative_lists(argv))
    try:
        return run(args)
    except _NUMERICAL_ERRORS as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
