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


def _floats(text, count=None, source=None):
    vals = [float(v) for v in str(text).replace(",", " ").split()]
    if count is not None and len(vals) != count:
        raise ValidationError(f"expected {count} numbers, got {len(vals)} in {source or text!r}")
    return vals


def _numbers(text, count=None):
    """The numbers of a comma list, or of the file that text names, as an
    array.  A file may separate them by commas or whitespace (_floats'
    rule); one that cannot be read, holds a token that is not a number or
    holds other than count numbers raises ValidationError naming it."""
    if not os.path.exists(text):
        return np.array(_floats(text, count))
    try:
        with open(text) as fh:
            return np.array(_floats(fh.read(), count, text))
    except (OSError, ValueError) as e:
        raise ValidationError(f"{text}: {e}")


_REPORT_OUT = ("--out", dict(help="report JSON path (stdout when omitted)"))

# subcommand -> (its help, its flags as (flag, _add keywords)); each also takes --force
_COMMANDS = {
    "simulate": ("integrate a single network", [
        ("--net", dict(required=True, help="network JSON")),
        ("--x0", dict(help="initial state (comma list or file)")),
        ("--tspan", dict(default="0,10", help="t0,t1")),
        ("--dt", dict(help="fixed step (default tau/50)")),
        ("--out", dict(required=True, help="trajectory CSV path")),
    ]),
    "equilibrium": ("equilibrium map of a network", [
        ("--net", dict(required=True)),
        ("--at", dict(help="evaluate at this input instead of dumping the map")),
        ("--out", dict(required=True, help="JSON output path")),
    ]),
    "certify": ("layerwise stability certificates", [
        ("--hierarchy", dict(required=True, help="hierarchy JSON")),
        _REPORT_OUT,
    ]),
    "synthesize": ("inhibition/recruitment controls", [
        ("--hierarchy", dict(required=True)),
        ("--out", dict(required=True, help="controls JSON path")),
    ]),
    "recruit": ("epsilon sweep with controls", [
        ("--hierarchy", dict(required=True)),
        ("--controls", dict(help="controls JSON (default: synthesize)")),
        ("--eps", dict(default="0.5,0.25,0.1", help="comma list of ratios")),
        ("--x0", dict(help="stacked initial state (comma list or file)")),
        ("--window", dict(help="t_lo,t_hi (default 2 tau1, 10 tau1)")),
        _REPORT_OUT,
    ]),
    "fit": ("fit a structured model to rate data", [
        ("--problem", dict(required=True, help="problem JSON")),
        ("--data", dict(help="directory with per-condition rate CSVs")),
        ("--seed", dict(required=True, help="RNG seed (stochastic step)")),
        ("--starts", dict(default="32")),
        ("--maxiter", dict(default="300")),
        _REPORT_OUT,
    ]),
    "timescale": ("autocorrelation timescale of trials", [
        ("--data", dict(required=True, help="CSV, one trial per row")),
        ("--binwidth", dict(default="0.2")),
        ("--lags", dict(default="1:10", help="lag range lo:hi")),
        _REPORT_OUT,
    ]),
    "rtest": ("two-sided permutation test", [
        ("--a", dict(required=True, help="first sample (CSV or comma list)")),
        ("--b", dict(required=True, help="second sample")),
        ("--n-perm", dict(default="1999")),
        ("--seed", dict(required=True)),
        _REPORT_OUT,
    ]),
    "predict": ("rates of a fitted parameter vector", [
        ("--problem", dict(required=True)),
        ("--data", dict(help="directory with per-condition rate CSVs")),
        ("--params", dict(required=True, help="fit report JSON (for its z)")),
        _REPORT_OUT,
    ]),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The ltnet parser: only command's subparser when command names a
    subcommand, every subcommand's otherwise (no command, --help, an
    unknown one).  LTNET_* defaults are read here.  For an argv that
    starts with command, both parsers print the same bytes.
    """
    ap = argparse.ArgumentParser(
        prog="ltnet",
        description="linear-threshold network hierarchies: simulation, "
        "equilibria, certification, recruitment control and identification",
    )
    lean = command in _COMMANDS
    # the lean usage line lists every subcommand too; the full parser keeps
    # no metavar, which its missing- and unknown-command errors would name
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar="{" + ",".join(_COMMANDS) + "}" if lean else None)
    for name, (help_text, flags) in _COMMANDS.items():
        if name == command or not lean:
            p = sub.add_parser(name, help=help_text)
            for flag, kw in flags:
                _add(p, flag, **kw)
            p.add_argument("--force", action="store_true")
    return ap


_PROBLEM_KEYS = ("layer_sizes", "structure", "inputs", "conditions", "manifest")
_PROBLEM_OPTIONAL = ("t0", "tf", "T", "tau_bounds", "c_bounds", "x0_max",
                     "gamma1", "gamma2", "sim_substeps")
_STRUCTURE_KEYS = ("block", "row", "col", "sign", "bound")
_INPUT_KEYS = ("name", "kind", "params")


def _input_signal(path, k, entry):
    try:
        return sysid.InputSignal(entry["name"], entry["kind"], entry.get("params", {}))
    except KeyError as e:
        raise ValidationError(f"{path}: inputs entry {k} is missing key {e}")
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{path}: inputs entry {k}: {e}")


def _load_problem(path, data_dir):
    obj = ltio._load_json(path)
    ltio._known_keys(f"{path}: problem", obj, _PROBLEM_KEYS + _PROBLEM_OPTIONAL)
    try:
        for k, e in enumerate(obj["structure"]):
            ltio._known_keys(f"{path}: structure entry {k}", e, _STRUCTURE_KEYS)
        for k, s in enumerate(obj.get("inputs", [])):
            ltio._known_keys(f"{path}: inputs entry {k}", s, _INPUT_KEYS)
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
        x0 = np.zeros(net.n) if args.x0 is None else _numbers(args.x0, net.n)
        traj = simulate(net, x0, None, (t0, t1), dt)
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
        _emit(args, certify_hierarchy(h).to_dict(), cmd)
        return 0

    if cmd == "synthesize":
        h = ltio.load_hierarchy(args.hierarchy)
        laws = multilayer_controls(h)
        _emit(args, {"controls": ltio.controls_to_jsonable(laws)}, cmd)
        return 0

    if cmd == "recruit":
        h = ltio.load_hierarchy(args.hierarchy)
        if args.controls is not None:
            laws = ltio.load_controls(args.controls, h)
        else:
            laws = multilayer_controls(h)
        eps_list = _floats(args.eps)
        window = tuple(_floats(args.window, 2)) if args.window else None
        x0 = None
        if args.x0 is not None:
            flat = _numbers(args.x0, sum(la.n for la in h.layers))
            x0 = [flat[s] for s in h.slices()]
        report = epsilon_sweep(h, laws, eps_list, x0=x0, window=window)
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
        n_perm = int(args.n_perm)
        p = sysid.randomization_test(_numbers(args.a), _numbers(args.b), n_perm, int(args.seed))
        _emit(args, {"p_value": p, "n_perm": n_perm}, cmd)
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


def _reads_as_numbers(tok):
    try:
        _floats(tok)
    except ValueError:
        return False
    return True


def _attach_negative_lists(argv):
    """Write `--at -1,-1` as `--at=-1,-1`.

    argparse reads a value that starts with '-' and is not a plain
    negative number (`-1,-1`, `-inf`) as the next flag, so a token after
    a list flag is attached to it whenever _floats reads it.  A flag such
    as `--out` does not read as numbers, so argparse refuses `--at --out x`.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _LIST_FLAGS and _reads_as_numbers(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _attach_negative_lists(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
