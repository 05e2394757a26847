"""Command-line interface.

Subcommands map onto the library one-to-one: simulate, equilibrium,
certify, synthesize, recruit (epsilon sweeps), fit, timescale, rtest and
predict.  _COMMANDS lists each with its help, its handler and its flags.
main parses the flags and run dispatches: it checks --out, calls the
handler, which reads its files through ltnet.io and returns its report
(simulate writes its CSV itself), and writes the report once, to --out
or to stdout.  Exit codes: 0 on success (a failing stability certificate
is still a successful run and reports pass: false), 2 on validation
errors (malformed files or flags, or an --out that exists without
--force, is a directory or lies in a missing directory, refused before
any work), 3 on numerical failures.  Every flag has an
environment-variable override with the LTNET_ prefix (e.g. LTNET_SEED);
explicit flags win.  Reports are deterministic for identical inputs and
seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

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
from .hierarchy import epsilon_sweep
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


def _add(parser, flag, **kw):
    """Flag with an LTNET_* environment fallback."""
    env = _ENV_PREFIX + flag.lstrip("-").upper().replace("-", "_")
    if (env_val := os.environ.get(env)) is not None:
        kw["default"] = env_val
        kw.pop("required", None)
    kw.setdefault("help", "")
    kw["help"] += f" [env {env}]"
    parser.add_argument(flag, **kw)


def _numbers(text, count=None):
    """ltio.read_numbers(text), refused unless it holds count numbers."""
    vals = ltio.read_numbers(text)
    if count is not None and len(vals) != count:
        raise ValidationError(f"expected {count} numbers, got {len(vals)} in {text!r}")
    return vals


def _lags(text):
    """The lag range lo:hi, both ends included."""
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}") from None
    return range(lo, hi + 1)


def _simulate(args):
    net = ltio.load_network(args.net)
    t0, t1 = _numbers(args.tspan, 2).tolist()
    x0 = np.zeros(net.n) if args.x0 is None else _numbers(args.x0, net.n)
    traj = simulate(net, x0, None, (t0, t1), args.dt)
    ltio.trajectory_to_csv(traj, args.out, args.force)


def _equilibrium(args):
    net = ltio.load_network(args.net)
    pa_map = equilibrium_map(net.W, net.m)
    if args.at is None:
        return {"pieces": pa_map.to_jsonable(), "lipschitz": lipschitz_constant(pa_map),
                "max_gain": max_gain_matrix(pa_map).tolist()}
    d = _numbers(args.at, net.n)
    return {"at": d.tolist(), "value": pa_map.eval(d).tolist(),
            "lipschitz": lipschitz_constant(pa_map)}


def _certify(args):
    return certify_hierarchy(ltio.load_hierarchy(args.hierarchy)).to_dict()


def _synthesize(args):
    laws = multilayer_controls(ltio.load_hierarchy(args.hierarchy))
    return {"controls": ltio.controls_to_jsonable(laws)}


def _recruit(args):
    h = ltio.load_hierarchy(args.hierarchy)
    laws = (multilayer_controls(h) if args.controls is None
            else ltio.load_controls(args.controls, h))
    eps_list = _numbers(args.eps)
    window = tuple(_numbers(args.window, 2).tolist()) if args.window else None
    x0 = None
    if args.x0 is not None:
        flat = _numbers(args.x0, sum(la.n for la in h.layers))
        x0 = [flat[s] for s in h.slices()]
    return epsilon_sweep(h, laws, eps_list, x0=x0, window=window).to_dict()


def _fit(args):
    problem = ltio.load_problem(args.problem, args.data)
    report = sysid.fit(problem, n_starts=args.starts, seed=args.seed, maxiter=args.maxiter)
    fields = ("f", "f_sse", "f_corr", "f_var", "r2", "n_starts", "best_start", "seed")
    return {"z": report.z.tolist(), "names": problem.param_names(),
            **{k: getattr(report, k) for k in fields}}


def _timescale(args):
    trials = ltio.trials_from_csv(args.data)
    A, tau = sysid.autocorr_timescale(trials, args.binwidth, args.lags)
    return {"amplitude": A, "tau": tau}


def _rtest(args):
    p = sysid.randomization_test(_numbers(args.a), _numbers(args.b), args.n_perm, args.seed)
    return {"p_value": p, "n_perm": args.n_perm}


def _predict(args):
    problem = ltio.load_problem(args.problem, args.data)
    z = ltio.load_fit_z(args.params, len(problem.param_names()))
    est = sysid.predict(z, problem)
    report = {"estimates": {c: v.tolist() for c, v in est.items()}}
    if problem.data is not None:
        report["r2"] = sysid.r_squared(problem.data, est)
    return report


_REPORT_OUT = ("--out", dict(help="report JSON path (stdout when omitted)"))

# subcommand -> (its help, its handler, its flags as (flag, _add keywords));
# each also takes --force.  A flag's type also converts its LTNET_* default.
_COMMANDS = {
    "simulate": ("integrate a single network", _simulate, [
        ("--net", dict(required=True, help="network JSON")),
        ("--x0", dict(help="initial state (comma list or file)")),
        ("--tspan", dict(default="0,10", help="t0,t1")),
        ("--dt", dict(type=float, help="fixed step (default tau/50)")),
        ("--out", dict(required=True, help="trajectory CSV path")),
    ]),
    "equilibrium": ("equilibrium map of a network", _equilibrium, [
        ("--net", dict(required=True)),
        ("--at", dict(help="evaluate at this input instead of dumping the map")),
        _REPORT_OUT,
    ]),
    "certify": ("layerwise stability certificates", _certify, [
        ("--hierarchy", dict(required=True, help="hierarchy JSON")),
        _REPORT_OUT,
    ]),
    "synthesize": ("inhibition/recruitment controls", _synthesize, [
        ("--hierarchy", dict(required=True)),
        _REPORT_OUT,
    ]),
    "recruit": ("epsilon sweep with controls", _recruit, [
        ("--hierarchy", dict(required=True)),
        ("--controls", dict(help="controls JSON (default: synthesize)")),
        ("--eps", dict(default="0.5,0.25,0.1", help="comma list of ratios")),
        ("--x0", dict(help="stacked initial state (comma list or file)")),
        ("--window", dict(help="t_lo,t_hi (default 2 tau1, 10 tau1)")),
        _REPORT_OUT,
    ]),
    "fit": ("fit a structured model to rate data", _fit, [
        ("--problem", dict(required=True, help="problem JSON")),
        ("--data", dict(help="directory with per-condition rate CSVs")),
        ("--seed", dict(required=True, type=int, help="RNG seed (stochastic step)")),
        ("--starts", dict(default=32, type=int)),
        ("--maxiter", dict(default=300, type=int)),
        _REPORT_OUT,
    ]),
    "timescale": ("autocorrelation timescale of trials", _timescale, [
        ("--data", dict(required=True, help="CSV, one trial per row")),
        ("--binwidth", dict(default=0.2, type=float)),
        ("--lags", dict(default="1:10", type=_lags, help="lag range lo:hi")),
        _REPORT_OUT,
    ]),
    "rtest": ("two-sided permutation test", _rtest, [
        ("--a", dict(required=True, help="first sample (CSV or comma list)")),
        ("--b", dict(required=True, help="second sample")),
        ("--n-perm", dict(default=1999, type=int)),
        ("--seed", dict(required=True, type=int)),
        _REPORT_OUT,
    ]),
    "predict": ("rates of a fitted parameter vector", _predict, [
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
    for name, (help_text, _, flags) in _COMMANDS.items():
        if name == command or not lean:
            p = sub.add_parser(name, help=help_text)
            for flag, kw in flags:
                _add(p, flag, **kw)
            p.add_argument("--force", action="store_true")
    return ap


def run(args) -> int:
    """Refuse --out before any work, run the subcommand's handler and
    write its report once: to --out, or to stdout without one."""
    if args.out is not None:
        ltio.check_output(args.out, args.force)
    report = _COMMANDS[args.command][1](args)
    if report is not None:
        text = write_report(report, args.command, args.out, args.force)
        if args.out is None:
            print(text)
    return 0


# flags whose value is a list of numbers, written out or in a file
_LIST_FLAGS = ("--at", "--x0", "--tspan", "--eps", "--window", "--a", "--b")


def _attach_negative_lists(argv):
    """Write `--at -1,-1` as `--at=-1,-1`.

    argparse reads a value that starts with '-' and is not a plain
    negative number (`-1,-1`, `-inf`) as the next flag, so a token after
    a list flag that starts with '-' is attached to it whenever
    ltio.read_numbers reads it; any other token is left to argparse, so
    a number file is read once, by its handler.  A flag such as `--out`
    does not read as numbers, so argparse refuses `--at --out x`.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _LIST_FLAGS and tok.startswith("-"):
            with contextlib.suppress(ValidationError):
                ltio.read_numbers(tok)
                out[-1] += "=" + tok
                continue
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
