"""File formats: network, hierarchy and controls JSON, the fit problem
JSON, the rate and trials CSVs (one row reader, _number_rows), number
lists and files (read_numbers), the fit report's z, trajectory CSV,
report emission.

Ceilings serialize as numbers or the string "inf"; every other number
holds what network._real accepts, and an integer what network._integer
does.  Number text, CSV fields and lists alike, is read by _number
alone.  Control laws pass Hierarchy.laws.  Trajectory CSV uses the header
t,x1,...,xn with 17 significant digits, so rates_from_csv reads the
values back exactly.  Reports are JSON with sorted keys and a schema
version string, which makes repeated runs byte-identical for identical
inputs.  Every malformed file, and every output path that cannot be
written, raises ValidationError naming it.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from dataclasses import replace

import numpy as np

from . import sysid
from .control import ControlLaw, OnlineFeedforward, _online_feedforward
from .network import LTNetwork, Trajectory, _integer, _real
from .hierarchy import Hierarchy

__all__ = [
    "ValidationError",
    "REPORT_SCHEMA",
    "load_network",
    "dump_network",
    "load_hierarchy",
    "dump_hierarchy",
    "trajectory_to_csv",
    "write_report",
    "check_output",
    "load_controls",
    "load_problem",
    "load_fit_z",
    "read_numbers",
]

REPORT_SCHEMA = "ltnet-report/1"


class ValidationError(Exception):
    """Malformed or inconsistent input file."""


_NETWORK_KEYS = ("n", "W", "c", "m", "tau", "B", "r")
_HIERARCHY_KEYS = ("layers", "W_down", "W_up", "comment")
_CONTROL_KEYS = ("layer", "mode", "K", "ubar")


def _known_keys(where, entry, known):
    """Reject a key outside known, so that a misspelled optional key does
    not silently take its default."""
    unknown = sorted(set(entry) - set(known)) if isinstance(entry, dict) else []
    if unknown:
        raise ValidationError(f"{where} has unknown key {unknown[0]!r}")


def _number_array(value, what):
    """value as a float array.  Each leaf must be a number: np.array reads
    true as 1.0 and "0.5" as 0.5, so a bool, a string, null, a ragged
    nesting or an int beyond float range raises ValidationError naming what."""
    try:
        leaves = np.array(value, dtype=object)
    except ValueError:  # a nesting too ragged even for an object array
        leaves = np.array(None)
    try:
        if all(map(_real, leaves.flat)):
            return leaves.astype(float)
    except OverflowError as e:
        raise ValidationError(f"{what} must be finite: {e}") from None
    raise ValidationError(f"{what} must be a rectangular array of numbers")


def _ceiling_in(v):
    if v == "inf":
        return np.inf
    if _real(v):
        if v <= 0:
            raise ValidationError(f"ceiling entries must be positive, got {v}")
        return float(_number_array(v, "network field malformed: m"))
    raise ValidationError(f"ceiling entries must be numbers or 'inf', got {v!r}")


def _ceiling_out(v):
    return "inf" if np.isinf(v) else float(v)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}")
    except OSError as e:
        raise ValidationError(f"{path}: {e}")


def network_from_dict(obj) -> LTNetwork:
    _known_keys("network", obj, _NETWORK_KEYS)
    try:
        if not _integer(n := obj["n"]):
            raise ValidationError(f"n must be an integer, got {n!r}")
        W, c = (_number_array(obj[k], f"network field malformed: {k}") for k in ("W", "c"))
        m = np.array([_ceiling_in(v) for v in obj["m"]])
        tau = obj["tau"]
    except KeyError as e:
        raise ValidationError(f"network is missing field {e.args[0]!r}")
    except (TypeError, ValueError) as e:
        raise ValidationError(f"network field malformed: {e}")
    B = obj.get("B")
    if B is not None:
        B = _number_array(B, "network field malformed: B")
        if B.size == 0:
            B = None
    if W.shape != (n, n):
        raise ValidationError(f"W must be {n}x{n}, got {W.shape}")
    if c.shape != (n,) or m.shape != (n,):
        raise ValidationError("c and m must have length n")
    try:
        net = LTNetwork(W=W, c=c, m=m, tau=tau, B=B, r=obj.get("r", 0))
    except ValueError as e:
        raise ValidationError(str(e))
    # controls act on the r inhibition targets only
    if net.B is not None and np.any(net.B[net.r :]):
        row = net.r + int(np.flatnonzero(np.any(net.B[net.r :], axis=1))[0])
        raise ValidationError(f"B[{row}] is nonzero, but only the first r = {net.r} rows "
                              "of B may be")
    return net


def network_to_dict(net: LTNetwork) -> dict:
    out = {
        "n": net.n,
        "W": net.W.tolist(),
        "c": net.c.tolist(),
        "m": [_ceiling_out(v) for v in net.m],
        "tau": net.tau,
        "r": net.r,
    }
    if net.B is not None:
        out["B"] = net.B.tolist()
    return out


def load_network(path) -> LTNetwork:
    return network_from_dict(_load_json(path))


def dump_network(net: LTNetwork, path, force=False):
    _write_text(path, json.dumps(network_to_dict(net), sort_keys=True, indent=1), force)


def load_hierarchy(path) -> Hierarchy:
    obj = _load_json(path)
    return hierarchy_from_dict(obj)


def _layer_from_dict(k, obj) -> LTNetwork:
    try:
        return network_from_dict(obj)
    except ValidationError as e:
        raise ValidationError(f"layer {k}: {e}") from None


def _blocks(obj, name):
    """obj[name] as a tuple of float arrays, a malformed block refused by
    name and index."""
    return tuple(_number_array(w, f"hierarchy field malformed: {name}[{k}]")
                 for k, w in enumerate(obj[name]))


def hierarchy_from_dict(obj) -> Hierarchy:
    _known_keys("hierarchy", obj, _HIERARCHY_KEYS)
    try:
        layers = tuple(_layer_from_dict(k, la) for k, la in enumerate(obj["layers"], start=1))
        W_down, W_up = _blocks(obj, "W_down"), _blocks(obj, "W_up")
    except KeyError as e:
        raise ValidationError(f"hierarchy is missing field {e.args[0]!r}")
    except (TypeError, ValueError) as e:
        raise ValidationError(f"hierarchy field malformed: {e}")
    try:
        return Hierarchy(layers=layers, W_down=W_down, W_up=W_up)
    except ValueError as e:
        raise ValidationError(str(e))


def hierarchy_to_dict(h: Hierarchy) -> dict:
    return {
        "layers": [network_to_dict(la) for la in h.layers],
        "W_down": [w.tolist() for w in h.W_down],
        "W_up": [w.tolist() for w in h.W_up],
    }


def dump_hierarchy(h: Hierarchy, path, force=False):
    _write_text(path, json.dumps(hierarchy_to_dict(h), sort_keys=True, indent=1), force)


def trajectory_to_csv(traj: Trajectory, path, force=False):
    n = traj.samples.shape[1]
    with _writing(path, force, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"x{i + 1}" for i in range(n)])
        for t, row in zip(traj.times, traj.samples):
            w.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])


def _csv_rows(path):
    try:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    except OSError as e:
        raise ValidationError(f"{path}: {e}")


def _number(text):
    """float(text), without the digit separators float reads (1_5 as 15)."""
    if "_" in text:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def read_numbers(text):
    """The numbers of text, or of the file it names, separated by commas or
    whitespace, as a float array.  A file that cannot be read or a token
    that is not a number raises ValidationError, naming the file."""
    where = f"{text}: " if os.path.exists(text) else ""
    try:
        if where:
            with open(text) as fh:
                text = fh.read()
        return np.array([_number(v) for v in text.replace(",", " ").split()])
    except (OSError, ValueError) as e:
        raise ValidationError(f"{where}{e}")


def _number_rows(path, rows, first, width=None):
    """rows, the lines of path from line first on, as a float array.
    Blank lines are skipped; every other line holds width fields (the
    first such line's count when width is None), each a finite number."""
    data = []
    for ln, row in enumerate(rows, start=first):
        if not row:
            continue
        width = width or len(row)
        if len(row) != width:
            raise ValidationError(f"{path}: line {ln}: expected {width} fields, got {len(row)}")
        try:
            data.append([_number(v) for v in row])
        except ValueError as e:
            raise ValidationError(f"{path}: line {ln}: {e}")
        if not np.all(np.isfinite(data[-1])):
            raise ValidationError(f"{path}: line {ln}: values must be finite, got {row}")
    if not data:
        raise ValidationError(f"{path}: line {first}: no data rows")
    return np.array(data)


def rates_from_csv(path):
    """Rate CSV with header t,<id>,...; returns (ids, times, values)."""
    rows = _csv_rows(path)
    if not rows or not rows[0] or rows[0][0] != "t":
        raise ValidationError(f"{path}: line 1: expected header starting with 't'")
    arr = _number_rows(path, rows[1:], 2, len(rows[0]))
    return rows[0][1:], arr[:, 0], arr[:, 1:]


def trials_from_csv(path):
    """Trials CSV without a header, one trial's binned rates per line, as
    a (trials, bins) array, by the rate CSV's row rules."""
    return _number_rows(path, _csv_rows(path), 1)


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


def load_problem(path, data_dir=None) -> sysid.SysIdProblem:
    """Fit problem JSON as a SysIdProblem.  With data_dir, the rate CSV
    <data_dir>/<condition>.csv of each condition is attached; its times
    must lie on the grid t0 + k*T."""
    obj = _load_json(path)
    _known_keys(f"{path}: problem", obj, _PROBLEM_KEYS + _PROBLEM_OPTIONAL)
    try:
        for k, e in enumerate(obj["structure"]):
            _known_keys(f"{path}: structure entry {k}", e, _STRUCTURE_KEYS)
        for k, s in enumerate(obj.get("inputs", [])):
            _known_keys(f"{path}: inputs entry {k}", s, _INPUT_KEYS)
        structure = [
            sysid.WeightEntry(e["block"], e["row"], e["col"],
                              **{k: e[k] for k in ("sign", "bound") if k in e})
            for e in obj["structure"]
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
            _, times, vals = rates_from_csv(csv_path)
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


def load_fit_z(path, n):
    """The parameter vector z of a fit report (or a bare list) as n
    finite numbers."""
    obj = _load_json(path)
    z = obj.get("z") if isinstance(obj, dict) else obj
    try:
        z = _number_array(z, "z")
    except ValidationError:
        z = None
    if z is None or z.shape != (n,) or not np.all(np.isfinite(z)):
        raise ValidationError(f"{path}: z must be a list of {n} numbers")
    return z


def load_controls(path, hierarchy: Hierarchy):
    """Control-law JSON for hierarchy: a list of {layer, mode, K, ubar},
    or a synthesize report holding one; an entry with any other key is
    refused.  ubar is null, a constant vector or "online", which rebuilds
    the tracking feedforward of a layer with a layer above and B.  The
    entries' laws pass ControlLaw's and Hierarchy.laws' rules; returns one
    ControlLaw or None per layer.
    """
    obj = _load_json(path)
    if isinstance(obj, dict) and isinstance(obj.get("controls"), list):
        obj = obj["controls"]
    if not isinstance(obj, list):
        raise ValidationError("controls file must be a JSON list")
    laws, online = [], []
    try:
        for k, entry in enumerate(obj):
            _known_keys(f"control entry {k}", entry, _CONTROL_KEYS)
            try:
                layer, mode, K, ubar = (entry["layer"], entry["mode"], entry.get("K"),
                                        entry.get("ubar"))
            except KeyError as e:
                raise ValidationError(f"control entry missing field {e.args[0]!r}")
            except TypeError as e:
                raise ValidationError(f"control entry malformed: {e}")
            if ubar == "online":  # built once the layer is known to exist
                online.append(layer)
                ubar = None
            K, ubar = (None if a is None else _number_array(a, f"layer {layer}: {n} malformed:")
                       for n, a in (("K", K), ("ubar", ubar)))
            laws.append(ControlLaw(layer=layer, K=K, ubar=ubar, mode=mode))
        laws = hierarchy.laws(laws)
    except ValueError as e:
        raise ValidationError(str(e))
    for layer in online:
        if layer == 1 or hierarchy.layers[layer - 1].B is None:
            raise ValidationError(f"layer {layer}: online feedforward needs a layer above and B")
        laws[layer - 1] = replace(laws[layer - 1], ubar=_online_feedforward(hierarchy, layer))
    return laws


def controls_to_jsonable(laws) -> list:
    """JSON form of control laws, as load_controls reads it back.

    The library's online feedforward is written as "online" and rebuilt
    from the hierarchy on load; any other callable ubar has no JSON form
    and raises ValidationError.
    """
    out = []
    for law in laws:
        if law is None:
            continue
        entry = {"layer": law.layer, "mode": law.mode}
        entry["K"] = None if law.K is None else law.K.tolist()
        if law.ubar is None:
            entry["ubar"] = None
        elif isinstance(law.ubar, OnlineFeedforward):
            entry["ubar"] = "online"
        elif callable(law.ubar):
            raise ValidationError(
                f"layer {law.layer}: ubar is a callable other than the online "
                "feedforward; it has no JSON form"
            )
        else:
            entry["ubar"] = law.ubar.tolist()
        out.append(entry)
    return out


def check_output(path, force=False):
    """Refuse an output path that cannot take a new file: an existing file
    without force, a directory, or a path whose directory does not exist."""
    if os.path.isdir(path):
        raise ValidationError(f"{path} is a directory")
    if os.path.exists(path) and not force:
        raise ValidationError(f"{path} exists; pass --force to overwrite")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValidationError(f"{path}: no such directory")


@contextlib.contextmanager
def _writing(path, force, newline=None):
    """path opened for writing after check_output; an OSError on the way
    (no permission, a full disk) raises ValidationError naming path."""
    check_output(path, force)
    try:
        with open(path, "w", newline=newline) as fh:
            yield fh
    except OSError as e:
        raise ValidationError(f"{path}: cannot write: {e.strerror or e}")


def _write_text(path, text, force=False):
    with _writing(path, force) as fh:
        fh.write(text)
        fh.write("\n")


def write_report(payload: dict, command: str, path=None, force=False) -> str:
    """Serialize a report envelope; returns the JSON text.

    Reports carry the schema version and the producing command; keys are
    sorted so identical inputs give byte-identical files.
    """
    doc = {"schema": REPORT_SCHEMA, "command": command, **payload}
    text = json.dumps(doc, sort_keys=True, indent=1)
    if path is not None:
        _write_text(path, text, force)
    return text
