"""File formats: network/hierarchy JSON, trajectory CSV, report emission.

Ceilings serialize as numbers or the string "inf".  Trajectory CSV uses
the header t,x1,...,xn with 17 significant digits, so rates_from_csv
reads the values back exactly.  Reports are JSON with sorted keys and a
schema version string, which makes repeated runs byte-identical for
identical inputs.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .control import ControlLaw, OnlineFeedforward, _online_feedforward
from .network import LTNetwork, Trajectory
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
    "load_controls",
]

REPORT_SCHEMA = "ltnet-report/1"


class ValidationError(Exception):
    """Malformed or inconsistent input file."""


def _integer(value, what):
    """value as an int; a bool, a non-integral number or a non-number raises."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


_NETWORK_KEYS = ("n", "W", "c", "m", "tau", "B", "r")
_HIERARCHY_KEYS = ("layers", "W_down", "W_up", "comment")
_CONTROL_KEYS = ("layer", "mode", "K", "ubar")


def _known_keys(where, entry, known):
    """Reject a key outside known, so that a misspelled optional key does
    not silently take its default."""
    unknown = sorted(set(entry) - set(known)) if isinstance(entry, dict) else []
    if unknown:
        raise ValidationError(f"{where} has unknown key {unknown[0]!r}")


def _ceiling_in(v):
    if v == "inf":
        return np.inf
    if isinstance(v, (int, float)):
        if v <= 0:
            raise ValidationError(f"ceiling entries must be positive, got {v}")
        return float(v)
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
        n = _integer(obj["n"], "n")
        W = np.array(obj["W"], dtype=float)
        c = np.array(obj["c"], dtype=float)
        m = np.array([_ceiling_in(v) for v in obj["m"]])
        tau = float(obj["tau"])
    except KeyError as e:
        raise ValidationError(f"network is missing field {e.args[0]!r}")
    except (TypeError, ValueError) as e:
        raise ValidationError(f"network field malformed: {e}")
    B = obj.get("B")
    if B is not None:
        B = np.array(B, dtype=float)
        if B.size == 0:
            B = None
    if W.shape != (n, n):
        raise ValidationError(f"W must be {n}x{n}, got {W.shape}")
    if c.shape != (n,) or m.shape != (n,):
        raise ValidationError("c and m must have length n")
    try:
        net = LTNetwork(W=W, c=c, m=m, tau=tau, B=B, r=_integer(obj.get("r", 0), "r"))
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
    """obj[name] as a tuple of float arrays; a ragged or non-numeric block
    is refused by name and index."""
    out = []
    for k, w in enumerate(obj[name]):
        try:
            out.append(np.array(w, dtype=float))
        except (TypeError, ValueError):
            raise ValidationError(
                f"hierarchy field malformed: {name}[{k}] must be a rectangular array of numbers"
            ) from None
    return tuple(out)


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
    _check_overwrite(path, force)
    n = traj.samples.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"x{i + 1}" for i in range(n)])
        for t, row in zip(traj.times, traj.samples):
            w.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])


def rates_from_csv(path):
    """Rate CSV with header t,<id>,...; returns (ids, times, values)."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as e:
        raise ValidationError(f"{path}: {e}")
    if not rows or not rows[0] or rows[0][0] != "t":
        raise ValidationError(f"{path}: line 1: expected header starting with 't'")
    ids = rows[0][1:]
    data = []
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(rows[0]):
            raise ValidationError(
                f"{path}: line {ln}: expected {len(rows[0])} fields, got {len(row)}"
            )
        try:
            data.append([float(v) for v in row])
        except ValueError as e:
            raise ValidationError(f"{path}: line {ln}: {e}")
        if not np.all(np.isfinite(data[-1])):
            raise ValidationError(f"{path}: line {ln}: values must be finite, got {row}")
    if not data:
        raise ValidationError(f"{path}: line 2: no data rows after the header")
    arr = np.array(data)
    return ids, arr[:, 0], arr[:, 1:]


def _finite_array(value, what, shape):
    """value as a finite float array of shape."""
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{what} malformed: {e}")
    if a.shape != shape:
        raise ValidationError(f"{what} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} must be finite")
    return a


def load_controls(path, hierarchy: Hierarchy):
    """Control-law JSON for hierarchy: list of {layer, mode, K, ubar}, an
    entry with any other key refused.

    ubar may be a constant vector or the string "online", in which case
    the hierarchy is used to rebuild the upper-layer tracking feedforward.
    Accepts either a bare list or a synthesize report wrapping one.  Each
    layer of the hierarchy takes at most one entry; K and a constant ubar
    need the layer's B (n, p) and must be finite, of shape (p, n) and (p,).
    Returns one ControlLaw or None per layer.
    """
    obj = _load_json(path)
    if isinstance(obj, dict) and isinstance(obj.get("controls"), list):
        obj = obj["controls"]
    if not isinstance(obj, list):
        raise ValidationError("controls file must be a JSON list")
    laws = {}
    for k, entry in enumerate(obj):
        _known_keys(f"control entry {k}", entry, _CONTROL_KEYS)
        try:
            layer = _integer(entry["layer"], "control entry layer")
            mode = entry["mode"]
        except KeyError as e:
            raise ValidationError(f"control entry missing field {e.args[0]!r}")
        except TypeError as e:
            raise ValidationError(f"control entry malformed: {e}")
        if not 1 <= layer <= hierarchy.N:
            raise ValidationError(f"control entry names layer {layer}; no such layer")
        if layer in laws:
            raise ValidationError(f"layer {layer}: a second control entry for the layer")
        B = hierarchy.layers[layer - 1].B
        K, ubar = entry.get("K"), entry.get("ubar")
        if B is None and (K is not None or ubar not in (None, "online")):
            raise ValidationError(f"layer {layer}: the layer has no B, so it takes no K or ubar")
        if K is not None:
            K = _finite_array(K, f"layer {layer}: K", B.T.shape)
        if ubar == "online":
            if layer == 1 or B is None:
                raise ValidationError(
                    f"layer {layer}: online feedforward needs a layer above and B"
                )
            ubar = _online_feedforward(hierarchy, layer)
        elif ubar is not None:
            ubar = _finite_array(ubar, f"layer {layer}: ubar", B.shape[1:])
        try:
            laws[layer] = ControlLaw(layer=layer, K=K, ubar=ubar, mode=mode)
        except ValueError as e:
            raise ValidationError(str(e))
    return [laws.get(i + 1) for i in range(hierarchy.N)]


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


def _check_overwrite(path, force):
    if os.path.exists(path) and not force:
        raise ValidationError(f"{path} exists; pass --force to overwrite")


def _write_text(path, text, force=False):
    _check_overwrite(path, force)
    with open(path, "w") as fh:
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
