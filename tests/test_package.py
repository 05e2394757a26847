"""The package namespace re-exports each module's public names; its
import pulls in no SciPy at import; the shipped report schema names the
CLI's schema version and subcommands; its value types compare by
identity."""

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ltnet
from ltnet import cli, control, equilibria, hierarchy, io, network, stability, sysid

from helpers import lc_hierarchy


def test_package_all_is_the_union_of_module_lists():
    modules = (network, equilibria, stability, control, hierarchy)
    expected = {name for m in modules for name in m.__all__} | {"io", "sysid", "__version__"}
    assert set(ltnet.__all__) == expected
    assert len(ltnet.__all__) == len(expected)  # no name listed twice
    for m in modules:
        for name in m.__all__:
            assert getattr(ltnet, name) is getattr(m, name), name
    assert ltnet.io is io and ltnet.sysid is sysid
    assert isinstance(ltnet.__version__, str)


def test_report_schema_matches_the_cli():
    schema = json.loads((Path(io.__file__).parent / "schemas" / "report.schema.json").read_text())
    assert schema["$id"] == io.REPORT_SCHEMA
    assert schema["properties"]["schema"]["const"] == io.REPORT_SCHEMA
    sub, = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert schema["properties"]["command"]["enum"] == list(sub.choices)


def test_import_loads_no_csgraph():
    # certification needs no graph routines
    env = dict(os.environ, PYTHONPATH=str(Path(ltnet.__file__).parents[1]))
    code = ("import sys, ltnet, ltnet.cli; "
            "print([k for k in sys.modules if k.startswith('scipy.sparse.csgraph')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _fresh(code, *argv):
    """Run code in a new interpreter that imports ltnet and this module; its stdout."""
    here = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(ltnet.__file__).parents[1]),
                                                      str(here)]))
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, check=True).stdout


def _compose_digest():
    """SHA-256 of the piece bytes of a small composite map."""
    inner = equilibria.equilibrium_map(np.array([[0.2, -0.3], [0.4, 0.1]]),
                                       np.array([1.5, np.inf]))
    W1 = np.array([[0.1, -0.2], [0.3, 0.2]])
    W2 = np.array([[0.3, 0.1], [-0.2, 0.2]])
    W3 = np.array([[0.2, 0.1], [0.0, -0.3]])
    cert = stability.ges_certificate(W1, W2, W3, equilibria.max_gain_matrix(inner))
    comp = equilibria.compose_maps(inner, W1, W2, W3, np.array([0.3, -0.2]),
                                   np.array([2.0, 1.0]), certificate=cert)
    blob = [(p.label,) + tuple(a.tobytes() for a in (p.F, p.f, p.G, p.g)) for p in comp.pieces]
    return hashlib.sha256(repr(blob).encode()).hexdigest()


def test_import_loads_no_scipy():
    code = ("import sys, ltnet, ltnet.cli; "
            "print([k for k in sys.modules if k.split('.')[0] == 'scipy'])")
    assert _fresh(code).strip() == "[]"


def test_cli_equilibrium_and_simulate_load_no_scipy_optimize(tmp_path):
    code = """
import sys
from pathlib import Path
from ltnet import cli, io
out = Path(sys.argv[1])
h = io.load_hierarchy(Path(io.__file__).parent / "fixtures" / "case_study_lc.json")
io.dump_network(h.layers[1], out / "net.json")
net = str(out / "net.json")
assert cli.main(["equilibrium", "--net", net, "--at", "0.5,-0.5",
                 "--out", str(out / "eq.json")]) == 0
assert cli.main(["simulate", "--net", net, "--out", str(out / "x.csv")]) == 0
print([k for k in sys.modules if k.startswith("scipy.optimize")])
"""
    assert _fresh(code, tmp_path).strip() == "[]"
    assert (tmp_path / "eq.json").exists() and (tmp_path / "x.csv").exists()


def test_first_compose_maps_loads_scipy_optimize_and_gives_the_same_pieces():
    code = """
import sys
import test_package
before = "scipy.optimize" in sys.modules
print(before, test_package._compose_digest(), "scipy.optimize" in sys.modules)
"""
    before, digest, after = _fresh(code).split()
    assert (before, after) == ("False", "True")
    assert digest == _compose_digest()


def test_perfbench_tracer_finds_and_restores_every_function_it_wraps():
    # the benchmark's tracer wraps library functions by name from outside;
    # a renamed function would otherwise break only traced benchmark runs
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [(tracing._resolve(where), attr)
             for places in tracing.SITES.values() for where, attr in places]
    sites.append((cli, "run"))
    originals = [getattr(owner, attr) for owner, attr in sites]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(owner, attr) for owner, attr in sites]
    finally:
        tracer.uninstall()
    assert [w.__wrapped__ for w in wrapped] == originals
    assert all(getattr(owner, attr) is o for (owner, attr), o in zip(sites, originals))


_W = np.array([[0.0, 0.5], [0.25, 0.0]])
# two calls build equal but distinct instances of each frozen dataclass
# that holds arrays
_VALUE_TYPES = {
    "LTNetwork": lambda: network.LTNetwork(_W, np.ones(2), np.full(2, np.inf)),
    "AffinePiece": lambda: network.AffinePiece(_W, np.ones(2), _W, np.ones(2), (1, 1)),
    "Trajectory": lambda: network.Trajectory(0.0, 0.1, np.ones((3, 2))),
    "ControlLaw": lambda: control.ControlLaw(2, _W, np.ones(2), "combined"),
    "GESCertificate": lambda: stability.ges_certificate(_W),
    "HierarchyCertification": lambda: stability.certify_hierarchy(lc_hierarchy()),
    "FitReport": lambda: sysid.FitReport(np.ones(3), 1.0, 1.0, 0.0, 0.0, 1.0, 1, 0, (), 0),
    "Hierarchy": lc_hierarchy,
    "PiecewiseAffineMap": lambda: equilibria.equilibrium_map(_W, np.ones(2)),
}


@pytest.mark.parametrize("name", sorted(_VALUE_TYPES))
def test_value_types_compare_by_identity(name):
    a, b = _VALUE_TYPES[name](), _VALUE_TYPES[name]()
    assert a == a and a != b
    assert a in [b, a] and b not in [a]
    assert hash(a) == hash(a) and len({a, b, a}) == 2
    if name != "PiecewiseAffineMap":  # its constructor takes pieces, not its fields
        c = dataclasses.replace(a)
        assert type(c) is type(a) and c != a
