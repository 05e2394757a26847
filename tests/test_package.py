"""The package namespace re-exports each module's public names; its
import pulls in no SciPy and no numpy.random, and a composite that needs
no LP none of scipy.optimize; the shipped report schema names the
CLI's schema version and subcommands; its value types compare by
identity."""

import argparse
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import os
import re
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
    for m in (io, sysid):  # each listed name resolves, so `import *` works
        for name in m.__all__:
            assert hasattr(m, name), f"{m.__name__}.{name}"
    assert isinstance(ltnet.__version__, str)


def test_report_schema_matches_the_cli():
    schema = json.loads((Path(io.__file__).parent / "schemas" / "report.schema.json").read_text())
    assert schema["$id"] == io.REPORT_SCHEMA
    assert schema["properties"]["schema"]["const"] == io.REPORT_SCHEMA
    sub, = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert schema["properties"]["command"]["enum"] == list(sub.choices)


def test_cli_only_parses_and_dispatches():
    # the file formats live in io: the CLI calls none of its private names
    assert not re.findall(r"\bltio\._", Path(cli.__file__).read_text())
    for name, (help_text, handler, flags) in cli._COMMANDS.items():
        assert callable(handler), name


def test_one_copy_of_each_rule():
    # network holds the one integer rule and the one real-number rule,
    # every drive term answers the core's one hint, piece(x) -> (key,
    # build), number text is read in io, hierarchy checks control laws,
    # and equilibria._radix alone orders switching patterns
    src = {p.name: p.read_text() for p in Path(network.__file__).parent.glob("*.py")}
    for rule in (r"def _integer\b|numbers\.Integral|\.is_integer\(",
                 r"def _real\b|_REALS|numbers\.Real|np\.floating"):
        assert {name for name, text in src.items() if re.search(rule, text)} == {"network.py"}
    assert not re.search(r"\bfloat\(|\bopen\(", src["cli.py"])
    assert "".join(src.values()).count("no such layer") == 1
    assert "_finite_array" not in "".join(src.values())
    assert not re.search(r"def (pattern|_signs)\b", "".join(src.values()))
    for term in (control.OnlineFeedforward, hierarchy._SlavedLayer):
        assert callable(term.piece) and not hasattr(term, "pattern"), term
    assert "loadtxt" not in src["cli.py"]
    radix = inspect.getsource(equilibria._radix)
    assert re.search(r"math\.prod\(", radix)
    others = "".join(src.values()).replace(radix, "")
    assert not re.search(r"math\.prod\(|cumprod|itertools\.product", others)
    assert not re.search(r"def _(regimes|chunks)\b|\.top\b", src["equilibria.py"])
    for name in ("_regimes", "_chunks"):
        assert not hasattr(equilibria, name), name


def test_readme_python_blocks_run():
    # each quick-start block runs as written, in a namespace of its own
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "__readme__"})


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


def _compose_digest(which):
    """SHA-256 of the piece bytes of a small composite map: "settled", whose
    candidates the box test and the witness all decide, or "lp", whose
    point region c' = 0 only an LP can keep."""
    if which == "settled":
        inner = equilibria.equilibrium_map(np.array([[0.2, -0.3], [0.4, 0.1]]),
                                           np.array([1.5, np.inf]))
        W1 = np.array([[0.1, -0.2], [0.3, 0.2]])
        W2 = np.array([[0.3, 0.1], [-0.2, 0.2]])
        W3 = np.array([[0.2, 0.1], [0.0, -0.3]])
        cbar, m = np.array([0.3, -0.2]), np.array([2.0, 1.0])
    else:
        inner = equilibria.equilibrium_map(np.zeros((1, 1)), np.array([np.inf]))
        W1, W2, W3 = np.zeros((1, 1)), np.array([[0.5]]), np.array([[1.0]])
        cbar, m = np.array([0.0]), np.array([1.0])
    cert = stability.ges_certificate(W1, W2, W3, equilibria.max_gain_matrix(inner))
    comp = equilibria.compose_maps(inner, W1, W2, W3, cbar, m, certificate=cert)
    blob = [(p.label,) + tuple(a.tobytes() for a in (p.F, p.f, p.G, p.g)) for p in comp.pieces]
    return hashlib.sha256(repr(blob).encode()).hexdigest()


def test_import_loads_no_scipy():
    code = ("import sys, ltnet, ltnet.cli; "
            "print([k for k in sys.modules if k.split('.')[0] == 'scipy'])")
    assert _fresh(code).strip() == "[]"


def test_import_loads_no_numpy_random():
    # numpy.random costs milliseconds of every CLI start; the library draws
    # nothing at import
    code = ("import sys, ltnet, ltnet.cli; "
            "print([k for k in sys.modules if k.startswith('numpy.random')])")
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


def test_pulse_problems_build_simulate_and_predict_without_scipy(tmp_path):
    # pulse inputs evaluate ndtr in-package: only fit's minimize needs SciPy
    code = """
import json, sys
from pathlib import Path
from ltnet import cli, sysid
from test_acceptance import true_two_channel_parameters
from test_cli import write_fit_inputs
layer_sizes, structure, inputs, manifest = sysid.two_channel_hierarchy_structure()
problem = sysid.SysIdProblem(layer_sizes, structure, inputs, ("A", "B"), manifest)
est = sysid.predict(true_two_channel_parameters(), problem)
assert est["A"].shape == (problem.K, 8)
out = Path(sys.argv[1])
problem_path, data_dir = write_fit_inputs(out)
(out / "z.json").write_text(json.dumps({"z": [0.6, 3.0, 1.2, 0.4, 0.0]}))
assert cli.main(["predict", "--problem", str(problem_path), "--data", str(data_dir),
                 "--params", str(out / "z.json"), "--out", str(out / "pred.json")]) == 0
print([k for k in sys.modules if k.split(".")[0] == "scipy"])
"""
    assert _fresh(code, tmp_path).strip() == "[]"
    assert json.loads((tmp_path / "pred.json").read_text())["r2"] == 1.0


def test_first_compose_maps_loads_scipy_optimize_and_gives_the_same_pieces():
    code = """
import sys
import test_package
before = "scipy.optimize" in sys.modules
print(before, test_package._compose_digest("lp"), "scipy.optimize" in sys.modules)
"""
    before, digest, after = _fresh(code).split()
    assert (before, after) == ("False", "True")
    assert digest == _compose_digest("lp")


def test_compose_maps_settled_without_an_lp_loads_no_scipy_optimize():
    code = """
import sys
import test_package
print(test_package._compose_digest("settled"), "scipy.optimize" in sys.modules)
"""
    digest, loaded = _fresh(code).split()
    assert loaded == "False"
    assert digest == _compose_digest("settled")


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
    c = dataclasses.replace(a)
    assert type(c) is type(a) and c != a
