"""File formats and the command-line entry point.

JSON/CSV round trips first, then each subcommand driven in-process
through main(argv) with exit-code and report checks.  Exit codes: 0 on
success (including failing certificates), 2 on validation errors, 3 on
numerical failures.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltnet import Hierarchy, LTNetwork, NotCertified, epsilon_sweep, simulate
from ltnet import io as ltio
from ltnet import cli, stability, sysid
from ltnet.cli import main
from ltnet.control import ControlLaw, multilayer_controls
from ltnet.io import ValidationError

from helpers import (assert_solved_as_linprog_solves, captured_lps, lc_hierarchy,
                     recruitment_hierarchy)


def demo_network():
    return LTNetwork(
        W=np.array([[0.0, -0.8], [0.3, 0.1]]),
        c=np.array([1.0, 0.5]),
        m=np.array([np.inf, 2.0]),
        tau=0.8,
        B=np.array([[-1.0], [0.0]]),
        r=1,
    )


# -- JSON / CSV round trips -------------------------------------------------


def test_network_json_round_trip(tmp_path):
    net = demo_network()
    path = tmp_path / "net.json"
    ltio.dump_network(net, path)
    blob = json.loads(path.read_text())
    # infinite ceilings travel as the string "inf"
    assert blob["m"] == ["inf", 2.0]
    back = ltio.load_network(path)
    np.testing.assert_array_equal(back.W, net.W)
    np.testing.assert_array_equal(back.c, net.c)
    np.testing.assert_array_equal(back.m, net.m)
    np.testing.assert_array_equal(back.B, net.B)
    assert back.tau == net.tau and back.r == net.r and back.n == net.n


def test_network_json_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "W": [[0, 0], [0, 0]], "c": [0, 0]}))
    with pytest.raises(ValidationError, match="missing field"):
        ltio.load_network(path)
    path2 = tmp_path / "broken.json"
    path2.write_text("{")
    with pytest.raises(ValidationError):
        ltio.load_network(path2)


def test_hierarchy_json_round_trip(tmp_path):
    h = lc_hierarchy()
    path = tmp_path / "h.json"
    ltio.dump_hierarchy(h, path)
    back = ltio.load_hierarchy(path)
    assert back.N == h.N
    for a, b in zip(back.layers, h.layers):
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.m, b.m)
        assert a.tau == b.tau
    for a, b in zip(back.W_down, h.W_down):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(back.W_up, h.W_up):
        np.testing.assert_array_equal(a, b)
    assert back.eps == h.eps


def test_trajectory_csv_round_trip(tmp_path):
    net = demo_network()
    traj = simulate(net, [1.0, 0.25], None, (0.0, 2.0))
    path = tmp_path / "traj.csv"
    ltio.trajectory_to_csv(traj, path)
    ids, times, samples = ltio.rates_from_csv(path)
    # %.17g preserves doubles exactly
    assert ids == ["x1", "x2"]
    np.testing.assert_array_equal(samples, traj.samples)
    np.testing.assert_array_equal(times, traj.times)


def test_trajectory_csv_errors(tmp_path):
    # rates_from_csv reads trajectory CSVs back
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("x1,x2\n0,1\n")
    with pytest.raises(ValidationError, match="header"):
        ltio.rates_from_csv(bad_header)
    missing_field = tmp_path / "d.csv"
    missing_field.write_text("t,x1,x2\n0,1,2\n0.1,1\n")
    with pytest.raises(ValidationError, match="line 3: expected 3 fields, got 2"):
        ltio.rates_from_csv(missing_field)


def test_rates_csv(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text("t,a,b\n0,1,2\n\n0.1,3,4\n")  # a blank line is skipped
    ids, times, vals = ltio.rates_from_csv(path)
    assert ids == ["a", "b"]
    np.testing.assert_array_equal(times, [0.0, 0.1])
    np.testing.assert_array_equal(vals, [[1.0, 2.0], [3.0, 4.0]])
    bad = tmp_path / "bad.csv"
    bad.write_text("time,a\n0,1\n")
    with pytest.raises(ValidationError, match="header"):
        ltio.rates_from_csv(bad)


def test_csv_readers_refuse_a_path_they_cannot_open(tmp_path):
    with pytest.raises(ValidationError) as exc:
        ltio.rates_from_csv(tmp_path)  # a directory
    assert str(exc.value).startswith(f"{tmp_path}: ")


def test_load_controls_refuses_a_non_numeric_gain(tmp_path):
    path = tmp_path / "controls.json"
    path.write_text(json.dumps([{"layer": 2, "mode": "feedback-only",
                                 "K": [["a", 0.0, 0.0]], "ubar": None}]))
    with pytest.raises(ValidationError, match="layer 2: K malformed"):
        ltio.load_controls(path, recruitment_hierarchy())


def test_controls_to_jsonable_skips_the_layers_load_controls_leaves_empty(tmp_path):
    entries = [{"layer": 2, "mode": "feedforward-only", "K": None, "ubar": [5.0]}]
    path = tmp_path / "controls.json"
    path.write_text(json.dumps(entries))
    back = ltio.load_controls(path, recruitment_hierarchy())
    assert back[0] is None and back[2] is None
    assert ltio.controls_to_jsonable(back) == entries


def test_controls_round_trip(tmp_path):
    h = recruitment_hierarchy()
    laws = multilayer_controls(h)
    path = tmp_path / "controls.json"
    path.write_text(json.dumps(ltio.controls_to_jsonable(laws)))
    back = ltio.load_controls(path, h)
    assert back[0].mode == "feedback-only" and back[0].K is None
    rng = np.random.default_rng(4)
    for i, (a, b) in enumerate(zip(laws, back)):
        if a.K is not None:
            np.testing.assert_array_equal(b.K, a.K)
        if callable(a.ubar):
            # online feedforward is rebuilt from the hierarchy
            x_above = rng.uniform(0.0, 3.0, size=h.layers[i - 1].n)
            np.testing.assert_array_equal(b.ubar(0.0, x_above), a.ubar(0.0, x_above))


def test_controls_round_trip_a_constant_feedforward(tmp_path):
    # the constant law of acceptance test 01 travels as a list
    h = recruitment_hierarchy()
    laws = [ControlLaw(1, None, None, "feedback-only"),
            ControlLaw(2, None, np.array([5.0]), "feedforward-only")]
    entries = ltio.controls_to_jsonable(laws)
    assert entries[1] == {"layer": 2, "mode": "feedforward-only", "K": None, "ubar": [5.0]}
    path = tmp_path / "controls.json"
    path.write_text(json.dumps(entries))
    back = ltio.load_controls(path, h)
    assert back[1].mode == "feedforward-only" and back[1].K is None
    np.testing.assert_array_equal(back[1].ubar, [5.0])
    assert back[2] is None


def test_controls_json_refuses_user_callables():
    h = recruitment_hierarchy()
    laws = multilayer_controls(h)
    assert [e["ubar"] for e in ltio.controls_to_jsonable(laws)] == [None, "online", "online"]
    ff = laws[2].ubar
    laws[2] = ControlLaw(3, laws[2].K, lambda t, x_above: ff(t, x_above) + t, "combined")
    with pytest.raises(ValidationError, match="layer 3: ubar is a callable"):
        ltio.controls_to_jsonable(laws)


def test_write_report_envelope(tmp_path):
    payload = {"beta": [1, 2], "alpha": 0.5}
    text = ltio.write_report(payload, "certify")
    blob = json.loads(text)
    assert blob["schema"] == ltio.REPORT_SCHEMA
    assert blob["command"] == "certify"
    assert blob["alpha"] == 0.5 and blob["beta"] == [1, 2]
    # deterministic serialization: sorted keys, fixed indentation
    assert text == ltio.write_report(payload, "certify")
    assert text.index('"alpha"') < text.index('"beta"')
    path = tmp_path / "report.json"
    ltio.write_report(payload, "certify", path)
    assert path.read_text() == text + "\n"
    with pytest.raises(ValidationError, match="exists; pass --force"):
        ltio.write_report(payload, "certify", path)
    ltio.write_report({"alpha": 1.0}, "certify", path, force=True)
    assert json.loads(path.read_text())["alpha"] == 1.0


# -- command-line interface -------------------------------------------------


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_simulate(tmp_path):
    net = demo_network()
    net_path = tmp_path / "net.json"
    ltio.dump_network(net, net_path)
    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--net", str(net_path), "--x0", "1,0.25",
               "--tspan", "0,3", "--out", str(out)])
    assert rc == 0
    _, _, samples = ltio.rates_from_csv(out)
    ref = simulate(net, [1.0, 0.25], None, (0.0, 3.0))
    np.testing.assert_array_equal(samples, ref.samples)
    # existing outputs are refused without --force
    assert main(["simulate", "--net", str(net_path), "--tspan", "0,1",
                 "--out", str(out)]) == 2
    assert main(["simulate", "--net", str(net_path), "--tspan", "0,1",
                 "--out", str(out), "--force"]) == 0


def test_cli_simulate_x0_file(tmp_path):
    net = demo_network()
    net_path = tmp_path / "net.json"
    ltio.dump_network(net, net_path)
    x0_path = tmp_path / "x0.txt"
    np.savetxt(x0_path, [0.5, 1.5])
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--net", str(net_path), "--x0", str(x0_path),
                 "--tspan", "0,1", "--out", str(out)]) == 0
    np.testing.assert_array_equal(ltio.rates_from_csv(out)[2][0], [0.5, 1.5])


def test_cli_simulate_bad_inputs(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    ltio.dump_network(demo_network(), net_path)
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    out = tmp_path / "o.csv"
    assert main(["simulate", "--net", str(broken), "--out", str(out)]) == 2
    # wrong tspan arity
    assert main(["simulate", "--net", str(net_path), "--tspan", "0,1,2",
                 "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_equilibrium_at(tmp_path):
    net = LTNetwork(W=np.array([[0.5]]), c=np.zeros(1), m=np.array([2.0]), tau=1.0)
    net_path = tmp_path / "net.json"
    ltio.dump_network(net, net_path)
    out = tmp_path / "eq.json"
    assert main(["equilibrium", "--net", str(net_path), "--at", "1.0",
                 "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["command"] == "equilibrium"
    np.testing.assert_allclose(blob["value"], [2.0], atol=1e-12)
    assert blob["lipschitz"] == pytest.approx(2.0)
    # arity mismatch between --at and the network size
    assert main(["equilibrium", "--net", str(net_path), "--at", "1,2",
                 "--out", str(out), "--force"]) == 2


def test_cli_equilibrium_dump(tmp_path):
    net = LTNetwork(W=np.array([[0.5]]), c=np.zeros(1), m=np.array([2.0]), tau=1.0)
    net_path = tmp_path / "net.json"
    ltio.dump_network(net, net_path)
    out = tmp_path / "map.json"
    assert main(["equilibrium", "--net", str(net_path), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert len(blob["pieces"]) == 3
    assert {"sigma", "F", "f", "G", "g"} <= set(blob["pieces"][0])
    np.testing.assert_allclose(blob["max_gain"], [[2.0]])


def test_cli_certify(tmp_path, capsys):
    h_path = tmp_path / "h.json"
    ltio.dump_hierarchy(lc_hierarchy(), h_path)
    assert main(["certify", "--hierarchy", str(h_path)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["all_pass"] is True
    assert blob["layers"][0] == {"layer": 1, "check": "boundedness", "pass": True}
    by_layer = {entry["layer"]: entry for entry in blob["layers"]}
    assert by_layer[2]["rho"] == pytest.approx(0.83, abs=5e-3)
    assert by_layer[3]["rho"] == pytest.approx(0.01, abs=5e-3)
    assert by_layer[2]["pass"] and by_layer[3]["pass"]
    # same report through --out
    out = tmp_path / "cert.json"
    assert main(["certify", "--hierarchy", str(h_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == blob


def test_cli_certify_reports_failure(tmp_path, capsys):
    h_path = tmp_path / "h.json"
    ltio.dump_hierarchy(lc_hierarchy(w_bottom=1.5), h_path)
    # a failing certificate is still a successful run
    assert main(["certify", "--hierarchy", str(h_path)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["all_pass"] is False


def _layer(index, **fields):
    return lambda blob: blob["layers"][index].update(fields)


@pytest.mark.parametrize("edit, match", [
    (lambda blob: blob.update(layers=5), "hierarchy field malformed"),
    (lambda blob: blob.update(W_down=None), "hierarchy field malformed"),
    (lambda blob: blob.update(W_up=None), "hierarchy field malformed"),
    (_layer(0, m=[float("nan")]), "ceiling entries must be positive"),
    (_layer(0, m=[0]), "layer 1: ceiling entries must be positive, got 0"),
    (lambda blob: blob.pop("W_up"), "hierarchy is missing field 'W_up'"),
    (_layer(1, W=[[1e400, 0.0], [0.76, 0.0]]), "W must be finite"),
    (_layer(1, c=[float("nan"), 0.5]), "c must be finite"),
    (_layer(2, B=[[float("-inf")]]), "B must be finite"),
    (_layer(0, tau=float("inf")), "tau must be positive and finite"),
    (lambda blob: blob["W_up"][1][0].__setitem__(0, float("nan")),
     "W_down[1] and W_up[1] must be finite"),
    (_layer(1, r=0.5), "r must be an integer, got 0.5"),
    (_layer(1, r=True), "r must be an integer, got True"),
    (_layer(0, n=1.7), "n must be an integer, got 1.7"),
    (_layer(1, n=1.7), "layer 2: n must be an integer, got 1.7"),
    (_layer(0, n=True), "n must be an integer, got True"),
    (_layer(0, tau=10**400), "int too large to convert to float"),
    (_layer(2, r=1), "layer 3 has every node inhibited"),
    (_layer(1, r=2), "layer 2 has every node inhibited"),
    (lambda blob: blob["W_down"].__setitem__(1, [[0.04], [0.58, 0.0]]),
     "W_down[1] must be a rectangular array of numbers"),
    (lambda blob: blob["W_up"].__setitem__(0, [[0.2], ["x"]]),
     "W_up[0] must be a rectangular array of numbers"),
    # before: read as 1.0, 0.5 and 0.0 by np.array and float()
    (lambda blob: blob["W_down"][1][0].__setitem__(0, True),
     "W_down[1] must be a rectangular array of numbers"),
    (_layer(1, m=[True, True]), "layer 2: ceiling entries must be numbers or 'inf', got True"),
    (_layer(1, tau="0.5"), "layer 2: tau must be a number, got '0.5'"),
    (_layer(1, c=[False, 0.5]), "layer 2: network field malformed: c must be a rectangular"),
    (_layer(1, W=[[0.5]]), "layer 2: W must be 2x2, got (1, 1)"),
    (_layer(1, c=[0.5]), "layer 2: c and m must have length n"),
], ids=["layers-not-a-list", "W_down-null", "W_up-null", "nan-ceiling", "zero-ceiling",
        "no-W_up", "infinite-W", "nan-c", "infinite-B", "infinite-tau", "nan-W_up",
        "fractional-r", "boolean-r", "fractional-n", "fractional-n-in-layer-2", "boolean-n",
        "tau-beyond-float",
        "bottom-layer-all-inhibited", "middle-layer-all-inhibited",
        "ragged-W_down", "non-numeric-W_up", "boolean-W_down", "boolean-ceilings",
        "string-tau", "boolean-c", "W-not-n-by-n", "c-not-of-length-n"])
def test_cli_certify_rejects_malformed_hierarchy(tmp_path, capsys, edit, match):
    fixture = Path(ltio.__file__).parent / "fixtures" / "case_study_lc.json"
    blob = json.loads(fixture.read_text())
    edit(blob)
    h_path = tmp_path / "h.json"
    h_path.write_text(json.dumps(blob))
    assert main(["certify", "--hierarchy", str(h_path)]) == 2
    assert match in capsys.readouterr().err


# case_study_lc.json with an unbounded top layer (m = inf) that the middle
# layer drives (W_down[0] = [[0.5, 0]]), so layer 1 takes the composite
# certificate of the layers below: its W, then layer 1's rho and pass, the
# exit code of synthesize and the SHA-256 of the certify report
_LAYER1_COMPOSITE = [
    (0.3, 0.8896366885050624, True, 0,
     "c2200f5a188ecf06eae6478eda07272e8afe6382341e6644bd5012ce3a2187c3"),
    (0.9, 1.4896366885050625, False, 3,
     "902c0480f386913f3cd074bcb126cfd4c8aa06e59fb998307002d852344780ce"),
]


@pytest.mark.parametrize("w, rho, passed, code, digest", _LAYER1_COMPOSITE)
def test_cli_certify_an_unbounded_top_layer_by_its_composite(tmp_path, w, rho, passed, code,
                                                             digest):
    blob = json.loads(_LC_FIXTURE.read_text())
    blob["layers"][0].update(m=["inf"], W=[[w]])
    blob["W_down"][0] = [[0.5, 0.0]]
    h_path, out = tmp_path / "h.json", tmp_path / "cert.json"
    h_path.write_text(json.dumps(blob))
    assert main(["certify", "--hierarchy", str(h_path), "--out", str(out)]) == 0
    layer1 = json.loads(out.read_text())["layers"][0]
    assert (layer1["check"], layer1["rho"], layer1["pass"]) == ("boundedness", rho, passed)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    controls = tmp_path / "controls.json"
    assert main(["synthesize", "--hierarchy", str(h_path), "--out", str(controls)]) == code


def _unbounded_top_layer(tmp_path, w, w_bottom=0.01):
    """The LC fixture under an unbounded top layer of weight w that layer 2
    drives, as a hierarchy file."""
    blob = json.loads(_LC_FIXTURE.read_text())
    blob["layers"][0].update(m=["inf"], W=[[w]])
    blob["W_down"][0] = [[0.5, 0.0]]
    blob["layers"][2]["W"] = [[w_bottom]]
    h_path = tmp_path / "h.json"
    h_path.write_text(json.dumps(blob))
    return h_path


def test_cli_recruit_refuses_what_synthesize_refuses(tmp_path, capsys):
    # layer 1 fails its composite test (rho 1.4896) while layers 2 and 3
    # keep their maps; before, recruit synthesized controls anyway, exited
    # 0 and reported layer-2 tracking errors of 36.6 and 46.2
    h_path, out = _unbounded_top_layer(tmp_path, 0.9), tmp_path / "out.json"
    for argv in (["synthesize"], ["recruit", "--eps", "0.5,0.3"]):
        assert main([*argv, "--hierarchy", str(h_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: hierarchy failed certification; no controls\n")
        assert not out.exists()


def test_certification_needs_two_layers(tmp_path, capsys):
    top = lc_hierarchy().layers[0]
    h = Hierarchy((top,), (), ())
    with pytest.raises(ValueError, match="needs at least two layers"):
        stability.certify_hierarchy(h)
    h_path = tmp_path / "h.json"
    ltio.dump_hierarchy(h, h_path)
    assert main(["certify", "--hierarchy", str(h_path)]) == 2
    assert capsys.readouterr().err == (
        "error: hierarchy certification needs at least two layers\n")
    with pytest.raises(ValueError, match="hierarchy needs at least one layer"):
        Hierarchy((), (), ())


def test_cli_recruit_with_controls_refuses_what_synthesize_refuses(tmp_path, capsys):
    # before: controls synthesized from the unedited fixture swept the
    # hierarchy whose layer 1 fails, exited 0 and reported layer-2
    # tracking errors of 36.6 and 46.2
    controls, out = tmp_path / "controls.json", tmp_path / "out.json"
    assert main(["synthesize", "--hierarchy", str(_LC_FIXTURE), "--out", str(controls)]) == 0
    h_path = _unbounded_top_layer(tmp_path, 0.9)
    assert main(["recruit", "--hierarchy", str(h_path), "--controls", str(controls),
                 "--eps", "0.5,0.3", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numerical failure: layer 1 is not certified bounded\n"
    assert not out.exists()
    h = ltio.load_hierarchy(h_path)
    with pytest.raises(NotCertified, match="layer 1 is not certified bounded"):
        epsilon_sweep(h, ltio.load_controls(controls, h), [0.5, 0.3])


@pytest.mark.parametrize("argv", [["synthesize"], ["recruit", "--eps", "0.5"]])
def test_cli_synthesize_and_recruit_certify_once(tmp_path, monkeypatch, argv):
    calls = []
    certify = stability.certify_hierarchy
    monkeypatch.setattr(stability, "certify_hierarchy", lambda h: calls.append(h) or certify(h))
    out = tmp_path / "out.json"
    assert main([*argv, "--hierarchy", str(_LC_FIXTURE), "--out", str(out)]) == 0
    assert len(calls) == 1


def test_cli_certify_an_unbounded_top_layer_over_a_failing_layer(tmp_path):
    # layer 3 fails, so layer 2 has no map and layer 1 no composite test
    h_path, out = _unbounded_top_layer(tmp_path, 0.3, w_bottom=1.5), tmp_path / "cert.json"
    assert main(["certify", "--hierarchy", str(h_path), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["layers"][0] == {"layer": 1, "check": "boundedness", "pass": False}
    assert [e["pass"] for e in blob["layers"]] == [False, False, False]
    assert blob["all_pass"] is False


def _json_paths(obj, prefix=()):
    """The key/index path of every value below obj."""
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _json_paths(v, prefix + (k,))


_LC_FIXTURE = Path(ltio.__file__).parent / "fixtures" / "case_study_lc.json"
_LC_PATHS = list(_json_paths(json.loads(_LC_FIXTURE.read_text())))
_MALFORMED = st.sampled_from([True, False, 1.7, -1, None, "x", [], [[1.0], [1.0, 2.0]],
                              [1.0, [2.0]]])


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(path=st.sampled_from(_LC_PATHS), value=_MALFORMED)
def test_cli_certify_survives_one_malformed_field(path, value):
    blob = json.loads(_LC_FIXTURE.read_text())
    parent = blob
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        h_path = Path(tmp) / "h.json"
        h_path.write_text(json.dumps(blob))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["certify", "--hierarchy", str(h_path)])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().strip()  # a refusal always says why


def test_cli_synthesize(tmp_path):
    h_path = tmp_path / "h.json"
    ltio.dump_hierarchy(recruitment_hierarchy(), h_path)
    out = tmp_path / "controls.json"
    assert main(["synthesize", "--hierarchy", str(h_path), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    laws = blob["controls"]
    assert [entry["layer"] for entry in laws] == [1, 2, 3]
    assert laws[1]["mode"] == "combined" and laws[1]["ubar"] == "online"
    np.testing.assert_array_equal(laws[1]["K"], [[0.2, 0.4, 0.3]])


def test_cli_synthesize_online_feedforward_reloads_bit_for_bit(tmp_path):
    h = recruitment_hierarchy()
    h_path = tmp_path / "h.json"
    ltio.dump_hierarchy(h, h_path)
    out = tmp_path / "controls.json"
    assert main(["synthesize", "--hierarchy", str(h_path), "--out", str(out)]) == 0
    synthesized = multilayer_controls(h)
    loaded = ltio.load_controls(out, h)
    rng = np.random.default_rng(12)
    online = [i for i, law in enumerate(synthesized) if callable(law.ubar)]
    assert online and all(callable(loaded[i].ubar) for i in online)
    for i in online:
        n_above = h.layers[i - 1].n
        for x_above in [np.zeros(n_above), *rng.uniform(0.0, 4.0, size=(6, n_above))]:
            a = synthesized[i].ubar(0.0, x_above)
            b = loaded[i].ubar(0.0, x_above)
            assert a.tobytes() == b.tobytes()


def test_cli_synthesize_refuses_uncertified(tmp_path, capsys):
    h_path = tmp_path / "h.json"
    ltio.dump_hierarchy(lc_hierarchy(w_bottom=1.5), h_path)
    out = tmp_path / "controls.json"
    rc = main(["synthesize", "--hierarchy", str(h_path), "--out", str(out)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_nonzero_B_rows_past_r(tmp_path, capsys):
    # only the first r rows of B, the inhibition targets, may be nonzero;
    # before, synthesize exited 0 with a law that also drives node 2
    blob = json.loads((Path(ltio.__file__).parent / "fixtures" / "example_oscillator.json")
                      .read_text())
    blob["layers"][1]["B"] = [[-1.0], [-0.5], [0.0]]
    h_path, out = tmp_path / "h.json", tmp_path / "controls.json"
    h_path.write_text(json.dumps(blob))
    assert main(["synthesize", "--hierarchy", str(h_path), "--out", str(out)]) == 2
    assert ("layer 2: B[1] is nonzero, but only the first r = 1 rows of B may be"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_reads_an_empty_B_as_no_B(tmp_path, capsys):
    blob = json.loads((Path(ltio.__file__).parent / "fixtures" / "example_oscillator.json")
                      .read_text())
    blob["layers"][1]["B"] = []
    h_path, out = tmp_path / "h.json", tmp_path / "controls.json"
    h_path.write_text(json.dumps(blob))
    assert ltio.load_hierarchy(h_path).layers[1].B is None
    # layer 2 has r = 1 inhibition target and now no B: before, synthesize
    # exited 0 with an empty feedback-only law for it
    assert main(["synthesize", "--hierarchy", str(h_path), "--out", str(out)]) == 3
    assert "layer 2 has r = 1 inhibition targets but no B" in capsys.readouterr().err
    assert not out.exists()


_OSC_FIXTURE = Path(ltio.__file__).parent / "fixtures" / "example_oscillator.json"


def test_cli_refuses_a_misspelled_network_key(tmp_path, capsys):
    # before, layer 2's B spelled b was read as no B: synthesize exited 0
    # with two null laws, and recruit --eps 0.5,0.2 exited 0 reporting
    # inhibited norms 2.77e4 and 9.86e11
    blob = json.loads(_OSC_FIXTURE.read_text())
    blob["layers"][1]["b"] = blob["layers"][1].pop("B")
    h_path, out = tmp_path / "h.json", tmp_path / "out.json"
    h_path.write_text(json.dumps(blob))
    for argv in (["synthesize"], ["recruit", "--eps", "0.5,0.2"]):
        assert main([*argv, "--hierarchy", str(h_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: layer 2: network has unknown key 'b'\n"
        assert not out.exists()


def test_cli_refuses_a_misspelled_control_key(tmp_path, capsys):
    # before, layer 2's ubar spelled Ubar was read as no feedforward:
    # recruit exited 0 reporting inhibited norms 0.0103 and 8.6e-5, where
    # the correct file gives 0.0 and 0.0
    controls, out = tmp_path / "controls.json", tmp_path / "out.json"
    assert main(["synthesize", "--hierarchy", str(_OSC_FIXTURE), "--out", str(controls)]) == 0
    blob = json.loads(controls.read_text())
    blob["controls"][1]["Ubar"] = blob["controls"][1].pop("ubar")
    controls.write_text(json.dumps(blob))
    assert main(["recruit", "--hierarchy", str(_OSC_FIXTURE), "--controls", str(controls),
                 "--eps", "0.5,0.2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: control entry 1 has unknown key 'Ubar'\n"
    assert not out.exists()


@pytest.mark.parametrize("path", sorted(
    [*(Path(ltio.__file__).parent / "fixtures").glob("*.json"),
     Path(__file__).parents[1] / "perfbench" / "inputs" / "recruitment_hierarchy.json"]),
    ids=lambda p: p.stem)
def test_bundled_hierarchies_hold_only_known_keys(path):
    assert ltio.load_hierarchy(path).N >= 2


def test_cli_synthesize_exits_3_without_a_dominating_gain(tmp_path, capsys):
    # r = 2 > p = 1 takes the gain LP, and W[0, 0] + W[1, 0] > 0 makes it
    # infeasible: B^- k = (k, -k) cannot bound both rows of column 0
    blob = json.loads((Path(ltio.__file__).parent / "fixtures" / "example_oscillator.json")
                      .read_text())
    blob["layers"][1].update(r=2, B=[[1.0], [-1.0], [0.0]])
    h_path, out = tmp_path / "h.json", tmp_path / "controls.json"
    h_path.write_text(json.dumps(blob))
    with captured_lps() as lps:
        assert main(["synthesize", "--hierarchy", str(h_path), "--out", str(out)]) == 3
    assert "no dominating gain for column 0" in capsys.readouterr().err
    assert not out.exists()
    # linprog finds the same LP infeasible
    assert len(lps) == 1
    assert_solved_as_linprog_solves(lps)


def test_cli_recruit(tmp_path):
    h_path = tmp_path / "h.json"
    ltio.dump_hierarchy(recruitment_hierarchy(), h_path)
    out = tmp_path / "sweep.json"
    assert main(["recruit", "--hierarchy", str(h_path), "--eps", "0.5",
                 "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["command"] == "recruit"
    assert blob["eps"] == [0.5]
    assert set(blob["tracking_errors"]) == {"2", "3"}
    assert set(blob["inhibited_norms"]) == {"2", "3"}
    assert all(v[0] >= 0.0 for v in blob["tracking_errors"].values())
    # explicit controls file reproduces the synthesized-by-default report
    c_path = tmp_path / "controls.json"
    assert main(["synthesize", "--hierarchy", str(h_path), "--out", str(c_path)]) == 0
    out2 = tmp_path / "sweep2.json"
    assert main(["recruit", "--hierarchy", str(h_path), "--controls", str(c_path),
                 "--eps", "0.5", "--out", str(out2)]) == 0
    blob2 = json.loads(out2.read_text())
    blob2["command"] = "recruit"
    assert blob2["tracking_errors"] == blob["tracking_errors"]
    assert blob2["inhibited_norms"] == blob["inhibited_norms"]


# SHA-256 of the report files of certify, synthesize and recruit --eps 0.5,0.2
# on the bundled fixtures (NumPy 2.4 with OpenBLAS, x86-64)
_REPORT_SHA256 = {
    ("case_study_lc", "certify"): "a5c666040067fd7db1bee02c2d16edca713bb3e446ffbb1aba46708ed2c8c6f2",
    ("case_study_lc", "synthesize"): "f1101aff52160e1dde5b47beab4126640434d77bb80a30329ee4a92745cfe38b",
    ("case_study_lc", "recruit"): "628b0e6f9e8f4d3a80fa363bf0bc676af9f2e38c96a4a9237011d42a6be53096",
    ("case_study_pd", "certify"): "ea8ef5102f865c174690592e8db7947c217b2a96fd4e472abbf461d5d3742186",
    ("case_study_pd", "synthesize"): "f1101aff52160e1dde5b47beab4126640434d77bb80a30329ee4a92745cfe38b",
    ("case_study_pd", "recruit"): "dcd616543f900cbcb26069d25010eecfb04699f35c50162246fe0d1f3f3af4d0",
    ("example_oscillator", "certify"): "7dafb8d8339f5abf65d19092c80157e02cecc4de0146be5f480d9161b6a9d17e",
    ("example_oscillator", "synthesize"): "5557c8585a1a31ee09c8fe67ac73fa7d46b3b6e05a212c5d492b5b8627505e53",
    ("example_oscillator", "recruit"): "25438743719423b6287f0397554c14594bf23dcbd77e464f9410a4f597e54c23",
}


@pytest.mark.parametrize("fixture, command", sorted(_REPORT_SHA256))
def test_cli_reports_on_the_bundled_fixtures_are_pinned(fixture, command, tmp_path):
    path = Path(ltio.__file__).parent / "fixtures" / f"{fixture}.json"
    out = tmp_path / "report.json"
    extra = ["--eps", "0.5,0.2"] if command == "recruit" else []
    assert main([command, "--hierarchy", str(path), *extra, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _REPORT_SHA256[fixture, command]


# SHA-256 of the `ltnet simulate` CSV of each bundled fixture's top layer
# over [0, 20] from zero, a run on the piecewise-affine block path (NumPy
# 2.4 with OpenBLAS, x86-64)
_SIMULATE_SHA256 = {
    "case_study_lc": "4a103768daee01ea3ff20c86e8c3f6ce754db3d3678147ca930b7b75b8278143",
    "case_study_pd": "4a103768daee01ea3ff20c86e8c3f6ce754db3d3678147ca930b7b75b8278143",
    "example_oscillator": "5cd2bb3e8f9ccd731163a4a6564f5ba6836c206f23d81d6ccf8f31659306a6ad",
}


@pytest.mark.parametrize("fixture", sorted(_SIMULATE_SHA256))
def test_cli_simulate_on_the_bundled_top_layers_is_pinned(fixture, tmp_path):
    h = ltio.load_hierarchy(Path(ltio.__file__).parent / "fixtures" / f"{fixture}.json")
    net_path, out = tmp_path / "net.json", tmp_path / "traj.csv"
    ltio.dump_network(h.layers[0], net_path)
    assert main(["simulate", "--net", str(net_path), "--tspan", "0,20", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _SIMULATE_SHA256[fixture]


def test_cli_refuses_an_empty_sweep_and_non_finite_spans(tmp_path, capsys):
    fixture = Path(ltio.__file__).parent / "fixtures" / "example_oscillator.json"
    net_path, out = tmp_path / "net.json", tmp_path / "out"
    ltio.dump_network(ltio.load_hierarchy(fixture).layers[0], net_path)
    assert main(["recruit", "--hierarchy", str(fixture), "--eps", "", "--out", str(out)]) == 2
    assert "eps_list is empty" in capsys.readouterr().err
    runs = [["recruit", "--hierarchy", str(fixture), "--eps", "0.5", "--window", "2,inf"],
            ["simulate", "--net", str(net_path), "--tspan", "0,inf"],
            ["simulate", "--net", str(net_path), "--tspan", "0,nan"]]
    for argv in runs:
        assert main([*argv, "--out", str(out)]) == 2
        assert "t_span must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_recruit_refuses_uncertified(tmp_path, capsys):
    h_path = tmp_path / "h.json"
    ltio.dump_hierarchy(lc_hierarchy(w_bottom=1.5), h_path)
    assert main(["recruit", "--hierarchy", str(h_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_recruit_reads_controls_before_the_sweep_refuses(tmp_path, capsys):
    # before: any failing lower layer exited 3 before --controls was read
    good, h_path, c_path = tmp_path / "good.json", tmp_path / "h.json", tmp_path / "c.json"
    ltio.dump_hierarchy(lc_hierarchy(), good)
    assert main(["synthesize", "--hierarchy", str(good), "--out", str(c_path)]) == 0
    ltio.dump_hierarchy(lc_hierarchy(w_bottom=1.5), h_path)
    argv = ["recruit", "--hierarchy", str(h_path), "--controls", str(c_path), "--eps", "0.5"]
    assert main(argv) == 3
    assert "layer 2 has no certified map" in capsys.readouterr().err
    c_path.write_text("{")
    assert main(argv) == 2
    assert str(c_path) in capsys.readouterr().err


def _entries(change):
    """An edit of a synthesize report that applies change to its controls."""
    def edit(blob):
        change(blob["controls"])
        return blob
    return edit


def _set(index, **fields):
    return _entries(lambda entries: entries[index].update(fields))


@pytest.mark.parametrize("make_h, edit, match", [
    # an online entry moved past the bottom layer, or to layer 0
    (recruitment_hierarchy, _set(2, layer=4), "layer 4; no such layer"),
    (recruitment_hierarchy, _set(2, layer=0), "layer 0; no such layer"),
    # a constant entry past the bottom layer is not silently dropped
    (recruitment_hierarchy, _set(0, layer=7), "layer 7; no such layer"),
    # online feedforward on layer 1, or on a layer without B
    (recruitment_hierarchy, _set(0, ubar="online"), "layer 1: online feedforward"),
    (lc_hierarchy, _set(1, ubar="online"), "layer 2: online feedforward"),
    (recruitment_hierarchy, _entries(lambda entries: entries.append(7)), "malformed"),
    # a fractional or boolean layer is not truncated to layer 1
    (recruitment_hierarchy, _set(2, layer=1.7), "layer must be an integer, got 1.7"),
    (recruitment_hierarchy, _set(2, layer=True), "layer must be an integer, got True"),
    # a second entry for a layer does not silently replace the first
    (recruitment_hierarchy,
     _entries(lambda entries: entries.append({"layer": 2, "mode": "feedback-only", "K": None,
                                              "ubar": None})),
     "layer 2: a second control entry"),
    # K or a constant ubar on a layer without B is not dropped
    (lc_hierarchy, _set(1, K=[[1.0, 0.0]]), "layer 2: the layer has no B"),
    (lc_hierarchy, _set(1, ubar=[1.0]), "layer 2: the layer has no B"),
    # B is (3, 1), so K must be (1, 3) and ubar (1,)
    (recruitment_hierarchy, _set(1, K=[[1.0, 0.0, 0.0]] * 3), "layer 2: K must have shape (1, 3)"),
    (recruitment_hierarchy, _set(2, ubar=[0.5, 0.5]), "layer 3: ubar must have shape (1,)"),
    (recruitment_hierarchy, _set(1, K=[[float("nan"), 0.0, 0.0]]), "layer 2: K must be finite"),
    (recruitment_hierarchy, _set(2, ubar=[float("inf")]), "layer 3: ubar must be finite"),
    (recruitment_hierarchy, _set(1, K=[[True, 0.0, 0.0]]), "layer 2: K malformed"),
    (recruitment_hierarchy, _set(2, ubar=["0.5"]), "layer 3: ubar malformed"),
    # a file that is not a list of entries, or an entry without a known mode
    (recruitment_hierarchy, lambda blob: {"a": 1}, "controls file must be a JSON list"),
    (recruitment_hierarchy, lambda blob: 3, "controls file must be a JSON list"),
    (recruitment_hierarchy, _entries(lambda entries: entries[1].pop("mode")),
     "control entry missing field 'mode'"),
    (recruitment_hierarchy, _set(1, mode="banana"), "unknown mode 'banana'"),
], ids=["online-past-bottom", "online-layer-0", "constant-past-bottom",
        "online-on-layer-1", "online-without-B", "non-object-entry",
        "fractional-layer", "boolean-layer", "second-entry", "K-without-B",
        "ubar-without-B", "K-shape", "ubar-shape", "K-nan", "ubar-inf", "K-boolean",
        "ubar-string",
        "object-file", "number-file", "no-mode", "unknown-mode"])
def test_cli_recruit_rejects_bad_controls(tmp_path, capsys, make_h, edit, match):
    h_path = tmp_path / "h.json"
    ltio.dump_hierarchy(make_h(), h_path)
    c_path = tmp_path / "controls.json"
    assert main(["synthesize", "--hierarchy", str(h_path), "--out", str(c_path)]) == 0
    c_path.write_text(json.dumps(edit(json.loads(c_path.read_text()))))
    assert main(["recruit", "--hierarchy", str(h_path), "--controls", str(c_path),
                 "--eps", "0.5"]) == 2
    assert match in capsys.readouterr().err


def scalar_problem_json():
    return {
        "layer_sizes": [1],
        "structure": [
            {"block": "W11", "row": 0, "col": 0, "sign": "+", "bound": 1.0},
            {"block": "U1", "row": 0, "col": 0, "sign": "+", "bound": 6.0},
        ],
        "inputs": [
            {"name": "drive", "kind": "pulse",
             "params": {"window": [0.0, 2.0], "sigma": 1.0}},
        ],
        "conditions": ["base"],
        "manifest": [0],
        "t0": 0.0,
        "tf": 5.0,
        "T": 0.1,
    }


def write_fit_inputs(tmp_path):
    """Problem JSON plus one rate CSV generated from a known model."""
    obj = scalar_problem_json()
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps(obj))
    problem = sysid.SysIdProblem(
        (1,),
        [sysid.WeightEntry("W11", 0, 0, "+", 1.0),
         sysid.WeightEntry("U1", 0, 0, "+", 6.0)],
        [sysid.InputSignal("drive", "pulse", {"window": (0.0, 2.0), "sigma": 1.0})],
        ("base",), (0,), t0=0.0, tf=5.0, T=0.1,
    )
    z_true = np.array([0.6, 3.0, 1.2, 0.4, 0.0])
    rates = sysid.predict(z_true, problem)["base"]
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    times = problem.t0 + problem.T * np.arange(problem.K)
    lines = ["t,n0"] + [f"{t:.17g},{v:.17g}" for t, v in zip(times, rates[:, 0])]
    (data_dir / "base.csv").write_text("\n".join(lines) + "\n")
    return problem_path, data_dir


def test_cli_fit_and_predict(tmp_path):
    problem_path, data_dir = write_fit_inputs(tmp_path)
    out1 = tmp_path / "fit1.json"
    args = ["fit", "--problem", str(problem_path), "--data", str(data_dir),
            "--seed", "1", "--starts", "6", "--maxiter", "150"]
    assert main(args + ["--out", str(out1)]) == 0
    blob = json.loads(out1.read_text())
    assert blob["names"] == ["W11[0,0]", "U1[0,0]", "tau1", "c[0]", "x0:base[0]"]
    assert len(blob["z"]) == 5
    assert blob["f"] >= 0.0 and blob["r2"] <= 1.0
    assert blob["n_starts"] == 6 and blob["seed"] == 1
    # identical inputs and seed give a byte-identical report
    out2 = tmp_path / "fit2.json"
    assert main(args + ["--out", str(out2)]) == 0
    assert out2.read_bytes() == out1.read_bytes()

    pred = tmp_path / "pred.json"
    assert main(["predict", "--problem", str(problem_path), "--data", str(data_dir),
                 "--params", str(out1), "--out", str(pred)]) == 0
    pblob = json.loads(pred.read_text())
    est = np.array(pblob["estimates"]["base"])
    assert est.shape == (51, 1)
    assert pblob["r2"] == pytest.approx(blob["r2"], rel=1e-10)


@pytest.mark.parametrize("params", [
    {"f": 0.5},  # no z
    {"z": "abc"},
    {"z": [0.6, "x", 1.2, 0.4, 0.0]},
    {"z": {"W11": 0.6}},
    {"z": None},
    {"z": [0.6, 3.0]},  # wrong length
], ids=["no-z", "string-z", "non-numeric-entry", "object-z", "null-z", "short-z"])
def test_cli_predict_rejects_bad_params(tmp_path, capsys, params):
    problem_path, data_dir = write_fit_inputs(tmp_path)
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params))
    assert main(["predict", "--problem", str(problem_path), "--data", str(data_dir),
                 "--params", str(params_path)]) == 2
    assert "z must be a list of 5 numbers" in capsys.readouterr().err


def test_cli_timescale(tmp_path):
    rng = np.random.default_rng(11)
    phi = np.exp(-0.2 / 1.0)
    trials = np.zeros((300, 50))
    trials[:, 0] = rng.standard_normal(300)
    for k in range(1, 50):
        trials[:, k] = phi * trials[:, k - 1] + np.sqrt(1 - phi**2) * (
            rng.standard_normal(300)
        )
    data = tmp_path / "trials.csv"
    np.savetxt(data, trials, delimiter=",")
    out = tmp_path / "ts.json"
    assert main(["timescale", "--data", str(data), "--binwidth", "0.2",
                 "--lags", "1:10", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["tau"] > 0.0 and blob["amplitude"] > 0.0
    assert blob["tau"] == pytest.approx(1.0, rel=0.35)
    assert main(["timescale", "--data", str(tmp_path / "nope.csv"),
                 "--out", str(out), "--force"]) == 2


def test_cli_rtest(tmp_path):
    out = tmp_path / "p.json"
    assert main(["rtest", "--a", "1,2,3", "--b", "1,2,3", "--n-perm", "99",
                 "--seed", "0", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["p_value"] == 1.0 and blob["n_perm"] == 99
    # samples can come from CSV files as well
    a_path = tmp_path / "a.csv"
    b_path = tmp_path / "b.csv"
    np.savetxt(a_path, [[0.1, 0.2, 0.3]], delimiter=",")
    np.savetxt(b_path, [[5.1, 5.2, 5.3]], delimiter=",")
    out2 = tmp_path / "p2.json"
    assert main(["rtest", "--a", str(a_path), "--b", str(b_path), "--n-perm", "199",
                 "--seed", "2", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["p_value"] < 0.2


@pytest.mark.parametrize("n_perm", ["-5", "0"])
def test_cli_rtest_without_permutations_exits_2(n_perm, tmp_path, capsys):
    # (1 + count) / (1 + n_perm) read -0.25 at n_perm = -5 and 1.0 at 0
    out = tmp_path / "p.json"
    assert main(["rtest", "--a", "1,2", "--b", "3,4", "--seed", "1", "--n-perm", n_perm,
                 "--out", str(out)]) == 2
    assert f"n_perm must be at least 1, got {n_perm}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--lags", "1:100"], "fit lags must lie in 0..39 for 40 bins; got 1..100"),
    (["--lags=-2:5"], "fit lags must lie in 0..39 for 40 bins; got -2..5"),
    (["--binwidth", "0"], "bin_width must be a finite number > 0, got 0.0"),
    (["--binwidth", "-1"], "bin_width must be a finite number > 0, got -1.0"),
    (["--binwidth", "nan"], "bin_width must be a finite number > 0, got nan"),
    (["--binwidth", "inf"], "bin_width must be a finite number > 0, got inf"),
    (["--lags", "5:2"], "need at least two fit lags, got []"),
    (["--lags", "3:3"], "need at least two fit lags, got [3]"),
])
def test_cli_timescale_bad_bins_or_lags_exit_2(flags, message, tmp_path, capsys):
    # before: the lags beyond the bins raised IndexError (exit 1), the
    # bin widths gave tau 0, -140 or a bare NaN, which is not JSON, and an
    # empty or one-lag range exited 3, as data without decaying
    # correlations does
    data = tmp_path / "trials.csv"
    np.savetxt(data, np.random.default_rng(3).normal(size=(6, 40)), delimiter=",")
    out = tmp_path / "ts.json"
    assert main(["timescale", "--data", str(data), *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_env_overrides(tmp_path, monkeypatch, capsys):
    # a required flag may come from its LTNET_ variable instead
    monkeypatch.setenv("LTNET_SEED", "0")
    monkeypatch.setenv("LTNET_N_PERM", "49")
    assert main(["rtest", "--a", "1,2,3", "--b", "1,2,3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["p_value"] == 1.0 and blob["n_perm"] == 49
    # explicit flags win over the environment
    assert main(["rtest", "--a", "1,2,3", "--b", "1,2,3", "--n-perm", "25"]) == 0
    assert json.loads(capsys.readouterr().out)["n_perm"] == 25


# -- the parser main builds: only the named subcommand's ----------------------

# subcommand -> (the rest of a sample argv, one LTNET_ variable, its value,
# the value as the flag's type reads it)
_SAMPLE_ARGV = {
    "simulate": (["--net", "n.json", "--out", "t.csv", "--tspan", "0,5"], "DT", "0.01", 0.01),
    "equilibrium": (["--net", "n.json", "--at=-1,-1"], "OUT", "e.json", "e.json"),
    "certify": (["--hierarchy", "h.json"], "OUT", "c.json", "c.json"),
    "synthesize": (["--out", "k.json", "--force"], "HIERARCHY", "h.json", "h.json"),
    "recruit": (["--hierarchy", "h.json", "--eps", "0.5"], "WINDOW", "1,2", "1,2"),
    "fit": (["--problem", "p.json", "--starts", "2"], "SEED", "7", 7),
    "timescale": (["--data", "d.csv"], "LAGS", "2:4", range(2, 5)),
    "rtest": (["--a", "1,2", "--b", "3,4", "--seed", "1"], "N_PERM", "99", 99),
    "predict": (["--problem", "p.json", "--params", "f.json"], "DATA", "rates", "rates"),
}


def test_sample_argv_covers_every_subcommand():
    sub, = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(_SAMPLE_ARGV)


@pytest.mark.parametrize("command", sorted(_SAMPLE_ARGV))
def test_lean_parser_reads_what_the_full_parser_reads(command, monkeypatch):
    rest, var, value, parsed = _SAMPLE_ARGV[command]
    monkeypatch.setenv("LTNET_" + var, value)
    argv = [command, *rest]
    lean = vars(cli.build_parser(command).parse_args(argv))
    assert lean == vars(cli.build_parser().parse_args(argv))
    assert lean[var.lower()] == parsed


@pytest.mark.parametrize("argv, env, message", [
    (["fit", "--problem", "p.json", "--seed", "0", "--starts", "1.5"], {},
     "argument --starts: invalid int value: '1.5'"),
    (["fit", "--problem", "p.json", "--seed", "1e3"], {},
     "argument --seed: invalid int value: '1e3'"),
    (["fit", "--problem", "p.json", "--seed", "0"], {"LTNET_MAXITER": "x"},
     "argument --maxiter: invalid int value: 'x'"),
    (["rtest", "--a", "1,2", "--b", "3,4", "--seed", "1", "--n-perm", "x"], {},
     "argument --n-perm: invalid int value: 'x'"),
    (["timescale", "--data", "d.csv", "--binwidth", "x"], {},
     "argument --binwidth: invalid float value: 'x'"),
    (["timescale", "--data", "d.csv", "--lags", "5"], {},
     "argument --lags: expected lo:hi, got '5'"),
    (["timescale", "--data", "d.csv"], {"LTNET_LAGS": "1:x"},
     "argument --lags: expected lo:hi, got '1:x'"),
    (["simulate", "--net", "n.json", "--out", "t.csv", "--dt", "x"], {},
     "argument --dt: invalid float value: 'x'"),
], ids=["starts", "seed", "maxiter-env", "n-perm", "binwidth", "lags", "lags-env", "dt"])
def test_cli_numeric_flags_name_themselves(argv, env, message, monkeypatch, capsys):
    # before: exit 2 with a bare "invalid literal for int()" or, for --lags,
    # "not enough values to unpack"
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2 and message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["bogus", "--net", "n.json"], ["certify", "--help"], ["recruit", "-h"],
    ["fit", "--problem", "p.json"], ["simulate", "--net"],
    ["certify", "--hierarchy", "h.json", "--bogus"],
])
def test_cli_prints_what_the_full_parser_prints(argv, capsys):
    with pytest.raises(SystemExit) as lean:
        main(argv)
    printed = capsys.readouterr()
    with pytest.raises(SystemExit) as full:
        cli.build_parser().parse_args(argv)
    assert (lean.value.code, printed) == (full.value.code, capsys.readouterr())


# -- comma lists that start with a negative number ----------------------------


def test_cli_equilibrium_at_negative_list(tmp_path):
    net_path = tmp_path / "net.json"
    ltio.dump_network(demo_network(), net_path)
    out, ref = tmp_path / "eq.json", tmp_path / "ref.json"
    assert main(["equilibrium", "--net", str(net_path), "--at", "-1,-1",
                 "--out", str(out)]) == 0
    assert main(["equilibrium", "--net", str(net_path), "--at=-1,-1",
                 "--out", str(ref)]) == 0
    assert json.loads(out.read_text())["at"] == [-1.0, -1.0]
    assert out.read_bytes() == ref.read_bytes()


def test_cli_list_flags_take_non_finite_negative_numbers(tmp_path, capsys):
    # before: argparse read -inf,... as a flag, and both runs exited 2 with
    # "argument --at: expected one argument" / "argument --x0: ..."
    net_path, out = tmp_path / "net.json", tmp_path / "out"
    ltio.dump_network(ltio.load_hierarchy(_LC_FIXTURE).layers[1], net_path)
    assert main(["equilibrium", "--net", str(net_path), "--at", "-inf,0", "--out", str(out)]) == 3
    assert "no piece covers d=" in capsys.readouterr().err
    assert main(["simulate", "--net", str(net_path), "--x0", "-inf,1", "--out", str(out)]) == 2
    assert "x0 lies outside the box" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:  # a flag is not a value
        main(["equilibrium", "--net", str(net_path), "--at", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --at: expected one argument" in capsys.readouterr().err


def test_cli_x0_file_of_the_wrong_length(tmp_path, capsys):
    net_path, h_path = tmp_path / "net.json", tmp_path / "h.json"
    ltio.dump_network(demo_network(), net_path)
    ltio.dump_hierarchy(recruitment_hierarchy(), h_path)
    x0_path, out = tmp_path / "x0.txt", tmp_path / "out"
    for argv, n in ((["simulate", "--net", str(net_path), "--tspan", "0,1"], 2),
                    (["recruit", "--hierarchy", str(h_path), "--eps", "0.5"], 8)):
        for count in (n - 1, n + 7):  # short and long, as a comma list is refused
            np.savetxt(x0_path, np.full(count, 0.1))
            assert main([*argv, "--x0", str(x0_path), "--out", str(out)]) == 2
            assert f"expected {n} numbers, got {count}" in capsys.readouterr().err
            assert not out.exists()


def test_cli_number_files_take_commas_or_whitespace(tmp_path, capsys):
    # before: an x0 file of comma-separated numbers and a sample file of
    # space-separated ones both exited 2
    net_path, out = tmp_path / "net.json", tmp_path / "traj.csv"
    ltio.dump_network(demo_network(), net_path)
    x0_path = tmp_path / "x0.txt"
    x0_path.write_text("0.5,1.5\n")
    assert main(["simulate", "--net", str(net_path), "--x0", str(x0_path),
                 "--tspan", "0,1", "--out", str(out)]) == 0
    np.testing.assert_array_equal(ltio.rates_from_csv(out)[2][0], [0.5, 1.5])
    a_path, b_path = tmp_path / "a.txt", tmp_path / "b.txt"
    a_path.write_text("0.1 0.2 0.3\n")
    b_path.write_text("5.1\n5.2, 5.3\n")
    reports = []
    for a, b in ((str(a_path), str(b_path)), ("0.1,0.2,0.3", "5.1,5.2,5.3")):
        assert main(["rtest", "--a", a, "--b", b, "--n-perm", "99", "--seed", "2"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    # a token that is not a number is refused, naming the file
    for path, argv in ((x0_path, ["simulate", "--net", str(net_path), "--x0", str(x0_path),
                                  "--out", str(out), "--force"]),
                       (a_path, ["rtest", "--a", str(a_path), "--b", "1,2", "--seed", "0"])):
        path.write_text("0.5,abc\n")
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: could not convert string to float: 'abc'\n")


def test_cli_reads_a_number_file_once(tmp_path, monkeypatch):
    # before: the list-flag attacher read the file too, so it was opened twice
    net_path, out, x0_path = tmp_path / "net.json", tmp_path / "traj.csv", tmp_path / "x0.txt"
    ltio.dump_network(demo_network(), net_path)
    x0_path.write_text("0.5,1.5\n")
    opened, real_open = [], open

    def counted(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counted)
    assert main(["simulate", "--net", str(net_path), "--x0", str(x0_path),
                 "--tspan", "0,1", "--out", str(out)]) == 0
    assert opened.count(str(x0_path)) == 1
    np.testing.assert_array_equal(ltio.rates_from_csv(out)[2][0], [0.5, 1.5])


def test_number_text_refuses_digit_separators(tmp_path, capsys):
    # before: float() read 1_5 as 15 in a rate CSV, a trials CSV and a
    # number file, and --tspan 0,1_0 ran to t = 10
    rates, trials, a_path = tmp_path / "rates.csv", tmp_path / "trials.csv", tmp_path / "a.txt"
    rates.write_text("t,a\n0,1_5\n")
    trials.write_text("1,2,3\n4,1_5,6\n")
    for reader, path in ((ltio.rates_from_csv, rates), (ltio.trials_from_csv, trials)):
        with pytest.raises(ValidationError) as exc:
            reader(path)
        assert str(exc.value) == f"{path}: line 2: could not convert string to float: '1_5'"
    a_path.write_text("1_5 2 3\n")
    assert main(["rtest", "--a", str(a_path), "--b", "1,2,3", "--seed", "0"]) == 2
    assert capsys.readouterr().err == f"error: {a_path}: could not convert string to float: '1_5'\n"
    net_path, out = tmp_path / "net.json", tmp_path / "traj.csv"
    ltio.dump_network(demo_network(), net_path)
    assert main(["simulate", "--net", str(net_path), "--tspan", "0,1_0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: could not convert string to float: '1_0'\n"
    assert not out.exists()


def test_ceilings_take_numpy_floats():
    # before: an np.float32 ceiling was refused where an np.float32 weight was read
    obj = {"n": 1, "W": [[np.float32(0.5)]], "c": [0.0], "m": [np.float32(2.0)], "tau": 1.0}
    assert ltio.network_from_dict(obj).m.tolist() == [2.0]


def test_network_refuses_blocks_numpy_cannot_stack():
    obj = ltio.network_to_dict(demo_network())
    obj["W"] = [np.zeros((2, 2)), np.zeros((2, 3))]
    with pytest.raises(ValidationError, match="W must be a rectangular array of numbers"):
        ltio.network_from_dict(obj)


def test_cli_equilibrium_at_a_non_finite_point_exits_3(tmp_path, capsys):
    # before: exit 0 and a report holding NaN and -Infinity, not strict JSON
    net = LTNetwork(W=np.array([[0.5]]), c=np.zeros(1), m=np.array([np.inf]), tau=1.0)
    net_path, out = tmp_path / "net.json", tmp_path / "eq.json"
    ltio.dump_network(net, net_path)
    for at in ("-inf", "inf", "nan"):
        assert main(["equilibrium", "--net", str(net_path), f"--at={at}", "--out", str(out)]) == 3
        assert "no piece covers d=" in capsys.readouterr().err
        assert not out.exists()


def test_cli_simulate_x0_negative_list(tmp_path, capsys):
    net = demo_network()
    net_path = tmp_path / "net.json"
    ltio.dump_network(net, net_path)
    out = tmp_path / "traj.csv"
    # the list is read as the value of --x0, and then refused by the network
    assert main(["simulate", "--net", str(net_path), "--x0", "-1,-0.5",
                 "--out", str(out)]) == 2
    assert "x0 lies outside the box" in capsys.readouterr().err
    assert main(["simulate", "--net", str(net_path), "--x0", "1,0.25",
                 "--tspan", "-1,1", "--out", str(out)]) == 0
    _, times, samples = ltio.rates_from_csv(out)
    ref = simulate(net, [1.0, 0.25], None, (-1.0, 1.0))
    np.testing.assert_array_equal(samples, ref.samples)
    assert times[0] == -1.0


def test_cli_recruit_x0_negative_list(tmp_path, capsys):
    h_path = tmp_path / "h.json"
    ltio.dump_hierarchy(recruitment_hierarchy(), h_path)
    out, ref = tmp_path / "sweep.json", tmp_path / "ref.json"
    # the list is read as the value of --x0, and then refused by the
    # hierarchy (before: the negative entries were clipped to 0)
    assert main(["recruit", "--hierarchy", str(h_path), "--eps", "0.5",
                 "--x0", "-0.5,0.2,0.1,-0.3,0.4,0.2,0.1,-0.2", "--out", str(out)]) == 2
    assert "x0 of layer 1 lies outside the box [0, m]" in capsys.readouterr().err
    assert not out.exists()
    x0 = "0.5,0.2,0.1,0.3,0.4,0.2,0.1,0.2"
    assert main(["recruit", "--hierarchy", str(h_path), "--eps", "0.5",
                 "--x0", x0, "--out", str(out)]) == 0
    assert main(["recruit", "--hierarchy", str(h_path), "--eps", "0.5",
                 f"--x0={x0}", "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()
    default = tmp_path / "default.json"
    assert main(["recruit", "--hierarchy", str(h_path), "--eps", "0.5",
                 "--out", str(default)]) == 0
    assert out.read_bytes() != default.read_bytes()  # the initial state was used


# -- rate CSVs and the problem JSON ------------------------------------------


@pytest.mark.parametrize("text, match", [
    ("t,a,b\n", r"line 2: no data rows"),
    ("t,a,b\n\n", r"line 2: no data rows"),
    ("t,a,b\n0,1,2\n0.1,3\n", r"line 3: expected 3 fields, got 2"),
    ("t,a,b\n0,1,2\n0.1,3,4,5\n", r"line 3: expected 3 fields, got 4"),
], ids=["header-only", "header-and-blank", "short-row", "long-row"])
def test_rates_csv_rejects_malformed(tmp_path, text, match):
    path = tmp_path / "rates.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=rf"rates\.csv: {match}"):
        ltio.rates_from_csv(path)


@pytest.mark.parametrize("flag, value, message", [
    ("--starts", "0", "n_starts must be an integer >= 1, got 0"),
    ("--starts", "-2", "n_starts must be an integer >= 1, got -2"),
    ("--maxiter", "-1", "maxiter must be an integer >= 0, got -1"),
])
def test_cli_fit_rejects_a_bad_budget(tmp_path, capsys, flag, value, message):
    problem_path, data_dir = write_fit_inputs(tmp_path)
    args = ["fit", "--problem", str(problem_path), "--data", str(data_dir),
            "--seed", "1", "--starts", "1", "--maxiter", "1", flag, value]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_fit_rejects_malformed_rates(tmp_path, capsys):
    problem_path, data_dir = write_fit_inputs(tmp_path)
    (data_dir / "base.csv").write_text("t,n0\n")
    assert main(["fit", "--problem", str(problem_path), "--data", str(data_dir),
                 "--seed", "1", "--starts", "1", "--maxiter", "1"]) == 2
    assert "base.csv: line 2: no data rows" in capsys.readouterr().err


def test_cli_fit_rejects_rates_off_the_grid(tmp_path, capsys):
    problem_path, data_dir = write_fit_inputs(tmp_path)
    csv_path = data_dir / "base.csv"
    lines = csv_path.read_text().splitlines()
    args = ["predict", "--problem", str(problem_path), "--data", str(data_dir),
            "--params", str(tmp_path / "nope.json")]
    # the right row count on a different grid: t = 0.2 k instead of 0.1 k
    shifted = [lines[0]] + [f"{0.2 * k!r},{row.split(',')[1]}"
                            for k, row in enumerate(lines[1:])]
    csv_path.write_text("\n".join(shifted) + "\n")
    assert main(args) == 2
    assert "base.csv: data row 2: t = 0.2 is off the grid" in capsys.readouterr().err
    # one late sample in the middle
    late = list(lines)
    t, v = late[11].split(",")
    late[11] = f"{float(t) + 1e-6!r},{v}"
    csv_path.write_text("\n".join(late) + "\n")
    assert main(args) == 2
    assert "data row 11:" in capsys.readouterr().err
    # an offset well inside 1e-9 T is accepted: fails later, on the missing params
    late[11] = f"{float(t) + 1e-12!r},{v}"
    csv_path.write_text("\n".join(late) + "\n")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "nope.json" in err and "off the grid" not in err


def _mutated_csv(rows, kind, k, j):
    """The CSV text of rows (lists of fields) with one mutation at row k,
    field j (both taken modulo the size)."""
    rows = [list(r) for r in rows]
    k = k % len(rows)
    j = j % len(rows[k])
    if kind in ("nan", "inf", "text"):
        rows[k][j] = {"nan": "nan", "inf": "-inf", "text": "x1"}[kind]
    elif kind == "long_row":
        rows[k].append("1.0")
    elif kind == "short_row":
        del rows[k][j]
    elif kind == "missing_column":
        for r in rows:
            del r[min(j, len(r) - 1)]
    elif kind == "off_grid":  # a time, in a rate CSV
        rows[k][0] = repr(float(rows[k][0]) + 0.037) if k else rows[k][0]
    elif kind == "dropped_row":
        del rows[k]
    elif kind == "empty":
        rows = []
    return "".join(",".join(r) + "\n" for r in rows)


_CSV_MUTATIONS = ("nan", "inf", "text", "long_row", "short_row", "missing_column",
                  "off_grid", "dropped_row", "empty")


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(command=st.sampled_from(["predict", "timescale", "rtest"]),
       kind=st.sampled_from(_CSV_MUTATIONS), k=st.integers(0, 60), j=st.integers(0, 40))
def test_cli_survives_one_mutated_csv(command, kind, k, j):
    # predict --data reads a rate CSV, timescale and rtest a trial CSV; a
    # refusal exits 2 or 3 with a message, and a report is strict JSON
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if command == "predict":
            problem_path, data_dir = write_fit_inputs(tmp)
            params, csv_path = tmp / "params.json", data_dir / "base.csv"
            params.write_text(json.dumps({"z": [0.6, 3.0, 1.2, 0.4, 0.0]}))
            argv = ["predict", "--problem", str(problem_path), "--data", str(data_dir),
                    "--params", str(params)]
        else:
            csv_path = tmp / "trials.csv"
            np.savetxt(csv_path, np.random.default_rng(3).normal(size=(6, 40)), delimiter=",")
            argv = (["timescale", "--data", str(csv_path)] if command == "timescale" else
                    ["rtest", "--a", str(csv_path), "--b", "1,2,3", "--n-perm", "19",
                     "--seed", "1"])
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        csv_path.write_text(_mutated_csv(rows, kind, k, j))
        out = tmp / "report.json"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(out)])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().strip() and not out.exists()
        else:
            json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"{c} in report"))


def test_cli_problem_reads_x0_max_and_sim_substeps(tmp_path, capsys):
    problem_path, data_dir = write_fit_inputs(tmp_path)
    obj = json.loads(problem_path.read_text())
    problem = ltio.load_problem(problem_path, data_dir)
    assert problem.sim_substeps == 2 and problem.bounds()[1][-1] != 0.75
    obj.update(x0_max=0.75, sim_substeps=3)
    problem_path.write_text(json.dumps(obj))
    problem = ltio.load_problem(problem_path, data_dir)
    assert problem.sim_substeps == 3
    assert problem.x0_max == 0.75 and problem.bounds()[1][-1] == 0.75
    for bad in ({"sim_substeps": 0}, {"sim_substeps": 1.5}, {"x0_max": -1.0},
                {"x0_max": "wide"}):
        problem_path.write_text(json.dumps({**obj, **bad}))
        assert main(["predict", "--problem", str(problem_path),
                     "--params", str(tmp_path / "nope.json")]) == 2
        assert "bad problem definition" in capsys.readouterr().err


def test_cli_problem_defaults_are_sysid_defaults(tmp_path):
    # only the required keys: every default comes from SysIdProblem and WeightEntry
    obj = {"layer_sizes": [2], "conditions": ["base"], "manifest": [0, 1],
           "structure": [{"block": "W11", "row": 0, "col": 1}]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj))
    loaded = ltio.load_problem(path, None)
    direct = sysid.SysIdProblem((2,), [sysid.WeightEntry("W11", 0, 1)], [], ("base",), (0, 1))
    for name in ("t0", "tf", "T", "K", "c_bounds", "tau_bounds", "x0_max",
                 "gamma1", "gamma2", "sim_substeps", "structure"):
        assert getattr(loaded, name) == getattr(direct, name), name
    for a, b in zip(loaded.bounds(), direct.bounds()):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("edit, match", [
    (lambda obj: obj.update(gama1=5.0), "problem has unknown key 'gama1'"),
    (lambda obj: obj["structure"][1].update(bonud=0.2),
     "structure entry 1 has unknown key 'bonud'"),
    (lambda obj: obj["inputs"][0].update(parmas={}), "inputs entry 0 has unknown key 'parmas'"),
], ids=["top-level", "structure-entry", "inputs-entry"])
def test_cli_problem_rejects_unknown_keys(tmp_path, capsys, edit, match):
    problem_path, data_dir = write_fit_inputs(tmp_path)
    obj = json.loads(problem_path.read_text())
    edit(obj)
    problem_path.write_text(json.dumps(obj))
    assert main(["fit", "--problem", str(problem_path), "--data", str(data_dir),
                 "--seed", "0"]) == 2
    assert match in capsys.readouterr().err


def _drive(**params):
    """Replace the params of the scalar problem's pulse input."""
    return lambda obj: obj["inputs"][0].update(params=params)


@pytest.mark.parametrize("edit, match", [
    (lambda obj: obj["inputs"][0].update(kind="sawtooth"),
     "inputs entry 0: unknown signal kind 'sawtooth'"),
    (lambda obj: obj["inputs"][0].pop("kind"), "inputs entry 0 is missing key 'kind'"),
    (_drive(sigma=1.0), "inputs entry 0: pulse window must be two finite numbers, got None"),
    (_drive(window=[0.0], sigma=1.0), "pulse window must be two finite numbers, got [0.0]"),
    (_drive(window=[0.0, "2"], sigma=1.0), "pulse window must be two finite numbers"),
    (_drive(window=[0.0, float("inf")], sigma=1.0), "pulse window must be two finite numbers"),
    (_drive(window=[2.0, 0.0], sigma=1.0),
     "inputs entry 0: pulse window must not end before it starts, got [2.0, 0.0]"),
    (_drive(window=[0.0, 2.0], sigma=0), "inputs entry 0: pulse sigma must be finite and > 0, got 0"),
    (_drive(window=[0.0, 2.0], sigma=float("nan")), "pulse sigma must be finite and > 0"),
    (lambda obj: obj["inputs"][0].update(kind="time_cell", params={"t0": "late"}),
     "inputs entry 0: time_cell t0 must be a finite number, got 'late'"),
    (lambda obj: obj["inputs"][0].update(kind="const", params={"value": [1.0]}),
     "inputs entry 0: const value must be a finite number, got [1.0]"),
    (lambda obj: obj["inputs"][0].update(kind="rule", params={}),
     "inputs entry 0: rule 'on' must be a collection of conditions, got None"),
    (lambda obj: obj["inputs"][0].update(params=None), "inputs entry 0: params must be an object"),
    # before: ZeroDivisionError or IndexError (exit 1), or exit 2 naming no field
    (lambda obj: obj.update(T=0), "T must be finite and > 0, got 0"),
    (lambda obj: obj.update(T=-0.1), "T must be finite and > 0, got -0.1"),
    (lambda obj: obj.update(tf=-1.0),
     "t0 and tf must be finite with t0 < tf, got 0.0 and -1.0"),
    (lambda obj: obj.update(manifest=[3]), "manifest indices must be in 0..0, got [3]"),
    # before: fit exited 0 with tau <= 0 allowed
    (lambda obj: obj.update(tau_bounds=[[-1, 2]]),
     "tau_bounds pairs must hold 0 < lo <= hi < inf, got (-1.0, 2.0)"),
    (lambda obj: obj.update(tau_bounds=[[0, 2]]), "tau_bounds pairs must hold 0 < lo"),
    (lambda obj: obj.update(tau_bounds=[[2, 1]]), "tau_bounds pairs must hold 0 < lo"),
    (lambda obj: obj.update(tau_bounds=[[1.0]]),
     "tau_bounds pairs must hold 0 < lo <= hi < inf, got (1.0,)"),
    (lambda obj: obj.update(c_bounds=[5, -3]),
     "c_bounds must be finite with lo <= hi, got (5.0, -3.0)"),
    # before: numpy's bare "need at least one array to stack"
    (lambda obj: obj.update(conditions=[]),
     "conditions must name at least one condition, got none"),
    # before: exit 3, "numerical failure: no start produced a finite objective"
    (lambda obj: obj.update(gamma1=float("nan")), "gamma1 must be finite and >= 0, got nan"),
    (lambda obj: obj.update(gamma2=-1.0), "gamma2 must be finite and >= 0, got -1.0"),
    (lambda obj: obj.update(gamma2=float("inf")), "gamma2 must be finite and >= 0, got inf"),
    # before: read as 2, 0 and 1.0 by int() and float()
    (lambda obj: obj.update(layer_sizes=[2.7]), "layer_sizes must be integers >= 1, got [2.7]"),
    (lambda obj: obj.update(manifest=[0.5]), "manifest indices must be in 0..0, got [0.5]"),
    (lambda obj: obj.update(T=True), "T must be finite and > 0, got True"),
    (lambda obj: obj.update(layer_sizes=[True]), "layer_sizes must be integers >= 1, got [True]"),
    (lambda obj: obj.update(sim_substeps=True), "sim_substeps must be a positive integer, got True"),
    (lambda obj: obj.update(gamma1="5"), "gamma1 must be finite and >= 0, got '5'"),
    (lambda obj: obj.update(c_bounds=[False, 5]), "c_bounds must be finite with lo <= hi"),
], ids=["unknown-kind", "missing-kind", "pulse-without-window", "short-window",
        "string-in-window", "infinite-window", "reversed-window", "zero-sigma", "nan-sigma",
        "non-numeric-t0", "non-numeric-value", "rule-without-on", "null-params",
        "zero-T", "negative-T", "tf-before-t0", "manifest-out-of-range", "negative-tau",
        "zero-tau", "reversed-tau-bounds", "one-tau-bound", "reversed-c-bounds",
        "no-conditions", "nan-gamma1", "negative-gamma2", "infinite-gamma2",
        "fractional-layer-size", "fractional-manifest", "boolean-T", "boolean-layer-size",
        "boolean-sim-substeps", "string-gamma1", "boolean-c-bound"])
def test_cli_problem_rejects_malformed_inputs(tmp_path, capsys, edit, match):
    problem_path, data_dir = write_fit_inputs(tmp_path)
    obj = json.loads(problem_path.read_text())
    edit(obj)
    problem_path.write_text(json.dumps(obj))
    assert main(["fit", "--problem", str(problem_path), "--data", str(data_dir),
                 "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert match in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [("row", 1.7), ("row", True), ("col", 0.5),
                                        ("col", False), ("row", "0")])
def test_cli_problem_rejects_non_integer_row_and_col(tmp_path, capsys, key, value):
    problem_path, data_dir = write_fit_inputs(tmp_path)
    obj = json.loads(problem_path.read_text())
    obj["structure"][1][key] = value
    problem_path.write_text(json.dumps(obj))
    assert main(["fit", "--problem", str(problem_path), "--data", str(data_dir),
                 "--seed", "0"]) == 2
    assert f"structure entry 1 {key} must be an integer, got {value!r}" in capsys.readouterr().err


def two_layer_problem_json(entry):
    """A two-layer problem whose structure entry 1 is entry."""
    return {
        "layer_sizes": [1, 1],
        "structure": [{"block": "W11", "row": 0, "col": 0}, entry],
        "inputs": [{"name": "drive", "kind": "const"}],
        "conditions": ["base"],
        "manifest": [0],
        "t0": 0.0,
        "tf": 1.0,
        "T": 0.1,
    }


_BLOCK_GRAMMAR = "structure entry 1: block must be W<i><j> or U<i> with layers 1..2, got "


@pytest.mark.parametrize("edit, match", [
    ({"block": "W1"}, _BLOCK_GRAMMAR + "'W1'"),
    ({"block": "U3"}, _BLOCK_GRAMMAR + "'U3'"),
    ({"block": "W00"}, _BLOCK_GRAMMAR + "'W00'"),
    ({"block": "U0"}, _BLOCK_GRAMMAR + "'U0'"),
    ({"block": "X12"}, _BLOCK_GRAMMAR + "'X12'"),
    ({"block": "W11x"}, _BLOCK_GRAMMAR + "'W11x'"),
    ({"sign": "pos"}, "structure entry 1: sign must be '+', '-' or 'free', got 'pos'"),
    ({"bound": 0}, "structure entry 1: bound must be finite and > 0, got 0"),
    ({"bound": -0.5}, "structure entry 1: bound must be finite and > 0, got -0.5"),
    ({"bound": 1e400}, "structure entry 1: bound must be finite and > 0, got inf"),
    ({"bound": "1.5"}, "structure entry 1: bound must be finite and > 0, got '1.5'"),
    ({"block": "U1", "col": 1}, "structure entry 1 col 1 out of range for 1 inputs"),
], ids=["W1", "U3", "W00", "U0", "X12", "W11x", "unknown-sign", "zero-bound",
        "negative-bound", "infinite-bound", "string-bound", "input-col-out-of-range"])
def test_cli_problem_rejects_malformed_structure_entries(tmp_path, capsys, edit, match):
    # before: W1 and U3 raised IndexError on load, W00 and U0 in unpack,
    # X12 and W11x were read as W12 and W11, an unknown sign as 'free', and
    # a bound as any float
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps(two_layer_problem_json(
        {"block": "W12", "row": 0, "col": 0, **edit})))
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps({"z": [0.1] * 8}))
    assert main(["predict", "--problem", str(problem_path), "--params", str(params_path)]) == 2
    err = capsys.readouterr().err
    assert match in err and "Traceback" not in err


def test_cli_problem_accepts_every_adjacent_block(tmp_path, capsys):
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps({"z": [0.1] * 8}))
    for block in ("W11", "W12", "W21", "W22", "U1", "U2"):
        problem_path = tmp_path / f"{block}.json"
        problem_path.write_text(json.dumps(two_layer_problem_json(
            {"block": block, "row": 0, "col": 0, "sign": "-", "bound": 2})))
        assert main(["predict", "--problem", str(problem_path),
                     "--params", str(params_path)]) == 0, capsys.readouterr().err


def test_network_from_dict_reads_n_as_an_integer():
    # 1.0 too: n follows the library's one integer rule, which refuses
    # every float (before: 1.0 was read as 1)
    for n in ("1", None, [1], 1.0):
        with pytest.raises(ValidationError, match="n must be an integer"):
            ltio.network_from_dict({"n": n, "W": [[0.0]], "c": [0.0], "m": ["inf"], "tau": 1.0})
    assert ltio.network_from_dict({"n": 1, "W": [[0.0]], "c": [0.0], "m": ["inf"],
                                   "tau": 1.0}).n == 1


@pytest.mark.parametrize("field, value, match", [
    ("m", [True, True], "ceiling entries must be numbers or 'inf', got True"),
    ("tau", True, "tau must be a number, got True"),
    ("tau", "0.5", "tau must be a number, got '0.5'"),
    ("W", [["0.83", "0.0"], ["0.76", "0.0"]], "W must be a rectangular array of numbers"),
    ("B", [[True], [False]], "B must be a rectangular array of numbers"),
], ids=["boolean-ceilings", "boolean-tau", "string-tau", "string-W", "boolean-B"])
def test_cli_network_refuses_booleans_and_strings_for_numbers(tmp_path, capsys, field, value,
                                                              match):
    # before: each exited 0, reading true as 1.0 and "0.5" as 0.5
    blob = {"n": 2, "W": [[0.83, 0.0], [0.76, 0.0]], "c": [0.5, 0.5], "m": ["inf", "inf"],
            "tau": 1.68, field: value}
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(blob))
    assert main(["equilibrium", "--net", str(net_path), "--at", "0.1,0.1",
                 "--out", str(tmp_path / "e.json")]) == 2
    err = capsys.readouterr().err
    assert match in err and "Traceback" not in err


# -- the output path: checked before the work, written once --------------------


def _lc_certify(out):
    return ["certify", "--hierarchy", str(_LC_FIXTURE), "--out", str(out)]


def _osc_simulate(tmp_path, out):
    net_path = tmp_path / "net.json"
    ltio.dump_network(ltio.load_hierarchy(_OSC_FIXTURE).layers[0], net_path, force=True)
    return ["simulate", "--net", str(net_path), "--out", str(out)]


@pytest.mark.parametrize("command", ["certify", "simulate"])
@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_cli_unwritable_out_exits_2_naming_it(tmp_path, capsys, command, where):
    # before: FileNotFoundError or IsADirectoryError out of main (exit 1)
    out = tmp_path / "missing" / "x.out" if where == "missing-directory" else tmp_path
    argv = _lc_certify(out) if command == "certify" else _osc_simulate(tmp_path, out)
    assert main(argv + ["--force"]) == 2
    err = capsys.readouterr().err
    assert str(out) in err and "Traceback" not in err


def test_writers_refuse_a_file_they_cannot_open(tmp_path, monkeypatch):
    # an OSError past check_output (here: no permission) names the path
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")
    monkeypatch.setattr(ltio, "open", refuse, raising=False)
    out = tmp_path / "r.json"
    with pytest.raises(ValidationError, match=f"{out}: cannot write: Permission denied"):
        ltio.write_report({}, "certify", out)
    traj = simulate(demo_network(), np.zeros(2), None, (0.0, 1.0))
    with pytest.raises(ValidationError, match="x.csv: cannot write"):
        ltio.trajectory_to_csv(traj, tmp_path / "x.csv")


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("the work ran before --out was checked")


def test_cli_existing_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "epsilon_sweep", _refuse_to_run)
    monkeypatch.setattr(sysid, "fit", _refuse_to_run)
    out = tmp_path / "report.json"
    out.write_text("{}\n")
    problem_path, data_dir = write_fit_inputs(tmp_path)
    for argv in (["recruit", "--hierarchy", str(_LC_FIXTURE), "--eps", "0.5"],
                 ["fit", "--problem", str(problem_path), "--data", str(data_dir), "--seed", "0"]):
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out} exists; pass --force to overwrite\n"
        assert out.read_text() == "{}\n"


def _report_argvs(tmp_path):
    """A runnable argv for each report subcommand whose --out is optional."""
    problem_path, data_dir = write_fit_inputs(tmp_path)
    fit_out = tmp_path / "fit.json"
    assert main(["fit", "--problem", str(problem_path), "--data", str(data_dir), "--seed", "0",
                 "--starts", "1", "--maxiter", "2", "--out", str(fit_out)]) == 0
    trials = tmp_path / "trials.csv"
    np.savetxt(trials, np.random.default_rng(3).normal(size=(6, 40)), delimiter=",")
    net_path = tmp_path / "net.json"
    ltio.dump_network(demo_network(), net_path)
    return {
        "equilibrium": ["--net", str(net_path)],
        "certify": ["--hierarchy", str(_LC_FIXTURE)],
        "synthesize": ["--hierarchy", str(_LC_FIXTURE)],
        "recruit": ["--hierarchy", str(_LC_FIXTURE), "--eps", "0.5"],
        "fit": ["--problem", str(problem_path), "--data", str(data_dir), "--seed", "0",
                "--starts", "1", "--maxiter", "2"],
        "timescale": ["--data", str(trials), "--lags", "1:4"],
        "rtest": ["--a", "1,2,3", "--b", "2,3,4", "--n-perm", "19", "--seed", "1"],
        "predict": ["--problem", str(problem_path), "--data", str(data_dir),
                    "--params", str(fit_out)],
    }


def test_cli_stdout_is_the_bytes_of_the_out_file(tmp_path, capsys):
    argvs = _report_argvs(tmp_path)
    # simulate writes a CSV, so every other subcommand has both paths
    required = {name for name, (_, _, flags) in cli._COMMANDS.items()
                if dict(flags)["--out"].get("required")}
    assert required == {"simulate"}
    assert sorted(argvs) == sorted(set(_SAMPLE_ARGV) - required)
    capsys.readouterr()
    for command, rest in argvs.items():
        out = tmp_path / f"{command}.out.json"
        assert main([command, *rest]) == 0
        printed = capsys.readouterr().out
        assert main([command, *rest, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert printed == out.read_text(), command
