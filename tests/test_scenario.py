"""Scenario JSON schema: strict keys, dimensions, constraint expansion."""

import json

import numpy as np
import pytest

from dpcover import cli
from dpcover.errors import ScenarioError
from dpcover.scenario import build_scenario, load_scenario

from conftest import first_order_doc


def test_valid_doc_builds():
    sc = build_scenario(first_order_doc(n_agents=2))
    assert len(sc.systems) == 2
    assert sc.budgets == [5, 5]
    assert sc.cloud.n_points == 30
    assert sc.seed == 3


def test_unknown_top_level_key_rejected():
    doc = first_order_doc()
    doc["tolerance"] = 0.1
    with pytest.raises(ScenarioError, match="unknown keys"):
        build_scenario(doc)


def test_unknown_agent_key_rejected():
    doc = first_order_doc()
    doc["agents"][0]["name"] = "alpha"
    with pytest.raises(ScenarioError, match="unknown keys"):
        build_scenario(doc)


def test_missing_version_rejected():
    doc = first_order_doc()
    del doc["version"]
    with pytest.raises(ScenarioError, match="version"):
        build_scenario(doc)


def test_wrong_version_rejected():
    doc = first_order_doc(version=2)
    with pytest.raises(ScenarioError, match="version"):
        build_scenario(doc)


def test_missing_budget_rejected():
    doc = first_order_doc()
    del doc["agents"][0]["M"]
    with pytest.raises(ScenarioError, match="M"):
        build_scenario(doc)


def test_bad_budget_rejected():
    doc = first_order_doc()
    doc["agents"][0]["M"] = 0
    with pytest.raises(ScenarioError):
        build_scenario(doc)
    doc["agents"][0]["M"] = 2.5
    with pytest.raises(ScenarioError):
        build_scenario(doc)


def test_initial_state_dimension_checked():
    doc = first_order_doc()
    doc["agents"][0]["initial_state"] = [1.0, 2.0, 3.0]
    with pytest.raises(ScenarioError, match="initial_state"):
        build_scenario(doc)


def test_no_system_anywhere_rejected():
    doc = first_order_doc()
    del doc["system"]
    with pytest.raises(ScenarioError, match="system"):
        build_scenario(doc)


def test_per_agent_system_override():
    doc = first_order_doc(n_agents=2)
    doc["agents"][1]["system"] = {"preset": "planar_quadrotor", "dt": 0.1}
    doc["agents"][1]["initial_state"] = [0.0] * 6 + [2.0, 2.0]
    sc = build_scenario(doc)
    assert sc.systems[0].n == 2
    assert sc.systems[1].n == 8


def test_explicit_matrices():
    doc = first_order_doc()
    doc["system"] = {"A": [[1.0, 0.0], [0.0, 1.0]],
                     "B": [[1.0, 0.0], [0.0, 1.0]],
                     "C": [[1.0, 0.0], [0.0, 1.0]], "dt": 0.5}
    sc = build_scenario(doc)
    assert sc.systems[0].P == 1
    assert sc.systems[0].dt == 0.5


def test_bad_preset_dt_rejected():
    doc = first_order_doc()
    doc["system"] = {"preset": "planar_quadrotor", "dt": 0.0}
    with pytest.raises(ScenarioError):
        build_scenario(doc)


def test_u_max_expands_to_box():
    doc = first_order_doc(input_constraints={"u_max": 5.0})
    sc = build_scenario(doc)
    Cu, Du = sc.input_constraints
    assert Cu.shape == (4, 2)
    assert np.allclose(Du, 5.0)
    assert np.all(Cu @ np.array([5.0, -5.0]) <= Du + 1e-12)
    assert np.any(Cu @ np.array([5.1, 0.0]) > Du)


def test_explicit_cu_du():
    doc = first_order_doc(input_constraints={
        "Cu": [[1.0, 0.0], [-1.0, 0.0]], "Du": [2.0, 2.0]})
    sc = build_scenario(doc)
    Cu, Du = sc.input_constraints
    assert Cu.shape == (2, 2)


def test_cu_du_dimension_mismatch():
    doc = first_order_doc(input_constraints={
        "Cu": [[1.0, 0.0, 0.0]], "Du": [2.0]})
    with pytest.raises(ScenarioError, match="Cu"):
        build_scenario(doc)


def test_u_max_and_cu_du_conflict():
    doc = first_order_doc(input_constraints={
        "u_max": 1.0, "Cu": [[1.0, 0.0]], "Du": [1.0]})
    with pytest.raises(ScenarioError):
        build_scenario(doc)


def test_reference_needs_exactly_one_source(tmp_path):
    doc = first_order_doc()
    doc["reference"]["file"] = "pts.csv"
    with pytest.raises(ScenarioError, match="exactly one"):
        build_scenario(doc)


def test_reference_file_relative_to_scenario(tmp_path):
    (tmp_path / "pts.csv").write_text("1,1\n2,2\n3,3\n")
    doc = first_order_doc()
    doc["reference"] = {"file": "pts.csv"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    sc = load_scenario(path)
    assert sc.cloud.n_points == 3


def test_mixture_seed_defaults_to_scenario_seed():
    a = build_scenario(first_order_doc(seed=11))
    b = build_scenario(first_order_doc(seed=12))
    assert not np.array_equal(a.cloud.positions, b.cloud.positions)
    doc = first_order_doc(seed=12)
    doc["reference"]["mixture"]["seed"] = 11
    c = build_scenario(doc)
    assert np.array_equal(a.cloud.positions, c.cloud.positions)


def test_comm_block():
    doc = first_order_doc(comm={"d_comm": 10.0, "latency_mean_ms": 1.0})
    sc = build_scenario(doc)
    assert sc.comm.d_comm == 10.0


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(path)


def _with(path, value, doc=None):
    """doc (default first_order_doc()) with the entry at key path (a tuple)
    set to value."""
    doc = first_order_doc() if doc is None else doc
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    node[last] = value
    return doc


@pytest.mark.parametrize("doc", [
    _with(("seed",), "x"),
    # an explicit mixture seed leaves the negative run seed to the engine
    _with(("reference", "mixture", "seed"), 3, first_order_doc(seed=-1)),
    _with(("agents", 0, "initial_state"), ["a", 1.0]),
    _with(("agents", 0, "initial_state"), [float("nan"), 1.0]),
    _with(("agents", 0, "M"), True),
    _with(("global_w_cap",), 0),
    _with(("global_w_cap",), -5),
    _with(("input_constraints",), {"u_max": "x"}),
    _with(("input_constraints",), {"Cu": [["a", 1.0]], "Du": [1.0]}),
    _with(("reference", "mixture", "components"), 5),
], ids=["seed-str", "seed-negative", "initial-state-str", "initial-state-nan",
        "budget-bool", "cap-zero", "cap-negative", "u-max-str", "cu-str",
        "components-int"])
def test_malformed_document_is_a_scenario_error(doc, tmp_path, capsys):
    with pytest.raises(ScenarioError):
        build_scenario(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("invalid: ")
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
