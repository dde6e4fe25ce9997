"""Scenario JSON schema: strict keys, dimensions, constraint expansion."""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcover import cli, linalg
from dpcover.errors import ScenarioError
from dpcover.linalg import TRANSPORT_SIZE_CAP
from dpcover.scenario import build_scenario, load_scenario

from conftest import first_order_doc


def test_valid_doc_builds():
    sc = build_scenario(first_order_doc(n_agents=2))
    assert len(sc.systems) == 2
    assert sc.budgets == [5, 5]
    assert sc.cloud.n_points == 30


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
    Cu, Du = sc.systems[0].input_bounds.Cu, sc.systems[0].input_bounds.Du
    assert Cu.shape == (4, 2)
    assert np.allclose(Du, 5.0)
    assert np.all(Cu @ np.array([5.0, -5.0]) <= Du + 1e-12)
    assert np.any(Cu @ np.array([5.1, 0.0]) > Du)


@pytest.fixture
def linprog_calls(monkeypatch):
    """A list that gains one entry per linalg.linprog call."""
    calls = []
    real_linprog = linalg.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(linalg, "linprog", counting)
    return calls


def test_box_constraints_solve_no_lp_at_load(linprog_calls):
    """The quadrotor preset's tau_max box and the scenario's u_max box,
    which replaces it on every agent, are centred at 0 without a Chebyshev
    LP."""
    path = Path(__file__).resolve().parent.parent / "scenarios" / "quadrotor_desk.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["input_constraints"] = {"u_max": 50}
    sc = build_scenario(doc, base_dir=path.parent)
    assert len(sc.systems) > 1
    assert all(np.array_equal(s.input_bounds.Du, [50.0] * 4) for s in sc.systems)
    assert linprog_calls == []


def test_explicit_cu_du():
    doc = first_order_doc(input_constraints={
        "Cu": [[1.0, 0.0], [-1.0, 0.0]], "Du": [2.0, 2.0]})
    sc = build_scenario(doc)
    assert sc.systems[0].input_bounds.Cu.shape == (2, 2)


ONE_INPUT = {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0], [0.0]],
             "C": [[1.0, 0.0], [0.0, 1.0]], "dt": 0.1}


def test_u_max_builds_one_box_per_agent():
    doc = first_order_doc(n_agents=2, input_constraints={"u_max": 3.0})
    doc["agents"][1]["system"] = ONE_INPUT
    sc = build_scenario(doc)
    assert [s.input_bounds.Cu.shape for s in sc.systems] == [(4, 2), (2, 1)]
    assert all(np.array_equal(s.input_bounds.Du, [3.0] * 2 * s.m) for s in sc.systems)


def test_shared_polytope_is_built_once_and_fits_every_agent(linprog_calls):
    doc = first_order_doc(n_agents=3, input_constraints={
        "Cu": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], "Du": [1.0, 0.5, 1.0]})
    sc = build_scenario(doc)
    assert len(linprog_calls) == 1
    assert len({id(s.input_bounds) for s in sc.systems}) == 1


def test_cu_column_mismatch_names_cu_and_the_agent():
    doc = first_order_doc(n_agents=2, input_constraints={
        "Cu": [[1.0, 0.0], [-1.0, 0.0]], "Du": [1.0, 1.0]})
    doc["agents"][1]["system"] = ONE_INPUT
    with pytest.raises(ScenarioError, match=r"Cu does not fit agents\[1\]"):
        build_scenario(doc)


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


def test_reference_file_with_an_empty_cell_is_a_scenario_error(tmp_path):
    (tmp_path / "pts.csv").write_text("1,1\n2,,2\n3,3\n")
    doc = first_order_doc()
    doc["reference"] = {"file": "pts.csv"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="empty cell"):
        load_scenario(path)


def test_reference_file_with_a_non_numeric_first_row_is_a_scenario_error(tmp_path):
    (tmp_path / "pts.csv").write_text("1.0,abc\n2,2\n3,3\n")
    doc = first_order_doc()
    doc["reference"] = {"file": "pts.csv"}
    with pytest.raises(ScenarioError, match="non-numeric row"):
        build_scenario(doc, base_dir=tmp_path)

def test_mixture_seed_defaults_to_scenario_seed():
    a = build_scenario(first_order_doc(seed=11))
    b = build_scenario(first_order_doc(seed=12))
    assert not np.array_equal(a.cloud.positions, b.cloud.positions)
    doc = first_order_doc(seed=12)
    doc["reference"]["mixture"]["seed"] = 11
    c = build_scenario(doc)
    assert np.array_equal(a.cloud.positions, c.cloud.positions)


def test_comm_block():
    doc = first_order_doc(comm={"d_comm": 10.0})
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


def _quadrotor_doc(**params):
    """first_order_doc() with its one agent a planar quadrotor given params."""
    doc = first_order_doc()
    doc["system"] = {"preset": "planar_quadrotor", "dt": 0.1, "params": params}
    doc["agents"][0]["initial_state"] = [0.0] * 6 + [1.0, 1.0]
    return doc


def _custom_doc(x0=(1.0, 1.0), **system):
    """first_order_doc() with its one agent a custom system: the 2-state,
    2-input integrator below, with the keys in system replaced or added."""
    doc = first_order_doc()
    doc["system"] = {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
                     "C": [[1.0, 0.0], [0.0, 1.0]], "dt": 0.1, **system}
    doc["agents"][0]["initial_state"] = list(x0)
    return doc


def _double_integrator_doc(x0):
    """_custom_doc() with a planar double integrator, P = 2, so that the
    first step squares C A^2 x0 = position + 0.2 velocity."""
    I2, Z2 = np.eye(2), np.zeros((2, 2))
    return _custom_doc(x0=x0, A=np.block([[I2, 0.1 * I2], [Z2, I2]]).tolist(),
                       B=np.vstack([Z2, 0.1 * I2]).tolist(), C=np.hstack([I2, Z2]).tolist())


@pytest.mark.parametrize("doc, match", [(doc, None) for doc in [
    _with(("seed",), "x"),
    # an explicit mixture seed does not excuse a negative top-level seed
    _with(("reference", "mixture", "seed"), 3, first_order_doc(seed=-1)),
    _with(("agents", 0, "initial_state"), ["a", 1.0]),
    _with(("agents", 0, "initial_state"), [float("nan"), 1.0]),
    _with(("agents", 0, "M"), True),
    _with(("global_w_cap",), 0),
    _with(("global_w_cap",), -5),
    _with(("global_w_cap",), TRANSPORT_SIZE_CAP + 1),
    _with(("input_constraints",), {"u_max": "x"}),
    _with(("input_constraints",), {"u_max": float("inf")}),
    _with(("input_constraints",), {"Cu": [["a", 1.0]], "Du": [1.0]}),
    _with(("reference", "mixture", "components"), 5),
    _with(("system",), 5),
    _with(("agents", 0, "system"), 5),
    _with(("reference",), {"file": 5}),
    _with(("reference", "mixture", "n_samples"), True),
    _with(("reference", "mixture", "n_samples"), 2.7),
    _with(("reference", "mixture", "seed"), True),
    _with(("reference", "mixture", "seed"), 2.7),
    # the mixture puts almost no mass in the domain
    _with(("reference", "mixture", "domain"), [0.0, 0.01, 0.0, 0.01]),
    # cholesky reads only the lower triangle, so these sampled as [[2, 0], [0, 2]]
    _with(("reference", "mixture", "components", 0, "cov"), [[2.0, 5.0], [0.0, 2.0]]),
    _with(("reference", "mixture", "components", 0, "cov"), [[2.0, None], [0.0, 2.0]]),
    _with(("reference", "mixture", "components", 0, "weight"), True),
    _with(("input_constraints",), {"Cu": [[1.0, None], [-1.0, 0.0]], "Du": [1.0, 1.0]}),
    _with(("input_constraints",), {"Cu": [[1.0, 0.0], [-1.0, 0.0]], "Du": [1.0, None]}),
    # u1 <= -2 and u1 >= -1
    _with(("input_constraints",), {"Cu": [[1.0, 0.0], [-1.0, 0.0]], "Du": [-2.0, 1.0]}),
    _quadrotor_doc(tau_max=-1.0),
    _quadrotor_doc(inertia_y=-0.1),
    # JSON booleans and non-finite numbers where a real number belongs
    _with(("version",), True),
    _with(("system", "dt"), True),
    _with(("system", "dt"), float("nan")),
    _with(("system", "dt"), float("inf")),
    _with(("system",), {"A": [[True, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
                        "C": [[1.0, 0.0], [0.0, 1.0]], "dt": 0.5}),
    _quadrotor_doc(tau_max=True),
    # params is a JSON object: a list of pairs would skip the number checks
    _with(("system", "params"), [["g", True]], _quadrotor_doc()),
    _with(("system", "params"), [["tau_max", "7"]], _quadrotor_doc()),
    _with(("system", "params"), [], _quadrotor_doc()),
    _with(("system", "params"), "ab", _quadrotor_doc()),
    _with(("agents", 0, "initial_state"), [True, 1.0]),
    _with(("reference", "mixture", "components", 0, "mean"), [True, 5.0]),
    _with(("reference", "mixture", "components", 0, "cov"), [[2.0, 0.0], [0.0, True]]),
    _with(("reference", "mixture", "domain"), [False, 10.0, 0.0, 10.0]),
    _with(("reference", "mixture", "domain"), [0.0, float("inf"), 0.0, 10.0]),
    first_order_doc(comm={"d_comm": True}),
    first_order_doc(comm={"d_comm": float("inf")}),
    # comm takes d_comm only
    first_order_doc(comm={"d_comm": 10.0, "latency_mean_ms": 1.0}),
    _with(("input_constraints",), {"u_max": True}),
    _with(("input_constraints",), {"Cu": [[True, 0.0], [-1.0, 0.0]], "Du": [1.0, 1.0]}),
    _with(("input_constraints",), {"Cu": [[1.0, 0.0], [-1.0, 0.0]], "Du": [True, 1.0]}),
]] + [
    # a total budget whose inverse, the claim size, is no float
    (_with(("agents", 0, "M"), 10**400), "total budget"),
    # mixture fields of the wrong size name the field, not numpy's reshape
    (_with(("reference", "mixture", "domain"), [0.0, 10.0, 0.0]), "domain must hold 4"),
    (_with(("reference", "mixture", "components", 0, "mean"), [5.0, 5.0, 5.0]),
     "component 0: mean must hold 2"),
    (_with(("reference", "mixture", "components", 0, "cov"), [[2.0]]),
     "component 0: cov must be 2 x 2"),
    # nested past numpy's 32 dimensions, where np.array raises RuntimeError
    (_with(("agents", 0, "initial_state"), json.loads("[" * 40 + "1" + "]" * 40)),
     r"agents\[0\].initial_state must be a nested list of numbers"),
    # one row per document section, each matched from the message's start
    (_with(("seed",), 2.5), r"^seed must be an integer >= 0"),
    (_with(("system", "preset"), "tricycle"), r"^agents\[0\]\.system: unknown preset"),
    (_custom_doc(state_bounds=[0.0, 10.0]),
     r"^agents\[0\]\.system\.state_bounds must be a nested list of numbers"),
    (_custom_doc(B=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
     r"^agents\[0\]\.system: inconsistent system matrix dimensions"),
    (_with(("reference",), {"file": "no-such-points.csv"}), r"^reference file: "),
    (_with(("reference", "mixture", "n_samples"), 0),
     r"^reference\.mixture: n_samples must be an integer >= 1"),
    (first_order_doc(comm={"d_comm": -1.0}), r"^comm: d_comm must be positive"),
    (_with(("input_constraints",), {"u_max": 0}), r"^input_constraints: u_max must be positive"),
    (_with(("input_constraints",), {"Cu": [[1.0, 0.0]]}),
     r"^input_constraints: Cu and Du must be given together"),
    # each entry is finite, the row's norm is not: linprog raised ValueError
    (_with(("input_constraints",), {"Cu": [[1e308, 0.0], [-1.0, 0.0]], "Du": [1.0, 1.0]}),
     r"^input_constraints: Cu has a row whose norm overflows"),
    # three outputs, and a 1-D C read as one row
    (_custom_doc(x0=(1.0, 1.0, 1.0), A=np.eye(3).tolist(), B=np.eye(3).tolist(),
                 C=np.eye(3).tolist()), r"^agents\[0\]: outputs must be planar"),
    (_custom_doc(C=[1.0, 0.0]), r"^agents\[0\]: outputs must be planar"),
    # C x0 = (1, 1) lies in the reference's box, C A^2 x0 = (2e199, 1) far from it
    (_double_integrator_doc((1.0, 1.0, 1e200, 0.0)),
     r"^agents\[0\]: the initial output C x0, its P-step prediction C A\^P x0 and the "
     r"reference positions must be in a bounding box"),
    # C A^2 x0 overflows to inf, with no RuntimeWarning from the product
    (_double_integrator_doc((1.7e308, 1.0, 1e308, 0.0)),
     r"^agents\[0\]: the initial output C x0, .* must be finite$"),
], ids=["seed-str", "seed-negative", "initial-state-str", "initial-state-nan",
        "budget-bool", "cap-zero", "cap-negative", "cap-above-solver", "u-max-str",
        "u-max-inf", "cu-str", "components-int", "system-int", "agent-system-int",
        "reference-file-int", "n-samples-bool", "n-samples-float",
        "mixture-seed-bool", "mixture-seed-float", "domain-misses-mass",
        "cov-asymmetric", "cov-upper-null", "weight-bool", "cu-null", "du-null",
        "polytope-empty", "quadrotor-tau-max-negative",
        "quadrotor-inertia-negative", "version-bool", "dt-bool", "dt-nan",
        "dt-inf", "matrix-bool", "quadrotor-tau-max-bool", "params-pairs-bool",
        "params-pairs-str", "params-empty-list", "params-str", "initial-state-bool",
        "mean-bool", "cov-bool", "domain-bool", "domain-inf", "d-comm-bool",
        "d-comm-inf", "comm-unknown-key", "u-max-bool", "cu-bool", "du-bool",
        "budget-total-overflows", "domain-three-numbers", "mean-three-numbers",
        "cov-one-by-one", "initial-state-nested-deep", "seed-float", "preset-unknown",
        "state-bounds-flat", "custom-system-rejected", "reference-file-missing",
        "n-samples-zero", "d-comm-negative", "u-max-zero", "cu-without-du",
        "cu-row-norm-overflows", "outputs-three", "c-one-dimensional",
        "prediction-far", "prediction-inf"])
def test_malformed_document_is_a_scenario_error(doc, match, tmp_path, capsys):
    with pytest.raises(ScenarioError, match=match):
        build_scenario(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("invalid: ")
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_single_input_custom_system_with_state_bounds_validates_and_runs(tmp_path,
                                                                         capsys):
    """A 1-D B is one input column; the document's bounds reach the system."""
    doc = _custom_doc(B=[1.0, 1.0], state_bounds=[[0.0, 10.0], [0.0, 10.0]])
    sc = build_scenario(doc)
    assert sc.systems[0].m == 1
    assert np.array_equal(sc.systems[0].state_bounds, [[0.0, 10.0], [0.0, 10.0]])
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--scenario", str(path)]) == 0
    assert "agent 0: n=2 m=1 p=2 P=1" in capsys.readouterr().out
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    assert (out / "trajectories.csv").exists()


FUZZ_PALETTE = (None, True, False, -1, 0, 0.5, 5, 10**400, float("nan"), float("inf"),
                1e308, -1e308, 1e200, "x", [], {})


def _examples(pairs):
    """A decorator adding one hypothesis @example per (path, value) pair."""
    def decorate(test):
        for pair in pairs:
            test = example(*pair)(test)
        return test
    return decorate


def _subtree_paths(node, prefix=()):
    """Key path of every subtree of a JSON document, the root's () first."""
    yield prefix
    if isinstance(node, (dict, list)):
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from _subtree_paths(node[key], prefix + (key,))


def _fuzz_doc():
    return first_order_doc(
        n_agents=2, m_steps=3,
        comm={"d_comm": 50.0},
        input_constraints={"Cu": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                           "Du": [2.0, 2.0, 2.0]})


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(list(_subtree_paths(_fuzz_doc()))),
       st.sampled_from(FUZZ_PALETTE))
# each Cu entry huge: finite, but the row's norm overflows
@_examples([(("input_constraints", "Cu", i, j), value)
            for i in range(3) for j in range(2) for value in (1e308, -1e308, 1e200)])
def test_mutated_document_never_raises(path, value):
    """Any one subtree replaced by a palette value: validate answers 0 or 1,
    run 0, 1 or 2, neither raises, and run succeeds exactly when validate
    accepts the document."""
    value = copy.deepcopy(value)
    doc = _with(path, value, _fuzz_doc()) if path else value
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "doc.json"
        scenario.write_text(json.dumps(doc))
        valid = cli.main(["validate", "--scenario", str(scenario)])
        assert valid in (0, 1)
        out = str(Path(tmp) / "out")
        ran = cli.main(["run", "--scenario", str(scenario), "--out", out])
        assert ran in (0, 1, 2)
        assert (valid == 0) == (ran == 0)
