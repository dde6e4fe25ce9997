"""Command-line surface: runs, CSV outputs, plots, validation, determinism."""

import csv
import json

import numpy as np
import pytest

from dpcover import cli
from dpcover.controller import GainTerms
from dpcover.engine import replay_metrics, run
from dpcover.scenario import load_scenario
from dpcover.svgplot import plot_ellipses

from conftest import first_order_doc


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(first_order_doc(n_agents=2, m_steps=8)))
    return path


def run_cli(*args):
    return cli.main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ------------------------------------------------------------------------- run

def test_run_writes_expected_files(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", scenario_file, "--out", out) == 0
    for name in ("trajectories.csv", "metrics.csv", "global_w.csv",
                 "reference.csv", "gains.csv"):
        assert (out / name).exists(), name

    header, rows = read_csv(out / "trajectories.csv")
    assert header == ["agent", "k", "y1", "y2"]
    assert len(rows) == 2 * 8

    header, rows = read_csv(out / "metrics.csv")
    assert header[:4] == ["agent", "k", "u1", "u2"]
    assert len(rows) == 2 * 8
    dw_col = header.index("delta_w")
    assert all(float(r[dw_col]) < 0 for r in rows)


def test_run_single_step_scenario(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(first_order_doc(n_agents=1, m_steps=1)))
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", path, "--out", out) == 0
    header, rows = read_csv(out / "metrics.csv")
    assert len(rows) == 1
    assert float(rows[0][header.index("delta_w")]) <= 0.0


def test_run_missing_budget_no_partial_output(tmp_path):
    doc = first_order_doc()
    del doc["agents"][0]["M"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", path, "--out", out) == 2
    assert not (out / "trajectories.csv").exists()
    assert not (out / "metrics.csv").exists()


def test_run_seed_override(scenario_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_cli("run", "--scenario", scenario_file, "--out", out_a, "--seed", 99)
    run_cli("run", "--scenario", scenario_file, "--out", out_b)
    ref_a = (out_a / "reference.csv").read_bytes()
    ref_b = (out_b / "reference.csv").read_bytes()
    assert ref_a != ref_b  # seed feeds the mixture sampler


def test_run_determinism_bytes(scenario_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_cli("run", "--scenario", scenario_file, "--out", out_a)
    run_cli("run", "--scenario", scenario_file, "--out", out_b)
    for name in ("trajectories.csv", "metrics.csv", "global_w.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_parallel_flag_rejected(scenario_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--scenario", scenario_file, "--out", tmp_path / "out",
                "--parallel", "true")
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_run_timing_flag_populates_columns(scenario_file, tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--scenario", scenario_file, "--out", out, "--timing")
    header, rows = read_csv(out / "metrics.csv")
    col = header.index("stageA_ms")
    assert any(float(r[col]) > 0 for r in rows)
    out2 = tmp_path / "out2"
    run_cli("run", "--scenario", scenario_file, "--out", out2)
    header, rows = read_csv(out2 / "metrics.csv")
    assert all(r[col] == "0.000" for r in rows)


# ------------------------------------------------------------------ round trip

def test_csv_round_trip_matches_replay_metrics(scenario_file, tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--scenario", scenario_file, "--out", out)
    res = run(load_scenario(scenario_file))
    summary = replay_metrics(res.records, res.global_w)

    header, rows = read_csv(out / "metrics.csv")
    dw = [float(r[header.index("delta_w")]) for r in rows]
    frac = sum(v < 0 for v in dw) / len(dw)
    assert frac == summary["frac_delta_w_negative"]

    gh, grows = read_csv(out / "global_w.csv")
    vals = [float(r[gh.index("w2")]) for r in grows]
    if len(vals) >= 2:
        drops = sum(b <= a for a, b in zip(vals, vals[1:]))
        assert drops / (len(vals) - 1) == summary["global_w_monotone_frac"]

    comm = [int(r[header.index("comm_events")]) for r in rows]
    assert sum(comm) == summary["total_comm_events"]


# ------------------------------------------------------------------------ plot

def test_plots_render_and_are_deterministic(scenario_file, tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--scenario", scenario_file, "--out", out)
    for kind in ("trajectories", "deltaw", "ellipses", "globalw"):
        assert run_cli("plot", "--out", out, "--kind", kind) == 0
        svg = out / f"{kind}.svg"
        assert svg.exists()
        first = svg.read_bytes()
        run_cli("plot", "--out", out, "--kind", kind)
        assert svg.read_bytes() == first
        assert b"<svg" in first


def test_ellipse_window_count(scenario_file, tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--scenario", scenario_file, "--out", out)
    assert run_cli("plot", "--out", out, "--kind", "ellipses",
                   "--window", 2, 5) == 0
    svg = (out / "ellipses.svg").read_text()
    # one dashed boundary per step in the window plus the dashed
    # unconstrained-input trace
    assert svg.count("stroke-dasharray") == 5


def test_ellipses_skip_empty_range_boundary():
    # steps 1 and 3 have the unit-disk range around the origin; step 2's
    # range is empty (D2 D1^-1 D2' - D3 = -0.5), so it has no boundary,
    # but its inputs stay on both traces
    def entry(k, d3, u):
        return {"k": k, "gains": GainTerms(D1=np.eye(2), D2=np.zeros(2), D3=d3),
                "u": np.array(u), "u_unc": np.zeros(2)}

    svg = plot_ellipses([entry(1, -1.0, [0.1, 0.0]), entry(2, 0.5, [3.0, 0.0]),
                         entry(3, -1.0, [0.0, 0.1])])
    # two boundaries plus the dashed unconstrained-input trace
    assert svg.count("stroke-dasharray") == 3
    assert "steps 1 to 3" in svg
    # the frame reaches step 2's input at u1 = 3, past both boundaries
    assert ">3.2<" in svg


def test_plot_missing_csvs_fails(tmp_path):
    assert run_cli("plot", "--out", tmp_path / "nope", "--kind", "deltaw") != 0
    assert not (tmp_path / "nope" / "deltaw.svg").exists()


def test_plot_empty_window_fails(scenario_file, tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--scenario", scenario_file, "--out", out)
    assert run_cli("plot", "--out", out, "--kind", "deltaw",
                   "--window", 100, 200) != 0
    assert not (out / "deltaw.svg").exists()


# -------------------------------------------------------------------- validate

def test_validate_ok(scenario_file, capsys):
    assert run_cli("validate", "--scenario", scenario_file) == 0
    assert "valid" in capsys.readouterr().out.lower()


def test_validate_reports_field(tmp_path, capsys):
    doc = first_order_doc(input_constraints={"Cu": [[1.0, 0.0, 0.0]],
                                             "Du": [1.0]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli("validate", "--scenario", path) != 0
    assert "Cu" in capsys.readouterr().err + capsys.readouterr().out


def test_validate_infeasible_constraints(tmp_path):
    doc = first_order_doc(input_constraints={
        "Cu": [[1.0, 0.0], [-1.0, 0.0]], "Du": [-2.0, 1.0]})
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(doc))
    assert run_cli("validate", "--scenario", path) != 0


def test_k_interval_override(scenario_file, tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--scenario", scenario_file, "--out", out,
            "--k-interval", 2)
    _, rows = read_csv(out / "global_w.csv")
    assert len(rows) >= 3
