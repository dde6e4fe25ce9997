"""Command-line surface: runs, CSV outputs, plots, validation, determinism."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from dpcover import cli, controller
from dpcover.controller import GainTerms
from dpcover.engine import run
from dpcover.errors import InputError
from dpcover.scenario import load_scenario
from dpcover.svgplot import plot_ellipses

from conftest import first_order_doc

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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


def test_run_seed_sets_the_mixture_seed(tmp_path):
    """A document whose mixture gives its own seed (the checked-in desk)
    draws its reference from --seed, not from the shadowed top-level seed."""
    doc = json.loads((SCENARIO_DIR / "first_order_desk.json").read_text())
    for agent in doc["agents"]:
        agent["M"] = 3
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(doc))
    refs = {}
    for seed in (None, 99, doc["reference"]["mixture"]["seed"]):
        out = tmp_path / f"out-{seed}"
        extra = () if seed is None else ("--seed", seed)
        assert run_cli("run", "--scenario", path, "--out", out, *extra) == 0
        refs[seed] = (out / "reference.csv").read_bytes()
    assert refs[99] != refs[None]
    assert refs[doc["reference"]["mixture"]["seed"]] == refs[None]


def test_run_seed_with_a_file_reference_is_an_error(tmp_path, capsys):
    (tmp_path / "ref.csv").write_text("1,1\n2,2\n3,1\n")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(first_order_doc(reference={"file": "ref.csv"})))
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", path, "--out", out) == 0
    assert run_cli("run", "--scenario", path, "--out", tmp_path / "seeded",
                   "--seed", 3) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "seeded").exists()


def test_run_determinism_bytes(scenario_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_cli("run", "--scenario", scenario_file, "--out", out_a)
    run_cli("run", "--scenario", scenario_file, "--out", out_b)
    for name in ("trajectories.csv", "metrics.csv", "global_w.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_into_a_file_fails_before_the_run(scenario_file, tmp_path, capsys,
                                              monkeypatch):
    out = tmp_path / "out"
    out.write_text("not a directory")

    def engine_run(scenario):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "engine_run", engine_run)
    assert run_cli("run", "--scenario", scenario_file, "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text() == "not a directory"


def test_run_and_validate_name_a_file_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert run_cli("run", "--scenario", path, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith(f"error: invalid JSON in {path}: ")
    assert run_cli("validate", "--scenario", path) == 1
    assert capsys.readouterr().err.startswith(f"invalid: invalid JSON in {path}: ")
    assert not (tmp_path / "out").exists()


def test_run_write_failure_is_an_error_not_a_traceback(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "metrics.csv").mkdir(parents=True)
    assert run_cli("run", "--scenario", scenario_file, "--out", out) == 1
    assert capsys.readouterr().err.startswith("error: ")


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

    header, rows = read_csv(out / "metrics.csv")
    assert len(rows) == len(res.records)
    col = {c: header.index(c) for c in ("agent", "k", "delta_w", "comm_events")}
    for row, rec in zip(rows, res.records):
        assert (int(row[col["agent"]]), int(row[col["k"]])) == (rec.agent, rec.k)
        # repr round-trips every bit, so the signs agree too
        assert float(row[col["delta_w"]]) == rec.delta_w_pred
        assert int(row[col["comm_events"]]) == rec.comm_events == 1  # L = 2

    gh, grows = read_csv(out / "global_w.csv")
    assert [(int(r[gh.index("k")]), float(r[gh.index("w2")]),
             r[gh.index("subsampled")] == "1") for r in grows] == res.global_w
    assert len(grows) >= 1


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


def test_ellipse_plot_reads_u_star_from_the_gain_terms(scenario_file, tmp_path):
    """The unconstrained trace is the rebuilt GainTerms' u_star: the uu1
    and uu2 cells of gains.csv are not read."""
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", scenario_file, "--out", out) == 0
    assert run_cli("plot", "--out", out, "--kind", "ellipses") == 0
    want = (out / "ellipses.svg").read_bytes()
    header, rows = read_csv(out / "gains.csv")
    for row in rows:
        row[header.index("uu1")] = row[header.index("uu2")] = "garbled"
    with open(out / "gains.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    assert run_cli("plot", "--out", out, "--kind", "ellipses") == 0
    assert (out / "ellipses.svg").read_bytes() == want


def test_ellipse_plot_inverts_each_distinct_d1_once(scenario_file, tmp_path,
                                                   monkeypatch):
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", scenario_file, "--out", out) == 0
    header, rows = read_csv(out / "gains.csv")
    d1_cols = [header.index(c) for c in ("d1_11", "d1_12", "d1_22")]
    first_agent = [r for r in rows if r[0] == "0"]
    distinct = {tuple(r[c] for c in d1_cols) for r in first_agent}
    assert len(first_agent) == 8 and len(distinct) < len(first_agent)
    calls = {"pinv": 0, "eigh": 0}

    def counting(key, fn):
        def wrapped(M):
            calls[key] += 1
            return fn(M)
        return wrapped

    controller._curvature_of.cache_clear()
    monkeypatch.setattr(controller, "pseudo_inverse",
                        counting("pinv", controller.pseudo_inverse))
    # the PSD check and every drawn boundary share one eigh per distinct D1
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    assert run_cli("plot", "--out", out, "--kind", "ellipses") == 0
    svg = (out / "ellipses.svg").read_text()
    assert svg.count("stroke-dasharray") == len(first_agent) + 1  # all drawn
    assert calls == {"pinv": len(distinct), "eigh": len(distinct)}


def test_ellipses_skip_empty_range_boundary():
    # steps 1 and 3 have the unit-disk range around the origin; step 2's
    # range is empty (D2 D1^-1 D2' - D3 = -0.5), so it has no boundary,
    # but its inputs stay on both traces
    def entry(k, d3, u):
        return {"k": k, "gains": GainTerms(D1=np.eye(2), D2=np.zeros(2), D3=d3),
                "u": np.array(u)}

    svg = plot_ellipses([entry(1, -1.0, [0.1, 0.0]), entry(2, 0.5, [3.0, 0.0]),
                         entry(3, -1.0, [0.0, 0.1])])
    # two boundaries plus the dashed unconstrained-input trace
    assert svg.count("stroke-dasharray") == 3
    assert "steps 1 to 3" in svg
    # the frame reaches step 2's input at u1 = 3, past both boundaries
    assert ">3.2<" in svg


def test_ellipses_rank_deficient_step():
    # D1 = diag(1, 0): the range is unbounded along u2 when it is nonempty
    def steps(d3):
        return [{"k": 1, "gains": GainTerms(D1=np.diag([1.0, 0.0]), D2=np.zeros(2),
                                            D3=d3),
                 "u": np.zeros(2)}]

    with pytest.raises(InputError, match="rank deficient"):
        plot_ellipses(steps(-1.0))
    # an empty range is skipped like any other: only the dashed input trace
    assert plot_ellipses(steps(1.0)).count("stroke-dasharray") == 1


def test_single_input_run_removes_stale_gains(tmp_path, capsys):
    out = tmp_path / "out"
    two = tmp_path / "two.json"
    two.write_text(json.dumps(first_order_doc(m_steps=4)))
    assert run_cli("run", "--scenario", two, "--out", out) == 0
    assert (out / "gains.csv").exists()
    one = tmp_path / "one.json"
    one.write_text(json.dumps(first_order_doc(
        m_steps=4, system={"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0], [1.0]],
                           "C": [[1.0, 0.0], [0.0, 1.0]], "dt": 0.1})))
    assert run_cli("run", "--scenario", one, "--out", out) == 0
    assert not (out / "gains.csv").exists()
    capsys.readouterr()
    assert run_cli("plot", "--out", out, "--kind", "ellipses") == 1
    assert "written only for 2-input runs" in capsys.readouterr().err
    assert not (out / "ellipses.svg").exists()


def test_run_removes_plots_of_the_earlier_run(tmp_path):
    out = tmp_path / "out"
    first = tmp_path / "first.json"
    first.write_text(json.dumps(first_order_doc(m_steps=4)))
    assert run_cli("run", "--scenario", first, "--out", out) == 0
    for kind in cli.PLOT_KINDS:
        assert run_cli("plot", "--out", out, "--kind", kind) == 0
    assert len(list(out.glob("*.svg"))) == len(cli.PLOT_KINDS)
    second = tmp_path / "second.json"
    second.write_text(json.dumps(first_order_doc(m_steps=6, seed=5)))
    assert run_cli("run", "--scenario", second, "--out", out) == 0
    assert not list(out.glob("*.svg"))


def test_failed_write_leaves_no_file_of_the_earlier_run(tmp_path, capsys):
    out = tmp_path / "out"
    first = tmp_path / "first.json"
    first.write_text(json.dumps(first_order_doc(n_agents=2, m_steps=8)))
    assert run_cli("run", "--scenario", first, "--out", out) == 0
    for kind in cli.PLOT_KINDS:
        assert run_cli("plot", "--out", out, "--kind", kind) == 0
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(earlier) == {"trajectories.csv", "metrics.csv", "global_w.csv",
                            "reference.csv", "gains.csv",
                            *(f"{kind}.svg" for kind in cli.PLOT_KINDS)}
    second = tmp_path / "second.json"
    second.write_text(json.dumps(first_order_doc(n_agents=2, m_steps=8, seed=5)))
    (out / "global_w.csv").unlink()
    (out / "global_w.csv").mkdir()
    capsys.readouterr()
    assert run_cli("run", "--scenario", second, "--out", out) == 1
    assert capsys.readouterr().err.startswith("error: ")
    left = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    # what the failed run did write is its own, not the earlier run's
    assert set(left) <= {"trajectories.csv", "metrics.csv"}
    assert run_cli("run", "--scenario", second, "--out", tmp_path / "fresh") == 0
    for name, data in left.items():
        assert data != earlier[name]
        assert data == (tmp_path / "fresh" / name).read_bytes()


# the CSV each plot kind reads, whose first row (agent 0, k 1) is cut short
SHORT_ROW_FILE = {"trajectories": "trajectories.csv", "deltaw": "metrics.csv",
                  "ellipses": "gains.csv", "globalw": "global_w.csv"}


@pytest.mark.parametrize("kind", cli.PLOT_KINDS)
def test_plot_short_row_is_an_error_not_a_traceback(kind, scenario_file, tmp_path,
                                                    capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", scenario_file, "--out", out) == 0
    path = out / SHORT_ROW_FILE[kind]
    lines = path.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:2])
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("plot", "--out", out, "--kind", kind) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{path} line 2: 2 cells" in err
    assert "Traceback" not in err
    assert not (out / f"{kind}.svg").exists()


def test_plot_write_failure_is_an_error_not_a_traceback(scenario_file, tmp_path,
                                                        capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", scenario_file, "--out", out) == 0
    (out / "globalw.svg").mkdir()
    capsys.readouterr()
    assert run_cli("plot", "--out", out, "--kind", "globalw") == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_plot_missing_csvs_fails(tmp_path):
    assert run_cli("plot", "--out", tmp_path / "nope", "--kind", "deltaw") != 0
    assert not (tmp_path / "nope" / "deltaw.svg").exists()


@pytest.mark.parametrize("kind, name", [("trajectories", "reference.csv"),
                                        ("globalw", "global_w.csv")])
def test_plot_header_only_csv_has_no_data_rows(kind, name, scenario_file, tmp_path,
                                               capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", scenario_file, "--out", out) == 0
    path = out / name
    path.write_text(path.read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    assert run_cli("plot", "--out", out, "--kind", kind) == 1
    assert capsys.readouterr().err == f"error: {path}: no data rows\n"
    assert not (out / f"{kind}.svg").exists()


def test_plot_empty_window_fails(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("run", "--scenario", scenario_file, "--out", out)
    for kind in cli.PLOT_KINDS:  # each kind with the same message
        capsys.readouterr()
        assert run_cli("plot", "--out", out, "--kind", kind,
                       "--window", 100, 200) == 1
        assert capsys.readouterr().err == "error: empty window\n"
        assert not (out / f"{kind}.svg").exists()


@pytest.mark.parametrize("kind", cli.PLOT_KINDS)
def test_plot_reads_columns_by_name(kind, scenario_file, tmp_path):
    """Every run CSV written back with its columns reversed gives the same
    SVG bytes."""
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", scenario_file, "--out", out) == 0
    assert run_cli("plot", "--out", out, "--kind", kind, "--window", 2, 8) == 0
    want = (out / f"{kind}.svg").read_bytes()
    for path in out.glob("*.csv"):
        header, rows = read_csv(path)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([row[::-1] for row in [header, *rows]])
    assert run_cli("plot", "--out", out, "--kind", kind, "--window", 2, 8) == 0
    assert (out / f"{kind}.svg").read_bytes() == want


def test_plot_names_a_missing_column(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", scenario_file, "--out", out) == 0
    header, rows = read_csv(out / "global_w.csv")
    header[header.index("w2")] = "w"
    with open(out / "global_w.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    capsys.readouterr()
    assert run_cli("plot", "--out", out, "--kind", "globalw") == 1
    assert f"{out / 'global_w.csv'}: no column w2" in capsys.readouterr().err


def test_ellipse_plot_draws_the_lowest_agent_of_the_whole_file(scenario_file, tmp_path,
                                                               capsys):
    """Agent 0 is chosen before the window: a window past its last step is
    empty, though agent 1 has steps there."""
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", scenario_file, "--out", out) == 0
    header, rows = read_csv(out / "gains.csv")
    agent, k = header.index("agent"), header.index("k")
    rows = [r for r in rows if r[agent] == "1" or int(r[k]) <= 4]
    with open(out / "gains.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    capsys.readouterr()
    assert run_cli("plot", "--out", out, "--kind", "ellipses", "--window", 6, 8) == 1
    assert capsys.readouterr().err == "error: empty window\n"
    assert not (out / "ellipses.svg").exists()
    assert run_cli("plot", "--out", out, "--kind", "ellipses", "--window", 3, 8) == 0
    assert "steps 3 to 4" in (out / "ellipses.svg").read_text()


# -------------------------------------------------------------------- validate

def test_validate_ok(scenario_file, capsys):
    assert run_cli("validate", "--scenario", scenario_file) == 0
    assert "valid" in capsys.readouterr().out.lower()


def test_validate_prints_each_agents_input_rows(capsys):
    assert run_cli("validate", "--scenario", SCENARIO_DIR / "quadrotor_desk.json") == 0
    agents = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("agent ")]
    assert len(agents) > 1
    assert all(line.endswith(" input_rows=4") for line in agents)


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


def test_half_plane_constraint_validates_and_runs(tmp_path):
    # u1 <= 0.5: an unbounded polytope is a valid constraint set
    doc = first_order_doc(input_constraints={"Cu": [[1.0, 0.0]], "Du": [0.5]})
    path = tmp_path / "half_plane.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("validate", "--scenario", path) == 0
    assert run_cli("run", "--scenario", path, "--out", out) == 0
    header, rows = read_csv(out / "metrics.csv")
    u1 = [float(r[header.index("u1")]) for r in rows]
    assert max(u1) == pytest.approx(0.5, abs=1e-9)


def test_k_interval_override(scenario_file, tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--scenario", scenario_file, "--out", out,
            "--k-interval", 2)
    _, rows = read_csv(out / "global_w.csv")
    assert len(rows) >= 3


@pytest.mark.parametrize("content, extra", [
    (json.dumps(first_order_doc()), ("--k-interval", 0)),
    ("[1, 2]", ("--seed", 3)),
    (b"\xff\xfe{", ()),
], ids=["k-interval-zero", "seed-on-non-object", "not-utf8"])
def test_run_bad_input_is_an_error_not_a_traceback(tmp_path, capsys, content, extra):
    path = tmp_path / "scenario.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", path, "--out", out, *extra) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    if not extra:
        assert run_cli("validate", "--scenario", path) == 1
