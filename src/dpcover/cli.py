"""Command-line front end: run scenarios, validate them, and render SVG
plots from the emitted CSVs.

Outputs of `run` (all deterministic for a fixed scenario and seed):
  trajectories.csv  agent,k,y1,y2
  metrics.csv       agent,k,u1..um,delta_w,local_w,in_range,range_nonempty,
                    comm_events,stageA_ms,stageB_ms,stageC_ms,bound_violation
  global_w.csv      k,w2,subsampled
  gains.csv         per-step quadratic gain terms and inputs (2-D inputs)
  reference.csv     the reference cloud actually used (x,y,weight)

Wall-time columns are written as 0.000 unless --timing is given, keeping
the CSVs byte-reproducible across runs. `run --seed N` seeds the reference
sample (the mixture's own `seed` if given, else the top-level one; an error
for a file reference); `--k-interval K` sets the `global_w_interval` key.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .controller import GainTerms
from .engine import RunResult, Scenario, run as engine_run
from .errors import DpcoverError, InputError, ScenarioError
from .scenario import build_scenario, load_scenario, read_document
from .svgplot import plot_ellipses, plot_series, plot_trajectories

PLOT_KINDS = ("trajectories", "deltaw", "ellipses", "globalw")
# every file a run owns in its output directory: its CSVs and their plots
RUN_FILES = ("trajectories.csv", "metrics.csv", "global_w.csv", "reference.csv",
             "gains.csv", *(f"{kind}.svg" for kind in PLOT_KINDS))


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_outputs(out_dir: Path, scenario: Scenario, result: RunResult,
                   timing: bool) -> None:
    # an earlier run's files go first, so a write that fails part-way
    # leaves only this run's files, never a mix of two runs
    for name in RUN_FILES:
        if not (out_dir / name).is_dir():  # a directory fails its write below
            (out_dir / name).unlink(missing_ok=True)
    m_max = max(s.m for s in scenario.systems)

    traj_rows = []
    for agent, traj in enumerate(result.trajectories):
        for k, (y1, y2) in enumerate(traj, start=1):
            traj_rows.append((agent, k, y1, y2))
    _write_csv(out_dir / "trajectories.csv", ["agent", "k", "y1", "y2"], traj_rows)

    u_cols = [f"u{i + 1}" for i in range(m_max)]
    metric_rows = []
    for r in result.records:
        u = list(r.u) + [""] * (m_max - len(r.u))
        metric_rows.append(
            (r.agent, r.k, *u, r.delta_w_pred, r.local_w, r.in_range,
             r.range_nonempty, r.comm_events,
             f"{r.stage_a_ms:.3f}" if timing else "0.000",
             f"{r.stage_b_ms:.3f}" if timing else "0.000",
             f"{r.stage_c_ms:.3f}" if timing else "0.000",
             r.bound_violation))
    _write_csv(out_dir / "metrics.csv",
               ["agent", "k", *u_cols, "delta_w", "local_w", "in_range",
                "range_nonempty", "comm_events", "stageA_ms", "stageB_ms",
                "stageC_ms", "bound_violation"], metric_rows)

    _write_csv(out_dir / "global_w.csv", ["k", "w2", "subsampled"],
               [(k, w, sub) for k, w, sub in result.global_w])

    _write_csv(out_dir / "reference.csv", ["x", "y", "weight"],
               [(x, y, w) for (x, y), w in zip(scenario.cloud.positions,
                                               scenario.cloud.weights)])

    if all(s.m == 2 for s in scenario.systems):
        gain_rows = [(r.agent, r.k, r.gains.D1[0, 0], r.gains.D1[0, 1],
                      r.gains.D1[1, 1], r.gains.D2[0], r.gains.D2[1], r.gains.D3,
                      r.u[0], r.u[1], r.gains.u_star[0], r.gains.u_star[1])
                     for r in result.records]
        _write_csv(out_dir / "gains.csv",
                   ["agent", "k", "d1_11", "d1_12", "d1_22", "d2_1", "d2_2",
                    "d3", "u1", "u2", "uu1", "uu2"], gain_rows)


def _override_seed(doc: dict, seed: int) -> None:
    """Set the reference sample's seed: the mixture's own, else the top-level one."""
    ref = doc["reference"] if isinstance(doc.get("reference"), dict) else {}
    if "file" in ref:
        raise ScenarioError("--seed: a file reference draws no sample")
    mixture = ref.get("mixture")
    (mixture if isinstance(mixture, dict) and "seed" in mixture else doc)["seed"] = seed


def cmd_run(args) -> int:
    try:
        path = Path(args.scenario)
        doc = read_document(path)
        if isinstance(doc, dict):  # else build_scenario rejects the document
            if args.seed is not None:
                _override_seed(doc, args.seed)
            if args.k_interval is not None:
                doc["global_w_interval"] = args.k_interval
        scenario = build_scenario(doc, base_dir=path.parent)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:  # bad document, file, override or --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = engine_run(scenario)
        _write_outputs(out_dir, scenario, result, timing=args.timing)
    except (DpcoverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(result.records)} step records to {args.out}")
    return 0


def _read_csv(path: Path, columns: tuple[str, ...]) -> list[dict[str, str]]:
    """The rows of a run CSV as {column: cell} maps; the header must name
    `columns`, and at least one data row must follow it."""
    if not path.exists():
        raise InputError(f"missing {path}; run the scenario first")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InputError(f"empty file {path}")
        if missing := [c for c in columns if c not in header]:
            raise InputError(f"{path}: no column {', '.join(missing)}")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise InputError(f"{path} line {reader.line_num}: {len(row)} cells, "
                                 f"the header has {len(header)}")
            rows.append(dict(zip(header, row)))
    if not rows:
        raise InputError(f"{path}: no data rows")
    return rows


def _window(rows: list[dict[str, str]], lo: float, hi: float,
            *columns: str) -> dict[int, np.ndarray]:
    """The named columns of the rows with lo <= k <= hi, as one float array
    per agent (a file without an agent column is agent 0); InputError("empty
    window") when no row is left."""
    by_agent: dict[int, list] = {}
    for row in rows:
        if lo <= int(row["k"]) <= hi:
            by_agent.setdefault(int(row.get("agent", 0)), []).append(
                [float(row[c]) for c in columns])
    if not by_agent:
        raise InputError("empty window")
    return {agent: np.array(values) for agent, values in by_agent.items()}


_SERIES = {"deltaw": ("metrics.csv", "delta_w", "Predicted change in squared local W2",
                      "delta W"),
           "globalw": ("global_w.csv", "w2", "Global 2-Wasserstein distance", "W2")}
_GAINS = ("d1_11", "d1_12", "d1_22", "d2_1", "d2_2", "d3", "u1", "u2")


def cmd_plot(args) -> int:
    out_dir = Path(args.out)
    lo, hi = args.window or (-math.inf, math.inf)
    if hi < lo:
        print("error: empty window", file=sys.stderr)
        return 2
    try:
        if args.kind == "trajectories":
            rows = _read_csv(out_dir / "trajectories.csv", ("agent", "k", "y1", "y2"))
            ref = np.array([[float(r["x"]), float(r["y"])]
                            for r in _read_csv(out_dir / "reference.csv", ("x", "y"))])
            svg = plot_trajectories(_window(rows, lo, hi, "y1", "y2"), ref)
        elif args.kind in _SERIES:
            name, column, title, y_label = _SERIES[args.kind]
            rows = _read_csv(out_dir / name, ("k", column))
            svg = plot_series({a: tuple(v.T) for a, v in
                               _window(rows, lo, hi, "k", column).items()}, title, y_label)
        else:  # ellipses: argparse admits only PLOT_KINDS
            if not (out_dir / "gains.csv").exists():
                raise InputError("no gains.csv: it is written only for 2-input runs")
            rows = _read_csv(out_dir / "gains.csv", ("agent", "k", *_GAINS))
            # the lowest-numbered agent of the whole file, then the window
            first = min(int(r["agent"]) for r in rows)
            rows = [r for r in rows if int(r["agent"]) == first]
            svg = plot_ellipses([
                {"k": int(k), "u": np.array([u1, u2]),
                 "gains": GainTerms(D1=np.array([[d1_11, d1_12], [d1_12, d1_22]]),
                                    D2=np.array([d2_1, d2_2]), D3=d3)}
                for k, d1_11, d1_12, d1_22, d2_1, d2_2, d3, u1, u2
                in _window(rows, lo, hi, "k", *_GAINS)[first].tolist()])
        out_path = out_dir / f"{args.kind}.svg"
        out_path.write_text(svg, encoding="utf-8")
    except (DpcoverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out_path}")
    return 0


def cmd_validate(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    for i, sys_ in enumerate(scenario.systems):
        rows = 0 if sys_.input_bounds is None else sys_.input_bounds.Cu.shape[0]
        print(f"agent {i}: n={sys_.n} m={sys_.m} p={sys_.p} P={sys_.P} "
              f"M={scenario.budgets[i]} input_rows={rows}")
    print(f"reference cloud: {scenario.cloud.n_points} points")
    print("scenario is valid")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dpcover",
        description="Multi-agent non-uniform coverage simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and write CSVs")
    p_run.add_argument("--scenario", required=True, help="scenario JSON path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="reference sample seed")
    p_run.add_argument("--k-interval", type=int, default=None,
                       help="global-W evaluation interval override")
    p_run.add_argument("--timing", action="store_true",
                       help="write measured stage wall times into metrics.csv "
                            "(breaks byte-reproducibility)")
    p_run.set_defaults(func=cmd_run)

    p_plot = sub.add_parser("plot", help="render an SVG from run outputs")
    p_plot.add_argument("--out", required=True, help="directory holding run CSVs")
    p_plot.add_argument("--kind", required=True, choices=PLOT_KINDS)
    p_plot.add_argument("--window", nargs=2, type=int, metavar=("LO", "HI"),
                        default=None, help="restrict to steps LO..HI")
    p_plot.set_defaults(func=cmd_plot)

    p_val = sub.add_parser("validate", help="check a scenario without running")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
