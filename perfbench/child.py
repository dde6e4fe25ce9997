"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py --scenario DOC --out DIR --result FILE
                               [--probe] [--trace SPANS]

Times `import dpcover.cli` plus `load_scenario` (set-up), then, unless
--probe is given, one `dpcover run` call and the four `dpcover plot` kinds
on its output, each over the full window (see ellipse_windows for the one
exception). With --trace, calls into each dpcover module are recorded as spans (see
tracer.py) and the spans are written to SPANS at exit. The measurements go
to FILE as JSON; the dpcover package is found on PYTHONPATH, which the
caller points at the checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer

PLOT_KINDS = ("trajectories", "deltaw", "ellipses", "globalw")


def _cli(tracer: Tracer | None, span: str, main, argv: list[str]) -> None:
    """Run main(argv) with its chatter discarded; raise on a nonzero exit."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = tracer.span(span, main, argv) if tracer else main(argv)
    if code != 0:
        raise RuntimeError(f"dpcover {' '.join(argv)} exited with {code}")


def ellipse_windows(out_dir: str) -> list[list[str]]:
    """--window arguments for `dpcover plot --kind ellipses` that cover
    every step of the plotted (lowest-numbered) agent whose convergence
    range is nonempty. The plot rejects a window that holds a step with an
    empty range, and a few quadrotor steps have one on most seeds. One
    empty argument list (the full window) when every step qualifies."""
    with open(Path(out_dir) / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        a, k, ok = (header.index(c) for c in ("agent", "k", "range_nonempty"))
        rows = list(rows)
    agent = min(r[a] for r in rows)
    steps = [(int(r[k]), r[ok] == "1") for r in rows if r[a] == agent]
    windows: list[list[int]] = []
    for step, nonempty in steps:
        if nonempty and windows and windows[-1][1] == step - 1:
            windows[-1][1] = step
        elif nonempty:
            windows.append([step, step])
    if windows == [[steps[0][0], steps[-1][0]]]:
        return [[]]
    return [["--window", str(lo), str(hi)] for lo, hi in windows]


def measure(args) -> dict:
    t0 = time.perf_counter()
    import dpcover.cli as cli
    from dpcover.scenario import load_scenario
    t_import = time.perf_counter()
    tracer = Tracer() if args.trace else None
    if tracer:
        import layers
        layers.install(tracer)
        tracer.span("scenario.load_scenario", load_scenario, args.scenario)
    else:
        load_scenario(args.scenario)
    t_setup = time.perf_counter()
    import numpy
    import scipy
    out = {
        "import_s": t_import - t0,
        "setup_s": t_setup - t0,
        "dpcover_file": cli.__file__,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.probe:
        return out

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t1 = time.perf_counter()
    _cli(tracer, "cli.run", cli.main,
         ["run", "--scenario", args.scenario, "--out", args.out])
    t2 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    plots = [[kind, *window] for kind in PLOT_KINDS
             for window in (ellipse_windows(args.out) if kind == "ellipses" else [[]])]
    t3 = time.perf_counter()
    for argv in plots:
        _cli(tracer, "cli.plot", cli.main, ["plot", "--out", args.out, "--kind", *argv])
    t4 = time.perf_counter()
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    out.update({
        "run_s": t2 - t1,
        "plot_s": t4 - t3,
        "plots": len(plots),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "cpu_per_wall": cpu / (t2 - t1),
    })
    if tracer:
        tracer.dump(args.trace)
        self_sum, engine_total = tracer.subtree_self("engine.run")
        out["trace"] = {"layers": tracer.summary(), "counts": dict(tracer.counts),
                        "engine_self_sum_s": self_sum,
                        "engine_total_s": engine_total}
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", default=None, metavar="SPANS")
    args = parser.parse_args()
    try:
        out = measure(args)
        code = 0
    except Exception:  # reported to the parent, which counts the failure
        out = {"error": traceback.format_exc()}
        code = 1
    Path(args.result).write_text(json.dumps(out), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
