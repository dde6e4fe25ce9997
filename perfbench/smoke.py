"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Checks that each workload's document at its anchor seed is the checked-in
scenario it copies, and runs the checked-in scenarios at full size to
reproduce their final W2. Runs every workload scaled down
(workloads.scale_down), untraced and traced, and checks that each metric
BENCHMARK.json declares is printed by name with its unit and appears in
the result line. Then it truncates one repetition's trajectories.csv and
checks that the failure shows in error_rate and in the result line. Exits
0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys

import run
import workloads

SEED = 3


def _run(name: str, trace: bool, tamper=None) -> tuple[dict, str]:
    work = run.WORK / "run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    docs = [workloads.scale_down(d) for d in workloads.documents(name, SEED)]
    m = run.measure(docs, 0.0, trace, work, tamper=tamper)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        result, _ = run.report(name, SEED, trace, m)
    return result, text.getvalue()


def _truncate(out_dir) -> None:
    path = out_dir / "trajectories.csv"
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _checked_in(name: str) -> dict:
    path = run.ROOT / workloads.ANCHORS[name][0]
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["reference"]["mixture"].setdefault("seed", doc["seed"])
    return doc


def _anchor_documents() -> list[str]:
    """The document generated at each anchor seed is the checked-in
    scenario, up to the reference-mixture seed it defaults and the keys
    the template changes on purpose."""
    problems = []
    for name, (path, changed, _, _) in workloads.ANCHORS.items():
        checked = _checked_in(name)
        generated = workloads.generate(name, workloads.anchor_seed(name))
        for key in changed:
            checked[key] = generated[key]
        if generated != checked:
            problems.append(f"{name}: anchor document differs from {path}")
    return problems


def _checked_in_runs() -> list[str]:
    """Each generator at its anchor seed, with the keys its template
    changes put back, reproduces the final W2 of the checked-in scenario."""
    problems = []
    for name, (path, changed, _, checked_w2) in workloads.ANCHORS.items():
        doc = workloads.generate(name, workloads.anchor_seed(name))
        checked = _checked_in(name)
        for key in changed:
            if key != "global_w_interval":  # the --k-interval override stays
                doc[key] = checked[key]
        work = run.WORK / "run"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        m = run.measure([doc], 0.0, False, work, anchor=checked_w2)
        problems += [f"{path} at full size: {e}" for e in m["errors"]]
    return problems


def main() -> int:
    if not (run.ROOT / "src" / "dpcover" / "cli.py").is_file():
        print(f"error: no dpcover sources under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    run.WORK = run.WORK / "smoke"
    problems = _anchor_documents()
    try:
        for name in workloads.TEMPLATES:
            for trace in (False, True):
                result, text = _run(name, trace)
                where = f"{name} trace {int(trace)}"
                if not (result["correct"] and result["failed"] == 0):
                    problems.append(f"{where}: failed repetitions: {text}")
                for spec in run.declared_metrics(trace):
                    got = result["metrics"].get(spec["name"])
                    line = f"{spec['name']} = {got['value'] if got else ''} {spec['unit']}"
                    if (got is None or got["unit"] != spec["unit"]
                            or not math.isfinite(got["value"])
                            or line not in text.splitlines()):
                        problems.append(f"{where}: {spec['name']} [{spec['unit']}] "
                                        "not printed with its unit")
                print(f"{where}: {len(result['metrics'])} metrics")
        problems += _checked_in_runs()
        result, text = _run("desk", False, tamper=_truncate)
        if result["correct"] or result["failed"] < 1:
            problems.append(f"truncated CSV not counted as failed: {json.dumps(result)}")
        if f"error_rate = {result['failed'] / result['attempted']}" not in text:
            problems.append("truncated CSV does not show in error_rate")
        rate = next(l for l in text.splitlines() if l.startswith("error_rate"))
        print(f"truncated trajectories.csv: {rate}")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("smoke: PASS" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
