"""dpcover benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's scenario documents are
generated from the seed (workloads.py) and each repetition runs
`dpcover run` and the four `dpcover plot` kinds on one of them in a fresh
interpreter (child.py), one process at a time. Every repetition's output is
checked; a failed check, a nonzero exit or an exception counts as a failed
repetition. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics,
which come from traced repetitions that alternate with untraced ones.
A results file with the run manifest and every raw value goes to
perfbench/.work/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
CSV_NAMES = ("trajectories.csv", "metrics.csv", "global_w.csv",
             "reference.csv", "gains.csv")
# every child must end this long after the run starts
RUN_LIMIT_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RepFailure(Exception):
    """A repetition that did not produce checked, correct output."""


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_digest() -> str:
    """SHA-256 over the program's source files, names included."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Runner:
    """Starts children one at a time and keeps every one within the run's
    time limit."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.errors: list[str] = []

    def child(self, doc_path: Path, out_dir: Path, probe: bool = False,
              spans: Path | None = None) -> dict:
        self.attempted += 1
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), "--scenario",
               str(doc_path), "--out", str(out_dir), "--result", str(result)]
        if probe:
            cmd.append("--probe")
        if spans is not None:
            cmd += ["--trace", str(spans)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RepFailure("run time limit reached before the child started")
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RepFailure(f"child exceeded the {RUN_LIMIT_S:.0f} s run limit")
        if not result.exists():
            raise RepFailure(f"child exited with {proc.returncode} and no result: "
                             f"{proc.stderr[-2000:]}")
        out = json.loads(result.read_text(encoding="utf-8"))
        if proc.returncode != 0 or "error" in out:
            raise RepFailure(out.get("error", f"child exited with {proc.returncode}"))
        loaded = Path(out["dpcover_file"]).resolve()
        if ROOT / "src" not in loaded.parents:
            raise RepFailure(f"dpcover was imported from {loaded}, not this checkout")
        return out


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise RepFailure(f"{path.name} is empty")
    return rows[0], rows[1:]


def check_outputs(out_dir: Path, shape: dict) -> dict:
    """Check one run's CSVs against the shape its document implies.
    Returns the SHA-256 of each CSV, the final W2 and the bytes written."""
    missing = [n for n in CSV_NAMES if not (out_dir / n).is_file()]
    if missing:
        raise RepFailure(f"missing outputs {missing}")
    try:
        return _check_csvs(out_dir, shape)
    except (ValueError, IndexError) as exc:
        raise RepFailure(f"malformed output: {exc!r}")


def _check_csvs(out_dir: Path, shape: dict) -> dict:
    for name in ("trajectories.csv", "metrics.csv"):
        header, rows = _read_rows(out_dir / name)
        agent = header.index("agent")
        per_agent = [0] * len(shape["agent_steps"])
        for row in rows:
            per_agent[int(row[agent])] += 1
        if per_agent != shape["agent_steps"]:
            raise RepFailure(f"{name}: rows per agent {per_agent}, "
                             f"expected {shape['agent_steps']}")
    _, rows = _read_rows(out_dir / "global_w.csv")
    steps = [int(r[0]) for r in rows]
    if steps != shape["global_w_steps"]:
        raise RepFailure(f"global_w.csv: evaluated at steps {steps}, "
                         f"expected {shape['global_w_steps']}")
    w2 = [float(r[1]) for r in rows]
    if not all(math.isfinite(w) for w in w2):
        raise RepFailure("global_w.csv holds non-finite values")
    data = {n: (out_dir / n).read_bytes() for n in CSV_NAMES}
    return {"digests": {n: sha256_bytes(b) for n, b in data.items()},
            "final_w2": w2[-1],
            "output_bytes": sum(len(b) for b in data.values())}


class DigestStore:
    """CSV digests per (program source, document): every repetition of one
    document by one program must write the same bytes, within a run and
    across runs in this checkout."""

    def __init__(self, source: str, doc_sha: str):
        self.path = WORK / "digests" / f"{source[:16]}-{doc_sha[:16]}.json"
        self.known = (json.loads(self.path.read_text(encoding="utf-8"))
                      if self.path.exists() else None)

    def check(self, digests: dict) -> None:
        if self.known is None:
            self.known = digests
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(digests), encoding="utf-8")
            os.replace(tmp, self.path)
        elif digests != self.known:
            changed = sorted(n for n in digests if digests[n] != self.known.get(n))
            raise RepFailure(f"outputs differ from an earlier repetition of "
                             f"this document: {changed}")


class Document:
    """One generated scenario document, written into the run's work dir."""

    def __init__(self, index: int, doc: dict, work: Path, source: str):
        data = json.dumps(doc, indent=2).encode()
        self.index = index
        self.path = work / f"scenario{index}.json"
        self.path.write_bytes(data)
        self.sha256 = sha256_bytes(data)
        self.shape = workloads.expected_shape(doc)
        self.store = DigestStore(source, self.sha256)


def measure(docs: list[dict], seconds: float, trace: bool, work: Path,
            anchor: float | None = None, tamper=None) -> dict:
    """Run a warm-up probe, then repetitions of the documents in turn, each
    document at least once, and further ones while the next is expected
    (by the median repetition so far) to end within `seconds`. With trace, the
    turns are an untraced and a traced repetition of the first document.
    anchor, if given, is the final W2 the first document must reproduce.
    tamper(out_dir), if given, is applied to each repetition's output
    before it is checked."""
    source = source_digest()
    documents = [Document(i, d, work, source) for i, d in enumerate(docs)]
    runner = Runner(work)
    spans_path = work / "spans.json"
    reps: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    imports: list[float] = []

    def attempt(fn):
        try:
            return fn()
        except RepFailure as exc:
            runner.errors.append(str(exc))
            return None

    def rep(doc: Document, spans: Path | None) -> dict:
        out_dir = work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        res = runner.child(doc.path, out_dir, spans=spans)
        res["doc"] = doc.index
        if tamper is not None:
            tamper(out_dir)
        res.update(check_outputs(out_dir, doc.shape))
        doc.store.check(res["digests"])
        if anchor is not None and doc.index == 0 and res["final_w2"] != anchor:
            raise RepFailure(f"final W2 {res['final_w2']!r} at the anchor seed, "
                             f"expected {anchor!r}")
        if spans is not None:
            check_trace(res, doc.shape)
        return res

    def probe() -> dict:
        return runner.child(documents[0].path, work / "probe", probe=True)

    attempt(probe)  # warm-up: compiles bytecode and fills the file cache
    schedule = ([(documents[0], None), (documents[0], spans_path)] if trace
                else [(doc, None) for doc in documents])
    start = time.monotonic()
    turns: list[float] = []
    for i in itertools.count():
        doc, spans = schedule[i % len(schedule)]
        t0 = time.monotonic()
        res = attempt(lambda: rep(doc, spans))
        turns.append(time.monotonic() - t0)
        if res:
            (traced if spans else reps).append(res)
            setups.append(res["setup_s"])
            imports.append(res["import_s"])
        next_end = time.monotonic() + statistics.median(turns)
        if i + 1 >= len(schedule) and (
                next_end - start > seconds or runner.errors
                or next_end > runner.deadline - 1):
            break
    return {"documents": {d.path.name: d.sha256 for d in documents},
            "attempted": runner.attempted, "errors": runner.errors,
            "reps": reps, "traced": traced, "setup_s": setups,
            "import_s": imports, "spans": spans_path if traced else None}


def check_trace(res: dict, shape: dict) -> None:
    """Consistency of a traced repetition's spans and counters."""
    tr = res["trace"]
    counts = tr["counts"]
    if counts.get("engine.agent_steps") != sum(shape["agent_steps"]):
        raise RepFailure("traced engine.run returned the wrong number of steps")
    if counts.get("sync_round.exchanges") != counts.get("sync_round.all_pairs"):
        raise RepFailure("a sync round exchanged fewer than L(L-1)/2 pairs")
    total = tr["engine_total_s"]
    if abs(tr["engine_self_sum_s"] - total) > 0.05 * total:
        raise RepFailure("self times under engine.run do not sum to its duration")


def doc_mean(reps: list[dict], key: str) -> float:
    """Mean over documents of the median over each document's repetitions:
    documents differ in work, so each counts once however often it ran."""
    by_doc: dict[int, list[float]] = {}
    for r in reps:
        by_doc.setdefault(r["doc"], []).append(r[key])
    return statistics.fmean(statistics.median(v) for v in by_doc.values())


def end_to_end(m: dict) -> dict:
    return {
        "run_s": doc_mean(m["reps"], "run_s"),
        "setup_s": statistics.median(m["setup_s"]),
        "peak_rss_mb": doc_mean(m["reps"], "peak_rss_mb"),
    }


def per_layer(m: dict) -> dict:
    traced = m["traced"]

    def med(fn):
        return statistics.median(fn(r) for r in traced)

    def layer(r, name, key):
        return r["trace"]["layers"].get(name, {}).get(key, 0)

    def count(r, key):
        return r["trace"]["counts"].get(key, 0)

    def frac(num, den):
        return num / den if den else 0.0

    values = {}
    for spec in declared_metrics(True):
        span, _, key = spec["name"].rpartition(".")
        if key in ("calls", "self_s"):
            values[spec["name"]] = med(lambda r: layer(r, span, key))
    gw = "transport.global_wasserstein"
    values[f"{gw}.cost_cells"] = med(
        lambda r: count(r, "global_wasserstein.cost_cells"))
    values[f"{gw}.equal_uniform_frac"] = med(
        lambda r: frac(count(r, "global_wasserstein.equal_uniform"),
                       layer(r, gw, "calls")))
    values[f"{gw}.final_w2"] = med(lambda r: r["final_w2"])
    for fn in ("select_local_samples", "weight_update"):
        values[f"transport.{fn}.useful_frac"] = med(
            lambda r: frac(count(r, f"{fn}.claimed"), count(r, f"{fn}.ranked")))
    values["dynamics.step_events.violation_frac"] = med(
        lambda r: frac(count(r, "step_events.violations"),
                       layer(r, "dynamics.step_events", "calls")))
    values["coordination.sync_round.exchanges"] = med(
        lambda r: count(r, "sync_round.exchanges"))
    values["dpcover.import_s"] = statistics.median(m["import_s"])
    values["engine.agent_steps"] = med(lambda r: count(r, "engine.agent_steps"))
    values["cli.output_s"] = med(lambda r: layer(r, "cli.run", "self_s"))
    values["cli.output_bytes"] = med(lambda r: r["output_bytes"])
    values["trace.overhead_frac"] = (
        statistics.median(r["run_s"] for r in traced)
        / statistics.median(r["run_s"] for r in m["reps"]) - 1.0)
    return values


def manifest(workload: str, seed: int, m: dict) -> dict:
    first = (m["reps"] or m["traced"] or [{}])[0]
    reps = m["reps"]
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "documents": m["documents"],
        "versions": first.get("versions"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "cpu_per_wall": (statistics.median(r["cpu_per_wall"] for r in reps)
                         if reps else None),
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def report(workload: str, seed: int, trace: bool, m: dict) -> tuple[dict, bool]:
    """Print the run's summary; return the result object and whether it is
    complete (every declared metric measured)."""
    failed = len(m["errors"])
    attempted = max(m["attempted"], 1)
    values = {}
    complete = bool(m["reps"]) and (bool(m["traced"]) or not trace)
    if complete:
        values = per_layer(m) if trace else end_to_end(m)
    metrics = {}
    for spec in declared_metrics(trace):
        if spec["name"] in values:
            metrics[spec["name"]] = {"value": values[spec["name"]],
                                     "unit": spec["unit"]}
    complete = complete and len(metrics) == len(declared_metrics(trace))
    man = manifest(workload, seed, m)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    if m["spans"] is not None and m["spans"].exists():
        shutil.copyfile(m["spans"], results / f"spans_{workload}_seed{seed}.json")
    (results / f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps({"manifest": man, "metrics": metrics, "errors": m["errors"],
                    "raw": {k: m[k] for k in ("reps", "traced", "setup_s",
                                              "import_s")}},
                   indent=1, default=str), encoding="utf-8")
    for err in m["errors"]:
        print(f"failed repetition: {err}", file=sys.stderr)
    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          f"{len(m['reps'])} untraced and {len(m['traced'])} traced repetitions")
    print(f"manifest: {json.dumps(man)}")
    final_w2 = {r["doc"]: r["final_w2"] for r in m["reps"]}
    for doc, w2 in sorted(final_w2.items()):
        print(f"final_w2 of scenario{doc}.json = {w2!r} m")
    print(f"error_rate = {failed / attempted} fraction ({failed}/{attempted})")
    for r in m["traced"][:1]:
        print(f"self times under engine.run sum to {r['trace']['engine_self_sum_s']} s "
              f"of its {r['trace']['engine_total_s']} s")
    if m["reps"] and not trace:
        # printed, not declared: a shared machine moves it by more than
        # any allowed bound from one run to the next
        print(f"plot_s (undeclared) = "
              f"{statistics.median(r['plot_s'] for r in m['reps'])} s")
    for name, v in metrics.items():
        print(f"{name} = {v['value']} {v['unit']}")
    return ({"correct": failed == 0 and complete, "attempted": attempted,
             "failed": failed, "metrics": metrics}, complete)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.TEMPLATES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "dpcover" / "cli.py").is_file():
        print(f"error: no dpcover sources under {ROOT / 'src'}; run from the "
              "root of a dpcover checkout", file=sys.stderr)
        return 2
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        anchor = (workloads.ANCHORS[args.workload][2]
                  if args.seed == workloads.anchor_seed(args.workload) else None)
        m = measure(workloads.documents(args.workload, args.seed), args.seconds,
                    bool(args.trace), work, anchor=anchor)
        result, complete = report(args.workload, args.seed, bool(args.trace), m)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
