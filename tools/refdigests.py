"""SHA-256 of every output file of the reference set.

    python3 tools/refdigests.py OUT.json

Runs the reference set and plots every kind, then writes OUT.json, which
maps each file, as "<run>/<file>", to the SHA-256 of its bytes. The set
is every scenario under scenarios/ (first_order_default with
--k-interval 1500, the one override) and the desk and default-1eval
benchmark documents at their anchor seeds, 5 CSVs and 4 SVGs a run (45
files with three checked-in scenarios). A scenario added under
scenarios/ joins the set with no edit here. A change that should keep
every output byte is checked by running this on both trees and
comparing the two files with diff. It takes about a minute on a
2-vCPU host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave no file under perfbench/

from dpcover import cli  # noqa: E402
import workloads  # noqa: E402

# extra `run` arguments by scenario name: a W2 evaluation every 1500
# steps keeps the full-budget default run to seconds
OVERRIDES = {"first_order_default": ["--k-interval", "1500"]}


def _run_and_plot(scenario: Path, extra: list[str], out: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["run", "--scenario", str(scenario), "--out", str(out), *extra]):
            raise SystemExit(f"run of {scenario} failed")
        for kind in cli.PLOT_KINDS:
            if cli.main(["plot", "--out", str(out), "--kind", kind]):
                raise SystemExit(f"plot --kind {kind} of {scenario} failed")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/refdigests.py OUT.json", file=sys.stderr)
        return 2
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = {path.stem: (path, OVERRIDES.get(path.stem, []))
                for path in sorted((ROOT / "scenarios").glob("*.json"))}
        for name in workloads.TEMPLATES:
            doc = Path(tmp) / f"{name}.json"
            doc.write_text(json.dumps(
                workloads.generate(name, workloads.anchor_seed(name))))
            runs[f"{name}@{workloads.anchor_seed(name)}"] = (doc, [])
        for label, (scenario, extra) in runs.items():
            out = Path(tmp) / label
            _run_and_plot(scenario, extra, out)
            for path in sorted(out.iterdir()):
                digests[f"{label}/{path.name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    Path(argv[0]).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
