"""The benchmark's trace mode rebinds dpcover functions by module and name
(perfbench/layers.py) and derives counters from their arguments and
results. Renaming or deleting a traced name, or changing what a traced
function returns, breaks only the benchmark, so this checks every binding
still resolves to a callable and a traced run still fills every counter."""

import json
from pathlib import Path

from dpcover import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    traced = []

    class Probe:
        def wrap(self, owner, attr, name, observe):
            assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"
            traced.append(name)

    layers.install(Probe())
    assert "linalg.pseudo_inverse" in traced


def test_traced_run_fills_every_observer_counter(monkeypatch, tmp_path):
    """A traced run and its four plots feed every counter layers.py
    derives from a traced call's arguments and result."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    class RestoringTracer(Tracer):
        def wrap(self, owner, attr, name, observe=None):
            monkeypatch.setattr(owner, attr, getattr(owner, attr))  # undone at teardown
            super().wrap(owner, attr, name, observe)

    scenarios = PERFBENCH.parent / "scenarios"
    doc = json.loads((scenarios / "first_order_desk.json").read_text())
    for agent in doc["agents"]:
        agent["M"] = 20
    doc["global_w_interval"] = 10
    doc["global_w_cap"] = 100
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"

    tracer = RestoringTracer()
    layers.install(tracer)
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    for kind in ("trajectories", "deltaw", "ellipses", "globalw"):
        assert cli.main(["plot", "--out", str(out), "--kind", kind]) == 0

    counts = tracer.counts
    assert counts["engine.agent_steps"] == 40
    # the claim counts the benchmark reports for this run: a change to what
    # a selection or a weight-update plan claims shows here
    assert counts["weight_update.claimed"] == counts["select_local_samples.claimed"] == 600
    for name in ("select_local_samples.claimed", "weight_update.claimed",
                 "sync_round.exchanges", "global_wasserstein.cost_cells"):
        assert counts[name] > 0, name
    # the check perfbench/run.py applies to a traced all-to-all run
    assert counts["sync_round.exchanges"] == counts["sync_round.all_pairs"] == 20
    assert "step_events.violations" in counts
    assert tracer.summary()["svgplot.plot_ellipses"]["calls"] == 1
