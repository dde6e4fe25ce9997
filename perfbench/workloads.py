"""The benchmark's workloads: scenario documents generated from a seed.

Each template copies the parameters of one checked-in scenario under
scenarios/. Only the run seed and the reference-mixture seed come from the
benchmark's --seed argument, with the template's offset between the two
kept, so that the anchor seed reproduces the checked-in document exactly.
The program under test only ever sees the generated JSON.
"""

from __future__ import annotations

import copy

# scenarios/first_order_desk.json with clouds resampled to 225 points for
# W2: 6 equal-size evaluations and 2 unequal ones, 94% of the run at the
# anchor seed. At the checked-in cap of 400 one document takes 30-50 s, so
# a run would hold one or two documents and its time would follow the
# reference sample; at 225 a run averages 6.
_DESK = {
    "version": 1,
    "seed": 7,
    "system": {"preset": "first_order", "dt": 0.1},
    "agents": [
        {"initial_state": [5.0, 5.0], "M": 400},
        {"initial_state": [45.0, 45.0], "M": 400},
    ],
    "reference": {
        "mixture": {
            "components": [
                {"mean": [12.0, 12.0], "cov": [[6.0, 0.0], [0.0, 6.0]], "weight": 0.4},
                {"mean": [38.0, 30.0], "cov": [[8.0, 2.0], [2.0, 5.0]], "weight": 0.35},
                {"mean": [20.0, 40.0], "cov": [[4.0, 0.0], [0.0, 4.0]], "weight": 0.25},
            ],
            "n_samples": 600,
            "seed": 11,
            "domain": [0.0, 50.0, 0.0, 50.0],
        }
    },
    "global_w_interval": 50,
    "global_w_cap": 225,
}

# scenarios/first_order_default.json with one global-W2 evaluation, at the
# last step, on clouds resampled to 200 points. The checked-in interval of
# 100 makes the W2 LP 90% of the run. At the checked-in cap of 500 the one
# LP still takes 3.8-11 s depending on the seed (6-12 s of control loop
# beside it), so run time would follow the seed, not the loop.
_DEFAULT_1EVAL = {
    "version": 1,
    "seed": 1,
    "system": {"preset": "first_order", "dt": 0.1},
    "agents": [
        {"initial_state": [10.0, 10.0], "M": 1500},
        {"initial_state": [90.0, 10.0], "M": 1500},
        {"initial_state": [50.0, 90.0], "M": 1500},
    ],
    "reference": {
        "mixture": {
            "components": [
                {"mean": [30.0, 30.0], "cov": [[40.0, 0.0], [0.0, 40.0]], "weight": 0.4},
                {"mean": [70.0, 55.0], "cov": [[30.0, 8.0], [8.0, 35.0]], "weight": 0.35},
                {"mean": [40.0, 75.0], "cov": [[25.0, 0.0], [0.0, 20.0]], "weight": 0.25},
            ],
            "n_samples": 5975,
            "domain": [0.0, 100.0, 0.0, 100.0],
        }
    },
    "input_constraints": {"u_max": 5.0},
    "global_w_interval": 1500,
    "global_w_cap": 200,
}

TEMPLATES = {
    "desk": _DESK,
    "default-1eval": _DEFAULT_1EVAL,
}

# Checked-in scenario each template copies, the keys the template changes,
# the final row of global_w.csv of the template's document at the
# checked-in seed, and that of the checked-in scenario itself (for
# default-1eval run with --k-interval 1500).
ANCHORS = {
    "desk": ("scenarios/first_order_desk.json", ("global_w_cap",),
             4.030573616257115, 1.4044662976382685),
    "default-1eval": ("scenarios/first_order_default.json",
                      ("global_w_interval", "global_w_cap"),
                      3.636344260310245, 3.5218220644487928),
}

# Scenario documents one run measures, each at least once. Run time
# follows the reference sample (by 10% on desk, 5% on default-1eval, one
# standard deviation per document), so a run averages over as many
# samples as fit in a 50 s run.
DOCS_PER_RUN = {"desk": 6, "default-1eval": 5}
# seed distance between the documents of one run
DOC_STRIDE = 1_000_000


def anchor_seed(name: str) -> int:
    """The --seed that reproduces the checked-in scenario."""
    return TEMPLATES[name]["seed"]


def generate(name: str, seed: int) -> dict:
    """Scenario document of workload name at benchmark seed `seed`."""
    template = TEMPLATES[name]
    doc = copy.deepcopy(template)
    mixture = doc["reference"]["mixture"]
    offset = mixture.get("seed", template["seed"]) - template["seed"]
    doc["seed"] = seed
    mixture["seed"] = seed + offset
    return doc


def documents(name: str, seed: int) -> list[dict]:
    """The documents a run of workload name at `seed` measures; the first
    is generate(name, seed)."""
    return [generate(name, seed + i * DOC_STRIDE)
            for i in range(DOCS_PER_RUN[name])]


def scale_down(doc: dict) -> dict:
    """A few-second variant of doc for the benchmark's smoke test: 12 steps
    per agent, a 200-sample reference, W2 every 5 steps."""
    doc = copy.deepcopy(doc)
    for agent in doc["agents"]:
        agent["M"] = 12
    doc["reference"]["mixture"]["n_samples"] = 200
    doc["global_w_interval"] = 5
    doc["global_w_cap"] = 100
    return doc


def expected_shape(doc: dict) -> dict:
    """Row counts a complete run of doc must write: per-agent step counts
    and the global-W2 evaluation steps its cadence implies."""
    budgets = [a["M"] for a in doc["agents"]]
    max_k = max(budgets)
    interval = doc.get("global_w_interval", 50)
    eval_steps = list(range(interval, max_k + 1, interval))
    if not eval_steps or eval_steps[-1] != max_k:
        eval_steps.append(max_k)
    return {"agent_steps": budgets, "global_w_steps": eval_steps}
