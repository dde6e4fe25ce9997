"""Scenario files: a strict JSON schema mapped onto engine.Scenario.

Unknown keys are rejected everywhere; required keys are version, agents,
and reference. See the scenarios/ directory for examples.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .coordination import CommConfig
from .distribution import MixtureSpec, SampleCloud, load_points, sample_mixture
from .dynamics import LtiSystem, make_preset
from .engine import Scenario
from .errors import ScenarioError

SCHEMA_VERSION = 1


def _check_keys(obj: dict, allowed: set, required: set, where: str):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ScenarioError(f"missing required keys {sorted(missing)} in {where}")


def _integer(value, where: str, minimum: int) -> int:
    """value if it is a JSON integer >= minimum (booleans are not integers)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ScenarioError(f"{where} must be an integer >= {minimum}")
    return value


def _build_system(spec: dict, where: str) -> LtiSystem:
    if "preset" in spec:
        _check_keys(spec, {"preset", "dt", "params"}, {"preset", "dt"}, where)
        try:
            return make_preset(spec["preset"], float(spec["dt"]),
                               spec.get("params"))
        except Exception as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    _check_keys(spec, {"A", "B", "C", "dt", "state_bounds"},
                {"A", "B", "C", "dt"}, where)
    try:
        return LtiSystem(A=np.asarray(spec["A"], dtype=float),
                         B=np.asarray(spec["B"], dtype=float),
                         C=np.asarray(spec["C"], dtype=float),
                         dt=float(spec["dt"]),
                         state_bounds=(np.asarray(spec["state_bounds"], dtype=float)
                                       if spec.get("state_bounds") is not None else None))
    except Exception as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _build_reference(spec: dict, base_dir: Path, default_seed: int) -> SampleCloud:
    _check_keys(spec, {"mixture", "file"}, set(), "reference")
    if ("mixture" in spec) == ("file" in spec):
        raise ScenarioError("reference needs exactly one of 'mixture' or 'file'")
    if "file" in spec:
        path = Path(spec["file"])
        if not path.is_absolute():
            path = base_dir / path
        try:
            return load_points(path)
        except Exception as exc:
            raise ScenarioError(f"reference file: {exc}") from exc
    mix = spec["mixture"]
    _check_keys(mix, {"components", "n_samples", "seed", "domain"},
                {"components", "n_samples", "domain"}, "reference.mixture")
    if not isinstance(mix["components"], list):
        raise ScenarioError("reference.mixture: components must be a list")
    comps = []
    for i, comp in enumerate(mix["components"]):
        _check_keys(comp, {"mean", "cov", "weight"}, {"mean", "cov", "weight"},
                    f"mixture component {i}")
        comps.append((comp["mean"], comp["cov"], comp["weight"]))
    try:
        ms = MixtureSpec(components=tuple(comps),
                         n_samples=int(mix["n_samples"]),
                         seed=int(mix.get("seed", default_seed)),
                         domain=tuple(mix["domain"]))
        return sample_mixture(ms)
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError(f"reference.mixture: {exc}") from exc


def _build_constraints(spec, where: str):
    if spec is None:
        return None
    _check_keys(spec, {"u_max", "Cu", "Du"}, set(), where)
    if "u_max" in spec:
        if "Cu" in spec or "Du" in spec:
            raise ScenarioError(f"{where}: give either u_max or Cu/Du, not both")
        try:
            u_max = float(spec["u_max"])
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{where}: u_max: {exc}") from exc
        if u_max <= 0:
            raise ScenarioError(f"{where}: u_max must be positive")
        return u_max  # expanded per agent once input size is known
    if "Cu" not in spec or "Du" not in spec:
        raise ScenarioError(f"{where}: Cu and Du must be given together")
    try:
        Cu = np.asarray(spec["Cu"], dtype=float)
        Du = np.asarray(spec["Du"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    if Cu.ndim != 2 or Du.ndim != 1 or Cu.shape[0] != Du.shape[0]:
        raise ScenarioError(f"{where}: Cu must be (c, m) and Du length c")
    return (Cu, Du)


def build_scenario(doc: dict, base_dir: Path | None = None) -> Scenario:
    base_dir = base_dir or Path.cwd()
    _check_keys(doc, {"version", "seed", "system", "agents", "reference", "comm",
                      "input_constraints", "global_w_interval", "global_w_cap"},
                {"version", "agents", "reference"}, "scenario")
    if doc["version"] != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema version {doc['version']!r}")
    seed = _integer(doc.get("seed", 0), "seed", 0)

    default_system = doc.get("system")
    systems, states, budgets = [], [], []
    if not isinstance(doc["agents"], list) or not doc["agents"]:
        raise ScenarioError("agents must be a nonempty list")
    for i, agent in enumerate(doc["agents"]):
        where = f"agents[{i}]"
        _check_keys(agent, {"initial_state", "M", "system"},
                    {"initial_state", "M"}, where)
        sys_spec = agent.get("system", default_system)
        if sys_spec is None:
            raise ScenarioError(f"{where}: no system given and no scenario default")
        sys = _build_system(sys_spec, f"{where}.system")
        try:
            x0 = np.asarray(agent["initial_state"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{where}: initial_state: {exc}") from exc
        if x0.shape != (sys.n,):
            raise ScenarioError(
                f"{where}: initial_state has length {x0.size}, system needs {sys.n}")
        if not np.all(np.isfinite(x0)):
            raise ScenarioError(f"{where}: initial_state must be finite")
        systems.append(sys)
        states.append(x0)
        budgets.append(_integer(agent["M"], f"{where}: M", 1))

    cloud = _build_reference(doc["reference"], base_dir, seed)

    comm_spec = doc.get("comm")
    if comm_spec is None:
        comm = CommConfig()
    else:
        _check_keys(comm_spec, {"d_comm", "latency_mean_ms", "latency_jitter_ms"},
                    set(), "comm")
        try:
            comm = CommConfig(d_comm=comm_spec.get("d_comm"),
                              latency_mean_ms=float(comm_spec.get("latency_mean_ms", 0.0)),
                              latency_jitter_ms=float(comm_spec.get("latency_jitter_ms", 0.0)))
        except Exception as exc:
            raise ScenarioError(f"comm: {exc}") from exc

    constraints = _build_constraints(doc.get("input_constraints"), "input_constraints")
    if isinstance(constraints, float):  # u_max box, expand for the input size
        m_in = systems[0].m
        if any(s.m != m_in for s in systems):
            raise ScenarioError("u_max box needs a uniform input dimension")
        Cu = np.vstack([np.eye(m_in), -np.eye(m_in)])
        constraints = (Cu, constraints * np.ones(2 * m_in))
    if constraints is not None:
        Cu, _ = constraints
        if any(s.m != Cu.shape[1] for s in systems):
            raise ScenarioError("input_constraints: Cu column count must equal the input size")

    try:
        return Scenario(systems=systems, initial_states=states, budgets=budgets,
                        cloud=cloud, comm=comm, input_constraints=constraints,
                        global_w_interval=_integer(doc.get("global_w_interval", 50),
                                                   "global_w_interval", 1),
                        global_w_cap=_integer(doc.get("global_w_cap", 500),
                                              "global_w_cap", 1),
                        seed=seed)
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    return build_scenario(doc, base_dir=path.parent)
