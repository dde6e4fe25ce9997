"""Scenario files: a strict JSON schema mapped onto engine.Scenario.

Unknown keys are rejected everywhere; required keys are version, agents,
and reference. See the scenarios/ directory for examples.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from .coordination import CommConfig
from .distribution import MixtureSpec, SampleCloud, load_points, sample_mixture
from .dynamics import LtiSystem, make_preset
from .engine import Scenario
from .errors import InfeasibleError, InputError, ScenarioError, check_count
from .linalg import InputPolytope

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


def _real(value, where: str, ndim: int | None = 0):
    """value as finite reals: a float for ndim 0, else an array of ndim
    nested lists (any depth for None). Booleans, strings, nulls, NaN and
    Infinity are rejected."""
    try:  # a ragged list holds lists where numbers belong
        numbers = all(type(v) in (int, float) for v in np.array(value, dtype=object).flat)
        arr = np.asarray(value, dtype=float) if numbers else None
    except (ValueError, OverflowError):  # huge integers
        arr = None
    if arr is None or ndim not in (None, arr.ndim):
        kind = "a number" if ndim == 0 else "a nested list of numbers"
        raise ScenarioError(f"{where} must be {kind}")
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{where} must be finite")
    return float(arr) if ndim == 0 else arr


def _build_system(spec: dict, where: str) -> LtiSystem:
    if isinstance(spec, dict) and "preset" in spec:
        _check_keys(spec, {"preset", "dt", "params"}, {"preset", "dt"}, where)
        dt, params = _real(spec["dt"], f"{where}.dt"), spec.get("params")
        if isinstance(params, dict):
            params = {k: _real(v, f"{where}.params.{k}") for k, v in params.items()}
        try:
            return make_preset(spec["preset"], dt, params)
        except Exception as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    _check_keys(spec, {"A", "B", "C", "dt", "state_bounds"},
                {"A", "B", "C", "dt"}, where)
    A, B, C = (_real(spec[k], f"{where}.{k}", None) for k in "ABC")
    dt, bounds = _real(spec["dt"], f"{where}.dt"), spec.get("state_bounds")
    if bounds is not None:
        bounds = _real(bounds, f"{where}.state_bounds", 2)
    try:
        return LtiSystem(A=A, B=B, C=C, dt=dt, state_bounds=bounds)
    except Exception as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _build_reference(spec: dict, base_dir: Path, default_seed: int) -> SampleCloud:
    _check_keys(spec, {"mixture", "file"}, set(), "reference")
    if ("mixture" in spec) == ("file" in spec):
        raise ScenarioError("reference needs exactly one of 'mixture' or 'file'")
    if "file" in spec:
        if not isinstance(spec["file"], str):
            raise ScenarioError("reference.file must be a path string")
        try:
            return load_points(base_dir / spec["file"])
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
        comps.append(tuple(_real(comp[k], f"mixture component {i}.{k}", ndim)
                           for k, ndim in (("mean", 1), ("cov", 2), ("weight", 0))))
    domain = tuple(_real(mix["domain"], "reference.mixture.domain", 1))
    try:
        return sample_mixture(MixtureSpec(components=tuple(comps), domain=domain,
                                          n_samples=mix["n_samples"],
                                          seed=mix.get("seed", default_seed)))
    except Exception as exc:
        raise ScenarioError(f"reference.mixture: {exc}") from exc


def _with_input_set(spec, systems: list[LtiSystem], where: str) -> list[LtiSystem]:
    """The systems with the document's input set as their input_bounds,
    which replaces a preset's tau_max box; unchanged when spec is None."""
    if spec is None:
        return systems
    _check_keys(spec, {"u_max", "Cu", "Du"}, set(), where)
    if "u_max" in spec:
        if "Cu" in spec or "Du" in spec:
            raise ScenarioError(f"{where}: give either u_max or Cu/Du, not both")
        u_max = _real(spec["u_max"], f"{where}.u_max")
        if not u_max > 0:
            raise ScenarioError(f"{where}: u_max must be positive")
        return [replace(s, input_bounds=InputPolytope.box(u_max, s.m)) for s in systems]
    if "Cu" not in spec or "Du" not in spec:
        raise ScenarioError(f"{where}: Cu and Du must be given together")
    try:  # one polytope, and one Chebyshev LP, shared by every agent
        polytope = InputPolytope(_real(spec["Cu"], f"{where}.Cu", 2),
                                 _real(spec["Du"], f"{where}.Du", 1))
    except (InfeasibleError, InputError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    with_set = []
    for i, s in enumerate(systems):
        try:  # LtiSystem checks that Cu has one column per input
            with_set.append(replace(s, input_bounds=polytope))
        except InputError as exc:
            raise ScenarioError(f"{where}.Cu does not fit agents[{i}]: {exc}") from exc
    return with_set


def build_scenario(doc: dict, base_dir: Path | None = None) -> Scenario:
    base_dir = base_dir or Path.cwd()
    _check_keys(doc, {"version", "seed", "system", "agents", "reference", "comm",
                      "input_constraints", "global_w_interval", "global_w_cap"},
                {"version", "agents", "reference"}, "scenario")
    if isinstance(doc["version"], bool) or doc["version"] != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema version {doc['version']!r}")
    try:
        seed = check_count(doc.get("seed", 0), "seed", 0)
    except InputError as exc:
        raise ScenarioError(str(exc)) from None

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
        systems.append(_build_system(sys_spec, f"{where}.system"))
        states.append(_real(agent["initial_state"], f"{where}.initial_state", 1))
        budgets.append(agent["M"])  # engine.Scenario checks it with the state length

    cloud = _build_reference(doc["reference"], base_dir, seed)

    comm_spec = {} if doc.get("comm") is None else doc["comm"]
    _check_keys(comm_spec, {"d_comm"}, set(), "comm")
    d_comm = comm_spec.get("d_comm")  # absent or null is all-to-all
    try:
        comm = CommConfig(None if d_comm is None else _real(d_comm, "comm.d_comm"))
    except InputError as exc:
        raise ScenarioError(f"comm: {exc}") from exc

    systems = _with_input_set(doc.get("input_constraints"), systems, "input_constraints")

    # engine.Scenario owns the defaults of the keys a document leaves out
    cadence = {k: doc[k] for k in ("global_w_interval", "global_w_cap") if k in doc}
    try:
        return Scenario(systems=systems, initial_states=states, budgets=budgets,
                        cloud=cloud, comm=comm, **cadence)
    except Exception as exc:
        raise ScenarioError(str(exc)) from exc


def read_document(path: Path):
    """The JSON value in the file at path; ScenarioError names a file that is not JSON."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON or not UTF-8
        raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc


def load_scenario(path) -> Scenario:
    path = Path(path)
    return build_scenario(read_document(path), base_dir=path.parent)
