"""Shared helpers for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpcover.dynamics import LtiSystem


def integrator_chain(n: int, p: int, dt: float, rng: np.random.Generator) -> LtiSystem:
    """Random-ish LTI system with a known relative degree.

    Builds a chain of p-dimensional integrator blocks of depth n (states
    n*p, inputs/outputs p): the input enters the deepest block and the
    output reads the shallowest, so C A^(P-1) B is the first nonzero
    product at P = n. Block couplings are randomized to vary the numbers
    without touching the zero pattern.
    """
    np_states = n * p
    A = np.eye(np_states)
    for lvl in range(n - 1):
        # shallow block lvl integrates block lvl+1
        gain = dt * (0.5 + rng.random())
        A[lvl * p:(lvl + 1) * p, (lvl + 1) * p:(lvl + 2) * p] = gain * np.eye(p)
    B = np.zeros((np_states, p))
    B[(n - 1) * p:, :] = dt * (0.5 + rng.random()) * np.eye(p)
    C = np.zeros((p, np_states))
    C[:, :p] = np.eye(p)
    return LtiSystem(A=A, B=B, C=C, dt=dt)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def first_order_doc(n_agents=1, m_steps=5, n_samples=30, seed=3, **extra):
    """Minimal valid scenario document for CLI / schema tests."""
    doc = {
        "version": 1,
        "seed": seed,
        "system": {"preset": "first_order", "dt": 0.1},
        "agents": [
            {"initial_state": [1.0 + i, 1.0], "M": m_steps}
            for i in range(n_agents)
        ],
        "reference": {
            "mixture": {
                "components": [
                    {"mean": [5.0, 5.0], "cov": [[2.0, 0.0], [0.0, 2.0]],
                     "weight": 1.0},
                ],
                "n_samples": n_samples,
                "domain": [0.0, 10.0, 0.0, 10.0],
            }
        },
    }
    doc.update(extra)
    return doc


def run_fresh_python(lines: list[str], *args: str) -> subprocess.CompletedProcess:
    """Run the script `lines` in a fresh interpreter that imports dpcover
    from this checkout's src/, with `args` as sys.argv[1:]."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", "\n".join(lines), *args], env=env,
                          capture_output=True, text=True, timeout=300)
