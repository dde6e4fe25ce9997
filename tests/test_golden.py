"""Byte-level pins of the CSV outputs of four small constrained runs and
one limited-range run, and of the four SVG plots of the default-scenario
and limited-range runs.

A change meant to keep behaviour must keep every one of these bytes. The
first four documents drive the active-set QP: the counts checked beside
the digests show that the pinned bytes cover steps where an input
constraint binds, and (for the quadrotor) where the state bounds clamp.
Three polytopes are boxes centred at 0; the triangle's Chebyshev centre is
(0.268, -0.232), so its active set starts away from the origin. The desk
runs rank their whole 600-sample cloud on every claim; the
default-scenario run ranks a 5 975-sample cloud for three agents. The
limited-range run is unconstrained, and its two agents come within
d_comm on some steps only, so the check beside its digests sees steps
with and without an exchange.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from dpcover import cli

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
CSVS = ("trajectories.csv", "metrics.csv", "global_w.csv", "gains.csv",
        "reference.csv")


def _cut(name: str, steps: int = 200, **extra) -> dict:
    """A checked-in scenario cut to `steps` steps per agent and W2 on
    100-point clouds."""
    doc = json.loads((SCENARIO_DIR / name).read_text())
    for agent in doc["agents"]:
        agent["M"] = steps
    doc["global_w_cap"] = 100
    doc.update(extra)
    return doc


def _box(bound: float) -> tuple[list, list]:
    """Cu, Du of |u_i| <= bound for two inputs."""
    return [[1, 0], [0, 1], [-1, 0], [0, -1]], [bound] * 4


TRIANGLE = {"Cu": [[1, 0], [0, 1], [-1, -1]], "Du": [1, 0.5, 1]}

# name -> (document, its input polytope (Cu, Du) or None if unconstrained,
# SHA-256 of each CSV and of each plot rendered)
GOLDEN = {
    "quadrotor_desk": (
        _cut("quadrotor_desk.json"), _box(100.0), {
            "trajectories.csv": "f6b19d09d697e2042c90aa3eb1606012f2e8f09e72fc3757de859287012902d4",
            "metrics.csv": "167ada47f9cb2bafa8e0d55555d646984d24d67fca974d31f0baa6d63c63afdc",
            "global_w.csv": "2a87c19266f90fefdb86544ebea7cd5ab07a8d06ce294aa84620eded1d30a588",
            "gains.csv": "63f6d1bd02387c94dc2df10513fb2580162513c324630ec225ed746169c3a9af",
            "reference.csv": "73108aca1f9381221a76bb14183152393f6c80ac260558c254f6e289e0b359fb",
        }),
    "first_order_desk_u_max_1": (
        _cut("first_order_desk.json", input_constraints={"u_max": 1.0}), _box(1.0), {
            "trajectories.csv": "eac1720740e733216e09c52f9fcbd187212f179497c0a9b9b9dd8100fb7fc3a6",
            "metrics.csv": "277380935a713fc04b7139d2af3041f8f46d7d52e219d85a0dd6c654cdc8c257",
            "global_w.csv": "9d6856c18049f672b73de99ca1786d79d4c35e87ba93b13652b6658b1621c7f0",
            "gains.csv": "8163a43f328ff37ce0b585f5c0301235746c3490c7b7c05e515db95dae16ab19",
            "reference.csv": "73108aca1f9381221a76bb14183152393f6c80ac260558c254f6e289e0b359fb",
        }),
    "first_order_desk_triangle": (
        _cut("first_order_desk.json", input_constraints=TRIANGLE),
        (TRIANGLE["Cu"], TRIANGLE["Du"]), {
            "trajectories.csv": "1a8caf64289039ef441fec92eb59e8b5faec034dd103910220acaddd5226005e",
            "metrics.csv": "3247b282afb999ae4ba8fe4eabe5fe1d1624d457f747d1c86048e4ff8bae1fb7",
            "global_w.csv": "f0322fbb20e5cff3cdab3ec7857ec22a326a989f59f7dafda190a1fcc2a722d2",
            "gains.csv": "d96cc48aacdfe4c76e043bbb2c5154ecc33b588b555e9bfbc049ad62a19e5dde",
            "reference.csv": "73108aca1f9381221a76bb14183152393f6c80ac260558c254f6e289e0b359fb",
        }),
    "first_order_default": (
        _cut("first_order_default.json"), _box(5.0), {
            "trajectories.csv": "2e6caa3042ea15ad93b9884de186a26437873289572ec38d0ee02f0b6af2d290",
            "metrics.csv": "09467fa4d5793ed5f53112cf6cc909f79a3ae6e9f1828a1e7f4e57bfd3cabb36",
            "global_w.csv": "687503829ab165ca0abebd2d98aaef903b0dc48a3b0dad7953b37e16e13b61ef",
            "gains.csv": "1cad1d66b7d6b624ab7fcfb56ab28fda8918336d7a04244c58f74679bf3032a2",
            "reference.csv": "e942941b4c7d1dd5b08245718e8df2a5011ef002eb6133fa92230cdbc59e65a3",
            "trajectories.svg": "f95c8460c0e1c866762e4004a0bf1c328a7ffe0fcc89a4a8ff5d3e0c225a1228",
            "deltaw.svg": "21527d4f2273aae2235e67311e1baaaee3a7a365b4158c780aa6911e532a4943",
            "ellipses.svg": "55773d9174d784de530881577e8641d937802f717c37bd657ceaf951cc904be2",
            "globalw.svg": "e11d2194ae87e9e471a862ab59e3199ecbfcdebed15db686c5d56800ce350510",
        }),
    "first_order_desk_d_comm_8": (
        _cut("first_order_desk.json", steps=150, comm={"d_comm": 8.0}), None, {
            "trajectories.csv": "75a6d6fd044216a113279bd635c1123a9eda55acd3e95a58d0532ff126d78ca7",
            "metrics.csv": "417e5f22e3ee01bfe5a85d32cfb4ef358a3cce272eeb833c5f5e543ea918f5df",
            "global_w.csv": "946cc29a67ba913f1d9517a8fb255fe7a5c24378837e4ec8113782a3048ea598",
            "gains.csv": "37396a1162e9e324d3af3d9628c0ae4eaa7f3028f1ce34e3634fe1de7a8f70f4",
            "reference.csv": "73108aca1f9381221a76bb14183152393f6c80ac260558c254f6e289e0b359fb",
            "trajectories.svg": "8cc53988cb83810f50e28db9c9cd4eb891b823c9e9233a04f2077a490af3e596",
            "deltaw.svg": "4cda546a50e623e65d32435f4865e59a6f8bbc8f30de1dcf7a2a095710091751",
            "ellipses.svg": "07d97727ab0866f752c4410a1aedb4a1b3e5d9a6f2a6e81c0609b160e487d028",
            "globalw.svg": "c4d17a20e531f8dba65be5f807a14211ea71b9a48d907b14fef9f46924ef1129",
        }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_constrained_run_outputs_are_pinned(name, tmp_path):
    doc, polytope, digests = GOLDEN[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 0

    with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if polytope is not None:
        Cu, Du = (np.asarray(a, dtype=float) for a in polytope)
        u = np.array([[float(r["u1"]), float(r["u2"])] for r in rows])
        active = int(np.sum(np.any(u @ Cu.T - Du >= -1e-9, axis=1)))
        assert active > 0
    if name == "quadrotor_desk":
        assert sum(r["bound_violation"] == "1" for r in rows) > 0
    if "comm" in doc:
        assert {r["comm_events"] for r in rows} == {"0", "1"}

    plots = [f"{kind}.svg" for kind in cli.PLOT_KINDS if f"{kind}.svg" in digests]
    for f in plots:
        assert cli.main(["plot", "--kind", f[:-4], "--out", str(out)]) == 0
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
           for f in (*CSVS, *plots)}
    assert got == digests
