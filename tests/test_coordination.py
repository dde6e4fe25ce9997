"""Pairwise weight synchronization (min rule)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcover.coordination import CommConfig, sync_round
from dpcover.errors import InputError


def _pairwise_reference(vecs, positions, d_comm, pairs):
    """Copies of vecs after the min rule on each in-range pair of pairs,
    in the order given, and the number of pairs exchanged."""
    vecs = [v.copy() for v in vecs]
    count = 0
    for r, s in pairs:
        if d_comm is None or np.linalg.norm(positions[r] - positions[s]) <= d_comm:
            vecs[r][:] = vecs[s][:] = np.minimum(vecs[r], vecs[s])
            count += 1
    return vecs, count


def ascending_pairs(n):
    return [(r, s) for r in range(n) for s in range(r + 1, n)]


def test_share_min_rule():
    vecs = [np.array([0.3, 0.0]), np.array([0.1, 0.2])]
    count, _ = sync_round(vecs, far_apart(2), CommConfig())
    assert count == 1
    assert all(np.array_equal(v, [0.1, 0.0]) for v in vecs)


def test_share_idempotent_on_identical():
    w = np.array([0.2, 0.0, 0.5])
    vecs = [w.copy(), w.copy()]
    sync_round(vecs, far_apart(2), CommConfig())
    assert all(np.array_equal(v, w) for v in vecs)


def test_share_length_mismatch():
    with pytest.raises(InputError):
        sync_round([np.zeros(2), np.zeros(3)], far_apart(2), CommConfig())
    with pytest.raises(InputError):
        sync_round([np.zeros(2), np.zeros(3)], far_apart(2), CommConfig(d_comm=1.0))


def test_three_agent_rounds_reach_global_min(rng):
    # a finite d_comm that holds all three in range
    vecs = [rng.random(10) for _ in range(3)]
    want = np.minimum.reduce(vecs)
    positions = [np.array([float(i), 0.0]) for i in range(3)]
    count, _ = sync_round(vecs, positions, CommConfig(d_comm=5.0))
    assert count == 3
    for v in vecs:
        assert np.array_equal(v, want)


def far_apart(n):
    return [np.array([100.0 * i, 0.0]) for i in range(n)]


def test_sync_round_counts():
    cfg = CommConfig()  # d_comm None = infinite
    vecs = [np.random.default_rng(i).random(5) for i in range(3)]
    count, _ = sync_round(vecs, far_apart(3), cfg)
    assert count == 3
    assert all(np.allclose(v, np.minimum.reduce(vecs)) for v in vecs)


def test_sync_round_out_of_range():
    cfg = CommConfig(d_comm=1.0)
    vecs = [np.array([0.5]), np.array([0.2])]
    before = [v.copy() for v in vecs]
    count, _ = sync_round(vecs, far_apart(2), cfg)
    assert count == 0
    assert all(np.array_equal(a, b) for a, b in zip(vecs, before))


def test_sync_round_single_agent():
    count, _ = sync_round([np.array([0.5])], [np.zeros(2)], CommConfig())
    assert count == 0


def test_sync_round_within_range():
    cfg = CommConfig(d_comm=5.0)
    vecs = [np.array([0.5, 0.1]), np.array([0.2, 0.3])]
    positions = [np.zeros(2), np.array([3.0, 4.0])]  # distance exactly 5
    count, _ = sync_round(vecs, positions, cfg)
    assert count == 1
    assert np.allclose(vecs[0], [0.2, 0.1])
    assert np.allclose(vecs[1], [0.2, 0.1])


def test_sync_round_order_independence(rng):
    vecs = [rng.random(20) for _ in range(4)]
    pos = far_apart(4)
    want, _ = _pairwise_reference(vecs, pos, None, ascending_pairs(4)[::-1])
    sync_round(vecs, pos, CommConfig())
    for a, b in zip(vecs, want):
        assert np.array_equal(a, b)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.sampled_from([None, 0.5, 2.0, 100.0]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_sync_round_matches_pairwise_min_rule(n, d_comm, seed):
    rng = np.random.default_rng(seed)
    vecs = [rng.random(9) for _ in range(n)]
    for v in vecs:
        v[rng.random(9) < 0.3] = 0.0
    positions = [rng.uniform(0.0, 3.0, size=2) for _ in range(n)]
    want, want_count = _pairwise_reference(vecs, positions, d_comm, ascending_pairs(n))
    # min-merges never change the elementwise minimum over all vectors
    want_unclaimed = float(np.minimum.reduce(vecs).sum())
    count, unclaimed = sync_round(vecs, positions, CommConfig(d_comm=d_comm))
    assert count == want_count
    assert unclaimed == want_unclaimed
    if d_comm is None:
        assert count == n * (n - 1) // 2
    for a, b in zip(vecs, want):
        assert a.tobytes() == b.tobytes()


def test_sync_round_monotone_and_idempotent(rng):
    vecs = [rng.random(15) for _ in range(3)]
    before = [v.copy() for v in vecs]
    sync_round(vecs, far_apart(3), CommConfig())
    for v, b in zip(vecs, before):
        assert np.all(v <= b + 1e-15)
    snapshot = [v.copy() for v in vecs]
    sync_round(vecs, far_apart(3), CommConfig())
    for v, s in zip(vecs, snapshot):
        assert np.array_equal(v, s)


def test_sync_round_rejects_an_empty_fleet():
    with pytest.raises(InputError):
        sync_round([], [], CommConfig())


def test_comm_config_validation():
    with pytest.raises(InputError):
        CommConfig(d_comm=-1.0)
