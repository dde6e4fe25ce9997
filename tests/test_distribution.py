"""Reference cloud construction, CSV loading, and mass bookkeeping."""

import dataclasses

import numpy as np
import pytest

from dpcover.distribution import (MixtureSpec, SampleCloud, agent_alpha,
                                  load_points, sample_mixture)
from dpcover.errors import InputError


def single_gaussian(n, seed=0, cov=None, mean=(5.0, 5.0),
                    domain=(0.0, 10.0, 0.0, 10.0)):
    cov = cov if cov is not None else [[1.0, 0.0], [0.0, 1.0]]
    return MixtureSpec(components=((mean, cov, 1.0),),
                       n_samples=n, seed=seed, domain=domain)


# -------------------------------------------------------------------- sampling

def test_sampler_deterministic():
    a = sample_mixture(single_gaussian(100, seed=4))
    b = sample_mixture(single_gaussian(100, seed=4))
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.weights, b.weights)


def test_sampler_seed_changes_cloud():
    a = sample_mixture(single_gaussian(100, seed=4))
    b = sample_mixture(single_gaussian(100, seed=5))
    assert not np.array_equal(a.positions, b.positions)


def test_sampler_count_and_uniform_weights():
    cloud = sample_mixture(single_gaussian(77))
    assert cloud.n_points == 77
    assert np.allclose(cloud.weights, 1.0 / 77)
    assert abs(cloud.weights.sum() - 1.0) <= 1e-12


def test_sampler_respects_domain():
    spec = single_gaussian(500, cov=[[25.0, 0.0], [0.0, 25.0]],
                           domain=(3.0, 7.0, 2.0, 8.0))
    cloud = sample_mixture(spec)
    assert np.all(cloud.positions[:, 0] >= 3.0)
    assert np.all(cloud.positions[:, 0] <= 7.0)
    assert np.all(cloud.positions[:, 1] >= 2.0)
    assert np.all(cloud.positions[:, 1] <= 8.0)


def test_sampler_gives_up_when_domain_misses_mass():
    # the domain lies 45 standard deviations from the only component
    spec = single_gaussian(5, domain=(50.0, 51.0, 50.0, 51.0))
    with pytest.raises(InputError, match="almost none of the mixture"):
        sample_mixture(spec)


def test_sampler_near_degenerate_cov_collapses_to_mean():
    spec = single_gaussian(50, cov=[[1e-12, 0.0], [0.0, 1e-12]])
    cloud = sample_mixture(spec)
    assert np.allclose(cloud.positions, [5.0, 5.0], atol=1e-4)


def test_singular_cov_rejected():
    with pytest.raises(InputError):
        single_gaussian(10, cov=[[1.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize("domain", [(5.0, 5.0, 0.0, 10.0), (0.0, 10.0, 0.0, np.nan)])
def test_empty_or_nan_domain_rejected(domain):
    """A NaN bound compares false both ways: it is no domain, and is
    rejected before sampling spends its draw budget."""
    with pytest.raises(InputError, match="empty domain"):
        single_gaussian(10, domain=domain)


def test_mixing_weights_must_sum_to_one():
    with pytest.raises(InputError):
        MixtureSpec(components=(((0.0, 0.0), [[1.0, 0.0], [0.0, 1.0]], 0.4),),
                    n_samples=10, seed=0, domain=(-5.0, 5.0, -5.0, 5.0))


def test_sampler_statistics():
    # 1e4 samples from one Gaussian: empirical mean within 5 sigma / sqrt(n)
    spec = single_gaussian(10_000, seed=9, domain=(-100.0, 100.0, -100.0, 100.0),
                           mean=(1.0, -2.0))
    cloud = sample_mixture(spec)
    tol = 5.0 / np.sqrt(10_000)
    assert np.all(np.abs(cloud.positions.mean(axis=0) - [1.0, -2.0]) < tol)



@pytest.mark.parametrize("cov", [[[4.0, 0.0], [0.0, 4.0]], [[4.0, 1.0], [1.0, 3.0]]])
def test_spec_rebuilt_by_replace_keeps_its_covariances(cov):
    """A spec rebuilt from its own fields holds the covariances it was
    given, not their factors, and samples with them."""
    wide = (-100.0, 100.0, -100.0, 100.0)
    spec = single_gaussian(20_000, seed=3, domain=wide, mean=(0.0, 0.0), cov=cov)
    again = dataclasses.replace(spec, seed=4)
    assert np.array_equal(again.components[0][1], cov)
    assert np.array_equal(sample_mixture(dataclasses.replace(again, seed=3)).positions,
                          sample_mixture(spec).positions)
    spread = np.cov(sample_mixture(again).positions.T)
    assert np.allclose(spread, cov, atol=0.2)


def test_default_scale_cloud():
    spec = MixtureSpec(
        components=(((30.0, 30.0), [[40.0, 0.0], [0.0, 40.0]], 0.5),
                    ((70.0, 60.0), [[30.0, 5.0], [5.0, 30.0]], 0.5)),
        n_samples=5975, seed=1, domain=(0.0, 100.0, 0.0, 100.0))
    cloud = sample_mixture(spec)
    assert cloud.n_points == 5975


# --------------------------------------------------------------------- loading

def test_load_points_uniform_weights(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    cloud = load_points(f)
    assert np.allclose(cloud.weights, 1.0 / 3)
    assert np.allclose(cloud.positions[1], [3.0, 4.0])


def test_load_points_normalizes_weights(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("x,y,weight\n0,0,2\n1,0,2\n2,0,4\n")
    cloud = load_points(f)
    assert np.allclose(cloud.weights, [0.25, 0.25, 0.5])


def test_load_points_negative_weight_rejected(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("0,0,1\n1,0,-1\n")
    with pytest.raises(InputError):
        load_points(f)


def test_load_points_empty_file_rejected(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("")
    with pytest.raises(InputError):
        load_points(f)


def test_load_points_nonfinite_rejected(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("0,0\nnan,1\n")
    with pytest.raises(InputError):
        load_points(f)


@pytest.mark.parametrize("text", ["1.0,,0.5\n2,2\n", "0,0\n,1,2\n", "0,0,1\n1,,2\n"])
def test_load_points_rejects_an_empty_cell_before_the_last_value(tmp_path, text):
    f = tmp_path / "pts.csv"
    f.write_text(text)
    with pytest.raises(InputError, match="empty cell"):
        load_points(f)


def test_load_points_accepts_trailing_empty_cells_and_blank_lines(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("x,y,\n\n1.0,2.0,\n,,\n3.0,4.0\n")
    cloud = load_points(f)
    assert np.array_equal(cloud.positions, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("text", ["1.0,abc\n2,2\n3,3\n", "x,y\nx,y\n2,2\n3,3\n",
                                  "x,1\n2,2\n3,3\n"],
                         ids=["typo-in-first-row", "second-header", "header-with-a-number"])
def test_load_points_takes_only_an_all_text_first_row_as_header(tmp_path, text):
    f = tmp_path / "pts.csv"
    f.write_text(text)
    with pytest.raises(InputError, match="non-numeric row"):
        load_points(f)


@pytest.mark.parametrize("text", ["1.0,2.0\n3.5,-4.0\n", "x,y,w\n1.0,2.0,3\n3.5,-4.0,1\n"],
                         ids=["headerless", "header-and-weights"])
def test_load_points_skips_a_byte_order_mark(tmp_path, text):
    # spreadsheets save "CSV UTF-8" with a leading U+FEFF, which was read
    # as part of the first cell: non-numeric row ['\ufeff1.0', '2.0']
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    want, got = load_points(plain), load_points(marked)
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.weights, want.weights)


# ------------------------------------------------------------------------ mass

def test_agent_alpha_table_values():
    assert agent_alpha([1500, 1500, 1500]) == pytest.approx(1.0 / 4500)
    assert agent_alpha([3000, 3000, 3000]) == pytest.approx(1.0 / 9000)
    assert agent_alpha([10]) == pytest.approx(0.1)


def test_agent_alpha_empty_rejected():
    with pytest.raises(InputError):
        agent_alpha([])


@pytest.mark.parametrize("build, name", [
    (lambda: single_gaussian(2.5), "n_samples"),
    (lambda: single_gaussian(True), "n_samples"),
    (lambda: single_gaussian(10, seed=-1), "seed"),
    (lambda: single_gaussian(10, seed=2.5), "seed"),
    (lambda: agent_alpha([True]), "budget"),
    (lambda: agent_alpha([2.0]), "budget"),
], ids=["n_samples-fraction", "n_samples-bool", "seed-negative", "seed-fraction",
        "budget-bool", "budget-float"])
def test_counts_must_be_integers(build, name):
    """A count is an int or numpy integer, never a bool or a float that
    happens to be whole, and is rejected with InputError, not a raw
    TypeError or ValueError from the sampler."""
    with pytest.raises(InputError, match=f"{name} must be an integer"):
        build()


def test_counts_take_numpy_integers():
    cloud = sample_mixture(single_gaussian(np.int64(50), seed=np.int64(4)))
    assert np.array_equal(cloud.positions,
                          sample_mixture(single_gaussian(50, seed=4)).positions)
    assert agent_alpha([np.int64(1500), np.int32(3000)]) == 1.0 / 4500


def test_cloud_invariants():
    with pytest.raises(InputError):
        SampleCloud(positions=np.zeros((2, 2)), weights=np.array([0.5, 0.6]))
    with pytest.raises(InputError):
        SampleCloud(positions=np.zeros((2, 2)), weights=np.array([1.1, -0.1]))

