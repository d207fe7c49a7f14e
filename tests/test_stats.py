"""Ensemble estimators, characteristic functionals, moment diagnostics."""

import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crystalstat.cli as cli
import crystalstat.stats as stats
from crystalstat import (
    TestField,
    build_nn_kernel,
    characteristic_functional,
    covariance_from_density,
    covariance_products,
    covariance_summary,
    dispersion_grid,
    empirical_covariance,
    empirical_mixing_support,
    evolve_ensemble,
    gaussian_ensemble,
    gaussianity_report,
    gibbs_density,
    limit_density,
    linear_functional_samples,
    nonlinear_transform_sample,
    random_finite_range_kernel,
    stream_ensemble,
    triangular_density,
    white_noise_density,
)
from crystalstat._lattice import offset_cube


def test_empirical_covariance_against_inline_oracle(rng):
    # tiny random ensemble, every number checked by hand-rolled averaging
    S, L = 120, 4
    Y = rng.standard_normal((S, 2, L))
    offsets = [(0,), (1,), (-1,)]
    products = covariance_products(Y, offsets)
    assert products.shape == (S, 3, 2, 2)
    mean, se = covariance_summary(products)
    assert mean.shape == se.shape == (3, 2, 2)

    for k, z in enumerate(offsets):
        per = np.empty((S, 2, 2))
        for s in range(S):
            shifted = np.roll(Y[s], -z[0], axis=1)
            per[s] = sum(np.outer(shifted[:, x], Y[s][:, x]) for x in range(L)) / L
        np.testing.assert_allclose(products[:, k], per, atol=1e-13)
        oracle = per.mean(axis=0)
        np.testing.assert_allclose(mean[k], oracle, atol=1e-13)
        np.testing.assert_allclose(
            se[k], np.sqrt(np.sum((per - oracle) ** 2, axis=0) / (S * (S - 1))), atol=1e-13)
    whole_mean, whole_se = empirical_covariance(Y, offsets)
    np.testing.assert_array_equal(whole_mean, mean)
    np.testing.assert_array_equal(whole_se, se)


@lru_cache(maxsize=None)
def _random_model(d, n, L=16):
    """Grid of a random kernel and its equilibrium density (correlated for n > 1)."""
    grid = dispersion_grid(random_finite_range_kernel(d, n, 1, seed=10 * d + n), L)
    return grid, gibbs_density(1.0, grid)


@settings(max_examples=20, deadline=None)
@given(d=st.sampled_from([1, 2]), n=st.sampled_from([1, 2, 3]),
       count=st.integers(100, 130), seed=st.integers(0, 2**32 - 1),
       transform=st.sampled_from([None, (0.7, 1.3)]), t=st.floats(-5.0, 5.0),
       data=st.data())
def test_stream_ensemble_is_chunk_size_invariant(d, n, count, seed, transform, t, data):
    grid, dens = _random_model(d, n)
    offsets = [(0,) * d, (1,) + (0,) * (d - 1), (-1,) * d]
    rng = np.random.default_rng(seed)
    psi = TestField(sites=[(0,) * d, (2,) + (-1,) * (d - 1)],
                    values=rng.standard_normal((2, 2 * n)))

    def statistics(Y0, Yt):
        return (covariance_products(Y0, offsets), covariance_products(Yt, offsets),
                linear_functional_samples(Y0, psi), linear_functional_samples(Yt, psi))

    Y0 = gaussian_ensemble(dens, count, seed)
    if transform is not None:
        Y0 = nonlinear_transform_sample(Y0, *transform)
    Yt = evolve_ensemble(Y0, grid, t)
    whole = statistics(Y0, Yt)

    sample_bytes = 16 * grid.L**d * 2 * n
    # half a sample's bytes still streams one sample a chunk
    chunk = data.draw(st.integers(2, count - 1), label="chunk")
    for budget in (sample_bytes // 2, sample_bytes, chunk * sample_bytes,
                   count * sample_bytes):
        with mock.patch.object(stats, "CHUNK_BYTES", budget):
            streamed = stream_ensemble(dens, count, seed, grid, t, statistics,
                                       "covariance error bars", transform=transform)
        assert len(streamed) == len(whole)
        for got, want in zip(streamed, whole):
            np.testing.assert_array_equal(got, want)
    for got, want in zip(covariance_summary(streamed[1]), empirical_covariance(Yt, offsets)):
        np.testing.assert_array_equal(got, want)


def test_stream_ensemble_peak_memory_does_not_grow_with_count():
    # clt's geometry and statistics: d=1 L=256 n=1, transformed triangular nu0=2
    d, n, L = 1, 1, 256
    grid = dispersion_grid(build_nn_kernel(d, n, 1.0), L)
    dens = triangular_density(2, d, 1.0, 1.0, L)
    offsets = [(-1,), (0,), (1,)]
    psi = TestField.delta(d, n)

    def statistics(Y0, Yt):
        return (covariance_products(Y0, offsets), linear_functional_samples(Y0, psi),
                linear_functional_samples(Yt, psi))

    def peak_bytes(count):
        tracemalloc.start()
        try:
            kept = stream_ensemble(dens, count, 3, grid, 50.0, statistics,
                                   "moment diagnostics", transform=(1.0, 1.0))
            return tracemalloc.get_traced_memory()[1], sum(a.nbytes for a in kept) / count
        finally:
            tracemalloc.stop()

    # Counts that fill every chunk, so that both peaks come from a full one.
    peak_bytes(1024)  # FFT plans and other one-off caches
    small, per_sample = peak_bytes(1024)
    large, _ = peak_bytes(4096)
    # The kept statistics, held once during the stream and once more while
    # concatenated, are all that may grow with the count.
    assert large - small <= 2 * per_sample * (4096 - 1024) + 2**16
    # 6.3 MB at the 1 MiB chunk budget, 23 MB at a 4 MiB one.
    assert large < 8e6


def test_empirical_covariance_needs_samples():
    with pytest.raises(ValueError, match="100"):
        empirical_covariance(np.zeros((5, 2, 8)), [(0,)])


def test_empirical_covariance_consistent(nn1):
    dens = triangular_density(2, 1, 1.0, 1.0, 64)
    ens = gaussian_ensemble(dens, 1500, seed=7)
    mean, se = empirical_covariance(ens, [(0,), (1,), (2,)])
    exact = covariance_from_density(dens, [(0,), (1,), (2,)])
    assert np.all(np.abs(mean - exact) < 4.0 * se + 1e-12)


@pytest.mark.parametrize("measure, radius", [
    (["--white", "T0=1", "T1=1"], 0),
    (["--triangular", "nu0=2"], 1),
    (["--triangular", "nu0=3"], 2),
    (["--triangular", "nu0=2", "--transform", "a0=1", "a1=1"], 1),
], ids=["white", "triangular-2", "triangular-3", "transformed-triangular-2"])
def test_mixing_support_radius_from_summary(measure, radius):
    # the CLI's measure, streamed at t = 0 and summarized at every offset
    # within radius 3: the estimated radius is the one the measure declares
    args = cli._build_parser().parse_args(
        ["ensemble", "--nn", "d=1", "n=1", "m=1", "--L", "32"] + measure)
    run = cli._Run(cli._effective_config(args, "ensemble"), {}, False, None)
    declared = run.measure()
    offsets = offset_cube(3, 1)
    products, = stream_ensemble(declared.density, 400, 2, run.grid(32), 0.0,
                                lambda Y0, Yt: (covariance_products(Y0, offsets),),
                                "covariance error bars", transform=declared.transform)
    rep = empirical_mixing_support(offsets, *covariance_summary(products))
    assert rep["radius"] == radius == declared.radius
    assert rep["per_radius_significant"] == {r: r <= radius for r in (1, 2, 3)}
    with pytest.raises(ValueError, match="100 samples"):
        covariance_summary(products[:50])


def test_jackknife_se_shrinks_like_root_n():
    dens = white_noise_density(1.0, 1.0, 1, 1, 32)
    _, small = empirical_covariance(gaussian_ensemble(dens, 500, seed=1), [(0,)])
    _, large = empirical_covariance(gaussian_ensemble(dens, 2000, seed=1), [(0,)])
    ratio = small[0, 0, 0] / large[0, 0, 0]
    assert 2.0 * 0.7 < ratio < 2.0 * 1.3


def test_ensemble_validation():
    with pytest.raises(ValueError, match="sample axis"):
        empirical_covariance(np.zeros((8, 2)), [(0,)])
    with pytest.raises(ValueError, match="2n entries"):
        empirical_covariance(np.zeros((200, 3, 8)), [(0,)])
    bad = np.zeros((200, 2, 8))
    bad[17, 1, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        empirical_covariance(bad, [(0,)])
    with pytest.raises(ValueError, match="empty"):
        empirical_covariance(np.zeros((0, 2, 8)), [(0,)])


def test_linear_functional_linearity():
    dens = triangular_density(2, 1, 1.0, 1.0, 32)
    ens = gaussian_ensemble(dens, 50, seed=13)
    one = TestField.delta(1, 1, component=0, site=(2,))
    other = TestField.delta(1, 1, component=1, site=(5,))
    both = TestField(sites=[(2,), (5,)], values=[[1.0, 0.0], [0.0, 1.0]])
    s = linear_functional_samples(ens, both)
    np.testing.assert_allclose(s, ens[:, 0, 2] + ens[:, 1, 5], atol=1e-12)
    np.testing.assert_allclose(
        s,
        linear_functional_samples(ens, one) + linear_functional_samples(ens, other),
        atol=1e-12,
    )


def test_linear_functional_window_check():
    dens = white_noise_density(1.0, 1.0, 1, 1, 32)
    ens = gaussian_ensemble(dens, 10, seed=0)
    inside = TestField.delta(1, 1, component=0, site=(-16,))
    linear_functional_samples(ens, inside)
    outside = TestField.delta(1, 1, component=0, site=(40,))
    with pytest.raises(ValueError, match="window"):
        linear_functional_samples(ens, outside)


def test_characteristic_functional_gaussian_case():
    # compare the t = 0 ensemble against its own density, where the
    # Gaussian prediction is exact up to Monte Carlo noise
    dens = white_noise_density(1.0, 1.0, 1, 1, 64)
    ens = gaussian_ensemble(dens, 8000, seed=21)
    psi = TestField.delta(1, 1, component=1)
    samples = linear_functional_samples(ens, psi)
    rep = characteristic_functional(samples, dens, psi)
    assert rep["count"] == 8000
    for row in rep["sweep"]:
        assert row["gap"] < 4.0 * row["se"] + 1e-3
    assert rep["sweep"][0]["lam"] == 0.25
    assert abs(rep["theory_at_1"] - np.exp(-0.5 * rep["Q"])) < 1e-12


def test_characteristic_functional_needs_samples(grid64):
    lim = limit_density(white_noise_density(1.0, 1.0, 1, 1, 64), grid64)
    psi = TestField.delta(1, 1)
    with pytest.raises(ValueError, match="1000"):
        characteristic_functional(np.zeros(100), lim, psi)


def test_gaussianity_report_calibration(rng):
    normal = rng.standard_normal(20000)
    rep = gaussianity_report(normal)
    assert abs(rep["z_skewness"]) < 4 and abs(rep["z_kurtosis"]) < 4
    assert not rep["degenerate"]
    flat = rng.uniform(-1, 1, 20000)
    rep2 = gaussianity_report(flat)
    assert rep2["z_kurtosis"] < -20  # uniform is strongly platykurtic
    rep3 = gaussianity_report(np.full(2000, 3.14))
    assert rep3["degenerate"]
    with pytest.raises(ValueError):
        gaussianity_report(np.zeros(10))
