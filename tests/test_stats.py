"""Ensemble estimators, characteristic functionals, moment diagnostics."""

import os
import subprocess
import sys
import threading
import tracemalloc
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crystalstat.cli as cli
import crystalstat.stats as stats
from crystalstat import (
    GaussianSampler,
    TestField,
    build_nn_kernel,
    characteristic_functional,
    covariance_from_density,
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
    offset_products,
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
    products = offset_products(offsets)(Y)
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
        return (offset_products(offsets)(Y0), offset_products(offsets)(Yt),
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
        return (offset_products(offsets)(Y0), linear_functional_samples(Y0, psi),
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


def chunk_excess(density, grid, t, count, offsets, psi, transform):
    """Per chunk from the second on, the traced peak within the chunk above the
    traced memory at its start, streaming clt's statistics (products at the
    offsets, the functional of Y0 and of Yt).  A chunk starts where the
    previous one's statistics return."""
    products_at = offset_products(offsets)
    marks = []

    def statistics(Y0, Yt):
        kept = (products_at(Y0), linear_functional_samples(Y0, psi),
                linear_functional_samples(Yt, psi))
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return kept

    tracemalloc.start()
    try:
        stream_ensemble(density, count, 3, grid, t, statistics, "covariance error bars",
                        transform=transform)
    finally:
        tracemalloc.stop()
    return [peak - start for (start, _), (_, peak) in zip(marks, marks[1:])]


def test_stream_ensemble_allocates_no_chunk_sized_array_after_the_first_chunk():
    # clt's geometry (d=1 L=256 n=1, transformed triangular nu0=2), and a d=2
    # n=2 random kernel whose eigenbasis is not the identity, each with a
    # short last chunk.  One chunk's real arrays take 512 KiB in both.  The
    # stream that allocated its arrays chunk by chunk exceeded its start by
    # 3.7 MB (clt) and 5.3 MB (d=2) per chunk; what is left are transient
    # buffers of a ufunc that broadcasts (64 KiB) and of an isfinite mask.
    L = 256
    clt = (triangular_density(2, 1, 1.0, 1.0, L), dispersion_grid(build_nn_kernel(1, 1, 1.0), L),
           50.0, 4 * 128 + 16, [(-1,), (0,), (1,)], TestField.delta(1, 1), (1.0, 1.0))
    grid = dispersion_grid(random_finite_range_kernel(2, 2, 1, seed=3), 16)
    assert not grid.identity_basis
    psi = TestField(sites=[(0, 0), (2, -1)], values=np.arange(8.0).reshape(2, 4))
    random = (gibbs_density(1.0, grid), grid, 2.5, 3 * 64 + 10, [(0, 0), (1, 0), (-1, -1)],
              psi, (0.7, 1.3))
    for density, grid, t, count, offsets, psi, transform in (clt, random):
        size = stats.CHUNK_BYTES // (16 * grid.L**grid.d * 2 * grid.n)
        real_bytes = size * 2 * grid.n * grid.L**grid.d * 8
        excess = chunk_excess(density, grid, t, count, offsets, psi, transform)
        assert len(excess) == -(-count // size) - 1
        assert max(excess) < real_bytes / 4, excess


def test_stream_ensemble_copies_the_columns_that_share_its_arrays():
    # Y0 and Yt are overwritten by the next chunk: a column that is one of
    # them, or a view of one, is kept as a copy
    grid, dens, budget, minimum = _chunks_of(3)
    t = 2.5

    def statistics(Y0, Yt):
        return (Y0, Yt[:, 1], Yt[:, :1], np.zeros(len(Y0)))

    with budget, minimum:
        streamed = stream_ensemble(dens, 10, 7, grid, t, statistics, "covariance error bars")
    want = sequential_stream(dens, 10, 7, grid, t, statistics, 3, None)
    for got, expected in zip(streamed, want):
        assert got.tobytes() == expected.tobytes()


def test_offset_products_reuse_their_arrays_across_shapes():
    # a stream's chunks, then a shorter chunk, a larger ensemble and another
    # grid: each call gives the bits of a products callable made for it alone
    rng = np.random.default_rng(8)
    products_at = offset_products([(0,), (1,), (-2,), (9,)])
    for shape in ((7, 2, 12), (7, 2, 12), (3, 2, 12), (9, 2, 12), (5, 4, 12), (2, 2, 10)):
        Y = rng.standard_normal(shape)
        want = offset_products([(0,), (1,), (-2,), (9,)])(Y)
        assert products_at(Y).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match=r"^offset \(0,\) has wrong dimension$"):
        offset_products([(0,)])(rng.standard_normal((2, 2, 4, 4)))


def sequential_stream(density, count, seed, grid, t, statistics, size, transform):
    """stream_ensemble's chunks drawn, coloured, evolved and reduced one after
    another on this thread, each by the public sampler."""
    parts = []
    for start in range(0, count, size):
        Y0 = gaussian_ensemble(density, min(size, count - start), seed, start)
        if transform is not None:
            Y0 = nonlinear_transform_sample(Y0, *transform)
        parts.append(statistics(Y0, evolve_ensemble(Y0, grid, t)))
    return tuple(np.concatenate(column) for column in zip(*parts))


@pytest.mark.parametrize("transform", [None, (0.7, 1.3)])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [1, 2])
def test_stream_ensemble_matches_a_sequential_chunk_loop(d, n, transform):
    grid, dens = _random_model(d, n)
    count, seed, t = 10, 41, 2.5
    sample_bytes = 16 * grid.L**d * 2 * n
    for size in (1, 3, count):
        with mock.patch.object(stats, "CHUNK_BYTES", size * sample_bytes), \
                mock.patch.dict(stats.MIN_SAMPLES, {"covariance error bars": 1}):
            streamed = stream_ensemble(dens, count, seed, grid, t, lambda A, B: (A, B),
                                       "covariance error bars", transform=transform)
        want = sequential_stream(dens, count, seed, grid, t, lambda A, B: (A, B), size,
                                 transform)
        for got, expected in zip(streamed, want):
            assert got.tobytes() == expected.tobytes()


def _chunks_of(samples, d=1):
    """A d-dimensional model, with patches that stream it in chunks of this
    many samples and lower the sample-count gate to one sample."""
    grid, dens = _random_model(d, 1)
    budget = mock.patch.object(stats, "CHUNK_BYTES", samples * 16 * grid.L**d * 2)
    minimum = mock.patch.dict(stats.MIN_SAMPLES, {"covariance error bars": 1})
    return grid, dens, budget, minimum


def test_concurrent_streams_keep_the_bits():
    # four streams at once, each with its own worker, on two cores: a draw
    # into the buffer still being coloured changed the bits of 11 of 12 such
    # streams at the default switch interval (3 of 12 at 1 us)
    grid, dens, budget, minimum = _chunks_of(1, d=2)

    def statistics(Y0, Yt):
        return (Y0, Yt)

    want = sequential_stream(dens, 30, 5, grid, 1.0, statistics, 1, (0.7, 1.3))
    results = [None] * 4

    def run(i):
        results[i] = stream_ensemble(dens, 30, 5, grid, 1.0, statistics,
                                     "covariance error bars", transform=(0.7, 1.3))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
    with budget, minimum:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    for streamed in results:
        assert streamed is not None
        for got, expected in zip(streamed, want):
            assert got.tobytes() == expected.tobytes()


def test_stream_ensemble_leaves_no_thread_behind():
    grid, dens, budget, minimum = _chunks_of(3)
    before = threading.active_count()
    calls = []

    def failing(Y0, Yt):
        # raised on the second chunk, while the worker draws the third
        calls.append(len(Y0))
        if len(calls) == 2:
            raise RuntimeError("statistics failed")
        return (Y0,)

    with budget, minimum:
        kept, = stream_ensemble(dens, 10, 0, grid, 1.0, lambda A, B: (A,),
                                "covariance error bars")
        assert len(kept) == 10
        assert threading.active_count() == before
        with pytest.raises(RuntimeError, match="^statistics failed$"):
            stream_ensemble(dens, 10, 0, grid, 1.0, failing, "covariance error bars")
        assert calls == [3, 3]
        assert threading.active_count() == before
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            stream_ensemble(dens, 10, -1, grid, 1.0, lambda A, B: (A,),
                            "covariance error bars")
        assert threading.active_count() == before


@pytest.mark.parametrize("seed", [-1, 2.0])
def test_worker_failure_is_the_samplers(seed):
    grid, dens, budget, minimum = _chunks_of(3)
    with pytest.raises(Exception) as direct:
        gaussian_ensemble(dens, 3, seed)
    with budget, minimum, pytest.raises(Exception) as streamed:
        stream_ensemble(dens, 10, seed, grid, 1.0, lambda A, B: (A,),
                        "covariance error bars")
    assert type(streamed.value) is type(direct.value)
    assert str(streamed.value) == str(direct.value)


def test_worker_failure_on_a_later_chunk_is_raised_after_the_current_one():
    grid, dens, budget, minimum = _chunks_of(3)
    draws, reduced = GaussianSampler.white_noise, []

    def third_draw_fails(sampler, indices, out=None):
        if indices.start == 6:
            raise ValueError("draw failed")
        return draws(sampler, indices, out=out)

    def statistics(Y0, Yt):
        reduced.append(len(Y0))
        return (Y0,)

    before = threading.active_count()
    with budget, minimum, mock.patch.object(GaussianSampler, "white_noise", third_draw_fails), \
            pytest.raises(ValueError, match="^draw failed$"):
        stream_ensemble(dens, 10, 0, grid, 1.0, statistics, "covariance error bars")
    # the third chunk's draw ran while the second was reduced
    assert reduced == [3, 3]
    assert threading.active_count() == before


def test_public_calls_stay_on_the_calling_thread(monkeypatch):
    # The benchmark's span tracer (bench/child.py) wraps every public function
    # and public-class constructor of the package in one span stack that all
    # threads share, rebinding each function in every package module that
    # holds it.  So the stream's worker may call none of them: it draws
    # through GaussianSampler.white_noise, a method, which is not wrapped.
    grid, dens, budget, minimum = _chunks_of(3)
    psi = TestField.delta(1, 1)
    here, traced, drawn = threading.get_ident(), [], []
    modules = {name: module for name, module in sys.modules.items()
               if name == "crystalstat" or name.startswith("crystalstat.")}

    def wrap(name, fn):
        def wrapped(*args, **kwargs):
            traced.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapped

    seen = set()
    for module_name, module in sorted(modules.items()):
        for public in getattr(module, "__all__", ()):
            obj = getattr(module, public, None)
            if id(obj) in seen or getattr(obj, "__module__", None) != module_name:
                continue  # re-exported; wrapped where it is defined
            seen.add(id(obj))
            if isinstance(obj, type):
                if "__init__" in vars(obj):
                    monkeypatch.setattr(obj, "__init__", wrap(public, obj.__init__))
            elif callable(obj):
                wrapped = wrap(public, obj)
                for holder in modules.values():
                    for attr, value in list(vars(holder).items()):
                        if value is obj:
                            monkeypatch.setattr(holder, attr, wrapped)
    white_noise = GaussianSampler.white_noise

    def recorded(sampler, indices, out=None):
        drawn.append(threading.get_ident())
        return white_noise(sampler, indices, out=out)

    monkeypatch.setattr(GaussianSampler, "white_noise", recorded)
    with budget, minimum:
        kept, = stats.stream_ensemble(
            dens, 10, 0, grid, 1.0, lambda Y0, Yt: (stats.linear_functional_samples(Yt, psi),),
            "covariance error bars", transform=(0.7, 1.3))
    assert len(kept) == 10
    names = {name for name, _ in traced}
    assert {"stream_ensemble", "GaussianSampler", "Propagator", "nonlinear_transform_sample",
            "linear_functional_samples"} <= names
    assert [name for name, thread in traced if thread != here] == []
    # four chunks of at most three samples, drawn ahead on the worker
    assert len(drawn) == 4 and any(thread != here for thread in drawn)


PROBE_NUMPY_MA = """
import sys
from crystalstat import (TestField, build_nn_kernel, dispersion_grid, gaussian_ensemble,
                         linear_functional_samples, stream_ensemble, white_noise_density)
density = white_noise_density(1.0, 1.0, 1, 1, 16)
psi = TestField.delta(1, 1)
stream_ensemble(density, 100, 0, dispersion_grid(build_nn_kernel(1, 1, 1.0), 16), 1.0,
                lambda Y0, Yt: (linear_functional_samples(Yt, psi),),
                "covariance error bars")
gaussian_ensemble(density, 2, 0, start_index=2**32 - 1)  # spawn keys of one and two words
print("numpy.ma" in sys.modules)
"""


def test_sampling_leaves_numpy_ma_unloaded():
    # np.unique without return_inverse imports numpy.ma (numpy 2.4), which
    # cost each sampling run about 13 ms; the seed hash takes its distinct
    # key lengths without it.  A fresh interpreter runs the stream, since
    # this one may have loaded numpy.ma already
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(stats.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE_NUMPY_MA], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


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
                                lambda Y0, Yt: (offset_products(offsets)(Y0),),
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
