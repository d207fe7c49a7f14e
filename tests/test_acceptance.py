"""Acceptance gates, one test per numbered criterion.

Each test prints exactly one ACCEPTANCE line (run with -s to see them all)
and then asserts the stated tolerances.  Two gates are red on purpose and
stay red: criterion 3's outside-cone bound (the cutoff propagator's sup
beyond 1.5 vmax t is 7e-2 at t=10 and 20, far above 1e-8, and the plain
propagator's own exponential tail there is 9e-3 at t=10; both rows are
printed alongside) and criterion 5's literal 3-sigma match
against equilibrium (the finite-time transport gap at t=50 still exceeds
Monte Carlo error; the estimator itself is shown unbiased against the
transported covariance).  The diagnostics printed before each failing
assert carry the measured margins.
"""

import time

import numpy as np
import pytest

from crystalstat.covariance import (
    TestField,
    covariance_from_density,
    evolve_density,
    gibbs_density,
    limit_density,
    mixing_integral,
)
from crystalstat.dynamics import (
    evolve_ensemble,
    green_cutoff,
    green_function,
    hamiltonian,
    reference_evolve_ode,
)
from crystalstat.fields import (
    SpectralDensity,
    density_from_covariance,
    gaussian_ensemble,
    nonlinear_transform_sample,
    triangular_density,
    white_noise_density,
)
from crystalstat.kernel import (
    InteractionKernel,
    build_nn_kernel,
    random_finite_range_kernel,
)
from crystalstat.spectral import check_E4_E5, dispersion_grid
from crystalstat.stats import (
    characteristic_functional,
    empirical_covariance,
    gaussianity_report,
    linear_functional_samples,
)

CHAIN = build_nn_kernel(1, 1, 1.0)
AXIS_OFFSETS = [(0,), (1,), (2,)]


def announce(num, label, ok, detail):
    print(f"\nACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def minimal_image(L):
    return ((np.arange(L) + L // 2) % L) - L // 2


def fit_slope(times, values):
    pts = [(t, v) for t, v in zip(times, values) if t > 0 and v > 0]
    x, y = np.log([p[0] for p in pts]), np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


def test_criterion_01_propagator_vs_rk4():
    start = time.perf_counter()
    L = 32
    Y = np.zeros((1, 2, L))
    Y[0, 0, 0] = 1.0
    fast = evolve_ensemble(Y, dispersion_grid(CHAIN, L), 5.0)
    slow = reference_evolve_ode(Y, CHAIN, 5.0, dt=0.002)
    gap = float(np.max(np.abs(fast - slow)))
    elapsed = time.perf_counter() - start
    ok = gap < 1e-6 and elapsed < 5.0
    announce(1, "propagator vs RK4", ok, f"max gap {gap:.3e}, {elapsed:.2f} s")
    assert gap < 1e-6
    assert elapsed < 5.0


def test_criterion_02_energy_conservation():
    rng = np.random.default_rng(7)
    cases = [(CHAIN, 64), (build_nn_kernel(2, 1, 1.0), 32),
             (random_finite_range_kernel(1, 2, 2, seed=5), 64)]
    worst = 0.0
    for kernel, L in cases:
        grid = dispersion_grid(kernel, L)
        shape = (L,) * kernel.d + (kernel.n,)
        # u then v per sample, in the order the draws have always been made,
        # moved to the component-major ensemble layout
        Y = np.moveaxis(np.stack([np.concatenate([rng.standard_normal(shape),
                                                  rng.standard_normal(shape)], axis=-1)
                                  for _ in range(10)]), -1, 1)
        h0 = hamiltonian(Y, kernel)
        for t in (30.0, 100.0):
            ht = hamiltonian(evolve_ensemble(Y, grid, t), kernel)
            worst = max(worst, float(np.max(np.abs(ht - h0) / (1.0 + h0))))
    ok = worst <= 1e-8
    announce(2, "energy conservation", ok, f"worst relative drift {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_03_green_function_decay():
    start = time.perf_counter()
    L = 4096
    times = [10.0, 20.0, 40.0, 80.0]
    grid = dispersion_grid(CHAIN, L)
    cutoff = green_cutoff(grid, 0.3)
    vmax = grid.max_group_velocity()
    x = np.abs(minimal_image(L))
    sups, cut_tails, plain_tails = [], [], []
    for t in times:
        outside = x >= 1.5 * vmax * t
        Gc = green_function(grid, t, cutoff)
        flat = np.max(np.abs(Gc), axis=(-2, -1))
        sups.append(float(flat.max()))
        cut_tails.append(float(flat[outside].max()))
        Gp = green_function(grid, t)
        plain_tails.append(float(np.max(np.abs(Gp), axis=(-2, -1))[outside].max()))
    slope = fit_slope(times, sups)
    tail = max(cut_tails)
    elapsed = time.perf_counter() - start

    L2 = 512
    chain2 = build_nn_kernel(2, 1, 1.0)
    grid2 = dispersion_grid(chain2, L2)
    cutoff2 = green_cutoff(grid2, 0.3)
    times2 = [10.0, 20.0, 40.0, 80.0, 160.0]
    sups2 = {t: float(np.max(np.abs(green_function(grid2, t, cutoff2))))
             for t in times2}
    slope2_late = fit_slope([40.0, 80.0, 160.0],
                            [sups2[t] for t in (40.0, 80.0, 160.0)])
    slope2_early = fit_slope(times2[:4], [sups2[t] for t in times2[:4]])

    print(f"\n  d=1 sup|G_cut| at t={times}: "
          + ", ".join(f"{s:.3e}" for s in sups))
    print(f"  d=1 outside-cone sup, cutoff propagator: "
          + ", ".join(f"{s:.3e}" for s in cut_tails))
    print(f"  d=1 outside-cone sup, plain propagator:  "
          + ", ".join(f"{s:.3e}" for s in plain_tails))
    print(f"  d=2 slope over t in {{40,80,160}}: {slope2_late:.4f} "
          f"(over {{10,20,40,80}}: {slope2_early:.4f})")
    ok = (abs(slope + 0.5) <= 0.1 and tail < 1e-8
          and abs(slope2_late + 1.0) <= 0.15 and elapsed < 120.0)
    announce(3, "propagator decay rates", ok,
             f"d=1 slope {slope:.4f}, outside-cone sup {tail:.3e} vs 1e-8, "
             f"d=2 slope {slope2_late:.4f}, {elapsed:.2f} s")
    assert abs(slope + 0.5) <= 0.1
    assert elapsed < 120.0
    assert abs(slope2_late + 1.0) <= 0.15
    # red on purpose: the cutoff propagator's outside-cone sup is 7e-2 at
    # eps=0.3, and the plain propagator rows above show that the true tail
    # just outside 1.5 vmax t is itself above the bound at the early times
    assert tail < 1e-8


def test_criterion_04_covariance_convergence():
    L = 1024
    grid = dispersion_grid(CHAIN, L)
    q0 = triangular_density(2, 1, 1.0, 1.0, L)
    qinf = limit_density(q0, grid)
    tab_inf = covariance_from_density(qinf, AXIS_OFFSETS)
    scale = float(np.linalg.norm(tab_inf[0]))
    times = np.arange(50.0, 100.5, 5.0)
    # norms[k][m]: the gap at times[k] and offset m
    norms = [[np.linalg.norm(qt - qi) for qt, qi in zip(
        covariance_from_density(evolve_density(q0, grid, t), AXIS_OFFSETS), tab_inf)]
        for t in times]
    worst = max(float(np.mean(gaps)) for gaps in zip(*norms)) / scale

    grid2 = dispersion_grid(CHAIN, 2 * L)
    qinf2 = limit_density(triangular_density(2, 1, 1.0, 1.0, 2 * L), grid2)
    tab2 = covariance_from_density(qinf2, AXIS_OFFSETS)
    drift = max(float(np.linalg.norm(q2 - qi)) for q2, qi in zip(tab2, tab_inf)) / scale
    ok = worst < 0.05 and drift < 0.01
    announce(4, "covariance convergence", ok,
             f"time-averaged gap {100 * worst:.4f}% of {scale:.4f}, "
             f"doubling drift {100 * drift:.2e}%")
    assert worst < 0.05
    assert drift < 0.01


def test_criterion_05_gibbs_limit():
    start = time.perf_counter()
    L, N, t = 256, 10000, 50.0
    grid = dispersion_grid(CHAIN, L)
    q0 = white_noise_density(0.0, 1.0, 1, 1, L)
    states = gaussian_ensemble(q0, N, 0)
    evolved = evolve_ensemble(states, grid, t)
    mean, err = empirical_covariance(evolved, AXIS_OFFSETS)
    tab_gibbs = covariance_from_density(gibbs_density(1.0, grid), AXIS_OFFSETS)
    tab_t = covariance_from_density(evolve_density(q0, grid, t), AXIS_OFFSETS)

    print("\n  z  entry  empirical   equilibrium  gap       3*jack_se  z_transported")
    gaps, bounds = [], []
    for k, z in enumerate(AXIS_OFFSETS):
        for a, name in ((0, "q00"), (1, "q11")):
            emp = float(mean[k, a, a])
            se = float(err[k, a, a])
            th = float(tab_gibbs[k, a, a])
            tht = float(tab_t[k, a, a])
            gaps.append(abs(emp - th))
            bounds.append(3.0 * se)
            print(f"  {z[0]}  {name}   {emp: .6f}  {th: .6f}  "
                  f"{abs(emp - th):.6f}  {3 * se:.6f}  {(emp - tht) / se: .2f}")

    # diagnostic: averaging the estimate over t in [50, 100] shrinks the
    # deterministic transport residue but does not remove it
    acc = [mean]
    rolling = evolved
    for _ in range(10):
        rolling = evolve_ensemble(rolling, grid, 5.0)
        acc.append(empirical_covariance(rolling, AXIS_OFFSETS)[0])
    print("  time-averaged estimate over t in [50,100]:")
    for k, (z, avg) in enumerate(zip(AXIS_OFFSETS, np.mean(acc, axis=0))):
        for a, name in ((0, "q00"), (1, "q11")):
            th = float(tab_gibbs[k, a, a])
            print(f"  {z[0]}  {name}   gap {abs(float(avg[a, a]) - th):.6f}")

    elapsed = time.perf_counter() - start
    worst = max(g - b for g, b in zip(gaps, bounds))
    ok = worst <= 0.0 and elapsed < 600.0
    announce(5, "relaxation to equilibrium", ok,
             f"{sum(g > b for g, b in zip(gaps, bounds))}/6 entries outside "
             f"3 sigma, worst excess {worst:.4f}, {elapsed:.1f} s")
    assert elapsed < 600.0
    # red on purpose: at t=50 the transported covariance still differs from
    # equilibrium by more than the 1e-2-scale Monte Carlo error of 1e4
    # samples; the z_transported column shows the estimator is unbiased
    # against the covariance actually reached at t=50
    assert worst <= 0.0


def random_scalar_density(L, seed):
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(L) / L

    def even_positive():
        a = rng.normal(scale=0.4, size=2)
        vals = a[0] * np.cos(theta) + a[1] * np.cos(2 * theta)
        return 0.6 + np.abs(a).sum() + vals

    q00 = even_positive()
    q11 = even_positive()
    c = rng.normal(scale=0.4, size=2)
    q01 = c[0] * np.cos(theta) + 1j * c[1] * np.sin(theta)
    cap = 0.5 * np.sqrt(q00.min() * q11.min())
    q01 *= cap / max(float(np.abs(q01).max()), 1e-12)
    matrix = np.empty((L, 2, 2), dtype=complex)
    matrix[:, 0, 0] = q00
    matrix[:, 1, 1] = q11
    matrix[:, 0, 1] = q01
    matrix[:, 1, 0] = np.conj(q01)
    return SpectralDensity(L=L, d=1, n=1, matrix=matrix)


def test_criterion_06_scalar_closed_form():
    L = 128
    grid = dispersion_grid(CHAIN, L)
    w2 = grid.omega[..., 0] ** 2
    worst = 0.0
    for seed in (0, 1, 2):
        dens = random_scalar_density(L, seed)
        qinf = limit_density(dens, grid)
        q00 = dens.matrix[:, 0, 0]
        q11 = dens.matrix[:, 1, 1]
        q01 = dens.matrix[:, 0, 1]
        q10 = dens.matrix[:, 1, 0]
        expect = np.empty_like(dens.matrix)
        expect[:, 0, 0] = 0.5 * (q00 + q11 / w2)
        expect[:, 1, 1] = 0.5 * (q11 + w2 * q00)
        expect[:, 0, 1] = 0.5 * (q01 - q10)
        expect[:, 1, 0] = 0.5 * (q10 - q01)
        worst = max(worst, float(np.max(np.abs(qinf.matrix - expect))))
    ok = worst <= 1e-10
    announce(6, "scalar limit closed form", ok, f"worst nodewise gap {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_07_limit_invariance():
    L = 256
    grid = dispersion_grid(CHAIN, L)
    qinf = limit_density(triangular_density(2, 1, 1.0, 1.0, L), grid)
    worst_frac = 1.0
    for t in (1.0, 7.3, 50.0):
        qt = evolve_density(qinf, grid, t)
        node_gap = np.max(np.abs(qt.matrix - qinf.matrix), axis=(-2, -1))
        worst_frac = min(worst_frac, float(np.mean(node_gap <= 1e-8)))
    ok = worst_frac >= 0.99
    announce(7, "limit-measure invariance", ok,
             f"invariant-node fraction >= {worst_frac:.4f}")
    assert worst_frac >= 0.99


def test_criterion_08_central_limit():
    start = time.perf_counter()
    L, N, t = 256, 10000, 50.0
    grid = dispersion_grid(CHAIN, L)
    base = triangular_density(2, 1, 1.0, 1.0, L)
    states = nonlinear_transform_sample(gaussian_ensemble(base, N, 0), 1.0, 1.0)
    offsets = [(-1,), (0,), (1,)]
    mean, _ = empirical_covariance(states, offsets)
    q0 = density_from_covariance(dict(zip(offsets, mean)), L, provenance="empirical")
    qinf = limit_density(q0, grid)
    evolved = evolve_ensemble(states, grid, t)

    results = []
    for comp, name in ((0, "u"), (1, "v")):
        psi = TestField.delta(1, 1, component=comp)
        g0 = gaussianity_report(linear_functional_samples(states, psi))
        samples_t = linear_functional_samples(evolved, psi)
        gt = gaussianity_report(samples_t)
        char = characteristic_functional(samples_t, qinf, psi)
        sweep_ok = all(r["gap"] <= 3.0 * r["se"] + 0.02 for r in char["sweep"])
        print(f"\n  {name}: start kurtosis z={g0['z_kurtosis']:.1f}, "
              f"t=50 skew z={gt['z_skewness']:.2f} kurt z={gt['z_kurtosis']:.2f}")
        for r in char["sweep"]:
            print(f"     lambda={r['lam']:.2f}: gap {r['gap']:.5f} "
                  f"vs {3 * r['se'] + 0.02:.5f}")
        results.append((g0["z_kurtosis"], gt["z_skewness"], gt["z_kurtosis"],
                        sweep_ok))
    elapsed = time.perf_counter() - start
    ok = all(k0 < -4 and abs(s) < 4 and abs(k) < 4 and sw
             for k0, s, k, sw in results)
    announce(8, "Gaussianization of transformed data", ok,
             f"start kurtosis z {results[0][0]:.1f}/{results[1][0]:.1f}, "
             f"all sweeps within 3 sigma + 0.02, {elapsed:.1f} s")
    for k0, s, k, sw in results:
        assert k0 < -4.0
        assert abs(s) < 4.0 and abs(k) < 4.0
        assert sw


def test_criterion_09_mixing_decay():
    L = 4096
    grid = dispersion_grid(CHAIN, L)
    qinf = limit_density(white_noise_density(1.0, 1.0, 1, 1, L), grid)
    times = [0.0, 10.0, 40.0, 160.0]
    details = []
    for comp, name in ((0, "u"), (1, "v")):
        psi = TestField.delta(1, 1, component=comp)
        vals = [abs(mixing_integral(qinf, grid, psi, psi, t)) for t in times]
        slope = fit_slope(times, vals)
        ratio = vals[-1] / vals[0]
        details.append((name, slope, ratio))
    ok = all(s <= -0.4 and r < 0.05 for _, s, r in details)
    announce(9, "mixing decay of the limit measure", ok,
             ", ".join(f"{n}: slope {s:.3f} ratio {100 * r:.2f}%"
                       for n, s, r in details))
    for _, slope, ratio in details:
        assert slope <= -0.4
        assert ratio < 0.05


def test_criterion_10_genericity_of_regularity():
    failing_seeds = []
    for seed in range(20):
        kernel = random_finite_range_kernel(1, 2, 2, seed)
        grid = dispersion_grid(kernel, 64)
        reports = check_E4_E5(grid)
        if any(r.verdict == "fail" for r in reports):
            failing_seeds.append(seed)
    flat = InteractionKernel(1, 2, {(0,): [[4.0, 0.0], [0.0, 4.0]]})
    flat_grid = dispersion_grid(flat, 64)
    e4 = next(r for r in check_E4_E5(flat_grid)
              if r.condition == "E4")
    ok = not failing_seeds and e4.verdict == "fail" and len(e4.witnesses) > 0
    announce(10, "genericity of regularity checks", ok,
             f"failing random seeds {failing_seeds}, constant-branch E4 "
             f"{e4.verdict} with {len(e4.witnesses)} witnesses")
    assert failing_seeds == []
    assert e4.verdict == "fail"
    assert e4.witnesses


def test_criterion_11_critical_fraction_scaling():
    fractions = []
    for L in (256, 512, 1024):
        critical = dispersion_grid(CHAIN, L).critical
        fractions.append(float(critical.sum()) / critical.size)
    ratios = [fractions[i + 1] / fractions[i] for i in range(2)]
    ok = all(0.35 <= r <= 0.65 for r in ratios)
    announce(11, "critical-set fraction halves with resolution", ok,
             f"fractions {fractions}, ratios {[round(r, 3) for r in ratios]}")
    for r in ratios:
        assert 0.35 <= r <= 0.65
