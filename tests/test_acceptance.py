"""Acceptance suite: one test per criterion E1-E11, each printing a PASS/FAIL
line with its headline numbers.

E3 is known to fail: the log-variance slope of the sum-log-sum model carries an
irreducible (log n)^2 finite-size factor on the mandated grid (the variance
lower bound n^d is satisfied, but the stated slope window presumes the variance
sits at the lower-bound order).  The test states the criterion faithfully and
reports the measured slope.
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from pairfunc.barcodes import (
    Bar,
    build_merge_forest,
    elder_lifetimes,
    inversion_count,
    outside_pair_scores,
    shield_membership,
)
from pairfunc.experiment import (
    ExperimentConfig,
    run_experiment,
    stabilization_survey,
    write_outputs,
)
from pairfunc.fixtures import (
    POISSON_TREE_FIGURE_LIFETIMES,
    SNOWFLAKE_KERNEL,
    poisson_tree_figure_configuration,
    sample_shielded_configuration,
    snowflake_configuration,
)
from pairfunc.functionals import empirical_stabilization_radius
from pairfunc.geometry import Window
from pairfunc.graphs import (
    DirectedRandom,
    FixedRadius,
    Localized,
    MaxKernel,
    build_edges,
    crossing_number,
    crossing_number_direct,
)
from pairfunc.models import get_model
from pairfunc.process import MarkModel, PointConfiguration, derive_rng, insert_point
from pairfunc.stats import (
    binomial_lower_tail_bound,
    poisson_upper_tail_bound,
    variance_scaling_fit,
    wasserstein1_to_standard_normal,
)

from conftest import (
    barcode_from_bars,
    inversion_count_quadratic,
    random_configuration,
    w1_quadrature_oracle,
)

SEED = 20260810


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def test_e1_crossing_oracle_equivalence():
    rng = derive_rng(SEED, 1)
    kernels = [FixedRadius(), DirectedRandom(), MaxKernel(), Localized(4)]
    window = Window(n=4.0, dim=3)
    t0 = time.perf_counter()
    mismatches = 0
    for trial in range(300):
        kernel = kernels[trial % 4]
        count = int(rng.integers(2, 81))
        cfg = random_configuration(rng, window, count, MarkModel.uniform_radius(0.0, 1.2))
        g = build_edges(cfg, kernel)
        if crossing_number(g) != crossing_number_direct(g):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed <= 60.0
    report("E1", ok, f"mismatches={mismatches} elapsed={elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed <= 60.0


def test_e2_variance_scaling_double_sum():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        model="inversion-uniform", n_grid=(8.0, 12.0, 16.0, 24.0, 32.0),
        reps=500, seed=SEED, jobs=1,
    )
    record = run_experiment(config)
    elapsed = time.perf_counter() - t0
    slope = record.scaling.slope
    ok = 3.3 <= slope <= 4.7 and elapsed <= 300.0
    report("E2", ok, f"slope={slope:.3f} (target [3.3, 4.7]) elapsed={elapsed:.1f}s")
    assert 3.3 <= slope <= 4.7
    assert elapsed <= 300.0


def test_e3_variance_scaling_sum_log_sum():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        model="treelog-uniform", n_grid=(8.0, 12.0, 16.0, 24.0, 32.0),
        reps=500, seed=SEED, jobs=1,
    )
    record = run_experiment(config)
    elapsed = time.perf_counter() - t0
    slope = record.scaling.slope
    ok = 1.3 <= slope <= 2.7 and elapsed <= 300.0
    report(
        "E3", ok,
        f"slope={slope:.3f} (target [1.3, 2.7]; known finite-size excess from the "
        f"(log n)^2 factor in V[sum-log-sum]) elapsed={elapsed:.1f}s",
    )
    assert elapsed <= 300.0
    assert 1.3 <= slope <= 2.7, (
        f"measured slope {slope:.3f} exceeds the stated window; the variance "
        "lower-bound order n^d is satisfied but the actual variance grows like "
        "n^d (log n)^2 on this grid (see decisions ledger)"
    )


def test_e4_clt_shrinkage():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        model="inversion-uniform", n_grid=(8.0, 32.0), reps=2000, seed=SEED, jobs=1
    )
    record = run_experiment(config)
    elapsed = time.perf_counter() - t0
    w1_small = record.summaries[0].w1
    w1_large = record.summaries[1].w1
    ks_p = sps.kstest(record.summaries[1].standardized, "norm").pvalue
    ok = w1_large < w1_small and w1_large <= 0.08 and ks_p >= 0.01 and elapsed <= 600.0
    report(
        "E4", ok,
        f"w1(n=8)={w1_small:.4f} w1(n=32)={w1_large:.4f} ks_p={ks_p:.3f} elapsed={elapsed:.1f}s",
    )
    assert w1_large < w1_small
    assert w1_large <= 0.08
    assert ks_p >= 0.01
    assert elapsed <= 600.0


def test_e5_product_sum_normality():
    config = ExperimentConfig(
        model="treelog-uniform", n_grid=(32.0,), reps=2000, seed=SEED, jobs=1
    )
    record = run_experiment(config)
    # Delta-method standardization of the product sum, computed in log space:
    # (Pi - e^m) / (e^m s) expands to (L - m)/s at first order, with L the
    # sum-log-sum sample, m/s its mean and standard deviation
    values = np.array([r.value for r in record.rows])
    mean = values.mean()
    sd = values.std(ddof=1)
    standardized = np.sort((values - mean) / sd)
    w1 = wasserstein1_to_standard_normal(standardized)
    ks_p = sps.kstest(standardized, "norm").pvalue
    ok = w1 <= 0.08 and ks_p >= 0.01
    report("E5", ok, f"w1={w1:.4f} ks_p={ks_p:.3f} sd(sum-log-sum)={sd:.1f}")
    assert w1 <= 0.08
    assert ks_p >= 0.01


def test_e6_figure_fixtures():
    tree_cfg = poisson_tree_figure_configuration()
    lifetimes = {
        b.owner: b.lifetime for b in elder_lifetimes(build_merge_forest(tree_cfg)).bars
    }
    tree_ok = all(
        lifetimes[owner] == expected
        for owner, expected in POISSON_TREE_FIGURE_LIFETIMES.items()
    )
    snow = build_edges(snowflake_configuration(), SNOWFLAKE_KERNEL)
    crossings = crossing_number_direct(snow)
    ok = tree_ok and crossings == 3
    finite = sorted(v for v in lifetimes.values() if 0 < v < math.inf)
    report("E6", ok, f"tree lifetimes={{{finite[0]:g}, {finite[1]:g}, inf}} crossings={crossings}")
    assert tree_ok
    assert crossings == 3
    assert crossing_number(snow) == 3


def test_e7_inversion_oracle():
    rng = derive_rng(SEED, 7)
    bad = 0
    for _ in range(500):
        count = int(rng.integers(0, 201))
        bars = barcode_from_bars(
            Bar(i, float(rng.uniform(0, 30)), float(rng.uniform(0, 1.25)))
            for i in range(count)
        )
        ordered = inversion_count(bars)
        brute = inversion_count_quadratic(bars)
        unordered = sum(
            1
            for i, x in enumerate(bars.bars)
            for y in bars.bars[i + 1:]
            if x.admissible and y.admissible
            and (x.birth - y.birth) * ((x.birth + x.lifetime) - (y.birth + y.lifetime)) < 0
        )
        if ordered != brute or ordered != 2 * unordered:
            bad += 1
    report("E7", bad == 0, f"mismatches={bad}/500")
    assert bad == 0


def test_e8_stabilization():
    survey_fixed = stabilization_survey("crossing-fixed", 4.0, 200, SEED, d=3)
    all_one = set(survey_fixed.radii) == {1}
    survey_tree = stabilization_survey("inversion-tree", 24.0, 2000, SEED, d=2)
    slope, r2 = survey_tree.slope, survey_tree.r_squared
    ok = all_one and slope is not None and slope < -0.1 and r2 >= 0.8
    report(
        "E8", ok,
        f"fixed radii={{{min(survey_fixed.radii)}..{max(survey_fixed.radii)}}} "
        f"tree survival slope={slope:.3f} r2={r2:.3f}",
    )
    assert all_one
    assert slope < -0.1
    assert r2 >= 0.8


def test_e9_shield_property():
    window = Window(n=24.0, dim=2)
    center = (12.0, 12.0)
    violations = 0
    members = 0
    for s in range(100):
        cfg = sample_shielded_configuration(window, center, seed=(SEED + s))
        if not shield_membership(cfg, center):
            continue
        members += 1
        ids_before, before = outside_pair_scores(cfg, center)
        rng = derive_rng(SEED, 9, s)
        for _ in range(20):
            x = tuple(rng.uniform(10.0, 14.0, 2))
            cfg2 = insert_point(cfg, x)
            ids_after, after = outside_pair_scores(cfg2, center)
            if ids_after != ids_before or not np.array_equal(before, after):
                violations += 1
    ok = members == 100 and violations == 0
    report("E9", ok, f"member configurations={members}/100 changed score sets={violations}")
    assert members == 100
    assert violations == 0


def test_e10_estimator_correctness():
    rng = derive_rng(SEED, 10)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 400))
        sample = np.clip(rng.normal(0.0, 1.0, m), -7.5, 7.5)
        exact = wasserstein1_to_standard_normal(sample)
        oracle = w1_quadrature_oracle(sample)
        worst = max(worst, abs(exact - oracle))
    fit = variance_scaling_fit([8, 16, 32, 64], [n**3.5 for n in (8.0, 16.0, 32.0, 64.0)])
    fit_err = abs(fit.slope - 3.5)
    binom_bound = binomial_lower_tail_bound(100, 0.5)
    binom_freq = float(np.mean(rng.binomial(100, 0.5, 100_000) < 25))
    pois_bound = poisson_upper_tail_bound(10.0)
    pois_freq = float(np.mean(rng.poisson(10.0, 1_000_000) > 80))
    ok = (
        worst <= 1e-6
        and fit_err <= 1e-9
        and binom_freq <= binom_bound
        and pois_freq <= pois_bound
        and abs(binom_bound - 4.66e-4) / 4.66e-4 < 2e-3
        and abs(pois_bound - 5.52e-3) / 5.52e-3 < 2e-3
    )
    report(
        "E10", ok,
        f"w1 oracle gap={worst:.2e} fit gap={fit_err:.2e} "
        f"binom {binom_freq:.1e}<={binom_bound:.2e} pois {pois_freq:.1e}<={pois_bound:.2e}",
    )
    assert worst <= 1e-6
    assert fit_err <= 1e-9
    assert binom_freq <= binom_bound
    assert pois_freq <= pois_bound


def test_e11_byte_determinism(tmp_path):
    config_a = ExperimentConfig(
        model="treelog-uniform", n_grid=(6.0, 8.0), reps=8, seed=SEED, jobs=1
    )
    config_b = ExperimentConfig(
        model="treelog-uniform", n_grid=(6.0, 8.0), reps=8, seed=SEED, jobs=2
    )
    files = {}
    for tag, config in (("a1", config_a), ("a2", config_a), ("b", config_b)):
        out = tmp_path / tag
        write_outputs(run_experiment(config), out)
        files[tag] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    rerun_identical = files["a1"] == files["a2"]
    parallel_identical = files["a1"] == files["b"]
    ok = rerun_identical and parallel_identical
    report("E11", ok, f"rerun={rerun_identical} parallel-vs-serial={parallel_identical}")
    assert rerun_identical
    assert parallel_identical
