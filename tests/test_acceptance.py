"""Acceptance gate.

Each criterion is one test that prints a single `ACCEPTANCE n [...]: PASS`
or `FAIL` line (visible with -s, or in pytest's captured output).  The
tolerances encode how precisely the published reference values and the
contracted behaviours must be reproduced; they are not to be loosened.
"""

import functools
import math
import random
import time

import pytest

from tailbound import (
    MomentInfeasibleError,
    ThresholdTooSmallError,
    bhattacharyya_bound,
    comparison_table,
    construct_distribution,
    even_moment_endpoint,
    feasible_kurtosis_range,
    max_safe_history,
    normal_quantile,
    oracle_moments,
    solve_extreme_point,
    student_t_cdf,
    student_t_quantile,
    zelen_bound,
)

import goldens


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} [{label}]: FAIL")
                raise
            print(f"ACCEPTANCE {number} [{label}]: PASS")

        return wrapper

    return deco


@criterion(1, "extreme-deviation grid, 28 cells within 0.01, under 1s")
def test_criterion_01_deviation_grid():
    start = time.perf_counter()
    for n, cells in goldens.SHOCK_TABLE.items():
        for kappa, want in zip(goldens.KAPPAS, cells):
            assert solve_extreme_point(n, kappa).a == pytest.approx(want, abs=0.01)
    assert time.perf_counter() - start < 1.0


@criterion(2, "Student-t tail factors and quantile round trip")
def test_criterion_02_student_t_factors():
    for dof, row in goldens.STUDENT_T_TAIL_FACTORS.items():
        for horizon, want in row.items():
            p = 1.0 - 1.0 / horizon
            q = student_t_quantile(p, dof)
            assert q == pytest.approx(want, abs=0.01)
            assert abs(student_t_cdf(q, dof) - p) < 1e-9
    for n, want in goldens.SHOCK_AT_KAPPA_6.items():
        assert solve_extreme_point(n, 6.0).a == pytest.approx(want, abs=0.01)
    for n, want in goldens.SHOCK_AT_KAPPA_3.items():
        assert solve_extreme_point(n, 3.0).a == pytest.approx(want, abs=0.01)


@criterion(3, "normal one-in-a-million quantile")
def test_criterion_03_normal_example():
    assert normal_quantile(1.0 - 1e-6) == pytest.approx(
        goldens.NORMAL_ONE_IN_MILLION, abs=0.001
    )


@criterion(4, "fourth-moment thresholds within 0.001 and dominance")
def test_criterion_04_even_moment_thresholds():
    for n, cells in goldens.EVEN_MOMENT_TABLE.items():
        for kappa, want in zip(goldens.KAPPAS, cells):
            t = even_moment_endpoint(n, kappa).threshold_t
            assert t == pytest.approx(want, abs=0.001)
            assert t > solve_extreme_point(n, kappa).a


@criterion(5, "Zelen bound reads one-in-N within 3 at the extreme point")
def test_criterion_05_zelen_sharpness():
    for n in goldens.ZELEN_GRID_N:
        for kappa in goldens.KAPPAS:
            sol = solve_extreme_point(n, kappa)
            ev = zelen_bound(sol.a, sol.theta3, kappa)
            assert ev.one_in_n == pytest.approx(n, abs=3.0)


@criterion(6, "Bhattacharyya grid within 2% relative, not sharp")
def test_criterion_06_bhattacharyya_grid():
    for n, cells in goldens.BHATTACHARYYA_TABLE.items():
        for kappa, want in zip(goldens.KAPPAS, cells):
            sol = solve_extreme_point(n, kappa)
            p = bhattacharyya_bound(sol.a, sol.theta3, kappa).probability
            assert p == pytest.approx(want, rel=0.02)
            if n >= 100_000:
                assert p > 10.0 / n


@criterion(7, "breach horizons of the published 6m factors within 500")
def test_criterion_07_breach_horizons():
    for kappa, target in goldens.BREACH_HORIZONS.items():
        tail = goldens.BLR_GRID["6m"][goldens.KAPPAS.index(kappa)]
        assert max_safe_history(tail, kappa) == pytest.approx(target, abs=500)


@criterion(8, "shape comparison within 0.02, ordered, near-equal")
def test_criterion_08_shape_comparison():
    rows = comparison_table(sorted(goldens.APPENDIX_TABLE), 16.0)
    for row in rows:
        want = goldens.APPENDIX_TABLE[row.base_m]
        stats = (row.bimodal, row.trimodal, row.two_thirds, row.uniform)
        for got, value in zip(stats, want):
            assert got == pytest.approx(value, abs=0.02)
        assert row.bimodal == max(stats)
        assert max(stats) - min(stats) <= 0.015 * max(stats)


@criterion(9, "constructed datasets reproduce their moments to 1e-9")
def test_criterion_09_constructed_dataset_oracle():
    for n in (11, 101, 1001, 10001):
        rng = feasible_kurtosis_range(n)
        for f in (0.02, 0.25, 0.5, 0.75, 1.0):
            kappa = rng.kappa_min + f * (rng.kappa_max - rng.kappa_min)
            sol = solve_extreme_point(n, kappa)
            m = oracle_moments(construct_distribution(n, kappa))
            assert abs(m.mean) <= 1e-9
            assert abs(m.variance - 1.0) <= 1e-9
            assert abs(m.skewness - sol.theta3) <= 1e-9 * max(1.0, abs(sol.theta3))
            assert abs(m.kurtosis - kappa) <= 1e-9 * kappa
            worst = max(construct_distribution(n, kappa)) / math.sqrt(m.variance)
            assert abs(worst - sol.a) <= 1e-9 * sol.a


@criterion(10, "monotonicity, recovery, rejections, exit codes")
def test_criterion_10_property_suite(run_cli, tmp_path):
    rng = random.Random(20260814)

    # a(n, kappa) strictly increases in both arguments: 1000 random pairs
    for _ in range(1000):
        n = rng.randrange(5, 1_000_000)
        kr = feasible_kurtosis_range(n)
        f1 = rng.uniform(1e-6, 0.98)
        f2 = f1 + rng.uniform(0.01, 1.0 - f1 - 0.001)
        k1 = kr.kappa_min + f1 * (kr.kappa_max - kr.kappa_min)
        k2 = kr.kappa_min + f2 * (kr.kappa_max - kr.kappa_min)
        assert solve_extreme_point(n, k1).a < solve_extreme_point(n, k2).a
        assert solve_extreme_point(n, k2).a < solve_extreme_point(n + 1, k2).a

    # Samuelson bound recovered at the top of the feasible range
    for _ in range(50):
        n = rng.randrange(5, 1_000_000)
        a = solve_extreme_point(n, feasible_kurtosis_range(n).kappa_max).a
        assert abs(a - math.sqrt(n - 1)) <= 1e-9

    # out-of-domain evaluations are rejected, not clamped
    with pytest.raises(ThresholdTooSmallError):
        zelen_bound(0.3, 0.0, 3.0)
    with pytest.raises(MomentInfeasibleError):
        zelen_bound(5.0, 1.0, 2.0)
    with pytest.raises(ThresholdTooSmallError):
        bhattacharyya_bound(0.5, 0.0, 3.0)
    with pytest.raises(MomentInfeasibleError):
        bhattacharyya_bound(5.0, 2.0, 5.0)

    # csv output round-trips to the exact computed floats
    res = run_cli("shock-table", "--n", 250, 10_000, "--format", "csv",
                  "--precision", 17)
    assert res.returncode == 0
    for record in res.stdout.splitlines()[1:]:
        fields = record.split(",")
        n = int(fields[0])
        assert float(fields[1]) == math.sqrt(n - 1)
        for kappa, cell in zip(goldens.KAPPAS, fields[2:]):
            assert float(cell) == solve_extreme_point(n, kappa).a

    # exit-code contract, end to end, on the two-year 7-sigma example
    res = run_cli("validate", "--tail-factor", 7, "--history", 500,
                  "--kurtosis", 7)
    assert res.returncode == 2
    assert "FAIL" in res.stdout
