"""Base-shape generation and the grafted-outlier kurtosis search."""

import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import repeat
from operator import mul, sub

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tailbound import (
    KAPPA_TOL,
    SHAPES,
    BracketRangeError,
    ComparisonRow,
    DomainError,
    SearchError,
    TailboundError,
    cli,
    comparison_table,
    feasible_kurtosis_range,
    generate_base,
    oracle_moments,
    search_outlier,
    search_outlier_on_points,
    solve_extreme_point,
)

from tailbound.appendix_search import UNIFORM_MAX_M, _levels, _uniform_sums
from tailbound.extreme_point import _central_sums, _wsum

import goldens


def shape_kurtosis(kind, m):
    return oracle_moments(generate_base(kind, m)).kurtosis


# ---------------------------------------------------------------------------
# base shapes
# ---------------------------------------------------------------------------


def test_base_shape_kurtosis_anchors():
    assert shape_kurtosis("bimodal", 1000) == pytest.approx(1.0, abs=1e-12)
    assert shape_kurtosis("trimodal", 999) == pytest.approx(1.5, abs=1e-12)
    assert shape_kurtosis("two_thirds", 999) == pytest.approx(1.5, abs=1e-12)
    assert shape_kurtosis("uniform", 1000) == pytest.approx(1.8, abs=0.01)


def test_uniform_kurtosis_approaches_limit_from_below():
    coarse = shape_kurtosis("uniform", 50)
    fine = shape_kurtosis("uniform", 5000)
    assert coarse < fine < 1.8


def test_base_shapes_have_documented_sizes_and_values():
    for kind in ("bimodal", "trimodal", "two_thirds", "uniform"):
        pts = generate_base(kind, 601)
        assert len(pts) == 601
        assert min(pts) >= -1.0 and max(pts) == 1.0


def test_remainder_rules_are_fixed():
    bim = generate_base("bimodal", 7)
    assert (bim.count(-1.0), bim.count(1.0)) == (3, 4)

    tri1 = generate_base("trimodal", 7)  # leftover of one goes to the centre
    assert (tri1.count(-1.0), tri1.count(0.0), tri1.count(1.0)) == (2, 3, 2)

    tri2 = generate_base("trimodal", 8)  # leftover pair goes to the outer modes
    assert (tri2.count(-1.0), tri2.count(0.0), tri2.count(1.0)) == (3, 2, 3)

    tt = generate_base("two_thirds", 7)
    assert (tt.count(0.0), tt.count(1.0)) == (5, 2)
    tt = generate_base("two_thirds", 8)
    assert (tt.count(0.0), tt.count(1.0)) == (5, 3)


def test_generate_base_is_deterministic():
    for kind in ("bimodal", "trimodal", "two_thirds", "uniform"):
        assert generate_base(kind, 137) == generate_base(kind, 137)


def test_generate_base_rejections():
    with pytest.raises(DomainError):
        generate_base("gaussian", 100)
    with pytest.raises(DomainError):
        generate_base("bimodal", 3)
    with pytest.raises(DomainError):
        generate_base("bimodal", 10.0)


# ---------------------------------------------------------------------------
# outlier search
# ---------------------------------------------------------------------------


def test_search_hits_target_kurtosis():
    res = search_outlier("uniform", 1001, 16.0)
    assert abs(res.achieved_kappa - 16.0) < KAPPA_TOL
    assert res.a_statistic == pytest.approx(10.99, abs=0.02)


def test_trimodal_large_anchor():
    res = search_outlier("trimodal", 10_001, 16.0)
    assert res.a_statistic == pytest.approx(19.55, abs=0.02)


def test_bimodal_search_matches_closed_form():
    # a bimodal base plus outlier is an affine image of the extremal
    # configuration, so the search is an independent route to the solver
    for n in range(7, 4002, 2):
        for kappa in (7.0, 10.0, 16.0):
            if kappa in feasible_kurtosis_range(n):
                a = solve_extreme_point(n, kappa).a
                assert abs(search_outlier("bimodal", n, kappa).a_statistic - a) <= 4 * math.ulp(a)


def test_published_anchor_row():
    expected = dict(zip(("bimodal", "trimodal", "two_thirds", "uniform"),
                        goldens.APPENDIX_TABLE[500]))
    for kind, value in expected.items():
        res = search_outlier(kind, 501, 16.0)
        assert res.a_statistic == pytest.approx(value, abs=0.02)


def test_outlier_value_sits_above_base_maximum():
    res = search_outlier("two_thirds", 301, 12.0)
    assert res.outlier_value > 1.0


def test_search_is_affine_invariant():
    base = generate_base("uniform", 200)
    reference = search_outlier_on_points(base, 9.0).a_statistic
    for scale, shift in ((2.5, -7.0), (0.003, 123.0), (1e4, 0.0)):
        moved = search_outlier_on_points([scale * v + shift for v in base], 9.0).a_statistic
        assert moved == pytest.approx(reference, abs=1e-8)


def test_target_below_start_is_rejected():
    with pytest.raises(BracketRangeError):
        search_outlier("uniform", 101, 1.5)
    with pytest.raises(BracketRangeError):
        search_outlier("bimodal", 101, 1.0)


def test_target_above_supremum_is_rejected():
    # with 13 points no single outlier can push kurtosis past ~11.08
    with pytest.raises(BracketRangeError):
        search_outlier("bimodal", 13, 100.0)


@pytest.mark.parametrize("kind", SHAPES)
def test_targets_next_to_the_supremum(kind):
    # the kurtosis approaches (m*m - m + 1)/m as the outlier grows and never
    # reaches it; reachability is decided exactly, not by a float tolerance
    for m in (4, 7, 100, 1000):
        target = sup = (m * m - m + 1) / m
        for _ in range(40):
            target = math.nextafter(target, 0.0)
            res = search_outlier(kind, m + 1, target)
            assert abs(res.achieved_kappa - target) <= KAPPA_TOL * max(1.0, target / 1000.0)
        p, q = sup.as_integer_ratio()
        at_or_above = sup if p * m >= q * (m * m - m + 1) else math.nextafter(sup, math.inf)
        for target in (at_or_above, math.nextafter(at_or_above, math.inf), 2.0 * sup, 10**400):
            with pytest.raises(BracketRangeError, match="supremum"):
                search_outlier(kind, m + 1, target)


def test_appendix_at_the_supremum_exits_3(capsys):
    # 3.25 is exactly the supremum for a base of 4 points
    assert cli.main(["appendix", "--n", "4", "--kappa", "3.25"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "supremum 3.25" in err


def test_search_input_validation():
    with pytest.raises(DomainError):
        search_outlier("bimodal", 4, 5.0)
    with pytest.raises(DomainError):
        search_outlier_on_points([0.0, 1.0, 2.0], 5.0)
    for value in (0.0, 0.1, -3.7, 1e6):  # constant bases: zero variance
        with pytest.raises(DomainError):
            search_outlier_on_points([value] * 7, 5.0)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_non_finite_target_is_a_domain_error(target):
    # rejected before the search starts, not blamed on the bisection
    with pytest.raises(DomainError, match="target kurtosis") as exc:
        search_outlier_on_points(generate_base("bimodal", 8), target)
    assert not isinstance(exc.value, SearchError)


def _outcome(search, *args):
    try:
        return search(*args)
    except TailboundError as exc:
        return type(exc)


_search_targets = st.one_of(st.sampled_from([2.5, 7.0, 16.0]),
                            st.floats(min_value=1.0, max_value=40.0))


@settings(max_examples=200)
@given(
    kind=st.sampled_from(["bimodal", "trimodal", "two_thirds"]),
    m=st.integers(min_value=4, max_value=3000),
    kappa=_search_targets,
)
def test_level_search_is_bit_identical_to_the_expanded_list(kind, m, kappa):
    # the levels' sums take each count * term exactly; a rounded product
    # moves the last bit of some field
    want = _outcome(search_outlier_on_points, generate_base(kind, m), kappa)
    got = _outcome(search_outlier, kind, m + 1, kappa)
    assert repr(got) == repr(want)


@settings(max_examples=200)
@given(
    m=st.integers(min_value=4, max_value=3000),
    kappa=st.one_of(_search_targets, st.floats(min_value=1.7, max_value=1.9)),
)
def test_uniform_search_matches_the_expanded_list_to_a_stated_bound(m, kappa):
    # the closed-form sums are the ideal grid's, a few ulps from a pass over
    # the float grid, and the quartic's root carries that gap.  Over 14,000
    # seeded probes at m <= 3000 the outlier and the statistic moved by at
    # most 1.6e-13 relative (the worst next to the starting kurtosis, where
    # the root is least well conditioned) and the kurtosis by 1.2e-15
    want = _outcome(search_outlier_on_points, generate_base("uniform", m), kappa)
    got = _outcome(search_outlier, "uniform", m + 1, kappa)
    if isinstance(want, type):
        assert got is want
        return
    assert isinstance(got, type(want))
    assert got.a_statistic == pytest.approx(want.a_statistic, rel=4e-13, abs=0.0)
    assert got.outlier_value == pytest.approx(want.outlier_value, rel=4e-13, abs=0.0)
    assert got.achieved_kappa == pytest.approx(want.achieved_kappa, rel=4e-15, abs=0.0)


@pytest.mark.parametrize("m", [*range(4, 64), 255, 256, 257, 1001, 4096, 99999])
def test_uniform_sums_are_the_ideal_grids_correctly_rounded(m):
    ideal = [Fraction(2 * i - (m - 1), m - 1) for i in range(m)]
    s2, s4 = _uniform_sums(m)
    assert (s2, s4) == (float(sum(y * y for y in ideal)), float(sum(y**4 for y in ideal)))
    # a pass over the float grid about its mean lands within 3 ulps of them
    # (the most seen over m = 4 to 400, 1001, 4096 and 99999)
    values, _ = _levels("uniform", m)
    e2, _, e4 = _central_sums(values, _wsum(values, None) / m, odd=False)
    assert abs(e2 - s2) <= 3 * math.ulp(s2)
    assert abs(e4 - s4) <= 3 * math.ulp(s4)


_summands = st.one_of(
    st.floats(allow_nan=False, min_value=-1e300, max_value=1e300),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals among them
    st.sampled_from([1e300, -1e300, 2.0**-1074, -(2.0**-1074), 1.0, 1.0 + 2.0**-52]),
)


@settings(max_examples=500)
@given(
    pairs=st.lists(st.tuples(_summands, st.integers(min_value=0, max_value=64)), max_size=10),
    mirror_counts=st.lists(st.integers(min_value=0, max_value=64), max_size=10),
)
def test_wsum_equals_fsum_over_the_repeated_list(pairs, mirror_counts):
    # negated copies of the terms under other counts make the sum cancel
    pairs = pairs + [(-term, count) for (term, _), count in zip(pairs, mirror_counts)]
    terms, counts = [t for t, _ in pairs], [c for _, c in pairs]
    expanded = [t for t, c in pairs for _ in range(c)]
    assert _wsum(terms, counts) == math.fsum(expanded)


def _reference_central_sums(values, centre, counts):
    """The outlier search's centred sums before one kernel served both its
    passes, copied here: a list of deviations, a list of their squares, and
    each sum through _wsum."""
    dev = list(map(sub, values, repeat(centre)))
    sq = list(map(mul, dev, dev))
    return _wsum(sq, counts), _wsum(map(mul, sq, dev), counts), _wsum(map(mul, sq, sq), counts)


# up to 1e70, so that no fourth power of a deviation leaves the float range
_kernel_values = st.one_of(
    st.floats(min_value=-1e70, max_value=1e70),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals among them
)


@settings(max_examples=300)
@given(
    levels=st.lists(st.tuples(_kernel_values, st.integers(min_value=0, max_value=64)),
                    min_size=1, max_size=12),
    centre=st.one_of(st.none(), _kernel_values),
    weighted=st.booleans(),
)
def test_central_sums_without_the_odd_sum_keep_s2_and_s4_bit_for_bit(levels, centre, weighted):
    values = [v for v, _ in levels]
    counts = [c for _, c in levels] if weighted else None
    if centre is None:  # the mean, as both search passes and the moments take it
        centre = _wsum(values, counts) / max(sum(counts) if weighted else len(values), 1)
    s2, s3, s4 = _central_sums(values, centre, counts)
    e2, none, e4 = _central_sums(iter(values), centre, counts, odd=False)  # the report's chain
    assert none is None
    assert (repr(e2), repr(e4)) == (repr(s2), repr(s4))
    assert repr((s2, s3, s4)) == repr(_reference_central_sums(values, centre, counts))


@pytest.mark.parametrize("kind", ["bimodal", "trimodal", "two_thirds"])
def test_level_shapes_search_in_constant_memory(kind):
    search_outlier(kind, 10**6 + 1, 16.0)  # first-call allocations are not the search's
    tracemalloc.start()
    try:
        search_outlier(kind, 10**6 + 1, 16.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_bimodal_at_a_billion_points_matches_closed_form():
    n = 10**9 + 1
    assert search_outlier("bimodal", n, 16.0).a_statistic == pytest.approx(
        solve_extreme_point(n, 16.0).a, rel=1e-9
    )


def test_bimodal_reaches_a_kurtosis_of_a_million():
    # an absolute 1e-9 is below the rounding error of the kurtosis here, so
    # the tolerance is relative above a target of 1000
    n = 10**12 + 1
    res = search_outlier("bimodal", n, 1e6)
    assert res.achieved_kappa == pytest.approx(1e6, rel=1e-12)
    assert res.a_statistic == pytest.approx(solve_extreme_point(n, 1e6).a, rel=1e-9)


def test_bimodal_just_inside_the_float_range_matches_closed_form():
    n = 10**153 + 1
    assert search_outlier("bimodal", n, 16.0).a_statistic == pytest.approx(
        solve_extreme_point(n, 16.0).a, rel=1e-9
    )


@pytest.mark.parametrize("kind, m", [
    ("bimodal", 10**154), ("trimodal", 10**154),
    ("bimodal", 10**200), ("trimodal", 10**200), ("two_thirds", 10**200),
])
def test_level_base_past_the_float_range_is_a_domain_error(kind, m):
    # the kurtosis sums overflow there, so no bisection could reach the target
    with pytest.raises(DomainError, match=f"a base of {m} points"):
        search_outlier(kind, m + 1, 16.0)


@pytest.mark.parametrize("kind", ["bimodal", "trimodal", "two_thirds"])
def test_base_size_past_every_float_is_a_domain_error(kind):
    m = 10**400  # the mean divides by m, which no float holds
    with pytest.raises(DomainError, match=f"^base size above .* is not supported, got {m}$"):
        search_outlier(kind, m + 1, 16.0)


def test_root_past_the_float_range_is_a_domain_error():
    # one ulp below the supremum 3.25 the root sits near 1.8e8 times the
    # base's magnitude; the base is searched scaled to max |x| in [1, 2), so
    # at 1e70 it is found as at 1e60, and only at 1e300 has it no float
    target = math.nextafter(3.25, 0.0)
    base = [-1.0, -0.5, 0.25, 1.0]
    for scale in (1e60, 1e70):
        res = search_outlier_on_points([scale * v for v in base], target)
        assert abs(res.achieved_kappa - target) < KAPPA_TOL
        assert res.a_statistic == 2.0
    with pytest.raises(DomainError, match="past the float range"):
        search_outlier_on_points([1e300 * v for v in base], target)


@pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
def test_non_finite_base_point_is_a_domain_error(point):
    # nan and inf read as zero variance before
    with pytest.raises(DomainError, match="base points must be finite"):
        search_outlier_on_points([0.0, 1.0, 2.0, point], 3.0)


@pytest.mark.parametrize("base", [[0.0, 1.0, 2.0, 1e150], [0.0, 1e-300, 2e-300, 3e-300, 4e-300]],
                         ids=["huge", "tiny"])
def test_point_bases_of_extreme_magnitude_are_searched(base):
    # 1e150 made an inf - inf in the sums; 1e-300 read as zero variance
    res = search_outlier_on_points(base, 3.0)
    assert abs(res.achieved_kappa - 3.0) < KAPPA_TOL
    assert res.outlier_value > base[-1]


@settings(max_examples=200)
@given(
    base=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=4, max_size=12),
    kappa=st.floats(min_value=1.0, max_value=10.0),
    k=st.sampled_from([-1000, -300, 7, 300, 900]),
)
@example(base=[0.0, 0.0, 0.0, 2.225073858507e-311], kappa=2.0, k=7)
def test_point_search_is_invariant_under_a_power_of_two(base, kappa, k):
    scaled = [math.ldexp(x, k) for x in base]
    assume(all(math.ldexp(x, -k) == y for x, y in zip(scaled, base)))  # scaling exact
    want = _outcome(search_outlier_on_points, base, kappa)
    got = _outcome(search_outlier_on_points, scaled, kappa)
    if isinstance(want, type):
        assert got is want
        return
    assert got[::2] == want[::2]  # a_statistic and achieved_kappa
    # both outliers are one search result scaled by a power of two; a
    # subnormal one holds fewer bits, so it is its twin at the larger scale
    # rounded down to its own: exactly where that twin is normal, and to one
    # subnormal step (a double rounding) where both are subnormal
    small, large = (want, got) if k > 0 else (got, want)
    small, large = small.outlier_value, large.outlier_value
    if abs(small) >= sys.float_info.min:
        assert large == math.ldexp(small, abs(k))
    elif abs(large) >= sys.float_info.min:
        assert small == math.ldexp(large, -abs(k))
    else:
        assert abs(small - math.ldexp(large, -abs(k))) <= math.ulp(0.0)


def test_two_thirds_base_at_1e154_still_reaches_the_target():
    # its spread is 2/9 of a bimodal one, so its sums stay in range here
    res = search_outlier("two_thirds", 10**154 + 1, 16.0)
    assert abs(res.achieved_kappa - 16.0) < KAPPA_TOL
    assert math.isfinite(res.a_statistic)


def test_uniform_base_above_the_cap_is_a_domain_error(capsys):
    # the cap is checked before the grid is built, so this costs nothing
    with pytest.raises(DomainError, match="cap"):
        search_outlier("uniform", UNIFORM_MAX_M + 2, 16.0)
    with pytest.raises(DomainError, match="cap"):
        generate_base("uniform", UNIFORM_MAX_M + 1)
    # the level shapes of the row run first, at any size
    assert cli.main(["appendix", "--n", "100000000"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "above the cap" in err


@pytest.mark.parametrize("kind", ["bimodal", "trimodal", "two_thirds"])
def test_generate_base_caps_the_level_shapes(kind):
    # the searches take these at any size, but the list would not fit
    for m in (UNIFORM_MAX_M + 1, 10**9):
        with pytest.raises(DomainError, match="above the cap"):
            generate_base(kind, m)
    assert len(generate_base(kind, UNIFORM_MAX_M)) == UNIFORM_MAX_M


def _direct_kurtosis(base, x):
    return oracle_moments(base + [x]).kurtosis


def test_search_past_a_kurtosis_dip_returns_the_largest_root():
    # from the maximum 0.5 the kurtosis falls before it rises toward the
    # supremum 3.25; the search solves for the root, not along the dip
    base = [0.0, 0.0, 0.5, -1.0]
    assert _direct_kurtosis(base, 1.0) < _direct_kurtosis(base, 0.5) == 2.5
    x = search_outlier_on_points(base, 3.0).outlier_value
    assert abs(_direct_kurtosis(base, x) - 3.0) < KAPPA_TOL
    for beyond in (x + 1e-6, x * 1.01, 2 * x, 1e3 * x):
        assert _direct_kurtosis(base, beyond) > 3.0


@pytest.mark.parametrize("target", [2.3, 2.4])
def test_target_below_the_start_is_reached_past_a_kurtosis_dip(target):
    # the kurtosis is 2.5 with the outlier on the maximum 0.5, dips to about
    # 2.22 and rises again, so these targets have a root above the maximum
    base = [0.0, 0.0, 0.5, -1.0]
    res = search_outlier_on_points(base, target)
    assert res.outlier_value > 0.5
    assert abs(_direct_kurtosis(base, res.outlier_value) - target) <= KAPPA_TOL


@pytest.mark.parametrize("target", [2.2, 1.5])
def test_target_below_the_dip_is_rejected(target):
    with pytest.raises(BracketRangeError, match="starting value 2.5"):
        search_outlier_on_points([0.0, 0.0, 0.5, -1.0], target)


@settings(max_examples=150)
@given(
    points=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=300),
    scale=st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1e4)),
    shift=st.one_of(st.just(0.0), st.floats(min_value=-1e6, max_value=1e6)),
    frac=st.floats(min_value=0.01, max_value=0.99),
)
def test_search_agrees_with_direct_moments(points, scale, shift, frac):
    # the search steps on a one-point moment update; the dataset it returns
    # must hit the target when its kurtosis is summed directly
    assume(max(points) - min(points) >= 1e-3)
    base = [scale * v + shift for v in points]
    # below this spread one ulp of the outlier moves the kurtosis by more
    # than KAPPA_TOL, and the search rightly stops with SearchError
    assume(max(base) - min(base) >= 1e-3 * max(map(abs, base)))
    m = len(base)
    k_start = _direct_kurtosis(base, max(base))
    k_sup = (m * m - m + 1) / m  # limit as the outlier grows without bound
    target = k_start + frac * (k_sup - k_start)
    assume(target - k_start > 1e-6)
    res = search_outlier_on_points(base, target)
    direct = _direct_kurtosis(base, res.outlier_value)
    assert abs(direct - target) < KAPPA_TOL
    assert res.achieved_kappa == pytest.approx(direct, abs=1e-12)


def test_import_and_appendix_leave_numpy_unloaded():
    # dataclasses and inspect cost start-up time on every call; json is
    # needed by json renders only and csv by csv renders and empirical, so
    # each run below has its own interpreter; fractions and decimal would
    # mean a slower exact path crept into a sum
    script = (
        "import runpy, sys\n"
        "import tailbound\n"
        "banned = {'numpy', 'dataclasses', 'inspect', 'fractions', 'decimal'}\n"
        "loaded = (banned | {'json', 'csv'}) & set(sys.modules)\n"
        "assert not loaded, f'import tailbound loaded {loaded}'\n"
        "argv, banned = sys.argv[2:], banned | set(sys.argv[1].split())\n"
        "sys.argv = ['tailbound', *argv]\n"
        "try:\n"
        "    runpy.run_module('tailbound', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, f'tailbound {argv[0]} exited {exc.code}'\n"
        "loaded = banned & set(sys.modules)\n"
        "assert not loaded, f'tailbound {argv[0]} loaded {loaded}'\n"
    )
    runs = {"N,sqrt(N-1),kurtosis=7,": ["json", "shock-table", "--format", "csv"],
            "### outlier deviation by base shape": ["json csv", "appendix", "--n", "500"]}
    for start, argv in runs.items():
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(start)


# ---------------------------------------------------------------------------
# comparison table
# ---------------------------------------------------------------------------


def test_comparison_table_rows():
    # the CLI labels the shape columns with SHAPES, so the fields follow it
    assert ComparisonRow._fields[2:] == SHAPES
    rows = comparison_table([20, 50], target_kappa=16.0)
    assert [r.base_m for r in rows] == [20, 50]
    for row in rows:
        assert isinstance(row, ComparisonRow)
        assert row.samuelson == pytest.approx(math.sqrt(row.base_m))
        assert row.bimodal == pytest.approx(
            solve_extreme_point(row.base_m + 1, 16.0).a, abs=1e-6
        )
        for stat in (row.bimodal, row.trimodal, row.two_thirds, row.uniform):
            assert 0.0 < stat < row.samuelson


def test_comparison_table_propagates_search_errors():
    with pytest.raises(BracketRangeError):
        comparison_table([10], target_kappa=100.0)
