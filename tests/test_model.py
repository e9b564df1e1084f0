import math

import numpy as np
import pytest
from reference import NotAnEquilibriumError, stability_of, would_adopt

from netadopt import (
    EquilibriumReport,
    InvalidParameterError,
    ModelParams,
    SingularParametersError,
    classify_equilibria,
    interior_equilibrium,
)

BISTABLE = ModelParams(1.0, 2.0, 2.5, 2.0, 1.0)


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        ModelParams(2.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        ModelParams(1.0, 2.0, 1.0, -0.1, 1.0)
    with pytest.raises(InvalidParameterError):
        ModelParams(1.0, 2.0, 1.0, 1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        ModelParams(1.0, 2.0, -1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        ModelParams(1.0, math.inf, 1.0, 1.0, 1.0)


def test_params_refuse_an_overflowed_sum():
    # Each input is finite, but u_max - u_min is inf: ccdf(0) would read
    # 0.0, not 0.5.  The widest finite spread is accepted.
    with pytest.raises(InvalidParameterError, match=r"^u_max - u_min overflowed to inf"):
        ModelParams(-1e308, 1e308, 0.0, 0.0, 1.0)
    assert ModelParams(-8e307, 8e307, 0.0, 0.0, 1.0).ccdf(0.0) == 0.5
    # u_min + externality is inf: the interior level would read 0.0, not 1/6.
    with pytest.raises(InvalidParameterError,
                       match=r"^u_min \+ externality overflowed to inf"):
        ModelParams(1e308, 1.7e308, 1.75e308, 1e308, 1.0)
    market = ModelParams(0.5e308, 1.2e308, 1.25e308, 1e308, 1.0)
    assert interior_equilibrium(market.cost, market) == pytest.approx(1 / 6)


def test_uniform_affinity():
    params = ModelParams(1.0, 6.0, 3.0, 0.0, 1.0)
    assert params.ccdf(0.0) == 1.0
    assert params.ccdf(6.0) == 0.0
    assert params.ccdf(3.0) == pytest.approx(0.6, abs=1e-15)
    with pytest.raises(InvalidParameterError):
        ModelParams(2.0, 2.0, 1.0, 1.0, 1.0)


def test_would_adopt_bistable_points():
    # Saturation below the band, the interior crossing, saturation above.
    assert would_adopt(0.25, BISTABLE) == 0.0
    assert would_adopt(0.5, BISTABLE) == pytest.approx(0.5, abs=1e-15)
    assert would_adopt(0.9, BISTABLE) == 1.0


def test_would_adopt_monotone_continuous():
    xs = np.linspace(-0.5, 1.5, 801)
    vals = [would_adopt(float(x), BISTABLE) for x in xs]
    assert all(b - a >= 0 for a, b in zip(vals, vals[1:]))
    gaps = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert max(gaps) <= BISTABLE.band_slope * (xs[1] - xs[0]) + 1e-12


def test_band_slope_lipschitz():
    # Inside the band the map is linear with slope externality / spread.
    lo, hi = BISTABLE.band_low(), BISTABLE.band_high()
    xs = np.linspace(lo + 1e-9, hi - 1e-9, 100)
    for a, b in zip(xs, xs[1:]):
        df = would_adopt(float(b), BISTABLE) - would_adopt(float(a), BISTABLE)
        assert df == pytest.approx(BISTABLE.band_slope * (b - a), abs=1e-12)


def test_interior_equilibrium_values():
    assert interior_equilibrium(5.0, ModelParams(1, 2, 5, 2, 1)) == pytest.approx(3.0, abs=1e-12)
    assert interior_equilibrium(2.5, ModelParams(1, 2, 2.5, 2, 1)) == pytest.approx(0.5, abs=1e-12)
    assert interior_equilibrium(2.5, ModelParams(1, 2, 2.5, 3, 1)) == pytest.approx(0.25, abs=1e-12)


def test_interior_equilibrium_singular():
    with pytest.raises(SingularParametersError):
        interior_equilibrium(1.5, ModelParams(1.0, 2.0, 1.5, 1.0, 1.0))


CASE_ROWS = [
    # (params, case, interior, band_low, band_high)
    (ModelParams(1, 2, 5.0, 2.0, 1), 1, 3.0, 1.5, 2.0),
    (ModelParams(1, 2, 1.75, 0.5, 1), 2, 0.5, -0.5, 1.5),
    (ModelParams(1, 2, 2.5, 2.0, 1), 3, 0.5, 0.25, 0.75),
    (ModelParams(1, 2, 1.0, 0.5, 1), 4, 2.0, -2.0, 0.0),
]


@pytest.mark.parametrize("params,case,interior,band_low,band_high", CASE_ROWS)
def test_classify_regime_table(params, case, interior, band_low, band_high):
    report = classify_equilibria(params)
    assert report.case_id == case
    assert report.interior == pytest.approx(interior, abs=1e-12)
    assert report.band_low == pytest.approx(band_low, abs=1e-12)
    assert report.band_high == pytest.approx(band_high, abs=1e-12)


def test_classify_equilibrium_sets():
    r1 = classify_equilibria(ModelParams(1, 2, 5.0, 2.0, 1))
    assert r1.equilibria == ((0.0, "stable"),)
    r3 = classify_equilibria(ModelParams(1, 2, 2.5, 2.0, 1))
    assert r3.equilibria == ((0.0, "stable"), (0.5, "unstable"), (1.0, "stable"))
    r4 = classify_equilibria(ModelParams(1, 2, 1.0, 0.5, 1))
    assert r4.equilibria == ((1.0, "stable"),)


@pytest.mark.parametrize("cost, expected", [
    # At cost == u_max the interior level is -0.0: it merges into 0.0.
    (2.0, ((0.0, "unstable"), (1.0, "stable"))),
    # One ulp inside the bistable regime, the interior level is a fixed
    # point of its own, between two stable ones.
    (2.0000000000000004,
     ((0.0, "stable"), (2.220446049250313e-16, "unstable"), (1.0, "stable"))),
    (3.9999999999999996,
     ((0.0, "stable"), (0.9999999999999998, "unstable"), (1.0, "stable"))),
    # At cost == u_min + externality the first regime row wins.
    (4.0, ((0.0, "stable"),)),
])
def test_classify_keeps_every_level_at_the_regime_edges(cost, expected):
    report = classify_equilibria(ModelParams(1.0, 2.0, cost, 3.0, 1.0))
    assert repr(report.equilibria) == repr(expected)


def test_classify_no_externality():
    report = classify_equilibria(ModelParams(1, 2, 1.75, 0.0, 1))
    assert report.case_id == 2
    assert report.equilibria == ((0.25, "stable"),)
    assert report.band_low is None and report.band_high is None


def test_classify_residuals_tiny():
    for params, *_ in CASE_ROWS:
        for level, _ in classify_equilibria(params).equilibria:
            assert abs(would_adopt(level, params) - level) <= 1e-12


def test_classify_singular_band():
    # Degenerate band with cost off the tie: strict row decides.
    low = classify_equilibria(ModelParams(1.0, 2.0, 3.0, 1.0, 1.0))
    assert low.case_id == 1 and low.equilibria == ((0.0, "stable"),) and low.interior is None
    high = classify_equilibria(ModelParams(1.0, 2.0, 1.5, 1.0, 1.0))
    assert high.case_id == 4 and high.equilibria == ((1.0, "stable"),) and high.interior is None
    with pytest.raises(SingularParametersError):
        classify_equilibria(ModelParams(1.0, 2.0, 2.0, 1.0, 1.0))


# cost/externality overflows, and so does the interior level, whose
# denominator u_max - (u_min + externality) is about -4e-16.
OVERFLOW = ModelParams(1.2099055496489133, 1.2099055496489144, 1e308,
                       1.5330519898213123e-15, 0.3)


def test_classify_refuses_an_overflowed_level():
    assert interior_equilibrium(OVERFLOW.cost, OVERFLOW) == math.inf  # left unchecked
    with pytest.raises(InvalidParameterError, match="equilibrium levels overflowed to inf"):
        classify_equilibria(OVERFLOW)
    # A subnormal externality overflows the band edges alone.
    with pytest.raises(InvalidParameterError, match="equilibrium levels overflowed to inf"):
        classify_equilibria(ModelParams(1.0, 2.0, 2.5, 5e-324, 1.0))


def test_stability_of():
    assert stability_of(0.5, BISTABLE) == "unstable"
    assert stability_of(0.0, BISTABLE) == "stable"
    assert stability_of(0.25, ModelParams(1, 2, 1.75, 0.0, 1)) == "stable"
    with pytest.raises(NotAnEquilibriumError):
        stability_of(0.3, BISTABLE)


def test_report_levels_properties():
    report = classify_equilibria(BISTABLE)
    assert isinstance(report, EquilibriumReport)
    assert [level for level, _ in report.equilibria] == [0.0, 0.5, 1.0]
    assert [level for level, s in report.equilibria if s == "stable"] == [0.0, 1.0]


def test_case3_band_ordering():
    # In the bistable regime the band brackets the interior point in [0, 1].
    report = classify_equilibria(BISTABLE)
    assert 0.0 <= report.band_low <= report.interior <= report.band_high <= 1.0
