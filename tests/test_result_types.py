"""Construction, immutability and validation of the public result types."""

import pytest

from tailbound import (
    BoundEvaluation,
    ComparisonRow,
    DomainError,
    EmpiricalVerdict,
    ExtremePointSolution,
    KurtosisRange,
    ModelVerdict,
    OutlierSearchResult,
    ReturnSeries,
    TailFactorQuery,
)
from tailbound.output import OutputDocument

_VERDICT = dict(tail_factor=13.115, history_n=500, kappa=7.0, required_a=7.464,
                margin=5.651, passed=True, max_safe_history=4874)
_SERIES = dict(values=(1.0, 2.0, 3.0, 4.0, 5.0), n=5, mean=3.0, sigma=2.0 ** 0.5,
               kurtosis=1.7, max_abs_deviation_in_sigmas=2.0 ** 0.5)

#: every public result type, with keyword arguments that construct it
TYPES = [
    (KurtosisRange, dict(n=500, kappa_min=500 / 499, kappa_max=248503 / 499)),
    (ExtremePointSolution, dict(n=500, kappa=7.0, g_value=-2993.0, a=7.464,
                                b_squared=0.89, theta3=0.79, samuelson_bound=22.338)),
    (OutlierSearchResult, dict(a_statistic=10.99, outlier_value=3.1, achieved_kappa=16.0)),
    (ComparisonRow, dict(base_m=500, samuelson=22.36, bimodal=12.3, trimodal=12.0,
                         two_thirds=11.9, uniform=11.0)),
    (ModelVerdict, _VERDICT),
    (ReturnSeries, _SERIES),
    (EmpiricalVerdict, dict(verdict=ModelVerdict(**_VERDICT), series=ReturnSeries(**_SERIES),
                            historical_breach=False, kurtosis_infeasible=False)),
    (TailFactorQuery, dict(horizon_n=250.0, model="student-t", dof=5)),
    (BoundEvaluation, dict(method="zelen", threshold_t=7.464, probability=0.01)),
    (OutputDocument, dict(title="t", columns=["a", "b"], rows=[[1, 2.0]], notes=["n"])),
]


@pytest.mark.parametrize("cls, kwargs", TYPES, ids=[cls.__name__ for cls, _ in TYPES])
def test_keyword_construction_and_immutability(cls, kwargs):
    obj = cls(**kwargs)
    assert {name: getattr(obj, name) for name in kwargs} == kwargs
    if cls is OutputDocument:  # a document is filled in place, as before
        obj.notes = ["m"]
        assert obj.notes == ["m"]
        assert cls("t", ["a"], [[1]]).notes == []
        return
    assert cls(*kwargs.values()) == obj
    assert tuple(obj) == tuple(kwargs.values())
    with pytest.raises(AttributeError):
        setattr(obj, next(iter(kwargs)), None)
    with pytest.raises(AttributeError):
        obj.extra = None


_BAD = [
    (TailFactorQuery, dict(horizon_n=250.0, model="normal"), dict(horizon_n=1.0),
     "horizon must be a finite number of at least 2, got 1.0"),
    (TailFactorQuery, dict(horizon_n=250.0, model="normal"), dict(horizon_n=float("inf")),
     "horizon must be a finite number of at least 2, got inf"),
    (TailFactorQuery, dict(horizon_n=250.0, model="normal"), dict(model="cauchy"),
     "model must be 'normal' or 'student-t', got 'cauchy'"),
    (TailFactorQuery, dict(horizon_n=250.0, model="normal"), dict(model="student-t"),
     "student-t tail factors need degrees of freedom"),
    (TailFactorQuery, dict(horizon_n=250.0, model="normal"), dict(dof=5),
     "dof is only meaningful for the student-t model"),
    (OutputDocument, dict(title="t", columns=["a"], rows=[[1]]), dict(columns=[]),
     "a document needs at least one column"),
    (OutputDocument, dict(title="t", columns=["a"], rows=[[1]]), dict(rows=[[1], [1, 2]]),
     "row 1 has 2 cells, expected 1"),
    (TailFactorQuery, dict(horizon_n=250.0, model="normal"), dict(horizon_n=10**400),
     f"horizon must be a finite number of at least 2, got {10**400!r}"),
    (TailFactorQuery, dict(horizon_n=250.0, model="student-t", dof=5), dict(dof=float("nan")),
     "degrees of freedom must be an integer >= 1, got nan"),
    (TailFactorQuery, dict(horizon_n=250.0, model="student-t", dof=5), dict(dof=10**6 + 1),
     "degrees of freedom above 1000000 is not supported, got 1000001"),
]


@pytest.mark.parametrize("cls, good, change, message", _BAD)
def test_validating_types_keep_their_messages(cls, good, change, message):
    with pytest.raises(DomainError) as exc:
        cls(**{**good, **change})
    assert str(exc.value) == message
    if cls is not OutputDocument:  # _replace checks as construction does
        with pytest.raises(DomainError) as exc:
            cls(**good)._replace(**change)
        assert str(exc.value) == message
