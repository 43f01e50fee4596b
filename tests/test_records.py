"""One equality rule for the package's records.

A record that holds arrays, directly or in its evaluators' closures,
compares and hashes by identity (``eq=False``), so ``==``, ``!=``,
``hash`` and set membership never raise on it; a record of plain values
and functions compares equal by value.
"""

import dataclasses

import numpy as np
import pytest

import manismooth as ms
from manismooth import driver, solver_lipschitz
from manismooth.checks import CheckResult
from manismooth.solver_indicator import IndicatorConfig

X = ms.ManifoldPoint(ms.sphere(3), [1.0, 0.0, 0.0])
PROBLEM = ms.make_constrained_sphere(3, 3, 5, ms.IndicatorBall(np.zeros(3), 1.0), seed=0)

# each call builds a new instance equal field for field to the last one's
BY_IDENTITY = {
    "IndicatorBall": lambda: ms.IndicatorBall(np.zeros(3), 1.0),
    "IndicatorBox": lambda: ms.IndicatorBox(np.zeros(3), np.ones(3)),
    "IndicatorSingleton": lambda: ms.IndicatorSingleton(np.zeros(3)),
    "MoreauEval": lambda: ms.MoreauEval(0.0, np.zeros(3), np.zeros(3)),
    "Certificate": lambda: ms.Certificate(0, X, np.zeros(3), np.zeros(3), 0.0, 0.0, True),
    "StochasticProblem": lambda: dataclasses.replace(PROBLEM, h=ms.IndicatorBall(np.zeros(3), 1.0)),
    "SolverState": lambda: driver.SolverState(0, X.data.copy(), np.zeros((3, 1)), np.random.default_rng(0)),
    "ManifoldPoint": lambda: ms.ManifoldPoint(ms.sphere(3), [1.0, 0.0, 0.0]),
    "TangentVector": lambda: ms.TangentVector(ms.sphere(3), X, [0.0, 1.0, 0.0]),
}
BY_VALUE = {
    "ManifoldDescriptor": lambda: ms.sphere(3),
    "RetractionConstants": lambda: ms.RetractionConstants(1.0, 0.5),
    "ProblemConstants": lambda: ms.ProblemConstants(1.0, 2.0, 3.0, 4.0, 5.0),
    "TraceRecord": lambda: ms.TraceRecord(k=0, mu=1.0, tau=0.1, a=1.0, norm_G=2.0, infeas=0.0),
    "RateFit": lambda: ms.RateFit("norm_G", -0.5, 0.0, 1.0, (1, 10), "raw"),
    "CheckResult": lambda: CheckResult("property", True),
    "Policy": lambda: dataclasses.replace(solver_lipschitz.POLICY),
    "IndicatorConfig": lambda: IndicatorConfig(theta=1.0, zeta=1.0, c_tau=0.01, c_a=0.001, trunc_radius=1.0),
    "ScaledL1": lambda: ms.ScaledL1(0.1, 3),
    "ScaledL2": lambda: ms.ScaledL2(0.1),
}


@pytest.mark.parametrize(
    "make, by_identity",
    [(make, True) for make in BY_IDENTITY.values()] + [(make, False) for make in BY_VALUE.values()],
    ids=[*BY_IDENTITY, *BY_VALUE],
)
def test_records_compare_by_identity_exactly_when_they_hold_arrays(make, by_identity):
    # an array field once made == raise ValueError, and a frozen record's hash raise TypeError
    a, b = make(), make()
    assert a is not b
    if by_identity:
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == object.__hash__(a)
        assert a in {a} and b not in {a} and len({a, b}) == 2
    else:
        assert a == b and not a != b
        if type(a).__hash__ is not None:  # a mutable record (TraceRecord) is unhashable
            assert hash(a) == hash(b) and b in {a}
