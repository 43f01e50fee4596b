"""Stochastic smoothing optimization on compact embedded submanifolds.

Library layout:

- ``manifolds``: sphere / Stiefel / oblique primitives (ndarray kernels
  for projection, retraction, transport and the point/tangent checks,
  which reject non-finite data, all accepting ``(..., n, p)`` stacks;
  their validating typed shells;
  the blocked sampling the constant estimators share, which retracts
  and checks each sampled pair once; retraction constants),
- ``smoothing``: proximal operators, Moreau envelopes, the exact
  subgradient (normal-cone) membership tests, the smoothed objective
  and its Riemannian gradient,
- ``problems``: stochastic problem container (one full-data evaluator,
  f and grad f from one pass, whose gradient half is derived unless a
  problem supplies a cheaper one) plus two seeded synthetic families and
  empirical constant estimation,
- ``solver_lipschitz``: recursive-momentum solver with adaptive
  stepsize for Lipschitz nonsmooth terms,
- ``solver_indicator``: truncated-momentum quadratic-penalty solver for
  indicator constraints under an error bound condition, and its bounds,
- ``driver``: the one state (with the direction energy) and the one
  iteration both solvers share (the smoothing direction, retraction,
  one-sample momentum recursion, optional truncation and the check of
  each new iterate and momentum), its first sample, the run loop
  (tracing, diagnostics, and the one iterate it keeps for the
  certificate, whose index it draws before the first step by the
  solver's rule over every back-half index, from a stream of its own
  spawned from the run's seed) and the certificate witness, which reads
  no random stream; a solver is one ``driver.Policy`` (first k, schedules,
  certificate draw rule, ``trunc_radius``).  State and the kept iterate are plain ndarrays;
  typed values are built only to check each new iterate and momentum,
  and for x0, its first sample and the certificate's point,
- ``harness``: run records (iterations, certificates, rate fits),
  rate fitting, and CSV/JSON serialization,
- ``checks``: the property batteries behind ``check`` and the executable
  inequality checks (the two sequence lemmas, retraction smoothness),
- ``cli``: the ``manismooth`` command (run / check / report),
- ``seedpool``: ``run --seeds`` on one forked process per usable CPU.
"""

from .harness import Certificate, RateFit, TraceRecord
from .manifolds import (
    ManifoldDescriptor,
    ManifoldPoint,
    RetractionConstants,
    TangentVector,
    estimate_retraction_constants,
    oblique,
    random_point,
    random_tangent,
    retract,
    sphere,
    stiefel,
    tangent_project,
    vector_transport,
)
from .problems import (
    ProblemConstants,
    StochasticProblem,
    estimate_constants,
    make_constrained_sphere,
    make_sparse_pca,
    sample_riemannian_grad,
)
from .smoothing import (
    IndicatorBall,
    IndicatorBox,
    IndicatorSingleton,
    MoreauEval,
    NonsmoothTerm,
    ScaledL1,
    ScaledL2,
    moreau_envelope_inequality_check,
    moreau_eval,
    prox,
    smoothed_objective_grad,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "IndicatorBall",
    "IndicatorBox",
    "IndicatorSingleton",
    "ManifoldDescriptor",
    "ManifoldPoint",
    "MoreauEval",
    "NonsmoothTerm",
    "ProblemConstants",
    "RateFit",
    "RetractionConstants",
    "ScaledL1",
    "ScaledL2",
    "StochasticProblem",
    "TangentVector",
    "TraceRecord",
    "estimate_constants",
    "estimate_retraction_constants",
    "make_constrained_sphere",
    "make_sparse_pca",
    "moreau_envelope_inequality_check",
    "moreau_eval",
    "oblique",
    "prox",
    "random_point",
    "random_tangent",
    "retract",
    "sample_riemannian_grad",
    "smoothed_objective_grad",
    "sphere",
    "stiefel",
    "tangent_project",
    "vector_transport",
]
