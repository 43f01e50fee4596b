"""Metamorphic oracles for the iteration itself, on the Stiefel, sphere and oblique manifolds.

A signed permutation P of R^n maps each manifold onto itself.  A problem
whose evaluators see P^T X, started from P x0 with the same seed, draws
the same samples, so its iterates are P times the original's up to the
rounding of sums taken in another order.  The relation catches
coordinate-dependent faults (a reshape order, a whole-array norm where a
per-row one belongs, a dropped sign fix); an equivariant fault passes it,
and so does a column formula taken over rows instead, which the
end-to-end run below catches by checking unit columns from their
definition.
"""

import dataclasses

import numpy as np
import pytest

import manismooth as ms
from manismooth import solver_indicator as si
from manismooth import solver_lipschitz as sl


class SignedPermutation:
    """P X = D Pi X on the rows of X ``(..., n, p)``: (P X)[i] = sign[i] X[perm[i]]."""

    def __init__(self, n, rng):
        self.perm = rng.permutation(n)
        self.sign = rng.choice([-1.0, 1.0], size=n)[:, None]

    def __call__(self, X):
        return self.sign * X[..., self.perm, :]

    def T(self, Y):
        X = np.empty_like(Y)
        X[..., self.perm, :] = self.sign * Y
        return X


def seen_through(problem, P):
    """``problem`` with every evaluator applied at P^T X, its gradients mapped back by P."""
    return dataclasses.replace(
        problem,
        sample_egrad=lambda X, i: P(problem.sample_egrad(P.T(X), i)),
        full_value=lambda X: problem.full_value(P.T(X)),
        full_egrad=lambda X: P(problem.full_egrad(P.T(X))),
        c_eval=lambda X: problem.c_eval(P.T(X)),
        c_jac_t=lambda X, v: P(problem.c_jac_t(P.T(X), v)),
    )


def oblique_pca():
    return dataclasses.replace(ms.make_sparse_pca(50, 3, 1000, 0.1, seed=7), manifold=ms.oblique(50, 3))


def box_sphere():
    box = ms.IndicatorBox(np.full(6, -0.3), np.full(6, 0.3))
    return ms.make_constrained_sphere(30, 6, 500, box, seed=7)


# a radius the momentum exceeds in a few of the 1000 steps, so the truncation takes part
BOX_CONFIG = si.IndicatorConfig(theta=1.5, zeta=0.3, c_tau=0.05, c_a=0.5, trunc_radius=1.0)

CASES = {
    "lipschitz-stiefel": (lambda: ms.make_sparse_pca(50, 3, 1000, 0.1, seed=7),
                          lambda problem, x0: sl.run(problem, x0, seed=11, K=1000, trace_every=1000)),
    "lipschitz-oblique": (oblique_pca, lambda problem, x0: sl.run(problem, x0, seed=11, K=1000, trace_every=1000)),
    "indicator-sphere": (box_sphere,
                         lambda problem, x0: si.run(problem, x0, BOX_CONFIG, seed=11, K=1000, trace_every=1000)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_signed_permutation_equivariance(case):
    make, solve = CASES[case]
    problem = make()
    desc = problem.manifold
    rng = np.random.default_rng(21)
    P = SignedPermutation(desc.n, rng)
    x0 = ms.random_point(desc, rng)
    state, _ = solve(problem, x0)
    moved, _ = solve(seen_through(problem, P), ms.ManifoldPoint(desc, P(x0.data)))
    assert np.linalg.norm(P.T(moved.x) - state.x) <= 1e-8 * np.linalg.norm(state.x)
    assert not np.array_equal(P(x0.data), x0.data)  # the relation is not trivially met


def test_oblique_lipschitz_run_end_to_end():
    # the north star's third manifold through a whole run: diagnostics and a certificate
    # whose witness passes membership, at an iterate on Ob(50, 3) that is not on St(50, 3).
    # Unit columns are checked from their definition, not by the kernels' own check: kernels
    # that normalized rows instead would agree with themselves and with the relation above
    problem = oblique_pca()
    state, trace = sl.run(problem, None, seed=3, K=5000, trace_every=500, diagnostics=True)
    cert = sl.certificate(state, problem)
    assert cert.membership_ok and np.isfinite(cert.grad_residual)
    assert all(np.isfinite([r.obj_smooth, r.norm_grad_Fmu, r.norm_eps]).all() for r in trace)
    np.testing.assert_allclose(np.linalg.norm(state.x, axis=0), 1.0, rtol=0, atol=1e-12)
    gram = state.x.T @ state.x
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) > 1e-3
