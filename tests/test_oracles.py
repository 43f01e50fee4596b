"""Oracles for the iteration itself, on the Stiefel, sphere and oblique manifolds.

A reference transcription writes both iterations afresh from the
formulas in the ``driver.step`` docstring and the two solvers' schedule
blocks, in plain numpy with no manismooth kernel; only the problem's
evaluators and ``h.prox``/``h.project`` are shared.  Its iterate after K
steps from the same x0 and seed must agree with the solver's, up to
rounding.

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

    def full_value_egrad(X):
        f, g = problem.full_value_egrad(P.T(X))
        return f, P(g)

    return dataclasses.replace(
        problem,
        sample_egrad=lambda X, i: P(problem.sample_egrad(P.T(X), i)),
        full_value_egrad=full_value_egrad,
        full_value=None,
        full_egrad=None,
        c_eval=lambda X: problem.c_eval(P.T(X)),
        c_jac_t=lambda X, v: P(problem.c_jac_t(P.T(X), v)),
    )


def stiefel_pca():
    return ms.make_sparse_pca(50, 3, 1000, 0.1, seed=7)


def oblique_pca():
    return dataclasses.replace(stiefel_pca(), manifold=ms.oblique(50, 3))


def box_oblique():
    # sparse PCA's c is the identity on the 150 entries of X, so the box bounds every entry
    return dataclasses.replace(oblique_pca(), h=ms.IndicatorBox(np.full(150, -0.2), np.full(150, 0.2)))


def box_sphere():
    box = ms.IndicatorBox(np.full(6, -0.3), np.full(6, 0.3))
    return ms.make_constrained_sphere(30, 6, 500, box, seed=7)


# a radius the momentum exceeds in a few of the 1000 steps, so the truncation takes part
BOX_CONFIG = si.IndicatorConfig(theta=1.5, zeta=0.3, c_tau=0.05, c_a=0.5, trunc_radius=1.0)

CASES = {
    "lipschitz-stiefel": (stiefel_pca, lambda problem, x0: sl.run(problem, x0, seed=11, K=1000, trace_every=1000)),
    "lipschitz-oblique": (oblique_pca, lambda problem, x0: sl.run(problem, x0, seed=11, K=1000, trace_every=1000)),
    "indicator-sphere": (box_sphere,
                         lambda problem, x0: si.run(problem, x0, BOX_CONFIG, seed=11, K=1000, trace_every=1000)),
    "indicator-oblique": (box_oblique,
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


# ------------------------------------------------------------------ reference transcription


def tangent(stiefel, X, V):
    """P_{T_X}(V) from its definition: V - X sym(X^T V) on St(n, p), V - x_j <x_j, v_j> per column otherwise."""
    if stiefel:
        S = X.T @ V
        return V - X @ ((S + S.T) / 2)
    return V - X * np.sum(X * V, axis=0)


def retraction(stiefel, X, V):
    """R_X(V): the thin-QR factor of X + V with a positive-diagonal R on St(n, p), each column normalized otherwise."""
    if stiefel:
        Q, R = np.linalg.qr(X + V)
        return Q * np.sign(np.diag(R))
    Y = X + V
    return Y / np.linalg.norm(Y, axis=0)


def truncated(v, radius):
    nrm = np.linalg.norm(v)
    return v * (radius / nrm) if nrm > radius else v


def reference_iterate(problem, x0, seed, ks, mu, tau_a, residual, radius=np.inf):
    """x after the iterations ks of

        G_k         = delta_k + P_{T_{x_k}}( Dc(x_k)^T residual(c(x_k), mu_k) / mu_k )
        x_{k+1}     = R_{x_k}(-tau_k G_k)
        delta_{k+1} = grad f_xi(x_{k+1}) + (1 - a_{k+1}) P_{T_{x_{k+1}}}( delta_k - grad f_xi(x_k) )

    from x0, with delta truncated to ``radius`` and each sample index one
    ``integers(N)`` of ``default_rng(seed)``, the first for delta_{k_0}.
    ``mu(k)`` and ``tau_a(k, energy)`` are the schedules, energy being
    sum_{i<=k} ||G_i||^2.
    """
    stiefel = problem.manifold.kind == "stiefel"
    rng = np.random.default_rng(seed)
    N = problem.num_samples
    X, energy = x0, 0.0
    delta = truncated(tangent(stiefel, X, problem.sample_egrad(X, int(rng.integers(N)))), radius)
    for k in ks:
        mu_k = mu(k)
        G = delta + tangent(stiefel, X, problem.c_jac_t(X, residual(problem.c_eval(X), mu_k) / mu_k))
        energy += float(np.sum(G * G))
        tau, a = tau_a(k, energy)
        X_next = retraction(stiefel, X, -tau * G)
        xi = int(rng.integers(N))
        g_new = tangent(stiefel, X_next, problem.sample_egrad(X_next, xi))
        g_old = tangent(stiefel, X, problem.sample_egrad(X, xi))
        delta = truncated(g_new + (1 - a) * tangent(stiefel, X_next, delta - g_old), radius)
        X = X_next
    return X


def lipschitz_reference(problem, x0, seed, K):
    """mu_k = k^{-1/3}, tau_k = (energy / a_{k+1})^{-1/3} (0 at zero energy), a_{k+1} = k^{-2/3}; k = 1 .. K."""
    return reference_iterate(
        problem, x0, seed, range(1, K + 1),
        mu=lambda k: k ** (-1 / 3),
        tau_a=lambda k, energy: ((energy / k ** (-2 / 3)) ** (-1 / 3) if energy > 0 else 0.0, k ** (-2 / 3)),
        residual=lambda y, mu: y - problem.h.prox(mu, y),
    )


def indicator_reference(problem, x0, config, seed, K):
    """mu_k = max(k, 1)^{-omega}, tau_k = c_tau (k+1)^{-omega}, a_{k+1} = min(1, c_a (k+1)^{-2 omega}); k = 0 .. K-1."""
    omega = min(config.theta / (config.theta + 2), 1 / 2)
    return reference_iterate(
        problem, x0, seed, range(K),
        mu=lambda k: max(k, 1) ** (-omega),
        tau_a=lambda k, energy: (config.c_tau * (k + 1) ** (-omega), min(1.0, config.c_a * (k + 1) ** (-2 * omega))),
        residual=lambda y, mu: y - problem.h.project(y),
        radius=config.trunc_radius,
    )


def relative_gap(x, reference):
    return np.linalg.norm(x - reference) / np.linalg.norm(reference)


# each tolerance is about 100 times the agreement measured at x0 seed 21, run seed 11
@pytest.mark.parametrize("make, rtol", [(stiefel_pca, 6e-10), (oblique_pca, 2e-10)], ids=["stiefel", "oblique"])
def test_the_lipschitz_solver_follows_the_reference_transcription(make, rtol):
    problem = make()
    x0 = ms.random_point(problem.manifold, np.random.default_rng(21))
    state, _ = sl.run(problem, x0, seed=11, K=1000, trace_every=1000)
    assert relative_gap(state.x, lipschitz_reference(problem, x0.data, 11, 1000)) <= rtol


def test_the_indicator_solver_follows_the_reference_transcription():
    problem = box_sphere()
    x0 = ms.random_point(problem.manifold, np.random.default_rng(21))
    state, _ = si.run(problem, x0, BOX_CONFIG, seed=11, K=5000, trace_every=5000)
    assert relative_gap(state.x, indicator_reference(problem, x0.data, BOX_CONFIG, 11, 5000)) <= 1e-11
