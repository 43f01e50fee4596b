import dataclasses

import numpy as np
import pytest

import manismooth as ms
from manismooth import driver
from manismooth import solver_indicator as si
from manismooth import solver_lipschitz as sl


def lipschitz_run(K):
    p = ms.make_sparse_pca(10, 2, 8, 0.15, seed=5)
    state, _ = sl.run(p, None, seed=1, K=K, trace_every=1, diagnostics=True)
    sl.certificate(state, p)


def indicator_run(K):
    p = ms.make_constrained_sphere(10, 4, 12, ms.IndicatorBall(np.full(4, 0.35), 0.7), seed=3)
    config = si.IndicatorConfig(theta=1.0, zeta=1.0, c_tau=0.01, c_a=0.5, trunc_radius=10.0)
    state, _ = si.run(p, None, config, seed=1, K=K, trace_every=1, diagnostics=True)
    si.certificate(state, p, config)


@pytest.mark.parametrize("solve", [lipschitz_run, indicator_run])
def test_typed_values_are_built_only_by_step_and_at_the_edges(monkeypatch, solve):
    # each step wraps its new iterate and momentum once (driver.step); the
    # diagnostics rows and the certificate run on ndarrays, so the other typed
    # values (start, first sample, certificate point) do not grow with K
    counts = {ms.ManifoldPoint: 0, ms.TangentVector: 0}
    for cls in counts:

        def counting(obj, cls=cls, original=cls.__post_init__):
            counts[cls] += 1
            original(obj)

        monkeypatch.setattr(cls, "__post_init__", counting)
    built = []
    for K in (50, 200):
        counts.update(dict.fromkeys(counts, 0))
        solve(K)
        built.append(dict(counts))
    assert {cls: built[1][cls] - built[0][cls] for cls in counts} == dict.fromkeys(counts, 200 - 50)


@pytest.mark.parametrize("solver", [sl, si], ids=["lipschitz", "indicator"])
def test_each_step_draws_one_sample_for_both_gradients(solver):
    # O(1) samples per iteration: one at init, then per step one index xi
    # shared by grad f_xi(x_{k+1}) and grad f_xi(x_k)
    if solver is sl:
        p = ms.make_sparse_pca(10, 2, 8, 0.15, seed=5)
        args = ()
    else:
        p = ms.make_constrained_sphere(10, 4, 12, ms.IndicatorBall(np.full(4, 0.35), 0.7), seed=3)
        args = (si.IndicatorConfig(theta=1.0, zeta=1.0, c_tau=0.01, c_a=0.5, trunc_radius=10.0),)
    drawn = []

    def sample_egrad(xd, i, original=p.sample_egrad):
        drawn.append(i)
        return original(xd, i)

    K = 40
    solver.run(dataclasses.replace(p, sample_egrad=sample_egrad), None, *args, seed=1, K=K, diagnostics=True)
    assert len(drawn) == 1 + 2 * K
    assert drawn[1::2] == drawn[2::2]


def test_truncation_check_allows_rounding_relative_to_the_radius():
    # at radius 1e5 the rounding of (radius / ||v||) v alone can exceed
    # radius + 1e-12, so an absolute slack failed this run at iteration 1;
    # the escape check must still hold every momentum to the radius
    p = ms.make_constrained_sphere(8, 4, 12, ms.IndicatorBall(np.full(4, 0.35), 0.7), seed=3)
    A = 1e7 * np.random.default_rng(0).standard_normal((12, 8))
    p = dataclasses.replace(p, sample_egrad=lambda xd, i: A[i][..., None].copy())
    config = si.IndicatorConfig(theta=1.0, zeta=1.0, c_tau=1e-9, c_a=0.5, trunc_radius=1e5)
    state = si.init(p, ms.random_point(p.manifold, np.random.default_rng(1)), config, seed=2)
    norms = []
    for _ in range(200):
        si.step(state, p, config)
        norms.append(np.linalg.norm(state.delta))
    assert max(norms) <= 1e5 * (1.0 + driver.TRUNC_SLACK)
    assert min(norms) >= 1e5 * (1.0 - 1e-12)  # every step truncates


@pytest.mark.parametrize("solver", [sl, si], ids=["lipschitz", "indicator"])
def test_both_solvers_keep_the_direction_energy_on_the_driver_state(solver):
    # the driver adds ||G_k||^2 to state.energy once per step, before the
    # schedule reads it, so the sum over the trace in order is exact
    if solver is sl:
        p = ms.make_sparse_pca(10, 2, 8, 0.15, seed=5)
        args = ()
    else:
        p = ms.make_constrained_sphere(10, 4, 12, ms.IndicatorBall(np.full(4, 0.35), 0.7), seed=3)
        args = (si.IndicatorConfig(theta=1.0, zeta=1.0, c_tau=0.01, c_a=0.5, trunc_radius=10.0),)
    state, trace = solver.run(p, None, *args, seed=1, K=60, trace_every=1)
    assert type(state) is driver.SolverState
    energy = 0.0
    for r in trace:
        energy += r.norm_G * r.norm_G
    assert len(trace) == 60 and state.energy == energy > 0.0
