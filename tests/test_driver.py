import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

import manismooth as ms
from manismooth import driver
from manismooth import solver_indicator as si
from manismooth import solver_lipschitz as sl
from manismooth.errors import InsufficientDataError
from manismooth.smoothing import smoothed_grad


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


def _solver_case(solver):
    """A small instance of one solver: (problem, extra run arguments, pick rule, mu, snap_lo(K), x_K a candidate)."""
    if solver is sl:
        p = ms.make_sparse_pca(10, 2, 8, 0.15, seed=5)
        return p, (), sl.pick, sl.smoothing_level, lambda K: (K + 1) // 2, False
    p = ms.make_constrained_sphere(10, 4, 12, ms.IndicatorBall(np.full(4, 0.35), 0.7), seed=3)
    config = si.IndicatorConfig(theta=1.0, zeta=1.0, c_tau=0.01, c_a=0.5, trunc_radius=10.0)
    return p, (config,), config.pick, config.mu, lambda K: K // 2, True


@pytest.mark.parametrize("solver", [sl, si], ids=["lipschitz", "indicator"])
@pytest.mark.parametrize("K", [60, 2 * driver.SNAPSHOT_TARGET + 1], ids=["stride1", "stride2"])
def test_the_kept_iterate_gives_the_certificate_of_keeping_every_candidate(solver, K):
    # the rule this replaces: keep every back-half iterate at the stride (and, for the
    # indicator, x_K), draw the pick from the seed's spawned stream after the run, and give
    # the witness at the drawn one
    p, args, pick, mu, snap_lo, with_last = _solver_case(solver)
    state, _ = solver.run(p, None, *args, seed=4, K=K, trace_every=K)
    cert = solver.certificate(state, p, *args)

    rng = np.random.default_rng(4)
    ref = solver.init(p, ms.random_point(p.manifold, rng), *args, rng)
    lo, stride = snap_lo(K), max(1, K // driver.SNAPSHOT_TARGET)
    snaps = []
    for _ in range(K):
        if ref.k >= lo and (ref.k - lo) % stride == 0:
            snaps.append((ref.k, ref.x))
        solver.step(ref, p, *args)
    if with_last:
        snaps.append((ref.k, ref.x))
    assert (stride == 1) == (K == 60)
    draw = np.random.default_rng(4).spawn(1)[0]
    i_K, X = snaps[pick(np.array([k for k, _ in snaps], dtype=float), draw)]
    c, env, resid = smoothed_grad(p, X, mu(i_K), p.full_egrad(X))
    ok = p.h.in_subdifferential(env.prox_point, env.grad, tol=1e-8, rng=ref.rng)

    assert np.array_equal(state.x, ref.x)
    assert state.kept[0] == i_K and np.array_equal(state.kept[1], X)
    assert cert.i_K == i_K and np.array_equal(cert.x.data, X)
    assert np.array_equal(cert.y, env.prox_point) and np.array_equal(cert.z, env.grad)
    assert cert.grad_residual == float(np.linalg.norm(resid))
    assert cert.feas_residual == float(np.linalg.norm(c - env.prox_point))
    assert cert.membership_ok == ok
    assert state.rng.bit_generator.state == ref.rng.bit_generator.state


def test_a_run_without_candidates_keeps_nothing_and_draws_no_pick():
    # snap_lo past the last iterate: no candidate, so no pick is drawn (integers(0) would raise)
    # and the certificate reports the missing iterate
    p = ms.make_sparse_pca(10, 2, 8, 0.15, seed=5)
    state, _ = driver.run(p, None, 1, 20, init=lambda x, rng: sl.init(p, x, rng), step=lambda s: sl.step(s, p),
                          pick=sl.pick, snap_lo=50, trace_every=20, diagnostics=False)
    assert state.k == 21 and state.kept is None
    with pytest.raises(InsufficientDataError):
        sl.certificate(state, p)


def test_the_certificate_index_does_not_depend_on_the_step_stream():
    # the index comes from its own spawned stream, so a step that draws one value more than
    # its sample moves every sample after the first step but not the certificate's index
    p = ms.make_sparse_pca(10, 2, 8, 0.15, seed=5)

    def greedy_step(state):
        record = sl.step(state, p)
        state.rng.integers(p.num_samples)
        return record

    certs = []
    for step in (lambda state: sl.step(state, p), greedy_step):
        state, _ = driver.run(p, None, 1, 200, init=lambda x, rng: sl.init(p, x, rng), step=step,
                              pick=sl.pick, snap_lo=100, trace_every=200, diagnostics=False)
        certs.append((state.x, sl.certificate(state, p)))
    (x_plain, plain), (x_greedy, greedy) = certs
    assert not np.array_equal(x_plain, x_greedy)
    assert plain.i_K == greedy.i_K and 100 <= plain.i_K < 201


def test_a_long_run_takes_its_first_step_at_once():
    # drawing the certificate's index costs nothing that grows with K: no stream is
    # advanced ahead of the steps, so K = 10**9 reaches its first step in well under a second
    p = ms.make_sparse_pca(10, 2, 8, 0.15, seed=5)

    class FirstStep(Exception):
        pass

    def step(state):
        raise FirstStep

    began = time.perf_counter()
    with pytest.raises(FirstStep):
        driver.run(p, None, 1, 10**9, init=lambda x, rng: sl.init(p, x, rng), step=step,
                   pick=sl.pick, snap_lo=(10**9 + 1) // 2, trace_every=1000, diagnostics=False)
    assert time.perf_counter() - began < 1.0


def _peak_bytes(p, K):
    tracemalloc.start()
    try:
        sl.run(p, None, seed=2, K=K, trace_every=K)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_run_holds_one_iterate_whatever_its_length():
    # the certificate's iterate is the only one a run keeps: from K = 400 to K = 2400 the
    # peak grows by less than 10 iterates (keeping every back-half candidate grows it by 1000)
    p = ms.make_sparse_pca(100, 5, 20, 0.1, seed=9)
    iterate = 100 * 5 * 8
    _peak_bytes(p, 10)  # first-call allocations (caches, imports) out of the measurement
    growth = (_peak_bytes(p, 2400) - _peak_bytes(p, 400)) / iterate
    assert growth < 10


def test_diagnostics_take_f_and_its_gradient_from_one_pass():
    # each kept row makes one pass over the data (full_value_egrad), the certificate one (full_egrad)
    p = ms.make_sparse_pca(10, 2, 8, 0.15, seed=5)
    calls = {"full_value_egrad": 0, "full_egrad": 0}

    def counted(name, evaluate):
        def wrapper(X):
            calls[name] += 1
            return evaluate(X)
        return wrapper

    q = dataclasses.replace(p, **{name: counted(name, getattr(p, name)) for name in calls})
    state, trace = sl.run(q, None, seed=1, K=40, trace_every=10, diagnostics=True)
    assert len(trace) == 5 and all(r.obj_smooth is not None for r in trace)
    assert calls == {"full_value_egrad": 5, "full_egrad": 0}
    sl.certificate(state, q)
    assert calls == {"full_value_egrad": 5, "full_egrad": 1}
