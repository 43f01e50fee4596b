import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

import manismooth as ms
from manismooth import driver
from manismooth import solver_indicator as si
from manismooth import solver_lipschitz as sl
from manismooth.errors import InsufficientDataError, NumericalFailureError, ParameterError
from manismooth.manifolds import _norm, retr
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


@pytest.mark.parametrize("K", [40, 400])
@pytest.mark.parametrize("solver", [sl, si], ids=["lipschitz", "indicator"])
def test_a_run_reads_its_stream_for_exactly_k_plus_one_samples(solver, K):
    # O(1) samples per iteration, read off the stream itself: past the start point, a run with
    # diagnostics leaves its generator where exactly K + 1 sample-index draws leave a fresh one
    p, args, *_ = _solver_case(solver)
    state, _ = solver.run(p, None, *args, seed=3, K=K, trace_every=7, diagnostics=True)
    ref = np.random.default_rng(3)
    ref.spawn(1)
    ms.random_point(p.manifold, ref)
    for _ in range(K + 1):
        ref.integers(p.num_samples)
    assert state.rng.bit_generator.state == ref.bit_generator.state


def test_h_zero_reduces_to_riemannian_storm():
    # at h = 0 (an l1 weight of 0) the smoothing residual vanishes, so G_k is the momentum the step
    # started from and x_{k+1} = R_{x_k}(-tau_k delta_k): Riemannian STORM with the adaptive stepsize
    p = ms.make_sparse_pca(10, 2, 8, 0.0, seed=5)
    steps = []

    def recording(state, problem, policy):
        X, delta = state.x, state.delta
        record = sl.step(state, problem, policy)
        steps.append((record, X, delta, state.x))
        return record

    state, _ = driver.run(p, None, 1, 200, sl.POLICY, step=recording)
    assert len(steps) == 200
    for record, X, delta, X_next in steps:
        assert record.infeas == 0.0
        assert record.norm_G == _norm(delta)
        assert np.array_equal(X_next, retr(p.manifold.kind, X, -record.tau * delta))
    assert sl.certificate(state, p).feas_residual == 0.0


def test_truncation_check_allows_rounding_relative_to_the_radius():
    # at radius 1e5 the rounding of (radius / ||v||) v alone can exceed
    # radius + 1e-12, so an absolute slack failed this run at iteration 1;
    # the escape check must still hold every momentum to the radius
    p = ms.make_constrained_sphere(8, 4, 12, ms.IndicatorBall(np.full(4, 0.35), 0.7), seed=3)
    A = 1e7 * np.random.default_rng(0).standard_normal((12, 8))
    p = dataclasses.replace(p, sample_egrad=lambda xd, i: A[i][..., None].copy())
    config = si.IndicatorConfig(theta=1.0, zeta=1.0, c_tau=1e-9, c_a=0.5, trunc_radius=1e5)
    state = driver.start(p, ms.random_point(p.manifold, np.random.default_rng(1)), 2, config)
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
    """A small instance of one solver: (problem, extra run arguments, policy, first candidate index(K))."""
    if solver is sl:
        p = ms.make_sparse_pca(10, 2, 8, 0.15, seed=5)
        return p, (), sl.POLICY, lambda K: (K + 1) // 2
    p = ms.make_constrained_sphere(10, 4, 12, ms.IndicatorBall(np.full(4, 0.35), 0.7), seed=3)
    config = si.IndicatorConfig(theta=1.0, zeta=1.0, c_tau=0.01, c_a=0.5, trunc_radius=10.0)
    return p, (config,), config, lambda K: K // 2


@pytest.mark.parametrize("solver", [sl, si], ids=["lipschitz", "indicator"])
def test_the_kept_iterate_gives_the_certificate_of_keeping_every_candidate(solver):
    # the reference keeps every back-half iterate (x_K included), draws the pick from the
    # seed's spawned stream after the run, and gives the witness at the drawn one
    K = 60
    p, args, policy, lo = _solver_case(solver)
    state, _ = solver.run(p, None, *args, seed=4, K=K, trace_every=K)
    cert = solver.certificate(state, p, *args)

    rng = np.random.default_rng(4)
    ref = driver.start(p, ms.random_point(p.manifold, rng), rng, policy)
    snaps = {}
    for _ in range(K):
        snaps[ref.k] = ref.x
        solver.step(ref, p, *args)
    snaps[ref.k] = ref.x
    snaps = {k: X for k, X in snaps.items() if lo(K) <= k <= K}
    i_K = policy.pick(K, np.random.default_rng(4).spawn(1)[0])
    X = snaps[i_K]
    c, env, resid = smoothed_grad(p, X, policy.mu(i_K), p.full_egrad(X))
    ok = p.h.in_subdifferential(env.prox_point, env.grad, tol=1e-8)

    assert np.array_equal(state.x, ref.x)
    assert state.kept[0] == i_K and np.array_equal(state.kept[1], X)
    assert cert.i_K == i_K and np.array_equal(cert.x.data, X)
    assert np.array_equal(cert.y, env.prox_point) and np.array_equal(cert.z, env.grad)
    assert cert.grad_residual == float(np.linalg.norm(resid))
    assert cert.feas_residual == float(np.linalg.norm(c - env.prox_point))
    assert cert.membership_ok == ok
    assert state.rng.bit_generator.state == ref.rng.bit_generator.state


@pytest.mark.parametrize("solver", [sl, si], ids=["lipschitz", "indicator"])
def test_the_certificate_reads_nothing_from_the_run_stream(solver):
    # the membership test is exact, so the certificate leaves the sampling stream as the run left it
    p, args, *_ = _solver_case(solver)
    state, _ = solver.run(p, None, *args, seed=4, K=60, trace_every=60)
    before = state.rng.bit_generator.state
    assert solver.certificate(state, p, *args).membership_ok
    assert state.rng.bit_generator.state == before


@pytest.mark.parametrize("solver", [sl, si], ids=["lipschitz", "indicator"])
def test_each_policy_rejects_the_other_kind_of_h(solver):
    # a policy's radius names the kind of h it solves: an indicator exactly when it is set
    p, *_ = _solver_case(si if solver is sl else sl)
    _, args, policy, _ = _solver_case(solver)
    need = "an indicator nonsmooth term" if solver is si else "a Lipschitz nonsmooth term"
    with pytest.raises(ParameterError, match=need):
        driver.start(p, ms.random_point(p.manifold, np.random.default_rng(2)), 0, policy)
    with pytest.raises(ParameterError, match=need):
        solver.run(p, None, *args, seed=0, K=5)


def test_the_lipschitz_pick_reaches_every_back_half_index():
    # every back-half iterate is a candidate: K = 4001 draws odd offsets from 2001 too
    rng = np.random.default_rng(7)
    picks = [sl.pick(4001, rng) for _ in range(200)]
    assert all(2001 <= k <= 4001 for k in picks)
    assert any((k - 2001) % 2 for k in picks) and any((k - 2001) % 2 == 0 for k in picks)


def test_the_indicator_pick_is_proportional_to_the_stepsize():
    # rejection sampling gives P(k) proportional to tau_k ~ (k + 1)^-omega on K // 2 .. K;
    # the chi-square statistic over the 11 indices stays below its 0.999 quantile (10 dof)
    config = si.IndicatorConfig(theta=1.0, zeta=1.0, c_tau=0.01, c_a=0.5, trunc_radius=10.0)
    K, draws = 20, 20000
    rng = np.random.default_rng(11)
    ks = np.arange(K // 2, K + 1)
    counts = np.bincount([config.pick(K, rng) - K // 2 for _ in range(draws)], minlength=ks.size)
    weights = (ks + 1.0) ** -config.omega
    expected = draws * weights / weights.sum()
    assert counts.size == ks.size
    assert float(np.sum((counts - expected) ** 2 / expected)) < 29.59


def test_a_pick_outside_the_run_keeps_nothing():
    # an index the run never reaches keeps no iterate, and the certificate reports the missing one
    p = ms.make_sparse_pca(10, 2, 8, 0.15, seed=5)
    state, _ = driver.run(p, None, 1, 20, dataclasses.replace(sl.POLICY, pick=lambda K, draw: 50), trace_every=20)
    assert state.k == 21 and state.kept is None
    with pytest.raises(InsufficientDataError):
        sl.certificate(state, p)


def test_a_pick_of_the_last_iterate_keeps_x_k_after_the_loop():
    # the indicator's candidates run to K, the iterate no step starts from: the run keeps it after its loop
    K = 30
    p, (config,), *_ = _solver_case(si)
    policy = driver.Policy(k0=config.k0, mu=config.mu, schedule=config.schedule, pick=lambda K, rng: K,
                           trunc_radius=config.trunc_radius)
    state, trace = driver.run(p, None, 4, K, policy)
    assert state.kept[0] == K and state.kept[1] is state.x
    assert driver.certificate(state, p, policy).i_K == K
    assert trace == si.run(p, None, config, seed=4, K=K)[1]


def test_a_non_finite_stepsize_names_its_iteration():
    p = ms.make_sparse_pca(10, 2, 8, 0.15, seed=5)
    policy = dataclasses.replace(sl.POLICY, schedule=lambda k, energy: (math.nan, 1.0))
    with pytest.raises(NumericalFailureError, match=r"^non-finite stepsize \(iteration 1\)$") as failure:
        driver.run(p, None, 1, 5, policy)
    assert failure.value.iteration == 1


def test_the_certificate_index_does_not_depend_on_the_step_stream():
    # the index comes from its own spawned stream, so a step that draws one value more than
    # its sample moves every sample after the first step but not the certificate's index
    p = ms.make_sparse_pca(10, 2, 8, 0.15, seed=5)

    def greedy_step(state, problem, policy):
        record = sl.step(state, problem, policy)
        state.rng.integers(p.num_samples)
        return record

    certs = []
    for step in (sl.step, greedy_step):
        state, _ = driver.run(p, None, 1, 200, sl.POLICY, step=step, trace_every=200)
        certs.append((state.x, sl.certificate(state, p)))
    (x_plain, plain), (x_greedy, greedy) = certs
    assert not np.array_equal(x_plain, x_greedy)
    assert plain.i_K == greedy.i_K and 100 <= plain.i_K <= 200


def test_a_long_run_takes_its_first_step_at_once(monkeypatch):
    # drawing the certificate's index costs nothing that grows with K: at K = K_MAX = 2**62
    # it is one exact int64 draw (a few for the indicator), so each solver's first step comes at once

    class FirstStep(Exception):
        pass

    def step(state, *_):
        raise FirstStep

    for solver in (sl, si):
        p, args, *_ = _solver_case(solver)
        monkeypatch.setattr(solver, "step", step)
        began = time.perf_counter()
        with pytest.raises(FirstStep):
            solver.run(p, None, *args, seed=1, K=driver.K_MAX, trace_every=1000)
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
