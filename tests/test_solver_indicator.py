import dataclasses
import math

import numpy as np
import pytest

import manismooth as ms
from manismooth import driver
from manismooth import solver_indicator as si
from manismooth.errors import ParameterError, ProbeInconclusiveError


@pytest.fixture(scope="module")
def problem():
    ball = ms.IndicatorBall(np.full(4, 0.35), 0.7)
    return ms.make_constrained_sphere(10, 4, 12, ball, seed=3)


@pytest.fixture(scope="module")
def config(problem):
    return si.default_config(problem, theta=1.0, safety=2.0, samples=120, seed=8)


def test_omega_from_theta():
    base = dict(zeta=1.0, c_tau=1.0, c_a=1.0, trunc_radius=1.0)
    assert si.IndicatorConfig(theta=1.0, **base).omega == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert si.IndicatorConfig(theta=2.0, **base).omega == pytest.approx(0.5, rel=1e-15)
    assert si.IndicatorConfig(theta=4.0, **base).omega == pytest.approx(0.5, rel=1e-15)


def test_k_tilde_formula():
    cfg = si.IndicatorConfig(theta=1.0, zeta=1.0, c_tau=1.0, c_a=1.0, trunc_radius=1.0)
    assert cfg.k_tilde == math.ceil(8.0 / 3.0) == 3


def test_config_validation():
    with pytest.raises(ParameterError):
        si.IndicatorConfig(theta=0.5, zeta=1.0, c_tau=1.0, c_a=1.0, trunc_radius=1.0)
    with pytest.raises(ParameterError):
        si.IndicatorConfig(theta=1.0, zeta=-1.0, c_tau=1.0, c_a=1.0, trunc_radius=1.0)


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("name", list(si.BOUNDS))
def test_non_finite_solver_number_names_its_field(problem, monkeypatch, name, value):
    # IndicatorConfig rejects it, and default_config does so before any sampling pass
    def sampled(*args, **kwargs):
        raise AssertionError("a sampling pass ran")

    for estimator in ("estimate_constants", "estimate_retraction_constants", "error_bound_probe"):
        monkeypatch.setattr(si, estimator, sampled)
    if name != "safety":
        with pytest.raises(ParameterError, match=f"{name} must be finite") as exc:
            si.IndicatorConfig(**{**dict(theta=1.0, zeta=1.0, c_tau=1.0, c_a=1.0, trunc_radius=1.0), name: value})
        assert exc.value.field == name
    with pytest.raises(ParameterError, match=f"{name} must be finite") as exc:
        si.default_config(problem, **{"theta": 1.0, name: value})
    assert exc.value.field == name


def test_omega_is_computed_once_per_config():
    cfg = si.IndicatorConfig(theta=1.5, zeta=1.0, c_tau=1.0, c_a=1.0, trunc_radius=1.0)
    assert cfg.omega is cfg.omega == 1.5 / 3.5
    assert dataclasses.asdict(cfg) == dict(theta=1.5, zeta=1.0, c_tau=1.0, c_a=1.0, trunc_radius=1.0)


def test_default_config_momentum_constant(problem, config):
    # c_a = (3/4) c_tau^2 + 1/(32 Lt^2) with the safety-scaled smoothness estimate
    consts = ms.estimate_constants(problem, 120, seed=8)
    lt = 2.0 * consts.L_tilde
    assert config.c_a == pytest.approx(0.75 * config.c_tau**2 + 1.0 / (32.0 * lt**2), rel=1e-12)
    assert config.trunc_radius == pytest.approx(2.0 * consts.L_f, rel=1e-12)


@pytest.mark.parametrize("supplied", [{"c_tau": 0.5}, {"c_a": 0.25, "trunc_radius": 3.0},
                                      {"c_tau": 0.5, "c_a": 0.25, "trunc_radius": 3.0, "zeta": 0.1},
                                      {"c_tau": np.float64(0.5)}])
def test_default_config_takes_supplied_constants(problem, config, supplied):
    # a supplied value replaces its estimate; the others are derived as if none were
    # supplied, except that c_a follows the c_tau in use, supplied or derived
    got = si.default_config(problem, theta=1.0, safety=2.0, samples=120, seed=8, **supplied)
    expected = dataclasses.replace(config, **supplied)
    if "c_a" not in supplied:
        lt = 2.0 * ms.estimate_constants(problem, 120, seed=8).L_tilde
        expected = dataclasses.replace(expected, c_a=0.75 * expected.c_tau**2 + 1.0 / (32.0 * lt**2))
    assert got == expected


@pytest.mark.parametrize("supplied,field", [({"c_tau": 1e300}, "c_tau"), ({"c_tau": np.float64(1e200)}, "c_tau"),
                                            ({"c_tau": 0.5, "safety": 1e300}, "c_a")])
def test_default_config_names_the_term_of_c_a_that_overflows(problem, supplied, field):
    # c_a = (3/4) c_tau^2 + 1/(32 Lt^2): a huge c_tau, Python or numpy, names c_tau;
    # Lt = safety L_tilde squared past the float range names c_a, which can be supplied
    with pytest.raises(ParameterError, match="c_a") as exc:
        si.default_config(problem, theta=1.0, samples=120, seed=8, **supplied)
    assert exc.value.field == field


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the instance overflows on purpose
def test_default_config_names_zeta_when_the_probe_overflows():
    ball = ms.IndicatorBall(np.full(4, 0.35), 0.7)
    huge = ms.make_constrained_sphere(10, 4, 12, ball, seed=3, quad_weight=1e200)
    with pytest.raises(ParameterError, match="error bound probe") as exc:
        si.default_config(huge, theta=1.0, c_tau=0.01, c_a=0.001, trunc_radius=1.0)
    assert exc.value.field == "zeta"


@pytest.mark.parametrize("supplied", [{}, {"c_tau": 0.01, "c_a": 0.001, "trunc_radius": 1.0}])
def test_default_config_names_zeta_when_every_probed_point_is_feasible(supplied):
    ball = ms.IndicatorBall(np.zeros(4), 3.0)
    p = ms.make_constrained_sphere(4, 4, 3, ball, seed=35, quad_weight=0.0, linear_map=np.eye(4))
    with pytest.raises(ParameterError, match="all sampled points are feasible; supply zeta") as exc:
        si.default_config(p, theta=1.0, samples=100, **supplied)
    assert exc.value.field == "zeta"


def test_default_config_rejects_lipschitz_problem():
    p = ms.make_sparse_pca(6, 2, 5, 0.1, seed=1)
    with pytest.raises(ParameterError):
        si.default_config(p, theta=1.0)


def test_init_truncates(problem, config):
    x0 = ms.random_point(problem.manifold, np.random.default_rng(0))
    state = driver.start(problem, x0, 5, config)
    assert state.k == 0
    assert np.linalg.norm(state.delta) <= config.trunc_radius + 1e-12

    tiny = si.IndicatorConfig(theta=1.0, zeta=config.zeta, c_tau=config.c_tau,
                              c_a=config.c_a, trunc_radius=1e-3)
    state2 = driver.start(problem, x0, 5, tiny)
    assert np.linalg.norm(state2.delta) == pytest.approx(1e-3, rel=1e-12)


def test_schedule_examples():
    # theta = 1, c_tau = 0.5: tau_0 = 0.5, tau_7 = 0.25
    cfg = si.IndicatorConfig(theta=1.0, zeta=1.0, c_tau=0.5, c_a=1.0, trunc_radius=1.0)
    om = cfg.omega
    assert cfg.c_tau * (0 + 1) ** (-om) == pytest.approx(0.5, rel=1e-15)
    assert cfg.c_tau * (7 + 1) ** (-om) == pytest.approx(0.25, rel=1e-15)


def test_momentum_resets_when_a_hits_one(problem):
    cfg = si.IndicatorConfig(theta=1.0, zeta=1.0, c_tau=0.01, c_a=50.0,
                             trunc_radius=100.0)
    x0 = ms.random_point(problem.manifold, np.random.default_rng(1))
    state = driver.start(problem, x0, 7, cfg)
    probe = driver.start(problem, x0, 7, cfg)  # same stream, to predict the draw
    report = si.step(state, problem, cfg)
    assert report.a == 1.0
    xi = int(probe.rng.integers(problem.num_samples))
    fresh = ms.sample_riemannian_grad(problem, ms.ManifoldPoint(problem.manifold, state.x), xi)
    np.testing.assert_allclose(state.delta, fresh.data, atol=1e-12)


def test_feasible_iterate_keeps_momentum_direction():
    # feasible c(x) means the penalty gradient vanishes and G = delta
    ball = ms.IndicatorBall(np.zeros(5), 2.0)
    p = ms.make_constrained_sphere(5, 5, 4, ball, seed=9, quad_weight=0.0, linear_map=np.eye(5))
    cfg = si.IndicatorConfig(theta=1.0, zeta=0.5, c_tau=0.1, c_a=0.5, trunc_radius=10.0)
    x0 = ms.random_point(p.manifold, np.random.default_rng(2))
    state = driver.start(p, x0, 3, cfg)
    delta_before = state.delta
    report = si.step(state, p, cfg)
    assert report.infeas == 0.0
    assert report.norm_G == pytest.approx(np.linalg.norm(delta_before), abs=1e-14)


def test_first_iteration_mu_clamped(problem, config):
    _, trace = si.run(problem, None, config, seed=14, K=5, trace_every=1)
    assert trace[0].k == 0
    assert trace[0].mu == 1.0


def test_truncation_consistency_deterministic():
    # with a radius above the gradient bound, truncated and untruncated
    # estimators coincide along an N = 1 run
    ball = ms.IndicatorBall(np.full(3, 0.2), 0.5)
    p = ms.make_constrained_sphere(6, 3, 1, ball, seed=21)
    consts = ms.estimate_constants(p, 150, seed=22)
    base = si.default_config(p, theta=1.0, safety=2.0, zeta=0.5, samples=120, seed=23)
    big = si.IndicatorConfig(theta=1.0, zeta=base.zeta, c_tau=base.c_tau, c_a=base.c_a,
                             trunc_radius=1e9)
    assert base.trunc_radius >= consts.L_f
    _, t1 = si.run(p, None, base, seed=4, K=200, trace_every=1)
    _, t2 = si.run(p, None, big, seed=4, K=200, trace_every=1)
    assert t1 == t2


def test_feasibility_series_zero_for_feasible_problem():
    ball = ms.IndicatorBall(np.zeros(4), 3.0)
    p = ms.make_constrained_sphere(4, 4, 3, ball, seed=25, quad_weight=0.0, linear_map=np.eye(4))
    cfg = si.IndicatorConfig(theta=1.0, zeta=0.5, c_tau=0.05, c_a=0.5, trunc_radius=10.0)
    _, trace = si.run(p, None, cfg, seed=5, K=100, trace_every=10)
    assert all(r.infeas == 0.0 for r in trace)
    assert all(v == 0.0 for _, v in si.feasibility_decay_series(trace, cfg))


def test_feasibility_series_reads_the_traced_rows(problem, config):
    # the series of a trace_every=1 run is the one of a hand-stepped loop from the same start
    x0 = ms.random_point(problem.manifold, np.random.default_rng(41))
    _, trace = si.run(problem, x0, config, seed=42, K=60, trace_every=1)
    state = driver.start(problem, x0, np.random.default_rng(42), config)
    records = [si.step(state, problem, config) for _ in range(60)]
    assert records == trace
    expo = 2.0 * config.omega / config.theta
    by_hand = [(k, r.infeas * r.infeas * float(k) ** expo) for k, r in enumerate(records) if k >= 1]
    series = si.feasibility_decay_series(trace, config)
    assert series == by_hand and len(series) == 59
    # a thinned trace gives exactly its kept rows, at the same values
    _, thinned = si.run(problem, x0, config, seed=42, K=60, trace_every=10)
    kept = si.feasibility_decay_series(thinned, config)
    assert [k for k, _ in kept] == [r.k for r in thinned if r.k >= 1] == [10, 20, 30, 40, 50, 59]
    assert kept == [(k, dict(series)[k]) for k, _ in kept]


def test_run_trace_shape_and_determinism(problem, config):
    _, t1 = si.run(problem, None, config, seed=6, K=100, trace_every=10)
    assert len(t1) == 100 // 10 + 1
    _, t2 = si.run(problem, None, config, seed=6, K=100, trace_every=10)
    assert t1 == t2


def test_certificate_normal_cone(problem, config):
    state, _ = si.run(problem, None, config, seed=16, K=2000, trace_every=100)
    cert = si.certificate(state, problem, config)
    assert cert.membership_ok
    assert 1000 <= cert.i_K <= 2000
    y = cert.y
    # y is the projection of c(x); for infeasible c(x), z points radially out
    if cert.feas_residual > 1e-9:
        radial = y - problem.h.center
        cos = float(cert.z @ radial) / (np.linalg.norm(cert.z) * np.linalg.norm(radial))
        assert cos == pytest.approx(1.0, abs=1e-10)
    # <z, w - y> <= 0 for members w of C, projections of Gaussian draws
    members = problem.h.project(np.random.default_rng(99).standard_normal((100, y.size)))
    assert np.all((members - y) @ cert.z <= 1e-8)


def test_certificate_feasible_point_zero_witness():
    ball = ms.IndicatorBall(np.zeros(4), 3.0)
    p = ms.make_constrained_sphere(4, 4, 3, ball, seed=27, quad_weight=0.0, linear_map=np.eye(4))
    cfg = si.IndicatorConfig(theta=1.0, zeta=0.5, c_tau=0.05, c_a=0.5, trunc_radius=10.0)
    state, _ = si.run(p, None, cfg, seed=6, K=60, trace_every=10)
    cert = si.certificate(state, p, cfg)
    np.testing.assert_allclose(cert.z, np.zeros_like(cert.z), atol=1e-14)
    assert cert.membership_ok


def test_error_bound_probe_off_center_ball_on_sphere():
    # an off-center ball leaves the whole sphere infeasible with a genuinely
    # nonvanishing penalty gradient
    center = np.zeros(5)
    center[0] = 0.3
    ball = ms.IndicatorBall(center, 0.4)
    p = ms.make_constrained_sphere(5, 5, 3, ball, seed=31, quad_weight=0.0, linear_map=np.eye(5))
    zeta, theta_fit = si.error_bound_probe(p, 200, seed=7)
    assert zeta > 0
    assert np.isfinite(theta_fit)
    zeta2, theta2 = si.error_bound_probe(p, 200, seed=8)
    assert abs(theta_fit - theta2) / max(abs(theta_fit), abs(theta2)) < 0.2


def test_error_bound_probe_center_ball_degenerate():
    # ball centered at the origin: the penalty gradient is identically zero on
    # the sphere (the violation direction is normal), so the probe cannot fit
    ball = ms.IndicatorBall(np.zeros(4), 0.5)
    p = ms.make_constrained_sphere(4, 4, 3, ball, seed=33, quad_weight=0.0, linear_map=np.eye(4))
    with pytest.raises(ProbeInconclusiveError):
        si.error_bound_probe(p, 100, seed=9)


def test_error_bound_probe_feasible_everywhere():
    ball = ms.IndicatorBall(np.zeros(4), 3.0)
    p = ms.make_constrained_sphere(4, 4, 3, ball, seed=35, quad_weight=0.0, linear_map=np.eye(4))
    with pytest.raises(ProbeInconclusiveError):
        si.error_bound_probe(p, 100, seed=10)


@pytest.mark.parametrize("samples", [0, 99])
def test_error_bound_probe_rejects_fewer_than_100_samples(problem, samples):
    with pytest.raises(ParameterError, match="samples must be >= 100"):
        si.error_bound_probe(problem, samples, seed=12)


def test_probe_on_generated_family(problem):
    zeta, theta_fit = si.error_bound_probe(problem, 200, seed=11)
    assert zeta > 0 and np.isfinite(theta_fit)
