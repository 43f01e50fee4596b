#!/usr/bin/env python3
"""Nonlinearly constrained least squares on the sphere via the truncated-
momentum quadratic-penalty solver.

The constraint set is a small ball around the image of a reference sphere
point, so feasibility genuinely binds.  The demo prints the feasibility
decay against its theoretical envelope and ends with a normal-cone
certificate.
"""
import numpy as np

import manismooth as ms
from manismooth import solver_indicator as si

rng = np.random.default_rng(3)
anchor_problem = ms.make_constrained_sphere(16, 4, 80, ms.IndicatorBall(np.zeros(4), 1.0), seed=5)
anchor = ms.random_point(anchor_problem.manifold, rng)
ball = ms.IndicatorBall(anchor_problem.c_eval(anchor.data), 0.15)
problem = ms.make_constrained_sphere(16, 4, 80, ball, seed=5)

theta = 1.0  # the config's exponent, so zeta is taken at the theta it is used with
zeta_hat, theta_hat = si.error_bound_probe(problem, 300, seed=11, theta=theta)
print(f"error bound probe: zeta_hat = {zeta_hat:.3f} at theta = {theta:g}, fitted exponent = {theta_hat:.2f}")

config = si.default_config(problem, theta=theta, safety=2.0, zeta=0.5 * zeta_hat, seed=13)
print(f"config: c_tau = {config.c_tau:.4g}, c_a = {config.c_a:.4g}, "
      f"trunc radius = {config.trunc_radius:.3f}, omega = {config.omega:.3f}, "
      f"burn-in K~ = {config.k_tilde}")

state, trace = si.run(problem, x0=None, config=config, seed=2, K=15_000, trace_every=500)

print("\n    k     dist(c(x), C)    dist^2 * k^(2w/theta)")
series = dict(si.feasibility_decay_series(trace, config))
for rec in trace[::4]:
    if rec.k >= 1:
        print(f"{rec.k:6d}   {rec.infeas:12.5f}    {series[rec.k]:12.5f}")

cert = si.certificate(state, problem, config)
print(f"\ncertificate at iterate {cert.i_K}:")
print(f"  projected KKT residual  {cert.grad_residual:.4f}")
print(f"  dist(c(x), C)           {cert.feas_residual:.5f}")
print(f"  z in normal cone        {cert.membership_ok}")
