import numpy as np
import pytest

import manismooth as ms
from manismooth.checks import DESCRIPTORS
from manismooth.errors import ParameterError, ShapeMismatchError
from manismooth.manifolds import project_point


def test_descriptor_validation():
    with pytest.raises(ParameterError):
        ms.sphere(1)
    with pytest.raises(ParameterError):
        ms.stiefel(2, 3)
    with pytest.raises(ParameterError):
        ms.ManifoldDescriptor("torus", 3, 1)


def test_point_validation():
    d = ms.sphere(3)
    ms.ManifoldPoint(d, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ParameterError):
        ms.ManifoldPoint(d, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ShapeMismatchError):
        ms.ManifoldPoint(d, np.ones((4, 1)))


def test_tangent_project_sphere_example():
    x = ms.ManifoldPoint(ms.sphere(3), np.array([1.0, 0.0, 0.0]))
    t = ms.tangent_project(x, np.array([0.5, 1.0, -2.0]))
    np.testing.assert_allclose(t.data.ravel(), [0.0, 1.0, -2.0], atol=1e-15)


@pytest.mark.parametrize("desc", DESCRIPTORS, ids=lambda d: d.kind)
def test_tangent_project_fixes_tangents(desc):
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = ms.random_point(desc, rng)
        t = ms.random_tangent(x, rng)
        again = ms.tangent_project(x, t.data)
        np.testing.assert_allclose(again.data, t.data, atol=1e-13)


def test_tangent_project_stiefel_least_squares_oracle():
    # Independent oracle: parameterize T_X St(3,2) by a skew 2x2 block and a
    # free (n-p) x p block, then solve the least-squares projection directly.
    rng = np.random.default_rng(7)
    x = project_point(ms.stiefel(3, 2), rng.standard_normal((3, 2)))
    X = x.data
    # orthonormal complement of range(X)
    q, _ = np.linalg.qr(np.hstack([X, rng.standard_normal((3, 1))]))
    X_perp = q[:, 2:]
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    basis = [X @ omega, X_perp @ np.array([[1.0, 0.0]]), X_perp @ np.array([[0.0, 1.0]])]
    M = np.stack([b.ravel() for b in basis], axis=1)
    for _ in range(10):
        v = rng.standard_normal((3, 2))
        coef, *_ = np.linalg.lstsq(M, v.ravel(), rcond=None)
        oracle = (M @ coef).reshape(3, 2)
        got = ms.tangent_project(x, v)
        np.testing.assert_allclose(got.data, oracle, atol=1e-10)
        s = X.T @ got.data
        assert np.linalg.norm(s + s.T) <= 1e-12


def test_retract_examples():
    x = ms.ManifoldPoint(ms.sphere(2), np.array([1.0, 0.0]))
    eta = ms.TangentVector(x.descriptor, x, np.array([0.0, 1.0]))
    y = ms.retract(x, eta)
    np.testing.assert_allclose(y.data.ravel(), [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)

    x31 = ms.ManifoldPoint(ms.stiefel(3, 1), np.array([1.0, 0.0, 0.0]))
    eta31 = ms.TangentVector(x31.descriptor, x31, np.array([0.0, 1.0, 0.0]))
    y31 = ms.retract(x31, eta31)
    np.testing.assert_allclose(y31.data.ravel(), [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0], atol=1e-15)


def test_retract_stays_on_manifold_for_huge_steps():
    # tangency makes the retraction target nondegenerate: ||x + eta||^2 =
    # 1 + ||eta||^2 on the sphere, and X + eta has full rank on Stiefel
    rng = np.random.default_rng(17)
    for desc in DESCRIPTORS:
        x = ms.random_point(desc, rng)
        eta = ms.random_tangent(x, rng, norm=1e6)
        ms.retract(x, eta)  # must not raise


def test_retract_rejects_foreign_tangent():
    d = ms.sphere(3)
    rng = np.random.default_rng(18)
    x = ms.random_point(d, rng)
    other = ms.random_point(d, rng)
    eta = ms.random_tangent(other, rng)
    with pytest.raises(ShapeMismatchError):
        ms.retract(x, eta)


def test_vector_transport_examples():
    d = ms.sphere(3)
    e1 = ms.ManifoldPoint(d, np.array([1.0, 0.0, 0.0]))
    e2 = ms.ManifoldPoint(d, np.array([0.0, 1.0, 0.0]))
    xi = ms.TangentVector(d, e1, np.array([0.0, 0.0, 1.0]))
    moved = ms.vector_transport(e1, e2, xi)
    np.testing.assert_allclose(moved.data.ravel(), [0.0, 0.0, 1.0], atol=1e-15)

    xi2 = ms.TangentVector(d, e1, np.array([0.0, 1.0, 0.0]))
    gone = ms.vector_transport(e1, e2, xi2)
    np.testing.assert_allclose(gone.data.ravel(), np.zeros(3), atol=1e-15)

    same = ms.vector_transport(e1, e1, xi)
    np.testing.assert_allclose(same.data, xi.data, atol=1e-15)


def test_sphere_alpha_at_most_one():
    # dense sampling oracle for ||(x+u)/||x+u|| - x|| <= ||u||
    rc = ms.estimate_retraction_constants(ms.sphere(4), 2000, 8)
    assert rc.alpha <= 1.0 + 1e-9


def test_sphere_beta_bounded():
    rc = ms.estimate_retraction_constants(ms.sphere(3), 10_000, 42)
    assert rc.beta <= 1.0 + 1e-6


def test_small_step_ratio_near_one():
    d = ms.sphere(3)
    rng = np.random.default_rng(2)
    x = ms.random_point(d, rng)
    u = ms.random_tangent(x, rng, norm=1e-6)
    y = ms.retract(x, u)
    ratio = np.linalg.norm(y.data - x.data) / u.norm()
    assert abs(ratio - 1.0) <= 1e-9


def test_riemannian_gradient_matches_projection():
    rng = np.random.default_rng(4)
    x = ms.random_point(ms.stiefel(4, 2), rng)
    v = rng.standard_normal((4, 2))
    np.testing.assert_array_equal(ms.riemannian_gradient(x, v).data, ms.tangent_project(x, v).data)


def test_estimate_constants_deterministic():
    a = ms.estimate_retraction_constants(ms.stiefel(4, 2), 200, 77)
    b = ms.estimate_retraction_constants(ms.stiefel(4, 2), 200, 77)
    assert a == b
