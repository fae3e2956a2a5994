import re

import numpy as np
import numpy.testing as npt
import pytest

from conftest import random_state
from vortexcyl import (
    ChartState,
    VortexSet,
    fd_gradient,
    fd_jacobian,
    grad_kirchhoff_routh,
    image_vortex_velocity,
    jacobi_residual,
    kirchhoff_routh,
    pushforward_check,
)
from vortexcyl.fluid import ValidationError
from vortexcyl.maps import shift_jacobian, shift_map
from vortexcyl.oracle import _STENCILS, fd_combine, fd_stencil
from vortexcyl.structures import momentum_structure_matrix, velocity_structure_matrix


def test_fd_gradient_quadratic_exact():
    f = lambda z: float(z @ z)
    grad = fd_gradient(f, np.array([1.0, 2.0]), h=1e-4, order=2)
    npt.assert_allclose(grad, [2.0, 4.0], atol=1e-10)


def test_fd_gradient_constant():
    grad = fd_gradient(lambda z: 3.5, np.array([0.3, -0.7, 1.1]))
    npt.assert_array_equal(grad, np.zeros(3))


@pytest.mark.parametrize("order", [2, 4, 6])
def test_fd_gradient_orders(order):
    f = lambda z: float(np.sin(z[0]) * np.exp(z[1]))
    z = np.array([0.4, -0.2])
    expected = np.array([np.cos(0.4) * np.exp(-0.2), np.sin(0.4) * np.exp(-0.2)])
    grad = fd_gradient(f, z, h=1e-3, order=order)
    tol = {2: 1e-6, 4: 1e-10, 6: 1e-12}[order]
    npt.assert_allclose(grad, expected, atol=tol)


def _fd_gradient_loop(f, z, h, order):
    """Reference: one stencil point at a time, the per-coordinate loop."""
    offsets, weights = _STENCILS[order]
    grad = np.zeros_like(z)
    for i in range(z.size):
        step = np.zeros_like(z)
        acc = 0.0
        for k, w in zip(offsets, weights):
            step[i] = k * h
            acc += w * (f(z + step) - f(z - step))
        step[i] = 0.0
        grad[i] = acc / h
    return grad


def _fd_jacobian_loop(f, z, h, order):
    offsets, weights = _STENCILS[order]
    cols = []
    for i in range(z.size):
        step = np.zeros_like(z)
        acc = None
        for k, w in zip(offsets, weights):
            step[i] = k * h
            term = w * (np.asarray(f(z + step)) - np.asarray(f(z - step)))
            acc = term if acc is None else acc + term
        cols.append(acc / h)
    return np.stack(cols, axis=1)


_A = np.random.default_rng(7).normal(size=(4, 5))

_SCALAR_FIELDS = {
    "polynomial": lambda z: float(z @ _A[:, :4] @ z + (z**3) @ _A[0, :4] - 0.5 * z[0] * z[3] ** 2),
    "trigonometric": lambda z: float(np.sin(z @ _A[0, :4]) * np.cos(z[1]) + np.exp(0.3 * z[2])),
}
_VECTOR_FIELDS = {
    "polynomial": lambda z: _A.T @ z + (_A.T @ z**2) * z[0] - z[1] ** 3,
    "trigonometric": lambda z: np.sin(_A.T @ z) * np.cos(z[2]),
}


@pytest.mark.parametrize("order", [2, 4, 6])
@pytest.mark.parametrize("field", ["polynomial", "trigonometric"])
def test_fd_stencil_matches_per_point_loop_bitwise(order, field, rng):
    for h in (1e-3, 1e-5):
        for _ in range(5):
            z = rng.normal(size=4)
            grad = fd_gradient(_SCALAR_FIELDS[field], z, h, order)
            assert grad.shape == z.shape and (grad == _fd_gradient_loop(_SCALAR_FIELDS[field], z, h, order)).all()
            jac = fd_jacobian(_VECTOR_FIELDS[field], z, h, order)
            ref = _fd_jacobian_loop(_VECTOR_FIELDS[field], z, h, order)
            assert jac.shape == ref.shape == (5, 4) and (jac == ref).all()


_BAD_STEPS = [0.0, -1e-3, np.nan, np.inf]
_FD_CALLS = {
    "fd_stencil": lambda h, order: fd_stencil(np.zeros(2), h, order),
    "fd_combine": lambda h, order: fd_combine(np.zeros((4, 3)), h, order),
    "fd_gradient": lambda h, order: fd_gradient(lambda z: 0.0, np.zeros(2), h, order),
    "fd_jacobian": lambda h, order: fd_jacobian(lambda z: np.zeros(3), np.zeros(2), h, order),
    # its stencil is always order 2, so only its step can be bad
    "jacobi_residual": lambda h, order: jacobi_residual(lambda z: np.zeros(z.shape + (3,)), np.zeros(3), h),
}
_FD_REJECTIONS = [
    *((name, h, 2, "h must be positive") for name in _FD_CALLS for h in _BAD_STEPS),
    *((name, 1e-3, 3, "order must be one of [2, 4, 6]") for name in _FD_CALLS if name != "jacobi_residual"),
]


@pytest.mark.parametrize("name, h, order, message", _FD_REJECTIONS)
def test_finite_differences_reject_a_bad_step_or_order(name, h, order, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        _FD_CALLS[name](h, order)


@pytest.mark.parametrize("values, h", [(np.zeros(3), np.ones(3)), (np.zeros((5, 2)), 1e-3)])
def test_fd_combine_rejects_values_without_a_stencil_axis(values, h):
    with pytest.raises(ValidationError, match=r"^values \(\d+(, \d+)?,?\) hold no order-2 stencil axis"):
        fd_combine(values, h, 2)


def test_fd_gradient_cross_checks_kirchhoff_routh(rng):
    radius = 1.0
    g = np.array([1.0, -0.6])
    pos = np.array([[2.2, 0.1], [-0.4, 2.5]])
    analytic = grad_kirchhoff_routh(VortexSet(g, pos), radius).reshape(-1)
    f = lambda flat: kirchhoff_routh(VortexSet(g, flat.reshape(-1, 2)), radius)
    fd = fd_gradient(f, pos.reshape(-1), h=1e-5, order=2)
    npt.assert_allclose(analytic, fd, atol=1e-7)


def test_image_velocity_reference_speed():
    v = image_vortex_velocity(np.array([2.0, 0.0]), 2 * np.pi, 1.0)
    assert abs(np.linalg.norm(v) - 1.0 / 6.0) < 1e-14
    assert abs(v[0]) < 1e-15  # perpendicular to the radius


def test_image_velocity_far_field_decay():
    d = 1e3
    gamma = 2 * np.pi
    v = image_vortex_velocity(np.array([d, 0.0]), gamma, 1.0)
    assert np.linalg.norm(v) <= 2 * abs(gamma) / (2 * np.pi * d**3)


def test_image_velocity_equivariance(rng):
    gamma, radius = 1.3, 0.8
    p = np.array([1.7, 0.4])
    base = image_vortex_velocity(p, gamma, radius)
    for theta in rng.uniform(0, 2 * np.pi, 20):
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        rotated = image_vortex_velocity(rot @ p, gamma, radius)
        npt.assert_allclose(rotated, rot @ base, atol=1e-12)


def test_image_velocity_inside_rejected():
    with pytest.raises(ValidationError, match="^vortex 0: position must lie strictly outside the body$"):
        image_vortex_velocity(np.array([0.5, 0.0]), 1.0, 1.0)
    with pytest.raises(ValidationError, match="^vortex 0: strength must be finite and nonzero$"):
        image_vortex_velocity(np.array([2.0, 0.0]), 0.0, 1.0)


def test_pushforward_check_no_vortices(body):
    st = ChartState("velocity", [0.2, -0.3, 0.4], np.zeros((0, 2)))
    assert pushforward_check(st, body, np.zeros(0)) <= 1e-12


def test_pushforward_check_random_states(body, rng):
    worst = 0.0
    for _ in range(50):
        st, g = random_state(rng, "velocity")
        worst = max(worst, pushforward_check(st, body, g))
    assert worst <= 1e-9


def test_pushforward_negative_control(body, rng):
    # flipping the vortex-block sign must be detected loudly
    st, g = random_state(rng, "velocity")
    z = shift_map(st, g, body)
    ds = shift_jacobian(z.positions, g, body)
    flipped = momentum_structure_matrix(z, g)
    for i in range(st.n):
        flipped[3 + 2 * i, 4 + 2 * i] *= -1.0
        flipped[4 + 2 * i, 3 + 2 * i] *= -1.0
    pushed = ds @ flipped @ ds.T
    target = velocity_structure_matrix(st, g, body)
    dev = float(np.max(np.abs(pushed[1:, 1:] - target[1:, 1:])))
    assert dev >= 2.0 / np.max(np.abs(g))
