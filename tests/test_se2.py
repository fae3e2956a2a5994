import numpy as np
import numpy.testing as npt

from vortexcyl._kernels import _pose_step
from vortexcyl.se2 import rotation, to_inertial


def _screw(omega, v, dt, carry=(0.0,) * 6):
    """Carried pose after one exact screw step at body velocity (omega, v);
    (beta, x0_x, x0_y) are items 0, 2 and 4."""
    return _pose_step(*carry, omega, v[0], v[1], dt)


def _composed(g1, g2):
    """Pose of the group product g1 g2, each pose ordered (beta, x0_x, x0_y)."""
    return np.concatenate([[g1[0] + g2[0]], rotation(g1[0]) @ g2[1:] + g1[1:]])


def test_body_to_inertial():
    npt.assert_array_equal(to_inertial(np.zeros(3), np.array([[0.3, -0.4]])), [[0.3, -0.4]])
    poses = np.array([[np.pi / 2, 1.0, 0.0], [0.0, 1.0, 2.0]])
    points = np.array([[[1.0, 0.0]], [[0.5, -0.5]]])
    npt.assert_allclose(to_inertial(poses, points), [[[1.0, 1.0]], [[1.5, 1.5]]], atol=1e-15)


def test_to_inertial_matches_rotation_matrix_on_stacks():
    rng = np.random.default_rng(13)
    poses = np.concatenate([rng.uniform(-4, 4, (20, 1)), rng.normal(size=(20, 2))], axis=1)
    points = rng.normal(size=(20, 5, 2))
    got = to_inertial(poses, points)
    assert got.shape == points.shape
    for pose, x, y in zip(poses, points, got):
        npt.assert_allclose(y, x @ rotation(pose[0]).T + pose[1:], rtol=0, atol=1e-14)


def test_frame_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = np.concatenate([[rng.uniform(-4, 4)], rng.normal(size=2)])
        x = rng.normal(size=(1, 2))
        back = (to_inertial(g, x) - g[1:]) @ rotation(g[0])  # right-multiplying by R applies R^T
        npt.assert_allclose(back, x, atol=1e-14)


def test_exp_pure_translation_and_rotation():
    g = _screw(0.0, [0.7, 0.0], 1.0)
    assert g[0] == 0.0
    npt.assert_allclose(g[2::2], [0.7, 0.0], atol=0)

    g = _screw(0.9, [0.0, 0.0], 1.0)
    assert abs(g[0] - 0.9) < 1e-15
    npt.assert_allclose(g[2::2], [0.0, 0.0], atol=0)


def _flow_oracle(omega, v, dt, nsub=20000):
    """High-resolution RK4 on the matrix ODE g' = g xi."""
    m = np.eye(3)
    gen = np.array([[0.0, -omega, v[0]], [omega, 0.0, v[1]], [0.0, 0.0, 0.0]])
    h = dt / nsub
    for _ in range(nsub):
        k1 = m @ gen
        k2 = (m + 0.5 * h * k1) @ gen
        k3 = (m + 0.5 * h * k2) @ gen
        k4 = (m + h * k3) @ gen
        m = m + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return m


def test_exp_screw_against_ode_oracle():
    g = _screw(np.pi, [np.pi, 0.0], 1.0)
    npt.assert_allclose(g[2::2], [0.0, 2.0], atol=1e-12)
    assert abs(abs(g[0]) - np.pi) < 1e-12
    oracle = _flow_oracle(np.pi, [np.pi, 0.0], 1.0)
    npt.assert_allclose(g[2::2], oracle[:2, 2], atol=1e-10)


def test_exp_small_angle_branch_is_continuous():
    v = np.array([1.3, -0.8])
    below = _screw(0.9e-8, v, 1.0)
    above = _screw(1.1e-8, v, 1.0)
    npt.assert_allclose(below[2::2], above[2::2], atol=1e-12)


def test_exp_additivity():
    rng = np.random.default_rng(6)
    for _ in range(50):
        omega, v = rng.uniform(-2, 2), rng.normal(size=2)
        t, s = rng.uniform(0.1, 1.5, 2)
        whole = _screw(omega, v, t + s)
        split = _screw(omega, v, s, _screw(omega, v, t))
        npt.assert_allclose(whole[2::2], split[2::2], atol=1e-12)
        assert abs(whole[0] - split[0]) < 1e-12


def test_frame_map_respects_composition():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g1 = np.concatenate([[rng.uniform(-3, 3)], rng.normal(size=2)])
        g2 = np.concatenate([[rng.uniform(-3, 3)], rng.normal(size=2)])
        x = rng.normal(size=(1, 2))
        via_product = to_inertial(_composed(g1, g2), x)
        nested = to_inertial(g1, to_inertial(g2, x))
        npt.assert_allclose(via_product, nested, atol=1e-12)
