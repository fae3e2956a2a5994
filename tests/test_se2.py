import numpy as np
import numpy.testing as npt

from vortexcyl._kernels import _pose_step
from vortexcyl.se2 import (
    Se2Element,
    identity,
    se2_body_to_inertial,
    se2_compose,
)


def _screw(omega, v, dt, carry=(0.0,) * 6):
    """Carried pose after one exact screw step at body velocity (omega, v);
    (beta, x0_x, x0_y) are items 0, 2 and 4."""
    return _pose_step(*carry, omega, v[0], v[1], dt)


def test_identity_composition():
    g = Se2Element(0.7, [1.5, -0.3])
    for prod in (se2_compose(identity(), g), se2_compose(g, identity())):
        assert prod.beta == g.beta
        npt.assert_array_equal(prod.x0, g.x0)


def test_translations_add():
    g = se2_compose(Se2Element(0.0, [1.0, 0.0]), Se2Element(0.0, [0.0, 2.0]))
    assert g.beta == 0.0
    npt.assert_allclose(g.x0, [1.0, 2.0], atol=0)


def test_compose_matches_matrix_product():
    g1 = Se2Element(np.pi / 2, [0.0, 0.0])
    g2 = Se2Element(0.0, [1.0, 0.0])
    prod = se2_compose(g1, g2)
    npt.assert_allclose(prod.matrix(), g1.matrix() @ g2.matrix(), atol=1e-15)
    npt.assert_allclose(prod.x0, [0.0, 1.0], atol=1e-15)
    assert abs(prod.beta - np.pi / 2) < 1e-15

    rng = np.random.default_rng(3)
    for _ in range(50):
        a = Se2Element(rng.uniform(-4, 4), rng.normal(size=2))
        b = Se2Element(rng.uniform(-4, 4), rng.normal(size=2))
        npt.assert_allclose(se2_compose(a, b).matrix(), a.matrix() @ b.matrix(), atol=1e-12)


def test_body_to_inertial():
    g = identity()
    npt.assert_array_equal(se2_body_to_inertial(g, [0.3, -0.4]), [0.3, -0.4])

    g = Se2Element(np.pi / 2, [1.0, 0.0])
    npt.assert_allclose(se2_body_to_inertial(g, [1.0, 0.0]), [1.0, 1.0], atol=1e-15)


def test_frame_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = Se2Element(rng.uniform(-4, 4), rng.normal(size=2))
        x = rng.normal(size=2)
        back = se2_body_to_inertial(g, se2_body_to_inertial(g, x), inverse=True)
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


def test_associativity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b, c = (Se2Element(rng.uniform(-3, 3), rng.normal(size=2)) for _ in range(3))
        left = se2_compose(se2_compose(a, b), c)
        right = se2_compose(a, se2_compose(b, c))
        npt.assert_allclose(left.x0, right.x0, atol=1e-12)
        assert abs(left.beta - right.beta) < 1e-12


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
        g1 = Se2Element(rng.uniform(-3, 3), rng.normal(size=2))
        g2 = Se2Element(rng.uniform(-3, 3), rng.normal(size=2))
        x = rng.normal(size=2)
        via_product = se2_body_to_inertial(se2_compose(g1, g2), x)
        nested = se2_body_to_inertial(g1, se2_body_to_inertial(g2, x))
        npt.assert_allclose(via_product, nested, atol=1e-12)
