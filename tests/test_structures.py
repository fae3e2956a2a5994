import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from vortexcyl import (
    ChartState,
    cocycle_sigma,
    elementary_streams,
    fd_gradient,
    interaction_bracket_coefficients,
    jacobi_residual,
    magnetic_pairing,
    magnetic_potential,
    momentum_structure_matrix,
    velocity_structure_matrix,
)
from vortexcyl.energetics import BodyParams
from vortexcyl.fluid import ValidationError


def test_momentum_matrix_algebra_block(rng):
    st, g = random_state(rng, "momentum")
    lam = momentum_structure_matrix(st, g)
    assert lam[0, 1] == -st.body[2]  # {A, Lx} = -Ly
    assert lam[0, 2] == st.body[1]  # {A, Ly} = Lx
    assert abs(lam[1, 2] - g.sum()) < 1e-15


def test_momentum_matrix_zero_total_strength():
    st = ChartState("momentum", [0.1, 0.2, 0.3], [[2.0, 0.0], [0.0, 2.0]])
    lam = momentum_structure_matrix(st, np.array([1.0, -1.0]))
    assert lam[1, 2] == 0.0


@pytest.mark.parametrize(
    "strengths, message",
    [
        ([np.nan, 1.0], "vortex 0: strength must be finite and nonzero"),
        ([np.inf, 1.0], "vortex 0: strength must be finite and nonzero"),
        ([1.0, -np.inf], "vortex 1: strength must be finite and nonzero"),
        ([1.0, 0.0], "vortex 1: strength must be finite and nonzero"),
    ],
)
def test_momentum_matrix_rejects_strengths_not_finite_and_nonzero(strengths, message):
    st = ChartState("momentum", [0.1, 0.2, 0.3], [[2.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValidationError, match=f"^{message}$"):
        momentum_structure_matrix(st, np.array(strengths))


@pytest.mark.parametrize("strengths", [[1.0], [1.0, 2.0, 3.0]])
def test_momentum_matrix_rejects_strengths_of_another_length(strengths):
    st = ChartState("momentum", [0.1, 0.2, 0.3], [[2.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValidationError, match="^strengths and positions must have matching length$"):
        momentum_structure_matrix(st, np.array(strengths))


def test_momentum_matrix_vortex_block():
    st = ChartState("momentum", [0.0, 0.0, 0.0], [[2.0, 0.0]])
    lam = momentum_structure_matrix(st, np.array([2.0]))
    assert abs(abs(lam[3, 4]) - 0.5) < 1e-15
    assert lam[3, 4] == -0.5  # global vortex sign convention


def test_matrices_exactly_skew(body, rng):
    for chart, build in (
        ("momentum", lambda s, g: momentum_structure_matrix(s, g)),
        ("velocity", lambda s, g: velocity_structure_matrix(s, g, body)),
    ):
        st, g = random_state(rng, chart)
        lam = build(st, g)
        npt.assert_array_equal(lam, -lam.T)


def test_velocity_matrix_vortex_block(body):
    st = ChartState("velocity", [0.0, 0.1, -0.2], [[2.0, 0.0], [0.0, 2.5]])
    g = np.array([2.0, -0.5])
    lam = velocity_structure_matrix(st, g, body)
    assert abs(lam[3, 4] + 1.0 / 2.0) < 1e-15
    assert abs(lam[5, 6] - 2.0) < 1e-15


def test_velocity_matrix_far_field_limit(body):
    st = ChartState("velocity", [0.0, 0.0, 0.0], [[1.0e4, 0.0], [0.0, 1.2e4]])
    g = np.array([1.0, 2.0])
    lam = velocity_structure_matrix(st, g, body)
    # (d^4 - R^4)/d^4 -> 1, so {V1, V2} -> (Gamma - sum Gamma_i)/c^2 = 0
    assert abs(lam[1, 2]) <= 1e-15


def test_velocity_matrix_single_vortex_coupling(body):
    # magnitude (1/2pi) (16 - 4)/16 = 3/(8 pi); the coupling sign is fixed by
    # the requirement that the shift map pushes one structure onto the other
    st = ChartState("velocity", [0.0, 0.0, 0.0], [[2.0, 0.0]])
    lam = velocity_structure_matrix(st, np.array([1.0]), body)
    assert abs(abs(lam[1, 3]) - 3.0 / (8.0 * np.pi)) < 1e-15
    assert lam[1, 3] < 0


def test_interaction_matches_velocity_matrix(body, rng):
    c = body.c
    worst = 0.0
    for _ in range(30):
        st, g = random_state(rng, "velocity")
        lam = velocity_structure_matrix(st, g, body)
        pi_pi, pi_vortex, vortex = interaction_bracket_coefficients(st, g, body)
        dev = max(
            abs(pi_pi - c**2 * lam[1, 2]),
            np.max(np.abs(pi_vortex - c * lam[1:3, 3:])),
            np.max(np.abs(vortex - lam[3::2, 4::2])),
        )
        worst = max(worst, dev)
    assert worst <= 1e-10


def test_interaction_momentum_bracket_formula(body, rng):
    for _ in range(20):
        st, g = random_state(rng, "velocity")
        d4 = np.sum(st.positions**2, axis=1) ** 2
        expected = g.sum() - np.sum(g * (d4 - body.radius**4) / d4)
        pi_pi = interaction_bracket_coefficients(st, g, body)[0]
        assert abs(pi_pi - expected) <= 1e-10


def test_interaction_star_term(body, rng):
    # Pi_x * Pi_y under the vortex bracket alone equals -sum G_i (d^4-R^4)/d^4;
    # recover it from the assembled entry by removing the generator pairing.
    for _ in range(10):
        st, g = random_state(rng, "velocity")
        pi_pi = interaction_bracket_coefficients(st, g, body)[0]
        star = pi_pi + magnetic_pairing(st.positions, g, body.radius)[1, 2]
        d4 = np.sum(st.positions**2, axis=1) ** 2
        expected = -np.sum(g * (d4 - body.radius**4) / d4)
        assert abs(star - expected) <= 1e-10


def _small_body_cases(radius):
    """Strengths (1, -0.6) at (2R, 0.3R) and (-1.5R, 1.7R), then 200 random three-vortex
    states between 1.01 R and 3 R: stacks of positions (K, N, 2) and strengths (K, N)."""
    yield np.array([[[2.0, 0.3], [-1.5, 1.7]]]) * radius, np.array([[1.0, -0.6]])
    rng = np.random.default_rng(11)
    r = rng.uniform(1.01, 3.0, (200, 3)) * radius
    th = rng.uniform(0.0, 2.0 * np.pi, (200, 3))
    g = rng.uniform(0.5, 2.0, (200, 3)) * rng.choice([-1.0, 1.0], (200, 3))
    yield np.stack([r * np.cos(th), r * np.sin(th)], axis=-1), g


# the stream stencil's step scales with the vortex's distance, so both certificates
# hold on a small body as they do at R = 1
@pytest.mark.parametrize("radius", [1e-3, 1e-6])
def test_cocycle_mixed_components_vanish_on_a_small_body(radius):
    for pos, g in _small_body_cases(radius):
        sigma = cocycle_sigma(pos, g, radius)
        phi_xy = np.max(np.abs(magnetic_potential(pos, g, radius)[:, 1:]), axis=-1)
        assert (np.max(np.abs(sigma[:, 0, 1:]), axis=-1) <= 1e-10 * phi_xy).all()


@pytest.mark.parametrize("radius", [1e-3, 1e-6])
def test_interaction_matches_velocity_matrix_on_a_small_body(radius):
    body = BodyParams(mass=np.pi, inertia=1.0, radius=radius)
    for pos, g in _small_body_cases(radius):
        st = ChartState("velocity", np.zeros((len(pos), 3)), pos)
        lam = velocity_structure_matrix(st, g, body)
        pi_pi, pi_vortex, _ = interaction_bracket_coefficients(st, g, body)
        assert np.max(np.abs(pi_pi - body.c**2 * lam[:, 1, 2])) <= 1e-10 * body.c**2
        assert np.max(np.abs(pi_vortex - body.c * lam[:, 1:3, 3:])) <= 1e-10 * body.c


@st.composite
def _admissible_sets(draw):
    """N = 1..4 vortices between 1.1 R and 4 R, kept apart by angular spacing."""
    n = draw(st.integers(1, 4))
    phase = draw(st.floats(0.0, 2.0 * np.pi))
    strengths, positions = [], []
    for i in range(n):
        strengths.append(draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1.0, 1.0])))
        angle = phase + 2.0 * np.pi * (i + 0.3 * draw(st.floats(-1.0, 1.0))) / n
        positions.append(draw(st.floats(1.1, 4.0)) * np.array([np.cos(angle), np.sin(angle)]))
    return np.array(strengths), np.array(positions)


@settings(max_examples=60, deadline=None)
@given(_admissible_sets())
def test_interaction_phi_gradient_matches_fd_gradient_bitwise(case):
    # d(phi_x, phi_y)/d(X_i, Y_i) is Gamma_i times the elementary streams' order-6
    # gradient at X_i, step 1e-3 |X_i|, plus the bare term d(-Y_i, X_i)/d(X_i, Y_i)
    g, pos = case
    body = BodyParams(mass=np.pi, inertia=1.0, radius=1.0)
    pi_vortex = interaction_bracket_coefficients(ChartState("velocity", [0.1, 0.2, 0.3], pos), g, body)[1]
    bare = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for i, (gi, x) in enumerate(zip(g, pos)):
        h = 1e-3 * np.hypot(*x)
        streams = [fd_gradient(lambda p, k=k: elementary_streams(p, 1.0, check=False)[k], x, h, 6) for k in (0, 1)]
        grad = gi * (np.stack(streams, axis=-1) + bare)  # (coordinate, stream)
        # {Pi_a, X_i} = -1/Gamma_i * -dphi_a/dY_i and {Pi_a, Y_i} = -1/Gamma_i * dphi_a/dX_i
        assert (pi_vortex[:, 2 * i] == -1.0 / gi * -grad[1]).all()
        assert (pi_vortex[:, 2 * i + 1] == -1.0 / gi * grad[0]).all()


@pytest.mark.parametrize(
    "positions",
    [
        [[3.0, 0.0], [0.0, 1.002]],
        [[1.5, 3.0], [1.5 + 2 * 4e-3, 3.0]],
        [[3.0, 0.0], [0.0, 1.01]],
        [[0.0, -1.005], [1.001, 0.0]],
    ],
)
def test_interaction_admits_states_near_the_body_or_each_other(body, positions):
    # phi_xy holds one term per vortex, and each term's stencil moves its own vortex alone,
    # so no stencil meets another vortex; where one steps inside the body the streams
    # continue analytically
    g = np.array([1.0, -0.7])
    st = ChartState("velocity", [0.1, 0.2, 0.3], positions)
    lam = velocity_structure_matrix(st, g, body)
    pi_pi, pi_vortex, vortex = interaction_bracket_coefficients(st, g, body)
    assert abs(pi_pi - body.c**2 * lam[1, 2]) <= 1e-10
    assert np.max(np.abs(pi_vortex - body.c * lam[1:3, 3:])) <= 1e-10
    assert np.max(np.abs(vortex - lam[3::2, 4::2])) <= 1e-10


def _on_stacks(structure_field):
    """A field of one flat point as a field of stacks of them (..., D) -> (..., D, D)."""
    def field(z):
        d = z.shape[-1]
        return np.array([structure_field(p) for p in z.reshape(-1, d)]).reshape(z.shape + (d,))
    return field


def _jacobi_loop(structure_field, z, h):
    """Reference: the scalar quadruple loop over (i < j < k, l)."""
    dim = z.size
    lam = structure_field(z)
    dlam = np.empty((dim, dim, dim))
    for l in range(dim):
        step = np.zeros(dim)
        step[l] = h
        dlam[l] = (structure_field(z + step) - structure_field(z - step)) / (2.0 * h)
    worst = 0.0
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                total = 0.0
                for l in range(dim):
                    total += lam[i, l] * dlam[l, j, k] + lam[j, l] * dlam[l, k, i] + lam[k, l] * dlam[l, i, j]
                worst = max(worst, abs(total))
    return worst


def _jacobi_cases(body, rng):
    const = np.array([[0.0, 2.0, -1.0], [-2.0, 0.0, 0.5], [1.0, -0.5, 0.0]])
    yield _on_stacks(lambda z: const), np.zeros(3)
    canonical = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    yield _on_stacks(lambda z: canonical), np.zeros(4)
    for dim in (3, 4, 6):
        coef = rng.normal(size=(dim, dim, dim))

        def skew(z, coef=coef):
            u = np.sin(coef @ z) + (coef @ z) ** 2
            return u - u.T

        yield _on_stacks(skew), rng.normal(size=dim)
    for n in range(4):
        for chart in ("momentum", "velocity"):
            state, g = random_state(rng, chart, n=n)

            def field(z, chart=chart, g=g):
                zs = ChartState.from_flat(chart, z)
                if chart == "momentum":
                    return momentum_structure_matrix(zs, g)
                return velocity_structure_matrix(zs, g, body)

            yield field, state.flat()


def test_jacobi_residual_matches_scalar_loop_bitwise(body, rng):
    for field, z in _jacobi_cases(body, rng):
        for h in (1e-5 * (1.0 + float(np.max(np.abs(z)))), 1e-3):
            assert jacobi_residual(field, z, h) == _jacobi_loop(field, z, h)


def test_jacobi_constant_structures():
    const = np.array([[0.0, 2.0, -1.0], [-2.0, 0.0, 0.5], [1.0, -0.5, 0.0]])
    assert jacobi_residual(_on_stacks(lambda z: const), np.zeros(3), 1e-5) <= 1e-12

    canonical = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert jacobi_residual(_on_stacks(lambda z: canonical), np.zeros(4), 1e-5) <= 1e-12
    # a non-finite structure cannot pass for an exact one
    assert np.isnan(jacobi_residual(_on_stacks(lambda z: np.full((3, 3), np.nan)), np.zeros(3), 1e-5))


def test_jacobi_both_charts(body, rng):
    for chart, build in (
        ("momentum", lambda z, g: momentum_structure_matrix(ChartState.from_flat("momentum", z), g)),
        ("velocity", lambda z, g: velocity_structure_matrix(ChartState.from_flat("velocity", z), g, body)),
    ):
        worst = 0.0
        for _ in range(20):
            st, g = random_state(rng, chart)
            z = st.flat()
            h = 1e-5 * (1.0 + float(np.max(np.abs(z))))
            worst = max(worst, jacobi_residual(lambda zz: build(zz, g), z, h))
        assert worst <= 1e-6, chart
