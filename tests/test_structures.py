import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from vortexcyl import (
    ChartState,
    VortexSet,
    fd_gradient,
    interaction_bracket_coefficients,
    jacobi_residual,
    magnetic_pairing,
    momentum_structure_matrix,
    velocity_structure_matrix,
)
from vortexcyl import structures
from vortexcyl.energetics import BodyParams
from vortexcyl.fluid import ValidationError, batch_momentum_shift


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
        vs = VortexSet(g, st.positions)
        pi_pi = interaction_bracket_coefficients(st, g, body)[0]
        star = pi_pi + magnetic_pairing(vs, body.radius)[1, 2]
        d4 = np.sum(st.positions**2, axis=1) ** 2
        expected = -np.sum(g * (d4 - body.radius**4) / d4)
        assert abs(star - expected) <= 1e-10


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
    g, pos = case
    body = BodyParams(mass=np.pi, inertia=1.0, radius=1.0)
    combine, seen = structures._combine_stack, []

    def spy(values, order, h):
        seen.append(combine(values, order, h))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structures, "_combine_stack", spy)
        interaction_bracket_coefficients(ChartState("velocity", [0.1, 0.2, 0.3], pos), g, body)
    flat = pos.reshape(-1)
    h = 1e-3 * (1.0 + float(np.max(np.abs(flat))))
    for idx in (0, 1):
        ref = fd_gradient(lambda p: float(batch_momentum_shift(p.reshape(-1, 2), g, 1.0)[1 + idx]), flat, h, 6)
        assert (seen[0][0, :, idx] == ref).all()


@pytest.mark.parametrize(
    "positions, message",
    [
        # h = 4e-3: the stencil moves vortex 1 to y = 0.998, inside the body
        ([[3.0, 0.0], [0.0, 1.002]], "vortex 1: position must lie strictly outside the body"),
        # moving vortex 0 by +2h in x lands exactly on vortex 1
        ([[1.5, 3.0], [1.5 + 2 * 4e-3, 3.0]], "vortices 0 and 1 coincide"),
        # only the last stencil point, -3h on Y1, lands inside: 1.01 - 3 * 4e-3 = 0.998
        ([[3.0, 0.0], [0.0, 1.01]], "vortex 1: position must lie strictly outside the body"),
        # h = 2.005e-3: Y0 + 3h (visited at coordinate 1) and X1 - h (coordinate 2)
        # both land inside; the first in visiting order is reported
        ([[0.0, -1.005], [1.001, 0.0]], "vortex 0: position must lie strictly outside the body"),
    ],
)
def test_interaction_rejects_inadmissible_stencil_points(body, positions, message):
    g = np.array([1.0, -0.7])
    st = ChartState("velocity", [0.1, 0.2, 0.3], positions)
    VortexSet(g, st.positions).validate(body.radius)
    with pytest.raises(ValidationError, match=message):
        interaction_bracket_coefficients(st, g, body)


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
    yield (lambda z: const), np.zeros(3)
    canonical = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    yield (lambda z: canonical), np.zeros(4)
    for dim in (3, 4, 6):
        coef = rng.normal(size=(dim, dim, dim))

        def skew(z, coef=coef):
            u = np.sin(coef @ z) + (coef @ z) ** 2
            return u - u.T

        yield skew, rng.normal(size=dim)
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
    assert jacobi_residual(lambda z: const, np.zeros(3), 1e-5) <= 1e-12

    canonical = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert jacobi_residual(lambda z: canonical, np.zeros(4), 1e-5) <= 1e-12
    # a non-finite structure cannot pass for an exact one
    assert np.isnan(jacobi_residual(lambda z: np.full((3, 3), np.nan), np.zeros(3), 1e-5))


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
