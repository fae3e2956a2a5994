import numpy as np
import numpy.testing as npt
import pytest

from vortexcyl import (
    BodyParams,
    ChartState,
    hamiltonian,
    hamiltonian_gradient,
    interaction_bracket_coefficients,
    inverse_shift_map,
    pushforward_check,
    rhs,
    shift_map,
    velocity_structure_matrix,
)
from vortexcyl.fluid import (
    MIN_CLEARANCE,
    ValidationError,
    VortexSet,
    batch_kirchhoff_routh,
    batch_momentum_shift,
    elementary_potentials,
    elementary_streams,
    grad_kirchhoff_routh,
    green_function,
    green_regular_part,
    kirchhoff_routh,
    min_pair_distance,
    regularized_self,
    validate_stack,
)
from vortexcyl.maps import cocycle_sigma, magnetic_pairing, magnetic_potential
from vortexcyl.oracle import fd_gradient, image_vortex_velocity

UNIT = 1.0


def _exterior_points(rng, count, radius, r_min=1.5, r_max=3.0):
    r = rng.uniform(r_min * radius, r_max * radius, count)
    th = rng.uniform(0, 2 * np.pi, count)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)


@pytest.mark.parametrize("strengths, positions", [([1.0], [[2.0, 0.0], [3.0, 0.0]]), ([1.0, 2.0], [[2.0, 0.0]])])
def test_vortex_set_rejects_strengths_and_positions_of_different_lengths(strengths, positions):
    with pytest.raises(ValidationError, match="^strengths and positions must have matching length$"):
        VortexSet(strengths, positions)


def test_potential_values_unit_radius():
    phi_x, phi_y, phi_om = elementary_potentials([1.0, 0.0], UNIT)
    assert phi_x == -1.0 and phi_y == 0.0 and phi_om == 0.0
    _, phi_y, _ = elementary_potentials([0.0, 2.0], UNIT)
    assert phi_y == -0.5


def test_stream_values_unit_radius():
    psi_x, psi_y, _ = elementary_streams([1.0, 0.0], UNIT)
    assert psi_x == 0.0 and psi_y == -1.0
    psi_x, _, psi_om = elementary_streams([0.0, 1.0], UNIT)
    assert psi_x == 1.0 and psi_om == 0.0


def test_rotation_potential_vanishes(rng):
    radius = 1.7
    for p in _exterior_points(rng, 10, radius):
        assert elementary_potentials(p, radius)[2] == 0.0
        assert elementary_streams(p, radius)[2] == 0.0


def test_cauchy_riemann_conjugacy(rng):
    h = 1e-5
    for radius in (0.5, 1.0, 2.0):
        for p in _exterior_points(rng, 20, radius, r_min=2.0, r_max=3.5):
            for k in (0, 1):  # the X and Y fields
                def phi(q, k=k, radius=radius):
                    return elementary_potentials(q, radius, check=False)[k]

                def psi(q, k=k, radius=radius):
                    return elementary_streams(q, radius, check=False)[k]

                gphi = fd_gradient(phi, p, h=h, order=2)
                gpsi = fd_gradient(psi, p, h=h, order=2)
                residual = abs(gphi[0] - gpsi[1]) + abs(gphi[1] + gpsi[0])
                assert residual <= 1e-10


def test_laplace_residual(rng):
    h = 1e-3
    radius = 1.3
    pts = _exterior_points(rng, 100, radius)
    for p in pts:
        for field, k in ((elementary_potentials, 0), (elementary_potentials, 1),
                         (elementary_streams, 0), (elementary_streams, 1)):
            f = lambda q: field(q, radius, check=False)[k]
            lap = (
                f(p + [h, 0]) + f(p - [h, 0]) + f(p + [0, h]) + f(p - [0, h]) - 4.0 * f(p)
            ) / h**2
            assert abs(lap) <= 1e-6


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.3])
def test_neumann_boundary_condition(radius):
    h = 1e-4 * radius
    for theta in np.linspace(0, 2 * np.pi, 64, endpoint=False):
        n = np.array([np.cos(theta), np.sin(theta)])
        bp = radius * n

        def along_normal(field_index, s):
            return elementary_potentials(bp + s * n, radius, check=False)[field_index]

        for k, target in ((0, n[0]), (1, n[1])):
            dn = (
                -along_normal(k, 2 * h)
                + 8 * along_normal(k, h)
                - 8 * along_normal(k, -h)
                + along_normal(k, -2 * h)
            ) / (12.0 * h)
            assert abs(dn - target) <= 1e-10


def test_far_field_decay():
    radius = 1.4
    p = np.array([1e3 * radius, 0.0])
    bound = 2 * radius**2 / np.linalg.norm(p)
    for val in (*elementary_potentials(p, radius), *elementary_streams(p, radius)):
        assert abs(val) <= bound


def test_inside_point_rejected():
    with pytest.raises(ValidationError):
        elementary_potentials([0.3, 0.0], UNIT)
    with pytest.raises(ValidationError):
        green_function([0.2, 0.0], [2.0, 0.0], UNIT)
    with pytest.raises(ValidationError):
        regularized_self([0.9999, 0.0], UNIT)


def test_green_symmetry(rng):
    radius = 0.8
    for _ in range(100):
        p, q = _exterior_points(rng, 2, radius)
        assert abs(green_function(p, q, radius) - green_function(q, p, radius)) <= 1e-12


def test_green_constant_boundary_trace():
    target = np.array([2.0, 0.7])
    values = []
    for theta in np.linspace(0, 2 * np.pi, 64, endpoint=False):
        bp = np.array([np.cos(theta), np.sin(theta)])
        values.append(green_function(bp, target, UNIT))
    assert np.max(values) - np.min(values) <= 1e-12


def test_regularized_self_value():
    expected = np.log(4.0 / 3.0) / (2.0 * np.pi)
    assert abs(regularized_self([2.0, 0.0], UNIT) - expected) < 1e-15
    with pytest.raises(ValidationError):
        green_function([2.0, 0.0], [2.0, 0.0], UNIT)


def test_kirchhoff_routh_empty():
    assert kirchhoff_routh(VortexSet([], np.zeros((0, 2))), UNIT) == 0.0


def test_kirchhoff_routh_single_vortex():
    expected = 0.5 * np.log(4.0 / 3.0) / (2.0 * np.pi)
    wg = kirchhoff_routh(VortexSet([1.0], [[2.0, 0.0]]), UNIT)
    assert abs(wg - expected) < 1e-15


def test_kirchhoff_routh_next_to_the_margin_is_its_pointwise_sum():
    # this close to the body the image denominator on the pair grid's zero-weight diagonal
    # cancels to 0; its log must not reach the sum
    x = [[1.0 + 2e-9, 0.0], [0.0, 3.0]]
    pointwise = 0.5 * regularized_self(x[0], UNIT) + 0.5 * regularized_self(x[1], UNIT)
    pointwise += green_function(x[0], x[1], UNIT)
    wg = kirchhoff_routh(VortexSet([1.0, 1.0], x), UNIT)
    npt.assert_allclose(wg, pointwise, rtol=1e-15)
    stack = batch_kirchhoff_routh([x, [[2.0, 0.0], [0.0, 3.0]]], [1.0, 1.0], UNIT)
    assert stack[0] == wg and stack[1] == kirchhoff_routh(VortexSet([1.0, 1.0], [[2.0, 0.0], [0.0, 3.0]]), UNIT)


@pytest.mark.parametrize("radius", [0.7, 1.3])
@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_kirchhoff_routh_matches_literal_sum(rng, n, radius):
    g = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    pos = _exterior_points(rng, n, radius, r_min=1.01)
    terms = [0.5 * g[i] ** 2 * regularized_self(pos[i], radius) for i in range(n)]
    terms += [g[i] * g[j] * green_function(pos[i], pos[j], radius) for i in range(n) for j in range(i)]
    scale = sum(abs(t) for t in terms)
    npt.assert_allclose(kirchhoff_routh(VortexSet(g, pos), radius), sum(terms), rtol=1e-13, atol=1e-13 * scale)


def test_batched_pair_sums_match_one_configuration_at_a_time(rng):
    # more rows than one block holds, so the block boundaries are crossed
    n, m = 12, 1000
    g = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    stack = np.array([_exterior_points(rng, n, UNIT) for _ in range(m)])
    energies = batch_kirchhoff_routh(stack.reshape(2, m // 2, n, 2), g, UNIT)
    assert energies.shape == (2, m // 2)
    per_row = [kirchhoff_routh(VortexSet(g, x), UNIT) for x in stack]
    npt.assert_allclose(energies.reshape(-1), per_row, rtol=0, atol=1e-14 * np.max(np.abs(per_row)))
    closest = min(np.sqrt(np.sum((x[i] - x[j]) ** 2)) for x in stack for i in range(n) for j in range(i))
    assert min_pair_distance(stack) == closest
    assert min_pair_distance(stack[:, :1]) == np.inf


def test_kirchhoff_routh_rotation_invariance(rng):
    g = np.array([1.0, -0.5, 2.0])
    pos = _exterior_points(rng, 3, UNIT)
    base = kirchhoff_routh(VortexSet(g, pos), UNIT)
    for theta in rng.uniform(0, 2 * np.pi, 10):
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        rotated = kirchhoff_routh(VortexSet(g, pos @ rot.T), UNIT)
        assert abs(rotated - base) <= 1e-12


def test_grad_kirchhoff_routh_vs_fd(rng):
    radius = 1.1
    for _ in range(10):
        g = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
        pos = _exterior_points(rng, 3, radius, r_min=1.7)
        vs = VortexSet(g, pos)
        grad = grad_kirchhoff_routh(vs, radius).reshape(-1)

        def f(flat):
            return kirchhoff_routh(VortexSet(g, flat.reshape(-1, 2)), radius)

        fd = fd_gradient(f, pos.reshape(-1), h=1e-5, order=2)
        npt.assert_allclose(grad, fd, atol=1e-7)


def test_grad_single_vortex_is_radial():
    grad = grad_kirchhoff_routh(VortexSet([1.5], [[2.5, 0.0]]), UNIT)
    assert grad[0, 1] == 0.0
    assert grad[0, 0] != 0.0


def test_grad_empty():
    assert grad_kirchhoff_routh(VortexSet([], np.zeros((0, 2))), UNIT).shape == (0, 2)


def test_vortex_set_validation():
    with pytest.raises(ValidationError, match="vortex 0"):
        VortexSet([0.0], [[2.0, 0.0]]).validate(UNIT)
    with pytest.raises(ValidationError, match="vortex 1"):
        VortexSet([1.0, 1.0], [[2.0, 0.0], [0.5, 0.0]]).validate(UNIT)
    with pytest.raises(ValidationError, match="coincide"):
        VortexSet([1.0, 1.0], [[2.0, 0.0], [2.0, 0.0]]).validate(UNIT)
    # several offenders: the message names the first one, or the lowest pair (i, j)
    with pytest.raises(ValidationError, match=r"^vortex 1: strength"):
        VortexSet([1.0, 0.0, np.nan, 0.0], [[2.0, 0.0], [2.0, 1.0], [2.0, 2.0], [2.0, 3.0]]).validate(UNIT)
    with pytest.raises(ValidationError, match=r"^vortex 1: position"):
        VortexSet([1.0, 1.0, 1.0], [[2.0, 0.0], [np.nan, 0.0], [0.5, 0.0]]).validate(UNIT)
    crowd = [[5.0, 0.0], [2.0, 0.0], [3.0, 1.0], [2.0, 0.0], [5.0, 0.0], [3.0, 1.0]]
    with pytest.raises(ValidationError, match=r"^vortices 0 and 4 coincide$"):
        VortexSet(np.ones(6), crowd).validate(UNIT)
    with pytest.raises(ValidationError, match=r"^vortices 0 and 2 coincide$"):
        VortexSet(np.ones(5), crowd[1:]).validate(UNIT)
    with pytest.raises(ValidationError, match=r"^vortices 0 and 2 coincide$"):
        VortexSet(np.ones(3), [[0.0, 2.0], [-0.0, 3.0], [-0.0, 2.0]]).validate(UNIT)


# every public function that validates a radius, each given a point inside the unit
# body and a vortex whose strength and position both break their rules, so that
# the radius has to be the first thing rejected
_BAD = VortexSet([0.0], [[0.5, 0.0]])
_RADIUS_GATES = {
    "VortexSet.validate": lambda r: _BAD.validate(r),
    "validate_stack": lambda r: validate_stack(_BAD.strengths, _BAD.positions[None], r),
    "elementary_potentials": lambda r: elementary_potentials([0.5, 0.0], r),
    "elementary_streams": lambda r: elementary_streams([0.5, 0.0], r),
    "green_regular_part": lambda r: green_regular_part([0.5, 0.0], [2.0, 0.0], r),
    "green_function": lambda r: green_function([0.5, 0.0], [0.5, 0.0], r),
    "regularized_self": lambda r: regularized_self([0.5, 0.0], r),
    "kirchhoff_routh": lambda r: kirchhoff_routh(_BAD, r),
    "grad_kirchhoff_routh": lambda r: grad_kirchhoff_routh(_BAD, r),
    "magnetic_potential": lambda r: magnetic_potential(_BAD.positions, _BAD.strengths, r),
    "magnetic_pairing": lambda r: magnetic_pairing(_BAD.positions, _BAD.strengths, r),
    "cocycle_sigma": lambda r: cocycle_sigma(_BAD.positions, _BAD.strengths, r),
    "image_vortex_velocity": lambda r: image_vortex_velocity([0.5, 0.0], 0.0, r),
}


@pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("function", sorted(_RADIUS_GATES))
def test_every_validating_function_rejects_a_bad_radius_first(function, radius):
    with pytest.raises(ValidationError, match="^radius must be a positive finite float$"):
        _RADIUS_GATES[function](radius)


def test_momentum_shift_terms_single_vortex():
    phi = batch_momentum_shift([[3.0, 0.0]], [2.0], UNIT)
    assert phi.shape == (3,)
    npt.assert_allclose(phi, [9.0, 0.0, 2.0 * 3.0 * (1 - 1 / 9)], atol=1e-14)


# The fluid's one rule, at its two margins: a vortex must lie strictly beyond
# R(1 + MIN_CLEARANCE), a field point anywhere from R(1 - 1e-12) outward.
_VORTEX_MARGIN = UNIT * (1.0 + MIN_CLEARANCE)
_FIELD_MARGIN = UNIT * (1.0 - 1e-12)
_STATE_BODY = BodyParams(mass=np.pi, inertia=1.0, radius=UNIT)


_G = [1.0, 1.0]


def _pair(x):
    """The vortex at x and a second one far out."""
    return np.array([x, [0.0, 3.0]])


def _state(chart, x):
    return ChartState(chart, [0.1, -0.2, 0.3], _pair(x))


# every public function that admits a vortex, given one at position x (with a second
# one far out where it takes a configuration)
_VORTEX_TAKERS = {
    "validate_stack": lambda x: validate_stack(_G, _pair(x), UNIT),
    "VortexSet.validate": lambda x: VortexSet(_G, _pair(x)).validate(UNIT),
    "regularized_self": lambda x: regularized_self(x, UNIT),
    "image_vortex_velocity": lambda x: image_vortex_velocity(x, 1.0, UNIT),
    "kirchhoff_routh": lambda x: kirchhoff_routh(VortexSet(_G, _pair(x)), UNIT),
    "grad_kirchhoff_routh": lambda x: grad_kirchhoff_routh(VortexSet(_G, _pair(x)), UNIT),
    "magnetic_potential": lambda x: magnetic_potential(_pair(x), _G, UNIT),
    "magnetic_pairing": lambda x: magnetic_pairing(_pair(x), _G, UNIT),
    "cocycle_sigma": lambda x: cocycle_sigma(_pair(x), _G, UNIT),
    "shift_map": lambda x: shift_map(_state("velocity", x), _G, _STATE_BODY),
    "inverse_shift_map": lambda x: inverse_shift_map(_state("momentum", x), _G, _STATE_BODY),
    "hamiltonian": lambda x: hamiltonian("momentum", _state("momentum", x), _STATE_BODY, _G),
    "hamiltonian_gradient": lambda x: hamiltonian_gradient("velocity", _state("velocity", x), _STATE_BODY, _G),
    "rhs": lambda x: rhs("momentum", _state("momentum", x), _STATE_BODY, _G),
    "velocity_structure_matrix": lambda x: velocity_structure_matrix(_state("velocity", x), _G, _STATE_BODY),
    "interaction_bracket_coefficients": lambda x: interaction_bracket_coefficients(
        _state("velocity", x), _G, _STATE_BODY
    ),
    "pushforward_check": lambda x: pushforward_check(_state("velocity", x), _STATE_BODY, _G),
}

# every public function that evaluates a field at points, with the check on
_FIELD_TAKERS = {
    "elementary_potentials": lambda x: elementary_potentials(x, UNIT),
    "elementary_streams": lambda x: elementary_streams(x, UNIT),
    "green_regular_part": lambda x: green_regular_part([2.0, 0.5], x, UNIT),
    "green_function": lambda x: green_function(x, [2.0, 0.5], UNIT),
}

_ANGLES = [0.0, 0.5 * np.pi, 2.0, -2.5]


def _at(distance, angle):
    return [distance * np.cos(angle), distance * np.sin(angle)]


@pytest.mark.parametrize("distance", [_VORTEX_MARGIN, UNIT * (1.0 + 0.5 * MIN_CLEARANCE), UNIT, 0.5, np.nan])
@pytest.mark.parametrize("function", sorted(_VORTEX_TAKERS))
def test_a_vortex_at_or_inside_the_margin_is_rejected(function, distance):
    with pytest.raises(ValidationError, match="position|not in the fluid"):
        _VORTEX_TAKERS[function]([distance, 0.0])


@pytest.mark.parametrize("function", sorted(_VORTEX_TAKERS))
def test_a_vortex_one_step_beyond_the_margin_is_admitted(function):
    _VORTEX_TAKERS[function]([np.nextafter(_VORTEX_MARGIN, np.inf), 0.0])


@pytest.mark.parametrize("angle", _ANGLES)
@pytest.mark.parametrize("function", sorted(_FIELD_TAKERS))
def test_a_field_point_on_the_boundary_is_admitted_and_one_inside_rejected(function, angle):
    values = np.array(_FIELD_TAKERS[function](_at(UNIT, angle)), dtype=float)
    assert np.isfinite(values).all()
    _FIELD_TAKERS[function]([_FIELD_MARGIN, 0.0])
    for inside in (UNIT * (1.0 - 1e-9), np.nextafter(_FIELD_MARGIN, 0.0), np.nan):
        with pytest.raises(ValidationError, match="not in the fluid"):
            _FIELD_TAKERS[function](_at(inside, angle))


@pytest.mark.parametrize("field", [elementary_potentials, elementary_streams])
def test_a_checked_field_on_a_stack_equals_the_unchecked_one_bitwise(rng, field):
    points = np.concatenate([_exterior_points(rng, 7, UNIT, r_min=1.0), [[UNIT, 0.0], [0.0, -UNIT]]])
    for stack in (points, points[:4].reshape(2, 2, 2)):
        checked, unchecked = field(stack, UNIT), field(stack, UNIT, check=False)
        assert checked[0].shape == checked[1].shape == stack.shape[:-1]
        for a, b in zip(checked[:2], unchecked[:2]):
            assert a.tobytes() == b.tobytes()
    with pytest.raises(ValidationError, match="not in the fluid"):
        field(np.concatenate([points, [[0.0, 0.5]]]), UNIT)
    with pytest.raises(ValidationError, match=r"point shape \(3,\) is not \(\.\.\., 2\)"):
        field([2.0, 0.0, 0.0], UNIT)


# arrays of the wrong shape, which numpy's reshape used to reject
_MISSHAPEN = {
    "validate_stack positions (N, 3)": lambda: validate_stack([1.0], [[2.0, 0.0, 0.0]], UNIT),
    "validate_stack positions (2,)": lambda: validate_stack([1.0], [2.0, 0.0], UNIT),
    "validate_stack strengths (2,) for N = 1": lambda: validate_stack([1.0, 1.0], [[2.0, 0.0]], UNIT),
    "image_vortex_velocity point (3,)": lambda: image_vortex_velocity([2.0, 0.0, 0.0], 1.0, UNIT),
    "image_vortex_velocity point (2, 2)": lambda: image_vortex_velocity([[2.0, 0.0], [3.0, 0.0]], 1.0, UNIT),
    "green_function point (2, 2)": lambda: green_function([[2.0, 0.0], [3.0, 0.0]], [2.0, 1.0], UNIT),
    "regularized_self point (3,)": lambda: regularized_self([2.0, 0.0, 0.0], UNIT),
}


@pytest.mark.parametrize("case", sorted(_MISSHAPEN))
def test_a_misshapen_array_raises_validation_error(case):
    with pytest.raises(ValidationError, match="are not|is not"):
        _MISSHAPEN[case]()
