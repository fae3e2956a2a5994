"""The library's constructors admit their own fields: ``BodyParams``, ``VortexSet``,
``ChartState`` and ``SimConfig`` (whose body and vortices must be a ``BodyParams``
and a ``VortexSet``), called directly with wrong shapes, strings, None,
lists, huge integers and NaN, either build or raise a one-line ``ValidationError``,
and nothing else escapes; each malformed field once seen raises one that names it.
This is the runtime counterpart of
``test_exports::test_one_error_class_and_no_bare_value_error``, which reads the source
and so cannot see an error raised inside numpy or by a Python conversion."""
import warnings

import numpy as np
import pytest

from vortexcyl import BodyParams, ChartState, SimConfig, VortexSet
from vortexcyl.fluid import ValidationError

CASES = 400
HUGE = 10**400  # an integer beyond the float range

BODY = BodyParams(mass=np.pi, inertia=1.0, radius=1.0)
VORTICES = VortexSet([1.0, -0.5], [[3.0, 0.0], [0.0, 3.0]])

# the fields each constructor admits, with a value it accepts
GOOD = {
    BodyParams: {"mass": np.pi, "inertia": 1.0, "radius": 1.0},
    VortexSet: {"strengths": [1.0, -0.5], "positions": [[3.0, 0.0], [0.0, 3.0]]},
    ChartState: {"chart": "velocity", "body": [0.1, 0.2, 0.3], "positions": [[3.0, 0.0], [0.0, 3.0]]},
    SimConfig: {
        "chart": "momentum", "body": BODY, "vortices": VORTICES, "body_state": [0.0, 0.1, 0.0], "dt": 1e-2,
        "t_end": 0.1, "integrator": "rk4", "stride": 2, "clearance": 1e-3, "name": "run", "pose": [0.0, 0.0, 0.0],
    },
}
FIELDS = {cls: list(good) for cls, good in GOOD.items()}

# wrong shapes, strings, None, lists, huge integers, NaN and values that are fine somewhere
WRONG = [
    None, "x", "1.5", "", True, 0, -1, 5, 2.7, 1e300, HUGE, -HUGE, np.nan, np.inf, [], [1.0], [[1.0]], [0, 0],
    [0, 0, 0], [0, 0, 0, 0], [[0, 0, 0], [0, 0, 0]], [[3.0, 0.0]], [[3.0, 0.0], [0.0, 3.0], [0.0, -3.0]],
    [3.0, 0.0, 0.0, 3.0], [[3.0, 0.0], [3.0]], [np.nan, 0, 0], [HUGE, 0, 0], [[HUGE, 0.0]], ["a", "b"],
    {"a": 1}, np.zeros((2, 2, 2)), np.zeros((2, 3)), "velocity", "rk4", "midpoint",
]

# malformed fields that once escaped as a numpy or Python error, or, in the last case,
# built a stack of two states of one vortex each where one state of two was meant
DIRECT = [
    (VortexSet, {"positions": [1.0, 2.0, 3.0], "strengths": [1.0]}, "positions"),
    (SimConfig, {"body_state": [0, 0]}, "body"),
    (SimConfig, {"pose": [0, 0, 0, 0]}, "pose"),
    (ChartState, {"chart": "momentum", "body": [0.0, 1.0]}, "body"),
    (SimConfig, {"chart": 5}, "chart"),
    (BodyParams, {"mass": "a"}, "mass"),
    (BodyParams, {"mass": [1.0]}, "mass"),
    (SimConfig, {"dt": "x"}, "dt"),
    (SimConfig, {"stride": "a"}, "stride"),
    (ChartState, {"body": [[0, 0, 0], [0, 0, 0]], "positions": [[3, 0], [0, 3]]}, "positions"),
    (SimConfig, {"body": None}, "body"),
    (SimConfig, {"vortices": [1.0]}, "vortices"),
    # a line break would write a line of its own into summary.txt, such as a false halt
    (SimConfig, {"name": "a\nhalt = vortex reached the body clearance"}, "name"),
    (SimConfig, {"name": "a\r"}, "name"),
    (SimConfig, {"name": 5}, "name"),
    (SimConfig, {"name": [1, 2]}, "name"),
    (SimConfig, {"name": None}, "name"),
    (SimConfig, {"integrator": np.zeros((2, 2))}, "integrator"),
]


def test_a_flat_state_that_is_not_numbers_raises_one_line_naming_it():
    with pytest.raises(ValidationError, match="flat state") as info:
        ChartState.from_flat("momentum", ["a", 0, 0])
    assert "\n" not in str(info.value)


def _build(cls, fields):
    return cls(**{**GOOD[cls], **fields})


@pytest.mark.parametrize("cls, fields, name", DIRECT)
def test_a_direct_call_with_a_malformed_field_raises_one_line_naming_it(cls, fields, name):
    with pytest.raises(ValidationError, match=name) as info:
        _build(cls, fields)
    assert "\n" not in str(info.value)


def test_constructors_raise_only_one_line_validation_errors():
    classes = list(GOOD)
    assert [type(_build(cls, {})) for cls in classes] == classes  # so a rejection is a drawn field's
    rng = np.random.default_rng(20261019)
    bad = []
    for case in range(CASES):
        cls = classes[rng.integers(len(classes))]
        keys = rng.choice(FIELDS[cls], size=min(int(rng.integers(1, 4)), len(FIELDS[cls])), replace=False)
        fields = {str(key): WRONG[rng.integers(len(WRONG))] for key in keys}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                _build(cls, fields)
            except ValidationError as exc:
                if "\n" in str(exc):
                    bad.append((case, cls.__name__, fields, str(exc)))
            except Exception as exc:  # an error of numpy or Python, or a warning raised as one
                bad.append((case, cls.__name__, fields, repr(exc)))
    assert bad == []
