"""A bounded fuzz of extreme configs through ``vortexcyl simulate``: every config
that ``cli.config_from_dict`` accepts exits 0 or 3 with nothing on stderr, or 2
with one line, and no numpy warning is raised on the way. The draws cover the
classes where a run's numbers leave the float range: near-coincident vortex
pairs, a tiny moment of inertia, far vortices and heavy bodies, in both charts
and with both integrators, a few steps each."""
import json
import warnings

import numpy as np

from vortexcyl import cli
from vortexcyl.fluid import ValidationError

CASES = 300


def _log_uniform(rng, low, high):
    return float(10.0 ** rng.uniform(low, high))


def _extreme_config(rng):
    """One config dictionary; each extreme is drawn with probability about one half."""
    n = int(rng.integers(0, 4))
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    radii = rng.uniform(1.5, 4.0, n)
    if rng.random() < 0.5:  # far vortices
        radii *= _log_uniform(rng, 0, 307)
    positions = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    if n >= 2 and rng.random() < 0.5:  # a near-coincident pair
        positions[1] = positions[0] + _log_uniform(rng, -324, 0) * rng.choice([-1.0, 1.0], 2)
    return {
        "chart": str(rng.choice(["momentum", "velocity"])),
        "integrator": str(rng.choice(["rk4", "midpoint"])),
        "radius": 1.0,
        "mass": _log_uniform(rng, 0, 308) if rng.random() < 0.5 else np.pi,  # heavy bodies
        "inertia": _log_uniform(rng, -320, 0) if rng.random() < 0.5 else 1.0,  # tiny inertia
        "strengths": list(rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 3, n)),
        "positions": positions.tolist(),
        "body": list(rng.normal(size=3) * _log_uniform(rng, -3, 3)),
        "dt": 1e-3,
        "t_end": 3e-3,
    }


def test_accepted_extreme_configs_exit_0_3_or_2_with_one_line_and_never_warn(tmp_path, capfd):
    rng = np.random.default_rng(20261019)
    path = tmp_path / "extreme.json"
    bad = []
    for case in range(CASES):
        raw = _extreme_config(rng)
        try:
            cli.config_from_dict(raw)
        except ValidationError:
            continue
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(["simulate", str(path), "--out", str(tmp_path / "out")])
            except Exception as exc:  # a warning raised as an error, or a crash
                code = repr(exc)
        err = capfd.readouterr().err
        if not (code in (cli.EXIT_OK, cli.EXIT_HALT) and err == "" or code == cli.EXIT_CONFIG and err.count("\n") == 1):
            bad.append((case, code, err, raw))
    assert bad == []
