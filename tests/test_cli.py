import json

import numpy as np
import pytest

from vortexcyl import cli
from vortexcyl.dynamics import integrate
from vortexcyl.fluid import ValidationError


def _minimal_config(**overrides):
    raw = {
        "chart": "smbk",
        "radius": 1.0,
        "mass": np.pi,
        "inertia": 1.0,
        "strengths": [1.0],
        "positions": [[2.0, 0.0]],
        "body": [0.0, 0.0, 0.0],
        "dt": 1e-3,
        "t_end": 0.5,
        "stride": 50,
    }
    raw.update(overrides)
    return raw


def _write(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_load_minimal_config(tmp_path):
    cfg = cli.load_config(_write(tmp_path, _minimal_config()))
    assert cfg.chart == "momentum"  # smbk is accepted as an alias
    assert cfg.vortices.n == 1
    assert cfg.dt == 1e-3


def test_load_config_rejects_interior_vortex(tmp_path):
    raw = _minimal_config(positions=[[0.5, 0.0]])
    with pytest.raises(ValidationError, match="vortex 0"):
        cli.load_config(_write(tmp_path, raw))


def test_load_config_rejects_zero_strength(tmp_path):
    raw = _minimal_config(strengths=[0.0])
    with pytest.raises(ValidationError, match="strength"):
        cli.load_config(_write(tmp_path, raw))


def test_load_config_rejects_unknown_keys(tmp_path):
    raw = _minimal_config(tolerance=1e-6)
    with pytest.raises(ValidationError, match="unknown config keys"):
        cli.load_config(_write(tmp_path, raw))


def test_load_config_reports_parse_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"chart": "smbk",\n  broken\n}')
    with pytest.raises(ValidationError, match="line 2"):
        cli.load_config(path)


def test_simulate_kirchhoff_preset(tmp_path):
    out = tmp_path / "kirchhoff"
    code = cli.main(["simulate", "--preset", "kirchhoff", "--out", str(out)])
    assert code == cli.EXIT_OK
    summary = (out / "summary.txt").read_text()
    drift = float(summary.split("max_rel_H_drift = ")[1].splitlines()[0])
    assert drift <= 1e-12
    header, first, *_, last = (out / "trajectory.csv").read_text().splitlines()
    assert header.startswith("t,Omega,Vx,Vy,beta,x0_x,x0_y,H")
    final = dict(zip(header.split(","), (float(v) for v in last.split(","))))
    assert abs(final["x0_x"] - 0.3 * final["t"]) <= 1e-12
    assert abs(final["x0_y"] + 0.2 * final["t"]) <= 1e-12


def test_simulate_single_vortex_preset_reports_oracle(tmp_path):
    out = tmp_path / "fixed"
    code = cli.main(["simulate", "--preset", "single-vortex-fixed", "--out", str(out), "--t-end", "5.0"])
    assert code == cli.EXIT_OK
    summary = (out / "summary.txt").read_text()
    assert "orbit_radius_drift" in summary
    assert "orbit_rate_vs_image_oracle" in summary


def test_simulate_two_vortex_preset_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--preset", "two-vortex-free", "--out", str(out1), "--t-end", "1.0"]) == 0
    assert cli.main(["simulate", "--preset", "two-vortex-free", "--out", str(out2), "--t-end", "1.0"]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("n", [0, 1, 3, 8])
def test_csv_bytes_match_per_row_formatting(tmp_path, n):
    angles = 2.0 * np.pi * np.arange(n) / max(n, 1)
    raw = _minimal_config(
        strengths=list(np.linspace(-1.0, 1.2, n) + 0.05),
        positions=(3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)).tolist(),
        body=[0.2, -0.1, 0.3],
        t_end=0.1,
        stride=7,
    )
    traj = integrate(cli.config_from_dict(raw))
    traj.energy[0], traj.casimir[-1], traj.l_drift[-1] = -0.0, np.nan, np.inf
    path = tmp_path / "trajectory.csv"
    cli.write_trajectory_csv(traj, path)
    lines = [",".join(cli._csv_header(traj.config))]
    for k in range(traj.n_samples):
        row = [traj.times[k], *traj.states[k], *traj.poses[k], *traj.inertial_positions[k].reshape(-1)]
        row += [traj.energy[k], traj.casimir[k], traj.l_drift[k]]
        lines.append(",".join(format(float(v), ".17g") for v in row))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_flag_overrides(tmp_path):
    out = tmp_path / "ov"
    path = _write(tmp_path, _minimal_config())
    code = cli.main(
        ["simulate", str(path), "--out", str(out), "--chart", "bmr", "--dt", "2e-3", "--t-end", "0.2"]
    )
    assert code == cli.EXIT_OK
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,Omega,Vx,Vy")


def test_csv_restart_continues_trajectory(tmp_path):
    raw = _minimal_config(
        strengths=[1.0, -1.0], positions=[[3.0, 0.0], [0.0, 3.0]], t_end=2.0, stride=100
    )
    out_a = tmp_path / "first"
    assert cli.main(["simulate", str(_write(tmp_path, raw)), "--out", str(out_a)]) == 0

    header, *rows = (out_a / "trajectory.csv").read_text().splitlines()
    last = dict(zip(header.split(","), (float(v) for v in rows[-1].split(","))))
    n = len(raw["strengths"])
    restart = dict(raw)
    restart["body"] = [last["A"], last["Lx"], last["Ly"]]
    restart["positions"] = [[last[f"X{i}"], last[f"Y{i}"]] for i in range(1, n + 1)]
    out_b = tmp_path / "second"
    assert cli.main(["simulate", str(_write(tmp_path, restart, "restart.json")), "--out", str(out_b)]) == 0

    raw_full = dict(raw)
    raw_full["t_end"] = 4.0
    out_c = tmp_path / "full"
    assert cli.main(["simulate", str(_write(tmp_path, raw_full, "full.json")), "--out", str(out_c)]) == 0

    head_b, *rows_b = (out_b / "trajectory.csv").read_text().splitlines()
    head_c, *rows_c = (out_c / "trajectory.csv").read_text().splitlines()
    end_b = [float(v) for v in rows_b[-1].split(",")]
    end_c = [float(v) for v in rows_c[-1].split(",")]
    cols = head_b.split(",")
    state_cols = [cols.index(c) for c in ("A", "Lx", "Ly", "X1", "Y1", "X2", "Y2")]
    for idx in state_cols:
        assert abs(end_b[idx] - end_c[idx]) <= 1e-10


def test_halt_exit_code(tmp_path):
    raw = _minimal_config(
        strengths=[2.0, -2.0],
        positions=[[2.5, 0.35], [2.5, -0.35]],
        chart="bmr",
        t_end=30.0,
        dt=2e-3,
        stride=10,
        clearance=0.4,
    )
    out = tmp_path / "halt"
    code = cli.main(["simulate", str(_write(tmp_path, raw)), "--out", str(out)])
    assert code == cli.EXIT_HALT
    assert "halt = " in (out / "summary.txt").read_text()


def test_config_error_exit_code(tmp_path):
    raw = _minimal_config(positions=[[0.2, 0.0]])
    code = cli.main(["simulate", str(_write(tmp_path, raw)), "--out", str(tmp_path / "x")])
    assert code == cli.EXIT_CONFIG


def test_verify_subcommand(capsys):
    assert cli.main(["verify"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 6
    assert all("pass" in line for line in lines[1:])


def test_main_runs_repeatedly_in_one_process(tmp_path, capsys):
    out = tmp_path / "first"
    assert cli.main(["simulate", str(_write(tmp_path, _minimal_config())), "--out", str(out)]) == cli.EXIT_OK
    first = (out / "trajectory.csv").read_bytes()
    capsys.readouterr()
    assert cli.main(["verify"]) == cli.EXIT_OK
    assert all("pass" in line for line in capsys.readouterr().out.strip().splitlines()[1:])
    with pytest.raises(SystemExit) as usage:
        cli.main(["simulate", "--preset", "kirchhoff"])
    assert usage.value.code == cli.EXIT_CONFIG
    assert "--out" in capsys.readouterr().err
    # an earlier call leaves no state behind: the same arguments give the same bytes
    again = tmp_path / "again"
    assert cli.main(["simulate", str(tmp_path / "scenario.json"), "--out", str(again)]) == cli.EXIT_OK
    assert (again / "trajectory.csv").read_bytes() == first
    assert cli.main(["simulate", "--preset", "kirchhoff", "--out", str(tmp_path / "k"), "--t-end", "0.01"]) == cli.EXIT_OK


def test_sweep(tmp_path):
    p1 = _write(tmp_path, _minimal_config(t_end=0.2), "one.json")
    p2 = _write(
        tmp_path, _minimal_config(chart="bmr", t_end=0.2), "two.json"
    )
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(p1), str(p2), "--out", str(out), "--jobs", "2"]) == 0
    assert (out / "one" / "trajectory.csv").exists()
    assert (out / "two" / "trajectory.csv").exists()


def test_sweep_keys_output_dirs_uniquely(tmp_path):
    # two inputs with one file stem must not share (and overwrite) an output directory
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    p1 = _write(tmp_path, _minimal_config(t_end=0.1, name="first"), "a/run.json")
    p2 = _write(tmp_path, _minimal_config(t_end=0.1, name="second"), "b/run.json")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(p1), str(p2), "--out", str(out), "--jobs", "2"]) == 0
    names = sorted(p.read_text().splitlines()[0] for p in out.glob("*/summary.txt"))
    assert names == ["scenario = first", "scenario = second"]


def test_sweep_unreadable_file_exits_2_for_that_file_only(tmp_path, capfd):
    good = _write(tmp_path, _minimal_config(t_end=0.1), "good.json")
    missing = tmp_path / "missing.json"
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    out = tmp_path / "sweep"
    code = cli.main(["sweep", str(missing), str(good), str(binary), "--out", str(out), "--jobs", "2"])
    assert code == cli.EXIT_CONFIG
    captured = capfd.readouterr()
    assert captured.out.splitlines() == [f"{missing}: exit 2", f"{good}: exit 0", f"{binary}: exit 2"]
    reasons = captured.err.splitlines()
    assert len(reasons) == 2 and all("cannot read" in line for line in reasons)
    assert (out / "good" / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("body", [0.0, 0.0]),
        ("positions", [[2.0, 0.0, 1.0]]),
        ("positions", [2.0, 0.0, 1.0]),
        ("positions", [[2.0, 0.0], [3.0]]),
        ("strengths", 1.0),
        ("stride", 2.7),
        ("mass", "heavy"),
        ("chart", "cartesian"),
    ],
)
def test_config_shape_errors_exit_2_with_one_line(tmp_path, capsys, key, value):
    path = _write(tmp_path, _minimal_config(**{key: value}))
    with pytest.raises(ValidationError, match=key):
        cli.load_config(path)
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err
