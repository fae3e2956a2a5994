import json
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls
from vortexcyl import cli
from vortexcyl.dynamics import SimConfig, integrate
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


@pytest.mark.parametrize("keys", [("dt",), ("mass", "chart")])
def test_load_config_names_its_missing_keys(tmp_path, capsys, keys):
    raw = {k: v for k, v in _minimal_config().items() if k not in keys}
    path = _write(tmp_path, raw)
    with pytest.raises(ValidationError, match=re.escape(f"missing config keys: {sorted(keys)}")):
        cli.load_config(path)
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("text", ["[1, 2]", "3.5", '"config"', "null"])
def test_load_config_rejects_a_top_level_other_than_an_object(tmp_path, capsys, text):
    path = tmp_path / "list.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match="^top level must be a JSON object$"):
        cli.load_config(path)
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: top level must be a JSON object\n"


@pytest.mark.parametrize("integrator", ["euler", "RK4", "", None, 4])
def test_load_config_rejects_an_unknown_integrator(tmp_path, capsys, integrator):
    path = _write(tmp_path, _minimal_config(integrator=integrator))
    with pytest.raises(ValidationError, match="^integrator must be 'rk4' or 'midpoint'$"):
        cli.load_config(path)
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.count("\n") == 1


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
    nsteps = cli.config_from_dict(cli.PRESETS["kirchhoff"]).nsteps
    assert f"\nrhs_evals = {4 * nsteps}\nmax_midpoint_iterations = 0\n" in summary
    header, first, *_, last = (out / "trajectory.csv").read_text().splitlines()
    assert header.startswith("t,Omega,Vx,Vy,beta,x0_x,x0_y,H")
    final = dict(zip(header.split(","), (float(v) for v in last.split(","))))
    assert abs(final["x0_x"] - 0.3 * final["t"]) <= 1e-12
    assert abs(final["x0_y"] + 0.2 * final["t"]) <= 1e-12


_SUMMARY_KEYS = [
    "scenario",
    "chart",
    "backend",
    "samples",
    "t_final",
    "max_rel_H_drift",
    "max_casimir_drift",
    "max_L_drift",
    "min_body_clearance",
    "min_pair_distance",
    "halt",
    "rhs_evals",
    "max_midpoint_iterations",
    "wall_time_s",
]

# the presets, and near-fixed single-vortex runs at the edges: a zero time span, a vortex so far
# out that the image system's velocity cancels to 0, and one next to the margin, halted at step 0
_NEAR_FIXED = {"chart": "velocity", "mass": 1e6 * np.pi, "stride": 1}
_SUMMARY_RUNS = {
    **{preset: (["--preset", preset], None, cli.EXIT_OK) for preset in sorted(cli.PRESETS)},
    "zero-span": (["--preset", "single-vortex-fixed", "--t-end", "0"], None, cli.EXIT_OK),
    "far": ([], _minimal_config(**_NEAR_FIXED, positions=[[1e110, 0.0]], t_end=0.01), cli.EXIT_OK),
    "halted": ([], _minimal_config(**_NEAR_FIXED, positions=[[1.0 + 2e-9, 0.0]]), cli.EXIT_HALT),
}


@pytest.mark.parametrize("case", list(_SUMMARY_RUNS))
def test_every_summary_has_the_same_keys_in_order_and_no_nan(tmp_path, case):
    args, raw, code = _SUMMARY_RUNS[case]
    if raw is not None:
        args = [str(_write(tmp_path, raw))]
    out = tmp_path / "out"
    assert cli.main(["simulate", *args, "--out", str(out)]) == code
    lines = (out / "summary.txt").read_text().splitlines()
    assert [line.split(" = ")[0] for line in lines] == _SUMMARY_KEYS
    assert not any("nan" in line for line in lines)


# configs that validate, but whose energy or Casimir at t = 0 is not finite
_NON_FINITE_START = {
    "far-vortex": ({"chart": "velocity", "mass": 1e6 * np.pi, "positions": [[1e200, 0.0]]}, "energy"),
    "near-pair": ({"chart": "velocity", "strengths": [1.0, 1.0], "positions": [[3.0, 0.0], [3.0, 1e-308]]}, "energy"),
    "tiny-inertia": ({"inertia": 1e-154, "positions": [[3.0, 0.0]], "body": [1.0, 0.0, 0.0]}, "energy"),
    "casimir-overflow": ({"mass": 1e300, "body": [0.0, 1e200, 0.0]}, "Casimir"),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE_START))
def test_non_finite_start_exits_2_with_one_line(tmp_path, capfd, case):
    overrides, name = _NON_FINITE_START[case]
    path = _write(tmp_path, _minimal_config(t_end=0.01, **overrides))
    cli.load_config(path)  # the config itself is valid
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    err = capfd.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {name} at t = 0 is ")
    assert not (tmp_path / "x").exists()
    good = _write(tmp_path, _minimal_config(t_end=0.1), "good.json")
    for jobs in ("1", "2"):  # in this process, and on the pool
        out = tmp_path / f"sweep-{jobs}"
        assert cli.main(["sweep", str(path), str(good), "--out", str(out), "--jobs", jobs]) == cli.EXIT_CONFIG
        captured = capfd.readouterr()
        assert captured.out.splitlines() == [f"{path}: exit 2", f"{good}: exit 0"]
        assert captured.err.count("\n") == 1 and captured.err.startswith(f"{path}: {name} at t = 0 is ")
        assert (out / "good" / "trajectory.csv").exists() and not (out / path.stem).exists()


def test_an_unusable_output_directory_exits_2_with_one_line(tmp_path, capfd):
    path = _write(tmp_path, _minimal_config(t_end=0.01))
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):  # a file, and a directory under one
        assert cli.main(["simulate", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        err = capfd.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: cannot write {out}: ")
    # a sweep entry whose output directory is taken by a file exits 2; the next one runs
    first, second = (_write(tmp_path, _minimal_config(t_end=0.01), name) for name in ("a.json", "b.json"))
    for jobs in ("1", "2"):  # in this process, and on the pool
        out = tmp_path / f"sweep-{jobs}"
        out.mkdir()
        (out / "a").write_text("")
        assert cli.main(["sweep", str(first), str(second), "--out", str(out), "--jobs", jobs]) == cli.EXIT_CONFIG
        captured = capfd.readouterr()
        assert captured.out.splitlines() == [f"{first}: exit 2", f"{second}: exit 0"]
        assert captured.err.count("\n") == 1 and captured.err.startswith(f"{first}: cannot write {out / 'a'}: ")
        assert (out / "b" / "trajectory.csv").exists()


def test_a_vortex_next_to_the_margin_halts_at_step_0_with_a_finite_energy(tmp_path, capsys):
    raw = _minimal_config(strengths=[1.0, 1.0], positions=[[1.0 + 2e-9, 0.0], [0.0, 3.0]])
    out = tmp_path / "x"
    assert cli.main(["simulate", str(_write(tmp_path, raw)), "--out", str(out)]) == cli.EXIT_HALT
    assert capsys.readouterr().err == ""
    summary = (out / "summary.txt").read_text().splitlines()
    assert "halt = vortex reached the body clearance" in summary and "t_final = 0" in summary
    header, *rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 and np.isfinite(float(rows[0].split(",")[header.split(",").index("H")]))


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


def test_integrator_override_runs_the_midpoint_rule(tmp_path):
    path = _write(tmp_path, _minimal_config(integrator="rk4", t_end=0.1))
    summaries = {}
    for flags in ([], ["--integrator", "midpoint"], ["--integrator", "rk4"]):
        out = tmp_path / "-".join(["run", *flags])
        assert cli.main(["simulate", str(path), "--out", str(out), *flags]) == cli.EXIT_OK
        summaries[tuple(flags[1:])] = dict(
            line.split(" = ") for line in (out / "summary.txt").read_text().splitlines()
        )
    assert summaries[()]["max_midpoint_iterations"] == summaries[("rk4",)]["max_midpoint_iterations"] == "0"
    assert int(summaries[("midpoint",)]["max_midpoint_iterations"]) > 0
    assert summaries[("rk4",)]["rhs_evals"] == summaries[()]["rhs_evals"] == str(4 * 100)


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
    restart["pose"] = [last["beta"], last["x0_x"], last["x0_y"]]
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
    state_cols = ("A", "Lx", "Ly", "X1", "Y1", "X2", "Y2")
    pose_cols = ("beta", "x0_x", "x0_y", "x1_in", "y1_in", "x2_in", "y2_in")
    for idx in [cols.index(c) for c in state_cols + pose_cols]:
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


# the certificate ingredients that ``verify`` evaluates, as (module, function)
_CERTIFICATES = (
    ("structures", "momentum_structure_matrix"),
    ("structures", "velocity_structure_matrix"),
    ("structures", "jacobi_residual"),
    ("structures", "interaction_bracket_coefficients"),
    ("energetics", "hamiltonian"),
    ("maps", "shift_map"),
    ("oracle", "pushforward_check"),
    ("maps", "cocycle_sigma"),
)


def test_verify_calls_each_public_certificate_function(monkeypatch, capsys):
    """Each ingredient is replaced by a counting wrapper wherever a vortexcyl module
    binds it, as the benchmark's tracer does, so a call through a private copy
    would leave its count at 0."""
    calls = {
        name: count_calls(monkeypatch, getattr(sys.modules[f"vortexcyl.{module}"], name))
        for module, name in _CERTIFICATES
    }
    assert cli.main(["verify"]) == cli.EXIT_OK
    capsys.readouterr()
    assert all(len(count) >= 1 for count in calls.values()), calls


def test_verify_failure_exits_1(monkeypatch, capsys):
    rows = [("jacobi momentum chart", 0.0, 1e-6, True), ("cocycle components", 2e-9, 1e-10, False)]
    monkeypatch.setattr(cli, "_verify_report", lambda: (rows, False))
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].endswith("pass") and lines[2].startswith("cocycle components") and lines[2].endswith("FAIL")


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
    extra = _write(tmp_path, _minimal_config(t_end=0.1), "extra.json")  # two valid configs, so --jobs 2 pools them
    for mode, jobs in (("in-process", "1"), ("pool", "2")):
        out = tmp_path / mode
        code = cli.main(["sweep", str(missing), str(good), str(binary), str(extra), "--out", str(out), "--jobs", jobs])
        assert code == cli.EXIT_CONFIG
        captured = capfd.readouterr()
        assert captured.out.splitlines() == [f"{missing}: exit 2", f"{good}: exit 0", f"{binary}: exit 2", f"{extra}: exit 0"]
        reasons = captured.err.splitlines()
        assert [line.split(": cannot read")[0] for line in reasons] == [str(missing), str(binary)]
        assert (out / "good" / "trajectory.csv").exists() and (out / "extra" / "trajectory.csv").exists()


def _summary_without_wall_time(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("wall_time_s = ")]


def test_sweep_writes_the_same_bytes_in_process_and_on_a_pool_as_simulate(tmp_path, capsys):
    raws = {
        "momentum": _minimal_config(strengths=[1.0, -0.7], positions=[[3.0, 0.0], [0.0, 2.5]], stride=7),
        "velocity": _minimal_config(chart="bmr", body=[0.1, 0.2, -0.1], t_end=0.3, stride=1),
        "empty": _minimal_config(strengths=[], positions=[], body=[0.0, 0.3, -0.2], stride=1000),
    }
    paths = [str(_write(tmp_path, raw, f"{key}.json")) for key, raw in raws.items()]
    stdout = {}
    for mode, jobs in (("in-process", "1"), ("pool", "2")):
        assert cli.main(["sweep", *paths, "--out", str(tmp_path / mode), "--jobs", jobs]) == cli.EXIT_OK
        stdout[mode] = capsys.readouterr().out
    assert stdout["in-process"] == stdout["pool"] == "".join(f"{p}: exit 0\n" for p in paths)
    for key in raws:
        assert cli.main(["simulate", str(tmp_path / f"{key}.json"), "--out", str(tmp_path / "simulate" / key)]) == 0
        dirs = [tmp_path / mode / key for mode in ("simulate", "in-process", "pool")]
        csvs = {(d / "trajectory.csv").read_bytes() for d in dirs}
        summaries = {tuple(_summary_without_wall_time(d / "summary.txt")) for d in dirs}
        assert len(csvs) == 1 and len(summaries) == 1


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
        ("pose", [0.1, 0.2]),
        ("pose", [0.0, float("nan"), 0.0]),
        ("body", [float("nan"), 0.0, 0.0]),
        ("body", [0.0, float("inf"), 0.0]),
    ],
)
def test_config_shape_errors_exit_2_with_one_line(tmp_path, capsys, key, value):
    path = _write(tmp_path, _minimal_config(**{key: value}))
    with pytest.raises(ValidationError, match=key):
        cli.load_config(path)
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err


HUGE = 10**400  # an integer JSON literal beyond the float range


@pytest.mark.parametrize(
    "key, value", [("dt", HUGE), ("stride", HUGE), ("clearance", HUGE), ("positions", [[HUGE, 0.0]]), ("body", [0.0, HUGE, 0.0])]
)
def test_integer_beyond_the_float_range_exits_2_with_one_line(tmp_path, capfd, key, value):
    path = _write(tmp_path, _minimal_config(**{key: value}))
    with pytest.raises(ValidationError, match=key):
        cli.load_config(path)
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    err = capfd.readouterr().err
    assert err.count("\n") == 1 and key in err
    good = _write(tmp_path, _minimal_config(t_end=0.1), "good.json")
    assert cli.main(["sweep", str(path), str(good), "--out", str(tmp_path / "sweep"), "--jobs", "1"]) == cli.EXIT_CONFIG
    captured = capfd.readouterr()
    assert captured.out.splitlines() == [f"{path}: exit 2", f"{good}: exit 0"]
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"{path}: ") and key in captured.err


# zeros, subnormal, tiny and huge floats, an integer beyond the float range, and JSON values of the wrong type
EXTREMES = [0, -0.0, 5e-324, 1e-308, 1e154, -1e154, 1e308, HUGE, "x", None, True, [[1.0]]]


@st.composite
def _extreme_configs(draw):
    """A minimal config with one to three of its numbers, arrays or array entries drawn from EXTREMES."""
    n = draw(st.integers(0, 3))
    raw = _minimal_config(strengths=[1.0 + k for k in range(n)], positions=[[2.0 + k, 0.0] for k in range(n)],
                          pose=[0.0, 0.0, 0.0], clearance=1e-3)
    slots = [(key,) for key in raw if key != "chart"]
    slots += [(key, i) for key in ("strengths", "body", "pose") for i in range(len(raw[key]))]
    slots += [("positions", k, i) for k in range(n) for i in (0, 1)]
    chosen = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=3, unique=True))
    # entries first, so that a whole array drawn later replaces them rather than being indexed
    for slot in sorted(chosen, key=len, reverse=True):
        target = raw
        for part in slot[:-1]:
            target = target[part]
        target[slot[-1]] = draw(st.sampled_from(EXTREMES))
    return raw


@settings(max_examples=300, deadline=None)
@given(_extreme_configs())
def test_load_config_raises_only_validation_errors_on_extreme_values(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "extreme.json"
    path.write_text(json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config = cli.load_config(path)
        except ValidationError:
            return
    assert isinstance(config, SimConfig)


@pytest.mark.parametrize("text", ["[" * 100_000, '{"dt": ' + "[" * 100_000, "1" + "0" * 5000])
def test_unparseable_json_exits_2_with_one_line(tmp_path, capsys, text):
    # nesting beyond the parser's recursion limit, and an integer longer than Python's digit limit
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(ValidationError):
        cli.load_config(path)
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"radius": 1e200, "positions": [[3e200, 0.0]]}, "radius"),  # the square overflows
        ({"radius": 1e-200, "positions": [[3e-200, 0.0]]}, "radius"),  # the square underflows to 0
        ({"clearance": 1e300}, "clearance"),  # (radius + clearance)**2 overflows
        # radius**2 is finite, but mass + pi * radius**2 overflows
        ({"radius": 1e154, "strengths": [], "positions": []}, "radius"),
        ({"mass": 1.79e308, "radius": 1e153, "strengths": [], "positions": []}, "mass"),
    ],
)
def test_squares_outside_the_float_range_exit_2_with_one_line(tmp_path, capsys, overrides, key):
    path = _write(tmp_path, _minimal_config(**overrides))
    with pytest.raises(ValidationError, match=key):
        cli.load_config(path)
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_jobs_below_one_exits_2_with_one_line(tmp_path, capsys, jobs):
    path = _write(tmp_path, _minimal_config(t_end=0.1))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(path), "--out", str(out), "--jobs", jobs]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "--jobs" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("t_end, dt, steps", [(1.0, 0.3, 3), (0.5, 1.01e-3, 495), (1.0 + 2e-9, 0.25, 4)])
def test_t_end_off_the_step_grid_exits_2_with_one_line(tmp_path, capsys, t_end, dt, steps):
    path = _write(tmp_path, _minimal_config(t_end=t_end, dt=dt))
    with pytest.raises(ValidationError, match="t_end"):
        cli.load_config(path)
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "t_end" in err and "dt" in err and f"nearest: {steps} steps" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("t_end, dt, steps", [(0.1, 1e-3, 100), (75.4, 2e-3, 37700), (1.0 + 5e-10, 0.25, 4), (0.0, 0.3, 0)])
def test_t_end_on_the_step_grid_within_relative_1e_9_runs(tmp_path, t_end, dt, steps):
    assert cli.config_from_dict(_minimal_config(t_end=t_end, dt=dt)).nsteps == steps


@pytest.mark.parametrize("dt, t_end", [(1e-300, 1.0), (1e-9, 1000.0)])
def test_sample_table_beyond_memory_exits_2_with_one_line(tmp_path, capsys, dt, t_end):
    path = _write(tmp_path, _minimal_config(dt=dt, t_end=t_end, stride=1))
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    nsteps = round(t_end / dt)
    assert err.count("\n") == 1 and f"{nsteps} steps" in err and f"{nsteps + 1} samples" in err


@pytest.mark.parametrize("dt, t_end", [(1e-300, 1.0), (1e-17, 1.0), (1e-320, 1e10)])
def test_step_count_beyond_2_to_the_53_exits_2_with_one_line(tmp_path, capsys, dt, t_end):
    # a stride this long keeps the sample table small, so only the step count can reject it
    path = _write(tmp_path, _minimal_config(dt=dt, t_end=t_end, stride=1e300))
    with pytest.raises(ValidationError, match="steps"):
        cli.load_config(path)
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    # t_end / dt overflows to inf in the last case; .0f prints the others as round() does
    assert err.count("\n") == 1 and f"{t_end / dt:.0f} steps" in err and "2**53" in err
    assert not (tmp_path / "x").exists()


def test_step_count_of_2_to_the_53_is_accepted():
    assert cli.config_from_dict(_minimal_config(dt=2.0**-53, t_end=1.0, stride=1e300)).nsteps == 2**53


def test_stride_beyond_the_run_records_its_start_and_end_like_stride_nsteps(tmp_path):
    tables = []
    for stride in (500, 1e300):  # 500 steps
        out = tmp_path / f"stride-{stride:g}"
        assert cli.main(["simulate", str(_write(tmp_path, _minimal_config(stride=stride))), "--out", str(out)]) == 0
        tables.append((out / "trajectory.csv").read_text())
    assert tables[0] == tables[1]
    assert [row.split(",")[0] for row in tables[1].splitlines()[1:]] == ["0", "0.5"]


class _RecordingPool:
    """Stands in for the process pool: records its worker count and shutdowns, and runs nothing."""

    workers = []
    shutdowns = []

    def __init__(self, max_workers=None):
        self.max_workers = max_workers
        self.workers.append(max_workers)

    def map(self, fn, configs, outdirs):
        return iter([(cli.EXIT_OK, "") for _ in configs])

    def shutdown(self, cancel_futures=False):
        self.shutdowns.append(self.max_workers)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(cli, "_pool", None)  # the kept pool of an earlier sweep is restored afterwards
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(_RecordingPool, "workers", [])
    monkeypatch.setattr(_RecordingPool, "shutdowns", [])
    return _RecordingPool


@pytest.mark.parametrize("count, jobs, workers", [(1, "5000", 1), (2, None, 2), (4, "2", 2), (3, "8", 3), (3, "1", 1)])
def test_sweep_starts_no_more_workers_than_configs(tmp_path, recording_pool, count, jobs, workers):
    # a pool of one worker is never started: those configs run in this process
    paths = [str(_write(tmp_path, _minimal_config(), f"c{k}.json")) for k in range(count)]
    out = tmp_path / "out"
    assert cli.main(["sweep", *paths, "--out", str(out), *(["--jobs", jobs] if jobs else [])]) == 0
    assert recording_pool.workers == ([workers] if workers > 1 else [])
    assert all((out / f"c{k}" / "trajectory.csv").exists() == (workers == 1) for k in range(count))


def test_sweep_keeps_its_pool_while_the_worker_count_holds(tmp_path, recording_pool):
    paths = [str(_write(tmp_path, _minimal_config(), f"c{k}.json")) for k in range(3)]
    for batch, jobs in ((paths, "2"), (paths[:2], "2"), (paths, "3"), (paths, "1"), (paths, "3")):
        assert cli.main(["sweep", *batch, "--out", str(tmp_path / "out"), "--jobs", jobs]) == 0
    assert recording_pool.workers == [2, 3]
    assert recording_pool.shutdowns == [2]


def test_sweep_closes_its_kept_pool_when_a_run_raises(tmp_path, recording_pool, monkeypatch):
    def raising_map(self, fn, configs, outdirs):
        raise RuntimeError("worker died")
        yield

    paths = [str(_write(tmp_path, _minimal_config(), f"c{k}.json")) for k in range(2)]
    assert cli.main(["sweep", *paths, "--out", str(tmp_path / "out"), "--jobs", "2"]) == 0
    assert recording_pool.shutdowns == [] and cli._pool is not None
    monkeypatch.setattr(recording_pool, "map", raising_map)
    with pytest.raises(RuntimeError, match="worker died"):
        cli.main(["sweep", *paths, "--out", str(tmp_path / "out"), "--jobs", "2"])
    assert recording_pool.shutdowns == [2] and cli._pool is None


def test_sweep_on_a_kept_pool_writes_where_the_caller_is(tmp_path, monkeypatch):
    path = str(_write(tmp_path, _minimal_config(t_end=0.1)))
    for where in ("first", "second"):  # the second sweep's workers were forked in "first"
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)
        assert cli.main(["sweep", path, path, "--out", "out", "--jobs", "2"]) == 0
        assert sorted(p.name for p in (tmp_path / where / "out").iterdir()) == ["scenario-1", "scenario-2"]
