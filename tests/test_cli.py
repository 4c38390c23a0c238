"""Config grammar, presets, artifact determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit.cli import (
    PRESETS,
    ExperimentConfig,
    main,
    parse_config,
    run,
    serialize_config,
)
from epkit.errors import ConfigError, EpkitError
from epkit.output import CSV_BLOCK_ROWS, csv_blocks, csv_lines, write_text
from epkit.spectra import EP_ITERS


MAP_CONFIG = """
# tiny scan for testing
experiment.command = map
experiment.model = detuned_liouvillian
param.Gamma = 1.0
plane.x_name = delta
plane.x_min = -0.5
plane.x_max = 0.5
plane.x_res = 24
plane.y_name = J
plane.y_min = 0.05
plane.y_max = 0.45
plane.y_res = 21
output.dir = out
"""


# -- parsing ------------------------------------------------------------------


def test_parse_minimal_map_config():
    cfg = parse_config(MAP_CONFIG)
    assert cfg.command == "map"
    assert cfg.model == "detuned_liouvillian"
    assert cfg.params == {"Gamma": 1.0}
    assert cfg.plane["x_res"] == 24


def test_parse_empty_file_reports_missing_section():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("")


def test_parse_unknown_key_is_an_error():
    bad = MAP_CONFIG.replace("plane.x_res", "plane.x_resolution")
    with pytest.raises(ConfigError, match="x_resolution"):
        parse_config(bad)


def test_parse_reports_line_numbers():
    text = "experiment.command = map\nthis line is broken\n"
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(text)


def test_parse_bad_value():
    bad = MAP_CONFIG.replace("param.Gamma = 1.0", "param.Gamma = banana")
    with pytest.raises(ConfigError, match="Gamma"):
        parse_config(bad)


def test_parse_duplicate_key():
    text = MAP_CONFIG + "\nparam.Gamma = 2.0\n"
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(text)


def test_parse_unknown_model():
    from epkit.errors import UnknownModel

    bad = MAP_CONFIG.replace("detuned_liouvillian", "no_such_model")
    with pytest.raises(UnknownModel):
        parse_config(bad)


def test_round_trip_all_presets():
    for name, factory in PRESETS.items():
        cfg = factory()
        again = parse_config(serialize_config(cfg))
        assert again == cfg, name


# -- preset values ---------------------------------------------------------------


def test_preset_fig2_expanded_values():
    cfg = PRESETS["fig2"]()
    assert cfg.params["Gamma"] == 1.0
    assert cfg.path["radius"] == 0.1
    assert cfg.path["period"] == 100.0
    assert cfg.run["T"] == 100.0
    assert cfg.model == "encircle"


def test_preset_fig5_expanded_values():
    cfg = PRESETS["fig5"]()
    assert cfg.params["gamma"] == 1.0
    assert cfg.params["W"] == -11.0
    assert cfg.run["T"] == 50000.0
    assert cfg.path["center_x"] == 3.85
    assert cfg.path["center_y"] == -5.6
    assert cfg.path["radius"] == 1.477
    assert cfg.path["phase0"] == -math.atan(9 / 4)


def test_preset_fig4_periods():
    assert PRESETS["fig4_adiabatic"]().run["T"] == 10000.0
    assert PRESETS["fig4_intermediate"]().run["T"] == 150.0
    cfg = PRESETS["fig4a"]()
    assert cfg.params["Gamma"] == 1 / 20
    assert cfg.params["gamma"] == 1 / 100


# -- runs -------------------------------------------------------------------------


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_map_run_and_determinism(tmp_path):
    cfg = parse_config(MAP_CONFIG)
    m1 = run(cfg, out_dir=str(tmp_path / "a"))
    m2 = run(cfg, out_dir=str(tmp_path / "b"))
    assert m1["outputs"] == m2["outputs"]  # identical checksums
    assert m1["config_sha256"] == m2["config_sha256"]
    assert _read(tmp_path / "a" / "map.csv") == _read(tmp_path / "b" / "map.csv")
    data = json.loads(_read(tmp_path / "a" / "map.json"))
    assert "lines" in data and "points" in data


def test_map_threads_byte_identical(tmp_path):
    cfg = parse_config(MAP_CONFIG)
    m1 = run(cfg, out_dir=str(tmp_path / "t1"), threads=1)
    m8 = run(cfg, out_dir=str(tmp_path / "t8"), threads=8)
    assert m1["outputs"]["map.csv"] == m8["outputs"]["map.csv"]
    assert _read(tmp_path / "t1" / "map.csv") == _read(tmp_path / "t8" / "map.csv")
    # the traced lines and points too
    assert m1["outputs"]["map.json"] == m8["outputs"]["map.json"]
    digests = {
        hashlib.sha256(_read(tmp_path / t / "map.json")).hexdigest() for t in ("t1", "t8")
    }
    assert len(digests) == 1
    assert json.loads(_read(tmp_path / "t1" / "map.json"))["lines"]


def test_map_manifest_counts_third_order_solves(tmp_path):
    # The manifest reports the edge solve, the vertex check and the
    # triple-root solve; the map artifacts do not.
    cfg = PRESETS["fig4a"]()
    cfg = replace(cfg, plane={**cfg.plane, "x_res": 41, "y_res": 41})
    manifest = run(cfg, out_dir=str(tmp_path))
    counters = manifest["counters"]
    assert set(counters) == {"refine.edge_iterations", "refine.vertex_rejects",
                             "refine.ep3_iterations", "refine.ep3_rejects"}
    assert 0 < counters["refine.edge_iterations"] <= EP_ITERS
    assert set(counters["refine.vertex_rejects"]) == {"gap", "overlap"}
    assert 0 < counters["refine.ep3_iterations"] <= EP_ITERS
    assert counters["refine.ep3_rejects"] == []
    data = json.loads(_read(tmp_path / "map.json"))
    assert set(data) == {"model", "plane", "lines", "points"}
    assert [p["order"] for p in data["points"]] == [3, 3]


def test_hermitian_map_has_empty_lines(tmp_path):
    text = """
experiment.command = map
experiment.model = pt
param.Gamma = 0.0
plane.x_name = J
plane.x_min = 0.2
plane.x_max = 1.0
plane.y_name = Gamma
plane.y_min = 0.0
plane.y_max = 0.000001
plane.x_res = 2
plane.y_res = 2
"""
    cfg = parse_config(text)
    run(cfg, out_dir=str(tmp_path))
    data = json.loads(_read(tmp_path / "map.json"))
    assert data["lines"] == []
    assert data["points"] == []


def test_spectrum_run(tmp_path):
    text = """
experiment.command = spectrum
experiment.model = basic_liouvillian
param.J = 0.125
param.Gamma = 1.0
"""
    cfg = parse_config(text)
    manifest = run(cfg, out_dir=str(tmp_path))
    assert "spectrum.csv" in manifest["outputs"]
    lines = _read(tmp_path / "spectrum.csv").decode().splitlines()
    assert lines[0] == "index,re_lambda,im_lambda,defective"
    assert len(lines) == 5
    # defective pair at Gamma = 8 J
    flags = [int(l.split(",")[-1]) for l in lines[1:]]
    assert sum(flags) == 2


def test_encircle_run_artifacts(tmp_path):
    cfg = PRESETS["fig2"]()
    manifest = run(cfg, out_dir=str(tmp_path))
    assert set(manifest["outputs"]) == {
        "chirality.json",
        "trajectory_ccw.csv",
        "trajectory_cw.csv",
    }
    rep = json.loads(_read(tmp_path / "chirality.json"))
    assert rep["verdict"] == "chiral"
    assert rep["adiabaticity"]["period_times_min_gap"] > 10
    header = _read(tmp_path / "trajectory_ccw.csv").decode().splitlines()[0]
    assert header == (
        "t,re_state1,im_state1,re_state2,im_state2,norm,"
        "re_projection,im_projection,sheet_index,pop1,pop2"
    )


def test_rydberg_scan_run(tmp_path):
    text = """
experiment.command = rydberg
param.gamma = 1.0
param.W = -11.0
plane.x_name = Omega
plane.x_min = 1.8
plane.x_max = 2.4
plane.x_res = 7
plane.y_name = Delta
plane.y_min = -5.5
plane.y_max = -3.5
plane.y_res = 9
"""
    cfg = parse_config(text)
    manifest = run(cfg, out_dir=str(tmp_path))
    assert "steady_scan.csv" in manifest["outputs"]
    assert "folds.json" in manifest["outputs"]
    lines = _read(tmp_path / "steady_scan.csv").decode().splitlines()
    assert lines[0] == "Omega,Delta,root_count,n_1,n_2,n_3,stable_1,stable_2,stable_3"
    counts = {int(l.split(",")[2]) for l in lines[1:]}
    assert 3 in counts  # the window crosses this little patch


# -- command line ------------------------------------------------------------------


def test_cli_validate_ok(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(MAP_CONFIG)
    assert main(["validate", "--config", str(cfgfile)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_error_exit_code(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("experiment.command = map\nplane.bogus = 1\n")
    assert main(["validate", "--config", str(cfgfile)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_generator_entries_past_1e154_validate_and_run(tmp_path, capsys):
    # linalg.eig scales each matrix by a power of two before its Frobenius
    # norm, so squares of 1e200 entries neither overflow nor warn (a
    # RuntimeWarning is an error here): validation and the run both return 0
    text = (ENCIRCLE_CONFIG.replace("center_x = 0.5", "center_x = 1e200")
            .replace("period = 10.0", "period = 100.0").replace("run.T = 10.0", "run.T = 100")
            .replace("run.steps = 100", "run.steps = 200"))
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(text)
    assert main(["validate", "--config", str(cfgfile)]) == 0
    out = tmp_path / "out"
    assert main(["encircle", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert "chirality.json" in capsys.readouterr().out
    assert json.loads(_read(out / "chirality.json"))


RYDBERG_PLANE_CONFIG = """
experiment.command = rydberg
param.gamma = 1.0
param.W = -11.0
plane.x_name = Omega
plane.x_min = 1.8
plane.x_max = 2.4
plane.x_res = 7
plane.y_name = Delta
plane.y_min = -5.5
plane.y_max = -3.5
plane.y_res = 9
"""
BAD_PLANES = {
    "map_reversed_axis": MAP_CONFIG.replace(
        "plane.x_min = -0.5\nplane.x_max = 0.5", "plane.x_min = 0.5\nplane.x_max = -0.5"
    ),
    "map_unknown_axis": MAP_CONFIG.replace("plane.x_name = delta", "plane.x_name = Omega"),
    "map_same_axis_twice": MAP_CONFIG.replace("plane.y_name = J", "plane.y_name = delta"),
    "map_missing_parameter": MAP_CONFIG.replace("param.Gamma = 1.0\n", ""),
    "rydberg_reversed_axis": RYDBERG_PLANE_CONFIG.replace(
        "plane.x_min = 1.8\nplane.x_max = 2.4", "plane.x_min = 2.4\nplane.x_max = 1.8"
    ),
    "rydberg_negative_omega": RYDBERG_PLANE_CONFIG.replace(
        "plane.x_min = 1.8", "plane.x_min = -1.0"
    ),
    "rydberg_unknown_axis": RYDBERG_PLANE_CONFIG.replace(
        "plane.x_name = Omega", "plane.x_name = banana"
    ),
    "rydberg_swapped_axes": RYDBERG_PLANE_CONFIG.replace(
        "plane.x_name = Omega", "plane.x_name = Delta"
    ).replace("plane.y_name = Delta", "plane.y_name = Omega"),
    # the steady-state cubic squares Delta; only the high corner is huge
    "rydberg_huge_detuning": RYDBERG_PLANE_CONFIG.replace(
        "plane.y_max = -3.5", "plane.y_max = 1e160"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_PLANES))
def test_cli_bad_plane_fails_validation(tmp_path, capsys, case):
    # A plane the run cannot build fails `validate` and the run itself with
    # a config error (exit 2), never a traceback.
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(BAD_PLANES[case])
    with pytest.raises(ConfigError, match="plane"):
        parse_config(BAD_PLANES[case])
    assert main(["validate", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    command = case.split("_")[0]
    out = tmp_path / "out"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


FIG5_PLANE = """plane.x_name = Omega
plane.x_min = 1.2
plane.x_max = 6.0
plane.x_res = 161
plane.y_name = Delta
plane.y_min = -9.0
plane.y_max = -1.0
plane.y_res = 161
"""

ENCIRCLE_CONFIG = """
experiment.command = encircle
experiment.model = encircle
param.Gamma = 1.0
path.center_x = 0.5
path.center_y = 0.0
path.radius = 0.1
path.period = 10.0
path.plane = J-Omega
run.T = 10.0
run.steps = 100
"""
RYDBERG_PATH_CONFIG = """
experiment.command = rydberg
param.gamma = 1.0
param.W = -11.0
path.center_x = 3.85
path.center_y = -5.6
path.radius = 1.477
path.period = 100.0
path.plane = Omega-Delta
run.T = 100.0
run.steps = 10000
"""
BAD_RUNS = {
    "encircle_unknown_plane_axis": ENCIRCLE_CONFIG.replace("J-Omega", "J-Gamma2"),
    "encircle_unknown_branch": ENCIRCLE_CONFIG + "run.initial_branch = middle\n",
    "encircle_branch_out_of_range": ENCIRCLE_CONFIG + "run.initial_branch = 2\n",
    "encircle_unknown_direction": ENCIRCLE_CONFIG + "run.directions = sideways\n",
    "encircle_unknown_convention": ENCIRCLE_CONFIG + "path.convention = tan-cos\n",
    "rydberg_unknown_root": RYDBERG_PATH_CONFIG + "run.initial_root = middle\n",
    "rydberg_unknown_direction": RYDBERG_PATH_CONFIG + "run.directions = sideways\n",
    # each loop command names its start by its own key
    "rydberg_encircle_start_key": RYDBERG_PATH_CONFIG + "run.initial_branch = middle\n",
    "encircle_rydberg_start_key": ENCIRCLE_CONFIG + "run.initial_root = high\n",
    "encircle_too_few_steps": ENCIRCLE_CONFIG.replace("run.steps = 100\n", "run.steps = 50\n"),
    "rydberg_zero_steps": RYDBERG_PATH_CONFIG.replace("run.steps = 10000", "run.steps = 0"),
    "rydberg_unknown_path_plane": RYDBERG_PATH_CONFIG.replace("Omega-Delta", "banana-Omega"),
    # 2 pi / period overflows; gamma / 2 underflows to zero
    "rydberg_subnormal_period": RYDBERG_PATH_CONFIG.replace("= 100.0", "= 5e-324"),
    "rydberg_subnormal_gamma": RYDBERG_PATH_CONFIG.replace("gamma = 1.0", "gamma = 5e-324"),
    # W^2 overflows in the steady-state cubic
    "rydberg_huge_W": RYDBERG_PATH_CONFIG.replace("param.W = -11.0", "param.W = 1e160"),
    # without loss the upper branch of the post-selected generator is a
    # traceless coherence, which cannot be prepared as a state
    "encircle_traceless_start_branch": ENCIRCLE_CONFIG.replace(
        "experiment.model = encircle\nparam.Gamma = 1.0",
        "experiment.model = coldatom_liouvillian\nparam.Gamma = 0.0\nparam.gamma = 0.0",
    ).replace("path.center_x = 0.5\npath.center_y = 0.0\npath.radius = 0.1",
              "path.center_x = 0.0\npath.center_y = 1.0\npath.radius = 0.0")
    .replace("path.plane = J-Omega", "path.plane = delta-J"),
    # past MAX_STEPS per direction, by the default rule or by run.steps
    "encircle_huge_T": ENCIRCLE_CONFIG.replace("= 10.0", "= 1e15")
    .replace("run.steps = 100\n", ""),
    "encircle_huge_steps": ENCIRCLE_CONFIG.replace("run.steps = 100", f"run.steps = {10**12}"),
    "rydberg_huge_steps": RYDBERG_PATH_CONFIG.replace("run.steps = 10000", f"run.steps = {10**12}"),
    # with a plane the run checks the transfer conditions at the loop's
    # fold crossings, and this loop crosses no fold
    "rydberg_no_fold_crossing": RYDBERG_PATH_CONFIG.replace("3.85", "1.3")
    .replace("-5.6", "-8.0").replace("1.477", "0.1") + FIG5_PLANE,
}


@pytest.mark.parametrize("case", sorted(BAD_RUNS))
def test_cli_bad_run_spec_fails_validation(tmp_path, capsys, monkeypatch, case):
    # `validate` builds the path, the drive, every requested direction and
    # the start branch or root, and counts the steps, so a spec the run
    # cannot build or finish fails both `validate` and the run with a
    # config error (exit 2), never a traceback, and starts no integration.
    from epkit import dynamics, rydberg

    def no_integration(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(dynamics, "_integrate", no_integration)
    monkeypatch.setattr(rydberg, "integrate_bloch", no_integration)
    command = case.split("_")[0]
    base = ENCIRCLE_CONFIG if command == "encircle" else RYDBERG_PATH_CONFIG
    parse_config(base)  # the unmodified config is valid
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(BAD_RUNS[case])
    assert main(["validate", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    out = tmp_path / "out"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_loop_plane_naming_one_parameter_twice_fails_validation(tmp_path, capsys):
    # A loop plane that names one parameter twice, directly or by an alias
    # (coldatom's J is its coupling), would drive a degenerate loop: it
    # fails validation as a map plane does.  Every preset still validates.
    coldatom = ENCIRCLE_CONFIG.replace(
        "experiment.model = encircle\nparam.Gamma = 1.0",
        "experiment.model = coldatom_liouvillian\nparam.Gamma = 0.1\n"
        "param.gamma = 0.01\nparam.delta = 0.0")
    cfgfile = tmp_path / "exp.cfg"
    for text, plane in ((ENCIRCLE_CONFIG, "J-J"), (coldatom, "J-coupling")):
        cfgfile.write_text(text.replace("path.plane = J-Omega", f"path.plane = {plane}"))
        assert main(["validate", "--config", str(cfgfile)]) == 2
        assert "x_name and y_name name the same parameter" in capsys.readouterr().err
    for name, factory in PRESETS.items():
        cfgfile.write_text(serialize_config(factory()))
        assert main(["validate", "--config", str(cfgfile)]) == 0, name
        assert capsys.readouterr().out == "ok\n"


def test_loop_too_coarse_for_its_generator_fails_validation(tmp_path, capsys, monkeypatch):
    # At 200 steps of a T = 100 loop, generator entries of 5e307 (Gamma)
    # or 1e300 (the path centre) put h rate dim past what the integrator
    # takes: `validate` and the run both reject run.steps (exit 2) before
    # the t = 0 decomposition, whose norm would overflow, and integrate
    # nothing.
    from epkit import dynamics

    def no_integration(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(dynamics, "_integrate", no_integration)
    loop = ENCIRCLE_CONFIG.replace("= 10.0", "= 100.0").replace("run.steps = 100", "run.steps = 200")
    cfgfile = tmp_path / "exp.cfg"
    for old, new in (("param.Gamma = 1.0", "param.Gamma = 1e308"),
                     ("path.center_x = 0.5", "path.center_x = 1e300")):
        cfgfile.write_text(loop.replace(old, new))
        assert main(["validate", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run.steps = 200 is too coarse"), err
        out = tmp_path / "out"
        assert main(["encircle", "--config", str(cfgfile), "--out", str(out)]) == 2
        assert capsys.readouterr().err == err
        assert not out.exists()


SPECTRUM_CONFIG = """
experiment.command = spectrum
experiment.model = basic_liouvillian
param.J = 0.125
param.Gamma = 1.0
"""
# each command's base config and the run keys its run reads
RUN_KEY_BASES = {
    "spectrum": (SPECTRUM_CONFIG, ()),
    "map": (MAP_CONFIG, ("threads",)),
    "encircle": (ENCIRCLE_CONFIG, ("T", "steps", "directions", "initial_branch", "check_steps")),
    "rydberg": (RYDBERG_PATH_CONFIG, ("T", "steps", "directions", "initial_root", "check_steps")),
    "rydberg-plane": (RYDBERG_PLANE_CONFIG, ()),
}
RUN_KEY_VALUES = {"T": "3", "steps": "7", "directions": "sideways", "initial_branch": "middle",
                  "initial_root": "7", "threads": "2", "check_steps": "true"}
UNREAD_RUN_KEYS = {
    f"{base}:{key}": RUN_KEY_BASES[base][0] + f"run.{key} = {value}\n"
    for base in RUN_KEY_BASES for key, value in RUN_KEY_VALUES.items()
    if key not in RUN_KEY_BASES[base][1]
}
UNREAD_RUN_KEYS["map:all"] = MAP_CONFIG + (
    "run.directions = sideways\nrun.initial_branch = middle\nrun.steps = 7\nrun.T = 3\n")
UNREAD_RUN_KEYS["rydberg-plane:all"] = RYDBERG_PLANE_CONFIG + (
    "run.initial_root = 7\nrun.steps = 0\nrun.T = -1\nrun.directions = sideways\n")


@pytest.mark.parametrize("case", sorted(UNREAD_RUN_KEYS))
def test_cli_run_keys_a_command_never_reads_fail_validation(tmp_path, capsys, case):
    # A run key the command's run never reads is an error, not a silent
    # no-op: `validate` and the run both exit 2 and write nothing.
    base = case.split(":")[0]
    parse_config(RUN_KEY_BASES[base][0])  # the config without the key is valid
    with pytest.raises(ConfigError, match="is not a key of"):
        parse_config(UNREAD_RUN_KEYS[case])
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(UNREAD_RUN_KEYS[case])
    assert main(["validate", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err.startswith("error: run.")
    out = tmp_path / "out"
    assert main([base.split("-")[0], "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: run.")
    assert not out.exists()


@pytest.mark.parametrize("base", ["spectrum", "map", "rydberg-plane"])
def test_cli_check_steps_flag_follows_the_key_rule(tmp_path, capsys, base):
    # --check-steps is run.check_steps = true: a command that never reads
    # the switch rejects the flag too, for a config file and a preset
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(RUN_KEY_BASES[base][0])
    command = base.split("-")[0]
    out = tmp_path / "out"
    argv = [command, "--config", str(cfgfile), "--out", str(out), "--check-steps"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: run.check_steps is not a key of")
    assert not out.exists()
    if command == "map":
        assert main(["map", "--preset", "fig4a", "--out", str(out), "--check-steps"]) == 2
        assert capsys.readouterr().err.startswith("error: run.check_steps is not a key of")
        assert not out.exists()


@st.composite
def rydberg_configs(draw):
    """Small ``rydberg`` experiment files: a plane, a path or both.

    Every range holds 0, and the Omega and Delta ranges negative values.
    A path runs with a cap of 1 to 400 steps or the default cap.
    """
    lines = ["experiment.command = rydberg",
             f"param.gamma = {draw(st.floats(0.0, 3.0))!r}",
             f"param.W = {draw(st.floats(-20.0, 5.0))!r}"]
    sections = draw(st.sampled_from(["plane", "path", "both"]))
    if sections != "path":
        for axis, name, lo, hi in (("x", "Omega", -2.0, 7.0), ("y", "Delta", -10.0, 3.0)):
            low = draw(st.floats(lo, hi))
            lines += [f"plane.{axis}_name = {name}",
                      f"plane.{axis}_min = {low!r}",
                      f"plane.{axis}_max = {low + draw(st.floats(0.0, 6.0))!r}",
                      f"plane.{axis}_res = {draw(st.integers(2, 9))}"]
    if sections != "plane":
        T = draw(st.floats(0.0, 200.0))
        lines += [f"path.center_x = {draw(st.floats(-2.0, 7.0))!r}",
                  f"path.center_y = {draw(st.floats(-10.0, 3.0))!r}",
                  f"path.radius = {draw(st.floats(0.0, 3.0))!r}",
                  f"path.period = {T!r}",
                  f"path.phase0 = {draw(st.floats(-4.0, 4.0))!r}",
                  f"path.convention = {draw(st.sampled_from(['cos-sin', 'sin-cos']))}",
                  f"run.T = {T!r}",
                  f"run.initial_root = {draw(st.sampled_from(['low', 'high', *'0123']))}",
                  f"run.directions = {draw(st.sampled_from(['both', 'ccw', 'cw']))}",
                  f"run.check_steps = {draw(st.sampled_from(['true', 'false']))}"]
        steps = draw(st.one_of(st.none(), st.integers(1, 400)))
        if steps is not None:  # none: the default cap
            lines.append(f"run.steps = {steps}")
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(text=rydberg_configs())
def test_validated_rydberg_config_fails_only_typed(text):
    # "validate says ok" means the run cannot fail on its config: it ends
    # normally or with a typed error (exit 2), never an untyped exception.
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out:
        try:
            run(cfg, out_dir=out)
        except EpkitError:
            pass


@st.composite
def encircle_configs(draw):
    """Small ``encircle`` experiment files on both linear models.

    Radius 0 holds the generator fixed; T reaches 1e12, where one of at
    most 400 steps spans up to ~1e10 inverse rates.
    """
    if draw(st.booleans()):
        lines = ["experiment.model = encircle",
                 f"param.Gamma = {draw(st.floats(0.0, 3.0))!r}",
                 "path.plane = J-Omega",
                 f"path.center_x = {draw(st.floats(-2.0, 3.0))!r}",
                 f"path.center_y = {draw(st.floats(-2.0, 2.0))!r}"]
    else:
        lines = ["experiment.model = coldatom_liouvillian",
                 f"param.Gamma = {draw(st.floats(0.0, 0.2))!r}",
                 f"param.gamma = {draw(st.floats(0.0, 0.05))!r}",
                 "path.plane = delta-J",
                 f"path.center_x = {draw(st.floats(-0.5, 0.5))!r}",
                 f"path.center_y = {draw(st.floats(0.0, 1.0))!r}"]
    T = draw(st.one_of(st.floats(1e-3, 200.0), st.floats(1e3, 1e12)))
    lines += ["experiment.command = encircle",
              f"path.radius = {draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))!r}",
              f"path.period = {T!r}",
              f"path.phase0 = {draw(st.floats(-4.0, 4.0))!r}",
              f"path.convention = {draw(st.sampled_from(['cos-sin', 'sin-cos']))}",
              f"run.T = {T!r}",
              f"run.steps = {draw(st.integers(1, 400))}",
              f"run.directions = {draw(st.sampled_from(['both', 'ccw', 'cw']))}",
              "run.initial_branch = "
              f"{draw(st.sampled_from(['upper', 'lower', 'quasi_steady', '0', '1']))}",
              f"run.check_steps = {draw(st.sampled_from(['true', 'false']))}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(text=encircle_configs())
def test_validated_encircle_config_fails_only_typed(text):
    # as for rydberg: a config that validates runs, or fails typed
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out:
        try:
            run(cfg, out_dir=out)
        except EpkitError:
            pass


@st.composite
def map_configs(draw):
    """Small ``map`` experiment files over every catalog model.

    The axes are two model parameters or aliases; a fixed parameter is
    left out now and then.  The ranges hold 0 and negative values, where
    branches meet.
    """
    from epkit.models import MODELS, PARAM_ALIASES

    name = draw(st.sampled_from(sorted(MODELS)))
    names = [*MODELS[name].params, *PARAM_ALIASES.get(name, {})]
    x_name, y_name = draw(st.permutations(names))[:2]
    lines = ["experiment.command = map", f"experiment.model = {name}"]
    for p in MODELS[name].params:
        if draw(st.integers(0, 9)):
            lines.append(f"param.{p} = {draw(st.floats(-2.0, 2.0))!r}")
    for axis, axis_name in (("x", x_name), ("y", y_name)):
        low = draw(st.floats(-2.0, 2.0))
        lines += [f"plane.{axis}_name = {axis_name}",
                  f"plane.{axis}_min = {low!r}",
                  f"plane.{axis}_max = {low + draw(st.floats(0.0, 3.0))!r}",
                  f"plane.{axis}_res = {draw(st.integers(1, 7))}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(text=map_configs())
def test_validated_map_config_fails_only_typed(text):
    # as for rydberg: a config that validates runs, or fails typed
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out:
        try:
            run(cfg, out_dir=out)
        except EpkitError:
            pass


def test_cli_initial_branch_index(tmp_path):
    # An index selects the branch in canonical order: on the 2x2 model,
    # branch 1 is the lower one.
    runs = {}
    for spec in ("1", "lower"):
        cfgfile = tmp_path / f"{spec}.cfg"
        cfgfile.write_text(ENCIRCLE_CONFIG + f"run.initial_branch = {spec}\n")
        assert main(["validate", "--config", str(cfgfile)]) == 0
        out = tmp_path / spec
        assert main(["encircle", "--config", str(cfgfile), "--out", str(out)]) == 0
        runs[spec] = json.loads(_read(out / "manifest.json"))["outputs"]
    assert runs["1"] == runs["lower"]


@pytest.mark.parametrize("T", [100, 300])
def test_cli_rydberg_check_steps(tmp_path, capsys, monkeypatch, T):
    # At a loose tolerance the loop finishes, but its records move by far
    # more than 1e-6 when rerun at RTOL / 16: the check fails the run typed,
    # set in the file or by flag, and no transfer.json is written.
    from epkit import rydberg

    monkeypatch.setattr(rydberg, "RTOL", 1e-3)
    text = RYDBERG_PATH_CONFIG.replace("= 100.0", f"= {T}.0")
    plain = tmp_path / "plain.cfg"
    plain.write_text(text)
    checked = tmp_path / "checked.cfg"
    checked.write_text(text + "run.check_steps = true\n")
    assert main(["rydberg", "--config", str(plain), "--out", str(tmp_path / "plain")]) == 0
    flagged = ["--config", str(plain), "--check-steps"]
    for k, argv in enumerate((["--config", str(checked)], flagged)):
        out = tmp_path / f"checked{k}"
        assert main(["rydberg", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "records moved" in err and "Traceback" not in err
        assert not (out / "transfer.json").exists()


def test_cli_diverged_meanfield_loop_fails(tmp_path, capsys, monkeypatch):
    # A loop the run cannot finish ends with a typed error (exit 2), no
    # traceback and no transfer.json: past a cap of 100 steps, and at
    # T = 1e15 under the default cap, where the steps across a fold jump
    # fall below the rounding of t.  Both pass validation.  Without
    # run.steps the cap is rydberg.STEP_CAP.
    from epkit import rydberg

    for name, text, message in (
        ("cap", RYDBERG_PATH_CONFIG.replace("run.steps = 10000", "run.steps = 100"),
         "more than 100 steps"),
        ("huge_T", RYDBERG_PATH_CONFIG.replace("= 100.0", "= 1e15")
         .replace("run.steps = 10000\n", ""), "rounding of t"),
    ):
        cfgfile = tmp_path / f"{name}.cfg"
        cfgfile.write_text(text)
        assert main(["validate", "--config", str(cfgfile)]) == 0
        out = tmp_path / name
        assert main(["rydberg", "--config", str(cfgfile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not (out / "transfer.json").exists()
    monkeypatch.setattr(rydberg, "STEP_CAP", 1)
    cfgfile.write_text(RYDBERG_PATH_CONFIG.replace("run.steps = 10000\n", ""))
    assert main(["rydberg", "--config", str(cfgfile), "--out", str(tmp_path / "cap")]) == 2
    assert "more than 1 steps" in capsys.readouterr().err


def test_rydberg_runs_are_reproducible(tmp_path):
    # the adaptive steps depend on the config alone: two runs of one
    # config write the same bytes
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(RYDBERG_PATH_CONFIG)
    outputs = []
    for k in range(2):
        out = tmp_path / f"out{k}"
        assert main(["rydberg", "--config", str(cfgfile), "--out", str(out)]) == 0
        outputs.append({name: (out / name).read_bytes()
                        for name in ("trajectory_ccw.csv", "trajectory_cw.csv", "transfer.json")})
    assert outputs[0] == outputs[1]


def test_cli_rydberg_cusp_off_the_plane(tmp_path):
    # The transfer conditions come from the loop and the cubic alone: a
    # plane that holds no cusp gives the conditions of the full plane.
    conditions = {}
    for x_max in ("6.0", "4.0"):
        cfgfile = tmp_path / f"exp{x_max}.cfg"
        cfgfile.write_text(RYDBERG_PATH_CONFIG + FIG5_PLANE.replace("6.0", x_max)
                           .replace("161", "41"))
        out = tmp_path / f"out{x_max}"
        assert main(["rydberg", "--config", str(cfgfile), "--out", str(out)]) == 0
        conditions[x_max] = json.loads(_read(out / "transfer.json"))["conditions"]
    assert json.loads(_read(out / "folds.json"))["cusp"] is None
    assert conditions["4.0"] == conditions["6.0"]


def test_cli_integrates_each_loop_once(tmp_path, monkeypatch):
    # The verdicts return the runs they judged, and the trajectory files
    # are written from those runs: one integration per direction.  The
    # t = 0 generator is decomposed once, by validation, whose plan the
    # run executes, and it judges both directions, which return to it; one
    # sheet-tracking decomposition serves both on every record grid.
    from epkit import dynamics, linalg, rydberg

    calls = []
    targets = ((dynamics, "_integrate"), (rydberg, "integrate_bloch"), (linalg, "eig"),
               (dynamics, "step_rate"))
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for command, text in (("encircle", ENCIRCLE_CONFIG), ("rydberg", RYDBERG_PATH_CONFIG)):
        cfgfile = tmp_path / f"{command}.cfg"
        cfgfile.write_text(text)
        out = tmp_path / command
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 0
        assert (out / "trajectory_ccw.csv").exists() and (out / "trajectory_cw.csv").exists()
    assert calls.count("_integrate") == 2
    assert calls.count("integrate_bloch") == 2
    # encircle: t = 0 and the sheet tracking once each; the rydberg run
    # makes no linalg.eig call
    assert calls.count("eig") == 2
    # one rate probe from parsing to the run, with run.steps given (it
    # checks the steps) or under the default step rule (it sets them)
    assert calls.count("step_rate") == 1
    calls.clear()
    cfg = parse_config(ENCIRCLE_CONFIG.replace("run.steps = 100\n", ""))
    run(cfg, out_dir=str(tmp_path / "default"))
    assert calls.count("step_rate") == 1
    assert calls.count("eig") == 2
    # 10,000 steps record every third step and the last one: on this
    # asymmetric grid, too, one decomposition serves both directions
    calls.clear()
    cfg = parse_config(ENCIRCLE_CONFIG.replace("run.steps = 100", "run.steps = 10000"))
    run(cfg, out_dir=str(tmp_path / "asymmetric"))
    assert calls.count("eig") == 2


@pytest.mark.parametrize("steps, directions", [
    (100, "both"), (4096, "both"), (10000, "both"), (10000, "cw"),
])
def test_manifest_counts_ambiguous_sheet_samples(tmp_path, steps, directions):
    # The ambiguous samples are those track_sheets flags over the
    # projected directions, on symmetric and asymmetric record grids.
    from epkit import linalg
    from epkit.dynamics import _record_indices, track_sheets

    text = ENCIRCLE_CONFIG.replace("run.steps = 100", f"run.steps = {steps}")
    cfg = parse_config(text + f"run.directions = {directions}\n")
    counters = run(cfg, out_dir=str(tmp_path))["counters"]
    times = _record_indices(steps) * (10.0 / steps)
    flagged = [track_sheets(times, linalg.eig(cfg.plan.drive.with_direction(d).matrices(times)))
               .defective_samples.sum() for d in cfg.plan.directions]
    assert counters["track_sheets.ambiguous"] == sum(flagged)


def test_config_hash_ignores_the_output_directory(tmp_path):
    # One experiment written to two directories is one config: the
    # manifests name the same config hash and the same artifacts.
    cfgfile = tmp_path / "loop.cfg"
    cfgfile.write_text(ENCIRCLE_CONFIG)
    manifests = []
    for out in ("a", "b"):
        assert main(["encircle", "--config", str(cfgfile), "--out", str(tmp_path / out)]) == 0
        manifests.append(json.loads(_read(tmp_path / out / "manifest.json")))
    assert manifests[0]["config_sha256"] == manifests[1]["config_sha256"]
    assert manifests[0]["outputs"] == manifests[1]["outputs"]
    other = tmp_path / "other.cfg"
    other.write_text(ENCIRCLE_CONFIG.replace("radius = 0.1", "radius = 0.2"))
    assert main(["encircle", "--config", str(other), "--out", str(tmp_path / "c")]) == 0
    manifest = json.loads(_read(tmp_path / "c" / "manifest.json"))
    assert manifest["config_sha256"] != manifests[0]["config_sha256"]


def test_rydberg_run_writes_the_directions_it_names(tmp_path):
    # As an encircle run does, a rydberg run writes the trajectory of each
    # direction that run.directions names; transfer.json judges both loops.
    outputs = {}
    for directions in ("both", "cw"):
        cfgfile = tmp_path / f"{directions}.cfg"
        cfgfile.write_text(RYDBERG_PATH_CONFIG + f"run.directions = {directions}\n")
        out = tmp_path / directions
        assert main(["rydberg", "--config", str(cfgfile), "--out", str(out)]) == 0
        outputs[directions] = json.loads(_read(out / "manifest.json"))["outputs"]
    assert sorted(outputs["cw"]) == ["trajectory_cw.csv", "transfer.json"]
    outputs["both"].pop("trajectory_ccw.csv")
    assert outputs["both"] == outputs["cw"]


def test_rydberg_run_searches_the_fold_crossings_once(tmp_path, monkeypatch):
    # Validation searches the loop's fold crossings and solves the start
    # point's steady states, and the run's transfer conditions and
    # transfer_verdict for both directions take them from its plan.  An
    # edited preset is validated by replace, and searches and solves once
    # from there to the end of its run too.
    from epkit import contour, rydberg

    searches, starts = [], []
    original, original_steady = contour.bisect, rydberg.steady_states_batch

    def spy(f, *args, **kwargs):
        if f.__qualname__.startswith("path_fold_crossings."):
            searches.append(f)
        return original(f, *args, **kwargs)

    def steady_spy(p):
        if np.broadcast(p.Omega, p.Delta).size == 1:
            starts.append(p)
        return original_steady(p)

    monkeypatch.setattr(contour, "bisect", spy)
    monkeypatch.setattr(rydberg, "steady_states_batch", steady_spy)
    cfg = parse_config(RYDBERG_PATH_CONFIG + FIG5_PLANE.replace("161", "41"))
    run(cfg, out_dir=str(tmp_path / "config"))
    assert len(searches) == 1
    assert len(starts) == 1
    assert "conditions" in json.loads(_read(tmp_path / "config" / "transfer.json"))
    preset = PRESETS["fig5"]()
    searches.clear()
    starts.clear()
    preset = replace(preset, plane={**preset.plane, "x_res": 41, "y_res": 41},
                     path={**preset.path, "period": 100.0}, run={**preset.run, "T": 100.0})
    run(preset, out_dir=str(tmp_path / "preset"))
    assert len(searches) == 1
    assert len(starts) == 1


def test_cli_conditions_checked_before_integration(tmp_path, monkeypatch):
    # A loop that crosses no fold line fails validation before any
    # integration, also for a config edited in code, which replace
    # validates as parse_config does.
    from epkit import rydberg

    def no_integration(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(rydberg, "integrate_bloch", no_integration)
    cfg = PRESETS["fig5"]()
    with pytest.raises(ConfigError, match="never crosses a fold line"):
        replace(cfg, path={**cfg.path, "center_x": 1.3, "center_y": -8.0, "radius": 0.1})


def test_configs_are_immutable():
    # A config cannot change once made: its sections are read-only and its
    # fields cannot be set, so its plan always matches it.
    for cfg in (parse_config(ENCIRCLE_CONFIG), PRESETS["fig5"]()):
        for section in (cfg.params, cfg.plane, cfg.path, cfg.run):
            with pytest.raises(TypeError):
                section["steps"] = 200
        for name in ("command", "run", "out_dir", "plan"):
            with pytest.raises(FrozenInstanceError):
                setattr(cfg, name, None)


def test_replace_returns_a_validated_config(tmp_path):
    # replace validates the edited copy: its plan is built from the edit, its
    # run matches the run of the edited text, and an edit that makes it
    # invalid raises as parsing the edited text does, before any run.
    cfg = parse_config(ENCIRCLE_CONFIG)
    edited = replace(cfg, run={**cfg.run, "steps": 200})
    assert (cfg.plan.steps, edited.plan.steps) == (100, 200)
    assert cfg.run["steps"] == 100
    fresh = parse_config(serialize_config(edited))
    assert fresh == edited
    m_edited = run(edited, out_dir=str(tmp_path / "edited"))
    m_fresh = run(fresh, out_dir=str(tmp_path / "fresh"))
    assert m_edited["counters"]["integrate.steps"] == 2 * 200
    assert m_edited["outputs"] == m_fresh["outputs"]
    assert m_edited["config_sha256"] == m_fresh["config_sha256"]
    checked = replace(cfg, run={**cfg.run, "check_steps": True})
    assert run(checked, out_dir=str(tmp_path / "checked"))["counters"]["integrate.steps"] == (
        3 * 2 * 100)
    with pytest.raises(ConfigError, match="run.steps >= 100"):
        replace(cfg, run={**cfg.run, "steps": 50})
    with pytest.raises(ConfigError, match="unknown command"):
        replace(cfg, command="banana")


def test_each_config_is_validated_once(tmp_path, monkeypatch):
    # Making a config validates it once, and nothing validates it again:
    # not run, not a new output directory.  --check-steps makes a second
    # config, which validates once more.
    from epkit import cli

    calls = []
    original = cli._validate

    def counted(cfg):
        calls.append(cfg.command)
        return original(cfg)

    monkeypatch.setattr(cli, "_validate", counted)

    def count(make):
        calls.clear()
        made = make()
        return made, len(calls)

    for text in (SPECTRUM_CONFIG, MAP_CONFIG, ENCIRCLE_CONFIG, RYDBERG_PATH_CONFIG):
        cfg, n = count(lambda: parse_config(text))
        assert n == 1, cfg.command
        _, n = count(lambda: run(cfg, out_dir=str(tmp_path / "run" / cfg.command)))
        assert n == 0, cfg.command
        cfgfile = tmp_path / f"{cfg.command}.cfg"
        cfgfile.write_text(text)
        out = str(tmp_path / "config" / cfg.command)
        code, n = count(lambda: main([cfg.command, "--config", str(cfgfile), "--out", out]))
        assert (code, n) == (0, 1), cfg.command
    for name in sorted(PRESETS):
        preset, n = count(PRESETS[name])
        assert n == 1, name
        out = str(tmp_path / "preset" / name)
        code, n = count(lambda: main([preset.command, "--preset", name, "--out", out]))
        assert (code, n) == (0, 1), name
    out = str(tmp_path / "checked")
    code, n = count(lambda: main(["encircle", "--config", str(tmp_path / "encircle.cfg"),
                                  "--out", out, "--check-steps"]))
    assert (code, n) == (0, 2)


@pytest.mark.parametrize("base", sorted(RUN_KEY_BASES))
def test_cli_threads_flag_follows_the_key_rule(tmp_path, capsys, base):
    # --threads is accepted only where run.threads is: map passes it to the
    # scan, with the same artifacts and config hash as without; every other
    # command exits 2 with the error its config would give, writing nothing.
    command = base.split("-")[0]
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(RUN_KEY_BASES[base][0])
    out = tmp_path / "out"
    code = main([command, "--config", str(cfgfile), "--out", str(out), "--threads", "4"])
    if command == "map":
        assert code == 0
        assert main([command, "--config", str(cfgfile), "--out", str(tmp_path / "one")]) == 0
        threaded, single = (json.loads(_read(d / "manifest.json")) for d in (out, tmp_path / "one"))
        assert threaded["outputs"] == single["outputs"]
        assert threaded["config_sha256"] == single["config_sha256"]
        return
    assert code == 2
    with pytest.raises(ConfigError) as raised:
        parse_config(RUN_KEY_BASES[base][0] + "run.threads = 4\n")
    assert capsys.readouterr().err == f"error: {raised.value}\n"
    assert str(raised.value).startswith("run.threads is not a key of")
    assert not out.exists()
    if command == "encircle":
        assert main(["encircle", "--preset", "fig2", "--out", str(out), "--threads", "4"]) == 2
        assert capsys.readouterr().err.startswith("error: run.threads is not a key of")
        assert not out.exists()


def test_manifest_reports_steps_and_drift(tmp_path, capsys):
    # The manifest counts the steps integrated (a step-doubling check adds a
    # run at twice the steps, as perfbench counts them; a mean-field run
    # counts the steps it attempted, its check rerun at RTOL / 16 included),
    # names the step rule, gives the rate that set a default step count
    # and, under --check-steps, the worst drift; the artifacts and stdout
    # do not change with the check.
    from epkit import dynamics

    meanfield = {}
    for name, text, counter, steps in (
        ("fixed", ENCIRCLE_CONFIG, "integrate", 2 * 100),
        ("default", ENCIRCLE_CONFIG.replace("run.steps = 100\n", ""), "integrate", 2 * 4096),
        ("meanfield", RYDBERG_PATH_CONFIG, "integrate_bloch", None),
        ("meanfield-default", RYDBERG_PATH_CONFIG.replace("run.steps = 10000\n", ""),
         "integrate_bloch", None),
    ):
        cfgfile = tmp_path / f"{name}.cfg"
        cfgfile.write_text(text)
        seen = []
        for check in (False, True):
            out = tmp_path / f"{name}-{check}"
            argv = [text.split()[2], "--config", str(cfgfile), "--out", str(out)]
            assert main(argv + ["--check-steps"] * check) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            counters = manifest["counters"]
            if steps is None:
                meanfield[name, check] = counters[f"{counter}.steps"]
            else:
                assert counters[f"{counter}.steps"] == (3 if check else 1) * steps
            default = name.endswith("default")
            assert counters[f"{counter}.step_rule"] == ("default" if default else "run.steps")
            assert (f"{counter}.rate" in counters) == (default and steps is not None)
            if f"{counter}.rate" in counters:  # the rate gives the steps per direction
                T = parse_config(text).run["T"]
                assert dynamics.default_steps(counters[f"{counter}.rate"], T) == steps // 2
            assert (f"{counter}.drift" in counters) == check
            if check:
                assert 0.0 <= counters[f"{counter}.drift"] <= 1e-6
            seen.append((manifest["outputs"], capsys.readouterr().out))
        assert seen[0] == seen[1]
    # A cap the run does not reach changes nothing, and halving the step of
    # a fourth-order method takes about twice the steps.
    unchecked, checked = meanfield["meanfield", False], meanfield["meanfield", True]
    assert meanfield["meanfield-default", False] == unchecked
    assert meanfield["meanfield-default", True] == checked
    assert 1.5 * unchecked < checked - unchecked < 2.5 * unchecked


def test_failed_artifact_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    # The artifact is renamed into place only once it is fully written; a
    # failure on the way removes the temporary file and exits 3.
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(MAP_CONFIG)
    out = tmp_path / "out"

    def no_space(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", no_space)
    assert main(["map", "--config", str(cfgfile), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("io error:")
    assert os.listdir(out) == []


def test_csv_lines_formats_columns():
    text = csv_lines(
        ["i", "flag", "x"],
        [np.array([3, -1]), np.array([True, False]), np.array([0.1, np.nan])],
    )
    assert text == "i,flag,x\n3,1,0.10000000000000001\n-1,0,nan\n"
    assert csv_lines(["x"], [np.array([2.0 / 3.0, 1e300])]) == (
        "x\n0.66666666666666663\n1.0000000000000001e+300\n"
    )
    assert float(csv_lines(["x"], [[math.pi]]).splitlines()[1]) == math.pi


@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_streamed_csv_equals_joined_text(tmp_path, rows):
    # a streamed write gives the bytes and the SHA-256 of the joined text
    rng = np.random.default_rng(rows)
    header = ["k", "x", "y"]
    columns = [np.arange(rows), rng.normal(size=rows), rng.normal(size=rows) * 1e-300]
    text = csv_lines(header, columns)
    blocks = list(csv_blocks(header, columns))
    assert len(blocks) == 1 + -(-rows // CSV_BLOCK_ROWS)
    assert "".join(blocks) == text and text.count("\n") == rows + 1
    digest = write_text(tmp_path / "a.csv", csv_blocks(header, columns))
    data = (tmp_path / "a.csv").read_bytes()
    assert data == text.encode("utf-8")
    assert digest == hashlib.sha256(data).hexdigest() == write_text(tmp_path / "b.csv", text)
    assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.csv"]


def test_failed_stream_leaves_no_file(tmp_path):
    # a block iterator that raises part way leaves neither the artifact nor
    # its temporary file
    def blocks():
        yield "x\n"
        yield "1\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError):
        write_text(tmp_path / "a.csv", blocks())
    assert os.listdir(tmp_path) == []


def test_vanished_state_fails_typed_without_warning(tmp_path, capsys):
    # At radius 0 the generator is constant and diagonal; each one-step
    # block, scaled to its largest entry, maps the start state to a vector
    # whose largest component is subnormal (2.75e-309), and dividing by it
    # overflowed.  That is a lost state, not a RuntimeWarning.
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "experiment.command = encircle\nexperiment.model = encircle\n"
        "param.Gamma = 2.75\npath.center_x = 0.0\npath.center_y = 0.0\n"
        "path.radius = 0.0\npath.period = 25811.0\nrun.T = 25811.0\n"
        "run.steps = 100\nrun.check_steps = true\n"
    )
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["encircle", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "state vanished" in capsys.readouterr().err


def test_cli_import_leaves_scipy_out():
    # The assignment solver is epkit's own; importing the CLI loads no scipy.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, epkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_runs_leave_numpy_ma_out(tmp_path):
    # np.unique, np.setdiff1d and sort-kind np.isin import numpy.ma on
    # first use (about 9 ms and 1 MB resident); no run needs them.
    texts = [MAP_CONFIG, ENCIRCLE_CONFIG + "run.check_steps = true\n",
             ENCIRCLE_CONFIG.replace("run.steps = 100", "run.steps = 10000"),
             RYDBERG_PATH_CONFIG, RYDBERG_PLANE_CONFIG]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys\nfrom epkit.cli import parse_config, run\n"
            f"for i, text in enumerate({texts!r}):\n"
            "    cfg = parse_config(text)\n"
            f"    run(cfg, out_dir={str(tmp_path)!r} + f'/{{i}}')\n"
            "    print(cfg.command, 'numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert done.stdout.splitlines() == [
        f"{command} False" for command in ("map", "encircle", "encircle", "rydberg", "rydberg")]


def test_cli_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2", "fig4a", "fig4_adiabatic", "fig4_intermediate", "fig5"):
        assert name in out


def test_cli_command_mismatch(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(MAP_CONFIG)
    assert main(["encircle", "--config", str(cfgfile)]) == 2


def test_cli_map_run(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(MAP_CONFIG)
    out = tmp_path / "artifacts"
    assert main(["map", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    manifest = json.loads(_read(out / "manifest.json"))
    for name, digest in manifest["outputs"].items():
        import hashlib

        assert hashlib.sha256(_read(out / name)).hexdigest() == digest
