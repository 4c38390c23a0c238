"""Config grammar, presets, artifact determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epkit.cli import (
    PRESETS,
    ExperimentConfig,
    main,
    parse_config,
    run,
    serialize_config,
)
from epkit.errors import ConfigError
from epkit.output import csv_lines


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
run.steps = 1000
"""
BAD_RUNS = {
    "encircle_unknown_plane_axis": ENCIRCLE_CONFIG.replace("J-Omega", "J-Gamma2"),
    "encircle_unknown_branch": ENCIRCLE_CONFIG + "run.initial_branch = middle\n",
    "encircle_branch_out_of_range": ENCIRCLE_CONFIG + "run.initial_branch = 2\n",
    "encircle_unknown_direction": ENCIRCLE_CONFIG + "run.directions = sideways\n",
    "encircle_unknown_convention": ENCIRCLE_CONFIG + "path.convention = tan-cos\n",
    "rydberg_unknown_root": RYDBERG_PATH_CONFIG + "run.initial_root = middle\n",
    "encircle_too_few_steps": ENCIRCLE_CONFIG.replace("run.steps = 100\n", "run.steps = 50\n"),
    "rydberg_zero_steps": RYDBERG_PATH_CONFIG.replace("run.steps = 1000", "run.steps = 0"),
    "rydberg_unknown_path_plane": RYDBERG_PATH_CONFIG.replace("Omega-Delta", "banana-Omega"),
}


@pytest.mark.parametrize("case", sorted(BAD_RUNS))
def test_cli_bad_run_spec_fails_validation(tmp_path, capsys, case):
    # `validate` builds the path, the drive, every requested direction and
    # the start branch or root, so a spec the run cannot build fails both
    # `validate` and the run with a config error (exit 2), never a traceback.
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


@pytest.mark.parametrize("steps", [100, 300])
def test_cli_rydberg_check_steps(tmp_path, capsys, steps):
    # At 100 steps the loop diverges, at 300 it converges to the wrong
    # populations; step doubling catches both, set in the file or by flag.
    text = RYDBERG_PATH_CONFIG.replace("run.steps = 1000", f"run.steps = {steps}")
    plain = tmp_path / "plain.cfg"
    plain.write_text(text)
    checked = tmp_path / "checked.cfg"
    checked.write_text(text + "run.check_steps = true\n")
    out = str(tmp_path / "out")
    for argv in (["--config", str(checked)], ["--config", str(plain), "--check-steps"]):
        assert main(["rydberg", *argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "step doubling" in err


def test_cli_diverged_meanfield_loop_fails(tmp_path, capsys):
    # At 100 steps the T = 100 loop diverges to nan: the run ends with a
    # typed error (exit 2) and writes no transfer.json, even unchecked.
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(RYDBERG_PATH_CONFIG.replace("run.steps = 1000", "run.steps = 100"))
    assert main(["validate", "--config", str(cfgfile)]) == 0
    out = tmp_path / "out"
    assert main(["rydberg", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "diverged" in err and "Traceback" not in err
    assert not (out / "transfer.json").exists()


def test_cli_integrates_each_loop_once(tmp_path, monkeypatch):
    # The verdicts return the runs they judged, and the trajectory files
    # are written from those runs: one integration per direction.  The
    # t = 0 generator is decomposed once by validate and once by the run.
    from epkit import dynamics, linalg, rydberg

    calls = []
    targets = ((dynamics, "_integrate"), (rydberg, "integrate_bloch"), (linalg, "eig"))
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
    # encircle: t = 0 in validate and in the run, t = T and the sheet
    # tracking once per direction; the rydberg run makes no linalg.eig call
    assert calls.count("eig") == 6


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


def test_cli_import_leaves_scipy_out():
    # The assignment solver is epkit's own; importing the CLI loads no scipy.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, epkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


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
