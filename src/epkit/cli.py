"""Config-driven command-line frontend.

Experiment files use a flat ``section.key = value`` grammar: one assignment
per line, '#' starts a comment, unknown keys are hard errors (misspellings
never fall back to defaults silently).  Sections:

    experiment.command    spectrum | map | encircle | rydberg
    experiment.model      catalog model name (not used by rydberg)
    param.<name>          model parameters / mean-field parameters
    plane.x_name/x_min/x_max/x_res, plane.y_*   scan plane
    path.center_x/center_y/radius/period/phase0/plane/convention
    run.T/steps/directions/initial_branch/initial_root/threads/check_steps
    output.dir

Named presets bundle the demonstration scenarios (fig2, fig4a,
fig4_adiabatic, fig4_intermediate, fig5); ``epkit presets`` lists their
expansions.  All artifacts are deterministic: a manifest with SHA-256
checksums accompanies every run.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, output
from .errors import ConfigError, EpkitError
from .models import EncirclePath, PathDrive, get_model, resolve_params
from .spectra import AxisSpec, PlaneSpec, scan_grid, trace_lines

COMMANDS = ("spectrum", "map", "encircle", "rydberg")

_SECTION_KEYS = {
    "experiment": {"command", "model"},
    "plane": {"x_name", "x_min", "x_max", "x_res", "y_name", "y_min", "y_max", "y_res"},
    "path": {"center_x", "center_y", "radius", "period", "phase0", "plane", "convention"},
    "run": {"T", "steps", "directions", "initial_branch", "initial_root",
            "threads", "check_steps"},
    "output": {"dir"},
}
_STRING_KEYS = {
    ("experiment", "command"), ("experiment", "model"),
    ("plane", "x_name"), ("plane", "y_name"),
    ("path", "plane"), ("path", "convention"),
    ("run", "directions"), ("run", "initial_branch"), ("run", "initial_root"),
    ("output", "dir"),
}
_INT_KEYS = {("plane", "x_res"), ("plane", "y_res"), ("run", "steps"), ("run", "threads")}
_BOOL_KEYS = {("run", "check_steps")}


@dataclass
class ExperimentConfig:
    command: str
    model: str | None = None
    params: dict = field(default_factory=dict)
    plane: dict = field(default_factory=dict)
    path: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)
    out_dir: str = "out"


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate an experiment file; errors carry lines."""
    sections: dict[str, dict] = {"experiment": {}, "param": {}, "plane": {},
                                 "path": {}, "run": {}, "output": {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'section.key = value', got {raw!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if "." not in key:
            raise ConfigError(f"key '{key}' is missing its section prefix", lineno)
        section, _, name = key.partition(".")
        if section not in sections:
            raise ConfigError(f"unknown section '{section}'", lineno)
        if section != "param" and name not in _SECTION_KEYS[section]:
            raise ConfigError(f"unknown key '{section}.{name}'", lineno)
        if name in sections[section]:
            raise ConfigError(f"duplicate key '{section}.{name}'", lineno)
        sections[section][name] = _parse_value(section, name, value, lineno)

    if "command" not in sections["experiment"]:
        raise ConfigError("missing section 'experiment' (experiment.command)")
    command = sections["experiment"]["command"]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command '{command}', expected one of {COMMANDS}")

    cfg = ExperimentConfig(
        command=command,
        model=sections["experiment"].get("model"),
        params=sections["param"],
        plane=sections["plane"],
        path=sections["path"],
        run=sections["run"],
        out_dir=sections["output"].get("dir", "out"),
    )
    _validate(cfg)
    return cfg


def _parse_value(section, name, value, lineno):
    if (section, name) in _STRING_KEYS:
        return value
    if (section, name) in _BOOL_KEYS:
        if value in ("true", "false"):
            return value == "true"
        raise ConfigError(f"'{section}.{name}' expects true/false, got '{value}'", lineno)
    try:
        if (section, name) in _INT_KEYS:
            return int(value)
        return float(value)
    except ValueError:
        raise ConfigError(
            f"'{section}.{name}' expects a number, got '{value}'", lineno
        ) from None


def _validate(cfg: ExperimentConfig) -> None:
    needs_model = cfg.command in ("spectrum", "map", "encircle")
    if needs_model:
        if not cfg.model:
            raise ConfigError("missing section 'experiment.model'")
        model = get_model(cfg.model)  # raises UnknownModel
        try:
            resolve_params(model, cfg.params)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        for req in ("gamma", "W"):
            if req not in cfg.params:
                raise ConfigError(f"rydberg runs require 'param.{req}'")
    for val in cfg.params.values():
        if not math.isfinite(val):
            raise ConfigError("parameter values must be finite")
    if cfg.command == "map" or (cfg.command == "rydberg" and cfg.plane):
        for k in _SECTION_KEYS["plane"]:
            if k not in cfg.plane:
                raise ConfigError(f"missing section key 'plane.{k}'")
        # Build what the run builds, so that a bad plane fails here.
        try:
            plane = _build_plane(cfg)
            if cfg.command == "map":
                resolve_params(model, {plane.x.name: 0.0, plane.y.name: 0.0})
            elif (plane.x.name, plane.y.name) != ("Omega", "Delta"):
                raise ValueError("rydberg axes are x_name = Omega, y_name = Delta")
            else:
                from .rydberg import RydbergParams

                # the low corner holds the smallest Omega of the scan
                RydbergParams(Omega=plane.x.lo, Delta=plane.y.lo,
                              gamma=cfg.params["gamma"], W=cfg.params["W"])
        except ValueError as exc:
            raise ConfigError(f"plane: {exc}") from None
    if cfg.command == "encircle" or (cfg.command == "rydberg" and cfg.path):
        for k in ("center_x", "center_y", "radius", "period"):
            if k not in cfg.path:
                raise ConfigError(f"missing section key 'path.{k}'")
        floor = 100 if cfg.command == "encircle" else 1
        if cfg.run.get("steps", floor) < floor:
            raise ConfigError(f"{cfg.command} runs need run.steps >= {floor}")
        # Build what the run builds, so that a bad path, direction or start
        # branch fails here.
        try:
            if cfg.command == "encircle":
                from .dynamics import resolve_branch

                drive, _ = _build_drives(cfg)
                resolve_branch(drive, cfg.run.get("initial_branch", "upper"))
            elif cfg.path.get("plane", "Omega-Delta") != "Omega-Delta":
                raise ValueError("a rydberg path needs plane = Omega-Delta")
            else:
                from .rydberg import resolve_root

                resolve_root(
                    _build_path(cfg), cfg.params["gamma"], cfg.params["W"],
                    cfg.run.get("initial_root", "low"),
                )
        except ValueError as exc:
            raise ConfigError(f"path: {exc}") from None
    if cfg.command == "rydberg" and not cfg.plane and not cfg.path:
        raise ConfigError("rydberg runs need a 'plane' section, a 'path' section or both")
    if cfg.path and "T" in cfg.run and "period" in cfg.path:
        if cfg.run["T"] != cfg.path["period"]:
            raise ConfigError(
                "runs integrate one full cycle: run.T must equal path.period"
            )


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    lines = [f"experiment.command = {cfg.command}"]
    if cfg.model:
        lines.append(f"experiment.model = {cfg.model}")
    for name in sorted(cfg.params):
        lines.append(f"param.{name} = {output.fmt(cfg.params[name])}")
    for section, data in (("plane", cfg.plane), ("path", cfg.path), ("run", cfg.run)):
        for name in sorted(data):
            v = data[name]
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = output.fmt(v)
            lines.append(f"{section}.{name} = {v}")
    lines.append(f"output.dir = {cfg.out_dir}")
    return "\n".join(lines) + "\n"


# -- presets ---------------------------------------------------------------------


def _preset_fig2() -> ExperimentConfig:
    return ExperimentConfig(
        command="encircle",
        model="encircle",
        params={"Gamma": 1.0},
        path={"center_x": 0.5, "center_y": 0.0, "radius": 0.1, "period": 100.0,
              "phase0": 0.0, "plane": "J-Omega", "convention": "cos-sin"},
        run={"T": 100.0, "steps": 10000, "directions": "both",
             "initial_branch": "upper"},
    )


def _preset_fig4a() -> ExperimentConfig:
    return ExperimentConfig(
        command="map",
        model="coldatom_liouvillian",
        params={"Gamma": 1.0 / 20.0, "gamma": 1.0 / 100.0},
        plane={"x_name": "delta", "x_min": -0.02, "x_max": 0.02, "x_res": 161,
               "y_name": "J", "y_min": 0.0005, "y_max": 0.02, "y_res": 161},
    )


def _preset_fig4_run(T: float) -> ExperimentConfig:
    return ExperimentConfig(
        command="encircle",
        model="coldatom_liouvillian",
        params={"Gamma": 1.0 / 20.0, "gamma": 1.0 / 100.0},
        path={"center_x": 0.0, "center_y": 0.5, "radius": 0.5, "period": T,
              "phase0": 2.0 * math.pi / 3.0, "plane": "delta-J",
              "convention": "sin-cos"},
        run={"T": T, "directions": "both", "initial_branch": "quasi_steady"},
    )


def _preset_fig5() -> ExperimentConfig:
    return ExperimentConfig(
        command="rydberg",
        params={"gamma": 1.0, "W": -11.0},
        plane={"x_name": "Omega", "x_min": 1.2, "x_max": 6.0, "x_res": 161,
               "y_name": "Delta", "y_min": -9.0, "y_max": -1.0, "y_res": 161},
        path={"center_x": 3.85, "center_y": -5.6, "radius": 1.477,
              "period": 50000.0, "phase0": -math.atan(9.0 / 4.0),
              "plane": "Omega-Delta", "convention": "sin-cos"},
        run={"T": 50000.0, "directions": "both", "initial_root": "low"},
    )


PRESETS = {
    "fig2": _preset_fig2,
    "fig4a": _preset_fig4a,
    "fig4_adiabatic": lambda: _preset_fig4_run(10000.0),
    "fig4_intermediate": lambda: _preset_fig4_run(150.0),
    "fig5": _preset_fig5,
}


# -- runners ---------------------------------------------------------------------


def _build_path(cfg: ExperimentConfig) -> EncirclePath:
    p = cfg.path
    return EncirclePath(
        center=(p["center_x"], p["center_y"]),
        radius=p["radius"],
        period=p.get("period", cfg.run.get("T", 1.0)),
        phase0=p.get("phase0", 0.0),
        plane=p.get("plane", "J-Omega"),
        convention=p.get("convention", "cos-sin"),
    )


def _build_plane(cfg: ExperimentConfig) -> PlaneSpec:
    p = cfg.plane
    return PlaneSpec(
        x=AxisSpec(p["x_name"], p["x_min"], p["x_max"], p["x_res"]),
        y=AxisSpec(p["y_name"], p["y_min"], p["y_max"], p["y_res"]),
        fixed=dict(cfg.params),
    )


def _build_drives(cfg: ExperimentConfig):
    """Drive of an encircle run and a drive per requested direction."""
    model = get_model(cfg.model)
    fixed = resolve_params(model, cfg.params)
    drive = PathDrive(model=model, path=_build_path(cfg), fixed=fixed)
    directions = cfg.run.get("directions", "both")
    directions = ("ccw", "cw") if directions == "both" else (directions,)
    return drive, {d: drive.with_direction(d) for d in directions}


def run(cfg: ExperimentConfig, out_dir=None, threads: int | None = None) -> dict:
    """Execute a validated config; returns the manifest dictionary."""
    import os

    t0 = time.time()
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    threads = threads if threads is not None else cfg.run.get("threads", 1)
    artifacts: dict[str, str] = {}

    def emit_text(name, text):
        artifacts[name] = output.write_text(os.path.join(out_dir, name), text)

    def emit_json(name, obj):
        artifacts[name] = output.write_json(os.path.join(out_dir, name), obj)

    if cfg.command == "spectrum":
        _run_spectrum(cfg, emit_text, emit_json)
    elif cfg.command == "map":
        _run_map(cfg, emit_text, emit_json, threads)
    elif cfg.command == "encircle":
        _run_encircle(cfg, emit_text, emit_json)
    elif cfg.command == "rydberg":
        _run_rydberg(cfg, emit_text, emit_json)

    manifest = {
        "config_sha256": output.sha256_text(serialize_config(cfg)),
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": artifacts,
    }
    output.write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _run_spectrum(cfg, emit_text, emit_json):
    from . import linalg

    model = get_model(cfg.model)
    mat = model.matrix(**resolve_params(model, cfg.params))
    dec = linalg.eig(mat)
    emit_text("spectrum.csv", output.csv_lines(
        ["index", "re_lambda", "im_lambda", "defective"],
        [np.arange(dec.dim), dec.eigenvalues.real, dec.eigenvalues.imag, dec.defective],
    ))
    emit_json(
        "spectrum.json",
        {
            "model": cfg.model,
            "params": dict(sorted(cfg.params.items())),
            "ep_condition": dec.ep_condition,
            "eigenvalues": [[v.real, v.imag] for v in dec.eigenvalues],
        },
    )


def _run_map(cfg, emit_text, emit_json, threads):
    plane = _build_plane(cfg)
    emap = trace_lines(scan_grid(plane, cfg.model, threads=threads))
    emit_text("map.csv", output.map_csv(emap))
    emit_json("map.json", output.map_json(emap))


def _run_encircle(cfg, emit_text, emit_json):
    from .dynamics import classify_chirality, project_trajectory

    drive, drives = _build_drives(cfg)
    T = cfg.run.get("T", drive.path.period)
    check = bool(cfg.run.get("check_steps", False))
    report = classify_chirality(
        drive, T, cfg.run.get("initial_branch", "upper"), steps=cfg.run.get("steps"),
        check_steps=check,
    )
    for direction, d in drives.items():
        traj = project_trajectory(report.runs[direction], d)
        emit_text(f"trajectory_{direction}.csv", output.trajectory_csv(traj))
    emit_json("chirality.json", output.chirality_json(report))


def _run_rydberg(cfg, emit_text, emit_json):
    from .rydberg import (RydbergParams, bistability_map, check_conditions,
                          steady_states_batch, transfer_verdict)
    from .dynamics import TrajectoryRecord

    gamma, W = cfg.params["gamma"], cfg.params["W"]
    fmap = None
    if cfg.plane:
        plane = _build_plane(cfg)
        fmap = bistability_map(plane, gamma=gamma, W=W)
        om, de = plane.x.values(), plane.y.values()
        steady = steady_states_batch(RydbergParams(om[:, None], de[None, :], gamma, W))
        emit_text("steady_scan.csv", output.steady_scan_csv(om, de, steady))
        del steady  # not held through the loop integration below
        emit_json("folds.json", output.fold_json(fmap))

    if cfg.path:
        path = _build_path(cfg)
        T = cfg.run.get("T", path.period)
        root = cfg.run.get("initial_root", "low")
        verdict = transfer_verdict(
            path, gamma, W, T, root, steps=cfg.run.get("steps"),
            check_steps=bool(cfg.run.get("check_steps", False)),
        )
        for direction, res in verdict.runs.items():
            traj = TrajectoryRecord(
                times=res.times,
                states=np.stack([res.rho22.astype(complex), res.rho21], axis=1),
                norm=np.hypot(np.abs(res.rho22), np.abs(res.rho21)),
                log_norm=np.zeros(len(res.times)),
                kind="meanfield",
                sheet_index=res.rho22,  # the excited population stands in
            )
            emit_text(f"trajectory_{direction}.csv", output.trajectory_csv(traj))
        payload = {
            "verdict": verdict.verdict,
            "initial_branch_index": verdict.initial_index,
            "ccw": {"final_population": verdict.final_ccw, "landed": verdict.landed_ccw},
            "cw": {"final_population": verdict.final_cw, "landed": verdict.landed_cw},
        }
        if fmap is not None:
            cond = check_conditions(path, fmap, root)
            payload["conditions"] = {
                "initial_in_bistable": cond.initial_in_bistable,
                "nearest_crossings_straddle_cusp": cond.nearest_crossings_straddle_cusp,
            }
        emit_json("transfer.json", payload)


# -- entry point --------------------------------------------------------------------


def _load_config(args) -> ExperimentConfig:
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset '{args.preset}'; known: {sorted(PRESETS)}"
            )
        cfg = PRESETS[args.preset]()
    elif args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    else:
        raise ConfigError("provide --config FILE or --preset NAME")
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    if args.check_steps:
        cfg.run["check_steps"] = True
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="epkit",
        description="Exceptional-point spectra, maps and encircling dynamics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", help="experiment file")
        p.add_argument("--preset", help="named preset")
        p.add_argument("--out", help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="grid-scan worker count (output is identical for any value)")
        p.add_argument("--check-steps", action="store_true",
                       help="verify integrations by step doubling")

    for name in COMMANDS:
        add_common(sub.add_parser(name, help=f"run a '{name}' experiment"))
    sub.add_parser("presets", help="list bundled presets")
    v = sub.add_parser("validate", help="parse and validate a config file")
    v.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        if args.subcommand == "presets":
            for name in sorted(PRESETS):
                print(f"== {name} ==")
                print(serialize_config(PRESETS[name]()), end="")
            return 0
        if args.subcommand == "validate":
            with open(args.config, "r", encoding="utf-8") as fh:
                parse_config(fh.read())
            print("ok")
            return 0
        cfg = _load_config(args)
        if args.subcommand != cfg.command:
            raise ConfigError(
                f"config is a '{cfg.command}' experiment, invoked as '{args.subcommand}'"
            )
        manifest = run(cfg, threads=args.threads)
        for name in sorted(manifest["outputs"]):
            print(f"{manifest['outputs'][name]}  {name}")
        return 0
    except EpkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
