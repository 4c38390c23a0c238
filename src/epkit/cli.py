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

Making an ``ExperimentConfig`` validates it and builds its ``Plan``, which
``run`` executes; a config never changes (``dataclasses.replace`` makes an
edited, validated copy).  Each command accepts only the ``run`` keys it reads.

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
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from . import __version__, linalg, output
from .errors import ConfigError, EpkitError
from .models import EncirclePath, PathDrive, get_model, resolve_params
from .spectra import MAP_PARAM_MAX, AxisSpec, PlaneSpec, scan_grid, trace_lines

COMMANDS = ("spectrum", "map", "encircle", "rydberg")

# Each section's keys and their value types; every param.<name> is a float.
_KEYS = {
    "experiment": {"command": str, "model": str},
    "plane": {"x_name": str, "x_min": float, "x_max": float, "x_res": int,
              "y_name": str, "y_min": float, "y_max": float, "y_res": int},
    "path": {"center_x": float, "center_y": float, "radius": float, "period": float,
             "phase0": float, "plane": str, "convention": str},
    "run": {"T": float, "steps": int, "directions": str, "initial_branch": str,
            "initial_root": str, "threads": int, "check_steps": bool},
    "output": {"dir": str},
}

# The run keys each command reads; a rydberg run without a path reads
# none.  Validation rejects every other key.
_RUN_KEYS = {
    "spectrum": (),
    "map": ("threads",),
    "encircle": ("T", "steps", "directions", "initial_branch", "check_steps"),
    "rydberg": ("T", "steps", "directions", "initial_root", "check_steps"),
}

# Largest step count per loop direction, from run.steps or the default
# rule: past it a loop cannot finish in reasonable time.
MAX_STEPS = 10**7


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: making one builds its ``plan`` or raises a
    ``ConfigError``.  The sections are read-only mappings."""

    command: str
    model: str | None = None
    params: Mapping = field(default_factory=dict)
    plane: Mapping = field(default_factory=dict)
    path: Mapping = field(default_factory=dict)
    run: Mapping = field(default_factory=dict)
    out_dir: str = "out"
    plan: Plan = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for section in ("params", "plane", "path", "run"):
            object.__setattr__(self, section, MappingProxyType(dict(getattr(self, section))))
        object.__setattr__(self, "plan", _validate(self))


@dataclass(frozen=True)
class Plan:
    """What validating a config built, which ``run`` executes: the scan plane,
    the loop path, an encircle drive, the loop start (``initial_state_on_branch``
    or ``resolve_root``), a rydberg plane's fold crossings, the steps per
    direction (a mean-field cap), the rate that set default steps and the
    directions written; None or empty where the command has none."""

    plane: PlaneSpec | None = None
    path: EncirclePath | None = None
    drive: PathDrive | None = None
    start: tuple | None = None
    crossings: list | None = None
    steps: int | None = None
    rate: float | None = None
    directions: tuple = ()


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate an experiment file, with its plan; errors carry lines."""
    sections: dict[str, dict] = {section: {} for section in ("param", *_KEYS)}
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
        if section != "param" and name not in _KEYS[section]:
            raise ConfigError(f"unknown key '{section}.{name}'", lineno)
        if name in sections[section]:
            raise ConfigError(f"duplicate key '{section}.{name}'", lineno)
        sections[section][name] = _parse_value(section, name, value, lineno)

    if "command" not in sections["experiment"]:
        raise ConfigError("missing section 'experiment' (experiment.command)")
    return ExperimentConfig(
        command=sections["experiment"]["command"],
        model=sections["experiment"].get("model"),
        params=sections["param"],
        plane=sections["plane"],
        path=sections["path"],
        run=sections["run"],
        out_dir=sections["output"].get("dir", "out"),
    )


def _parse_value(section, name, value, lineno):
    kind = float if section == "param" else _KEYS[section][name]
    if kind is str:
        return value
    if kind is bool:
        if value in ("true", "false"):
            return value == "true"
        raise ConfigError(f"'{section}.{name}' expects true/false, got '{value}'", lineno)
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(
            f"'{section}.{name}' expects a number, got '{value}'", lineno
        ) from None


def _validate(cfg: ExperimentConfig) -> Plan:
    """Check a config by building what its run needs; returns that plan."""
    plane = path = drive = start = crossings = steps = rate = None
    directions = ()
    if cfg.command not in COMMANDS:
        raise ConfigError(f"unknown command '{cfg.command}', expected one of {COMMANDS}")
    if cfg.command in ("spectrum", "map", "encircle"):
        if not cfg.model:
            raise ConfigError("missing section 'experiment.model'")
        model = get_model(cfg.model)  # raises UnknownModel
        try:
            fixed = resolve_params(model, cfg.params)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        for req in ("gamma", "W"):
            if req not in cfg.params:
                raise ConfigError(f"rydberg runs require 'param.{req}'")
        if not cfg.plane and not cfg.path:
            raise ConfigError("rydberg runs need a 'plane' section, a 'path' section or both")
    for val in cfg.params.values():
        if not math.isfinite(val):
            raise ConfigError("parameter values must be finite")
    if cfg.command == "map" or (cfg.command == "rydberg" and cfg.plane):
        for k in _KEYS["plane"]:
            if k not in cfg.plane:
                raise ConfigError(f"missing section key 'plane.{k}'")
        p = cfg.plane
        try:
            plane = PlaneSpec(x=AxisSpec(p["x_name"], p["x_min"], p["x_max"], p["x_res"]),
                              y=AxisSpec(p["y_name"], p["y_min"], p["y_max"], p["y_res"]),
                              fixed=dict(cfg.params))
            if cfg.command == "map":
                axes = resolve_params(model, {plane.x.name: 0.0, plane.y.name: 0.0})
                if len(axes) < 2:
                    raise ValueError("x_name and y_name name the same parameter")
                model.matrix(**{**fixed, **axes})
                corners = (plane.x.lo, plane.x.hi, plane.y.lo, plane.y.hi, *fixed.values())
                if max(map(abs, corners)) > MAP_PARAM_MAX:
                    raise ValueError(f"the axes and parameters of a map must be at most "
                                     f"{MAP_PARAM_MAX:g} in magnitude")
            elif (plane.x.name, plane.y.name) != ("Omega", "Delta"):
                raise ValueError("rydberg axes are x_name = Omega, y_name = Delta")
            else:
                from .rydberg import RydbergParams

                # the corners hold the smallest Omega and the largest
                # magnitudes of the scan
                RydbergParams(Omega=np.array([plane.x.lo, plane.x.hi]),
                              Delta=np.array([plane.y.lo, plane.y.hi]),
                              gamma=cfg.params["gamma"], W=cfg.params["W"])
        except ValueError as exc:
            raise ConfigError(f"plane: {exc}") from None
    _check_run_keys(cfg, cfg.run)
    if cfg.command == "encircle" or (cfg.command == "rydberg" and cfg.path):
        for k in ("center_x", "center_y", "radius", "period"):
            if k not in cfg.path:
                raise ConfigError(f"missing section key 'path.{k}'")
        directions = cfg.run.get("directions", "both")
        if directions not in ("ccw", "cw", "both"):
            raise ConfigError(f"run.directions is 'ccw', 'cw' or 'both', not '{directions}'")
        directions = ("ccw", "cw") if directions == "both" else (directions,)
        floor = 100 if cfg.command == "encircle" else 1
        if cfg.run.get("steps", floor) < floor:
            raise ConfigError(f"{cfg.command} runs need run.steps >= {floor}")
        steps, p = cfg.run.get("steps"), cfg.path
        try:
            path = EncirclePath(center=(p["center_x"], p["center_y"]), radius=p["radius"],
                                period=p["period"], phase0=p.get("phase0", 0.0),
                                plane=p.get("plane", "J-Omega"),
                                convention=p.get("convention", "cos-sin"))
            if cfg.command == "encircle":
                from .dynamics import default_steps, initial_state_on_branch, step_rate

                drive = PathDrive(model=model, path=path, fixed=fixed)
                # the rate probe sets the default step count, or bounds the
                # step that run.steps takes
                probe = step_rate(drive)
                if steps is None:
                    rate = probe
                    steps = default_steps(rate, path.period)
                # the integrator needs h rate dim < 1e300; entries linear in
                # cos and sin reach within 1 / cos(pi / 64) of the
                # 65-sample probe
                elif not path.period / steps * probe * model.dim < 1e300 * math.cos(math.pi / 64):
                    raise ConfigError(f"run.steps = {steps} is too coarse for generator "
                                      f"entries {probe:.3g}")
                start = initial_state_on_branch(drive, cfg.run.get("initial_branch", "upper"))
            elif cfg.path.get("plane", "Omega-Delta") != "Omega-Delta":
                raise ValueError("a rydberg path needs plane = Omega-Delta")
            else:
                from .rydberg import PARAM_MAX, STEP_CAP, path_fold_crossings, resolve_root

                if max(map(abs, path.center)) + path.radius > PARAM_MAX:
                    raise ValueError(f"the loop reaches |Omega| or |Delta| past {PARAM_MAX:g}")
                gamma, W = cfg.params["gamma"], cfg.params["W"]
                start = resolve_root(path, gamma, W, cfg.run.get("initial_root", "low"))
                steps = STEP_CAP if steps is None else steps
                # with a plane, the run checks the transfer conditions at
                # the loop's fold crossings before integrating
                if cfg.plane:
                    crossings = path_fold_crossings(path, gamma, W)
                    if not crossings:
                        raise ValueError("the loop never crosses a fold line")
        except ValueError as exc:
            raise ConfigError(f"path: {exc}") from None
        except OverflowError:  # T rate past the float range
            steps = math.inf
        if steps > MAX_STEPS:
            rule = "run.steps" if "steps" in cfg.run else "the default step rule at this loop time"
            raise ConfigError(f"run: {rule} takes more than {MAX_STEPS} steps per direction")
    # only a loop reads run.T, and its path has a period
    if "T" in cfg.run and cfg.run["T"] != cfg.path["period"]:
        raise ConfigError("runs integrate one full cycle: run.T must equal path.period")
    return Plan(plane=plane, path=path, drive=drive, start=start,
                crossings=crossings, steps=steps, rate=rate, directions=directions)


def _check_run_keys(cfg: ExperimentConfig, keys) -> None:
    """Reject the first of ``keys`` that the config's run does not read."""
    pathless = cfg.command == "rydberg" and not cfg.path
    unread = sorted(set(keys) - set(() if pathless else _RUN_KEYS[cfg.command]))
    if unread:
        runs = "rydberg runs without a path" if pathless else f"{cfg.command} runs"
        raise ConfigError(f"run.{unread[0]} is not a key of {runs}")


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


def run(cfg: ExperimentConfig, out_dir=None, threads: int | None = None) -> dict:
    """Execute a config's plan; returns the manifest dictionary.

    ``out_dir`` and ``threads`` override ``output.dir`` and ``run.threads``
    for this run only; the manifest's config hash does not see them."""
    import os

    plan = cfg.plan
    t0 = time.time()
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    threads = threads if threads is not None else cfg.run.get("threads", 1)
    artifacts: dict[str, str] = {}

    def emit_text(name, text):
        artifacts[name] = output.write_text(os.path.join(out_dir, name), text)

    def emit_json(name, obj):
        artifacts[name] = output.write_json(os.path.join(out_dir, name), obj)

    counters = {}
    if cfg.command == "spectrum":
        _run_spectrum(cfg, emit_text, emit_json)
    elif cfg.command == "map":
        counters = _run_map(cfg, plan, emit_text, emit_json, threads)
    elif cfg.command == "encircle":
        counters = _run_encircle(cfg, plan, emit_text, emit_json)
    elif cfg.command == "rydberg":
        counters = _run_rydberg(cfg, plan, emit_text, emit_json)

    manifest = {
        # the canonical text with an empty output.dir
        "config_sha256": output.sha256_text(
            serialize_config(cfg).removesuffix(f"{cfg.out_dir}\n") + "\n"),
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": artifacts,
        "counters": counters,
    }
    output.write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _run_spectrum(cfg, emit_text, emit_json):
    model = get_model(cfg.model)
    # a Liouvillian on its real Bloch form, as a map solves it
    dec = linalg.eig((model.bloch_matrix or model.matrix)(**resolve_params(model, cfg.params)))
    emit_text("spectrum.csv", output.csv_blocks(
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


def _run_map(cfg, plan, emit_text, emit_json, threads):
    emap = trace_lines(scan_grid(plan.plane, cfg.model, threads=threads))
    emit_text("map.csv", output.map_csv(emap))
    emit_json("map.json", output.map_json(emap))
    return emap.counters


def _run_encircle(cfg, plan, emit_text, emit_json):
    from .dynamics import classify_chirality, project_loop

    report = classify_chirality(plan.drive, plan.start, plan.steps,
                                check_steps=bool(cfg.run.get("check_steps", False)))
    counters = project_loop(report, plan.drive, plan.steps, plan.directions)
    for direction in plan.directions:
        emit_text(f"trajectory_{direction}.csv", output.trajectory_csv(report.runs[direction]))
    emit_json("chirality.json", output.chirality_json(report))
    return _step_counters("integrate", cfg, plan, report) | counters


def _run_rydberg(cfg, plan, emit_text, emit_json):
    from .rydberg import (RydbergParams, bistability_map, check_conditions,
                          steady_states_batch, transfer_verdict)

    gamma, W = cfg.params["gamma"], cfg.params["W"]
    path, plane = plan.path, plan.plane
    # the conditions need only the loop: checked before the scan and the
    # integrations
    cond = None if plan.crossings is None else check_conditions(path, plan.start, plan.crossings)
    counters = {}
    if plane is not None:
        fmap = bistability_map(plane, gamma=gamma, W=W)
        om, de = plane.x.values(), plane.y.values()
        steady = steady_states_batch(RydbergParams(om[:, None], de[None, :], gamma, W))
        emit_text("steady_scan.csv", output.steady_scan_csv(om, de, steady))
        del steady  # not held through the loop integration below
        emit_json("folds.json", output.fold_json(fmap))

    if path is not None:
        verdict = transfer_verdict(path, plan.start, plan.steps,
                                   check_steps=bool(cfg.run.get("check_steps", False)))
        for d in plan.directions:
            emit_text(f"trajectory_{d}.csv", output.trajectory_csv(verdict.runs[d]))
        counters = _step_counters("integrate_bloch", cfg, plan, verdict)
        payload = {
            "verdict": verdict.verdict,
            "initial_branch_index": verdict.initial_index,
            "ccw": {"final_population": verdict.final_ccw, "landed": verdict.landed_ccw},
            "cw": {"final_population": verdict.final_cw, "landed": verdict.landed_cw},
        }
        if cond is not None:
            payload["conditions"] = {
                "initial_in_bistable": cond.initial_in_bistable,
                "nearest_crossings_straddle_cusp": cond.nearest_crossings_straddle_cusp,
            }
        emit_json("transfer.json", payload)
    return counters


def _step_counters(name, cfg, plan, report) -> dict:
    """Steps integrated (a check's rerun included), the rule that chose them,
    the rate that set a default step count and the check's worst drift."""
    runs = report.runs.values()
    counters = {
        f"{name}.steps": sum(r.steps for r in runs),
        f"{name}.step_rule": "run.steps" if "steps" in cfg.run else "default",
    }
    if plan.rate is not None:
        counters[f"{name}.rate"] = plan.rate
    if cfg.run.get("check_steps", False):
        counters[f"{name}.drift"] = max(r.drift for r in runs)
    return counters


# -- entry point --------------------------------------------------------------------


def _load_config(args) -> ExperimentConfig:
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset '{args.preset}'; known: {sorted(PRESETS)}"
            )
        return PRESETS[args.preset]()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    raise ConfigError("provide --config FILE or --preset NAME")


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
        if args.threads is not None:
            _check_run_keys(cfg, ("threads",))
        if args.check_steps:
            cfg = replace(cfg, run={**cfg.run, "check_steps": True})
        manifest = run(cfg, out_dir=args.out, threads=args.threads)
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
