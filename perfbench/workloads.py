"""Benchmark workloads: epkit's figure presets, perturbed by a seed.

The benchmark, not the program, builds each workload's experiment file.
Seed 0 gives the preset verbatim.  A seed
s > 0 shifts each scan-plane axis by U(-PLANE_SHIFT, PLANE_SHIFT) of a grid
cell and the loop start ``path.phase0`` by U(-PHASE_SHIFT, PHASE_SHIFT) rad.

The plane shift is a hundredth of a cell rather than half a cell: at
half-cell shifts the number of refinement seeds on ``fig4a`` changes with
the seed (35k to 43k scalar ``evaluate_cells`` calls, 18 s to 22 s), so
runs of different seeds would not measure the same amount of work.  At
1/100 of a cell every matrix still differs from the preset's, while the
grid crosses the same edges and ``fig4a`` does its 40,883 calls on every
seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PLANE_SHIFT = 0.01
PHASE_SHIFT = 0.02

_COLDATOM_PARAMS = {"Gamma": 1.0 / 20.0, "gamma": 1.0 / 100.0}


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    sections: dict  # section -> {key: value}, as in ``epkit presets``


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig4a_map",
            preset="fig4a",
            sections={
                "experiment": {"command": "map", "model": "coldatom_liouvillian"},
                "param": dict(_COLDATOM_PARAMS),
                "plane": {"x_name": "delta", "x_min": -0.02, "x_max": 0.02, "x_res": 161,
                          "y_name": "J", "y_min": 0.0005, "y_max": 0.02, "y_res": 161},
            },
        ),
        Workload(
            name="fig4_slow_loop",
            preset="fig4_adiabatic",
            sections={
                "experiment": {"command": "encircle", "model": "coldatom_liouvillian"},
                "param": dict(_COLDATOM_PARAMS),
                "path": {"center_x": 0.0, "center_y": 0.5, "radius": 0.5,
                         "period": 10000.0, "phase0": 2.0 * math.pi / 3.0,
                         "plane": "delta-J", "convention": "sin-cos"},
                "run": {"T": 10000.0, "directions": "both",
                        "initial_branch": "quasi_steady"},
            },
        ),
        Workload(
            name="fig2_fast_loop",
            preset="fig2",
            sections={
                "experiment": {"command": "encircle", "model": "encircle"},
                "param": {"Gamma": 1.0},
                "path": {"center_x": 0.5, "center_y": 0.0, "radius": 0.1,
                         "period": 100.0, "phase0": 0.0, "plane": "J-Omega",
                         "convention": "cos-sin"},
                "run": {"T": 100.0, "steps": 10000, "directions": "both",
                        "initial_branch": "upper"},
            },
        ),
        Workload(
            name="fig5_meanfield",
            preset="fig5",
            sections={
                "experiment": {"command": "rydberg"},
                "param": {"gamma": 1.0, "W": -11.0},
                "plane": {"x_name": "Omega", "x_min": 1.2, "x_max": 6.0, "x_res": 161,
                          "y_name": "Delta", "y_min": -9.0, "y_max": -1.0, "y_res": 161},
                "path": {"center_x": 3.85, "center_y": -5.6, "radius": 1.477,
                         "period": 50000.0, "phase0": -math.atan(9.0 / 4.0),
                         "plane": "Omega-Delta", "convention": "sin-cos"},
                "run": {"T": 50000.0, "directions": "both", "initial_root": "low"},
            },
        ),
    )
}


def sections_for(name: str, seed: int) -> dict:
    """The workload's config sections for ``seed`` (a fresh copy)."""
    sections = {k: dict(v) for k, v in WORKLOADS[name].sections.items()}
    if seed == 0:
        return sections
    rng = random.Random(seed)
    plane = sections.get("plane")
    if plane:
        for ax in ("x", "y"):
            cell = (plane[f"{ax}_max"] - plane[f"{ax}_min"]) / (plane[f"{ax}_res"] - 1)
            shift = rng.uniform(-PLANE_SHIFT, PLANE_SHIFT) * cell
            plane[f"{ax}_min"] += shift
            plane[f"{ax}_max"] += shift
    path = sections.get("path")
    if path:
        path["phase0"] += rng.uniform(-PHASE_SHIFT, PHASE_SHIFT)
    return sections


def render(sections: dict) -> str:
    """Experiment file in epkit's ``section.key = value`` grammar."""
    lines = []
    for section, values in sections.items():
        for key, value in values.items():
            if isinstance(value, float):
                value = "%.17g" % value  # exact round trip
            lines.append(f"{section}.{key} = {value}")
    return "\n".join(lines) + "\n"
