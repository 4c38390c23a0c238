"""Physics invariants of each workload's artifacts.

SHA-256 hashes of the artifacts are not compared across commits: a refactor
may move the last bits of a result.  Each workload is instead held to the
physics its preset demonstrates, and every file listed in the manifest must
exist and match the checksum the run recorded for it.

``check(workload, sections, out_dir)`` returns a list of problems; an empty
list means the run is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

# Order-3 points of the fig4a map (x = delta, y = J).
FIG4A_POINTS = ((-0.0021429, 0.0088136), (0.0021429, 0.0088136))
# Cusp of the fig5 fold map (Omega, Delta).
FIG5_CUSP = (4.898159, -6.061183)
FIG5_CUSP_TOL = 1e-6

_ARTIFACTS = {
    "fig4a_map": ("map.csv", "map.json"),
    "fig4_slow_loop": ("trajectory_ccw.csv", "trajectory_cw.csv", "chirality.json"),
    "fig2_fast_loop": ("trajectory_ccw.csv", "trajectory_cw.csv", "chirality.json"),
    "fig5_meanfield": ("steady_scan.csv", "folds.json", "trajectory_ccw.csv",
                       "trajectory_cw.csv", "transfer.json"),
}


def _load(out_dir, name):
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _manifest_problems(workload, out_dir):
    try:
        outputs = _load(out_dir, "manifest.json")["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    problems = [f"{n} missing from manifest" for n in _ARTIFACTS[workload] if n not in outputs]
    for name, digest in sorted(outputs.items()):
        try:
            with open(os.path.join(out_dir, name), "rb") as fh:
                actual = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            problems.append(f"{name} listed in manifest but missing")
            continue
        if actual != digest:
            problems.append(f"{name} does not match its manifest SHA-256")
    return problems


def _fig4a_map(sections, out_dir):
    emap = _load(out_dir, "map.json")
    plane = sections["plane"]
    dx = (plane["x_max"] - plane["x_min"]) / (plane["x_res"] - 1)
    dy = (plane["y_max"] - plane["y_min"]) / (plane["y_res"] - 1)
    problems = []
    order3 = [p["location"] for p in emap["points"] if p["order"] == 3]
    if len(order3) != 2:
        problems.append(f"expected 2 order-3 points, found {len(order3)}")
    for ref in FIG4A_POINTS:
        if not any(abs(x - ref[0]) <= dx and abs(y - ref[1]) <= dy for x, y in order3):
            problems.append(f"no order-3 point within one grid cell of {ref}")
    if not emap["lines"]:
        problems.append("no exceptional line")
    return problems


def _fig4_slow_loop(sections, out_dir):
    rep = _load(out_dir, "chirality.json")
    problems = []
    if rep["verdict"] != "non_chiral":
        problems.append(f"verdict {rep['verdict']!r}, expected 'non_chiral'")
    for direction in ("ccw", "cw"):
        fid = rep[direction]["fidelity_to_initial_branch"]
        if not fid > 0.9:
            problems.append(f"{direction} fidelity to the initial branch {fid} <= 0.9")
    return problems


def _fig2_fast_loop(sections, out_dir):
    verdict = _load(out_dir, "chirality.json")["verdict"]
    return [] if verdict == "chiral" else [f"verdict {verdict!r}, expected 'chiral'"]


def _fig5_meanfield(sections, out_dir):
    tr = _load(out_dir, "transfer.json")
    folds = _load(out_dir, "folds.json")
    problems = []
    if tr["verdict"] != "chiral":
        problems.append(f"verdict {tr['verdict']!r}, expected 'chiral'")
    if (tr["ccw"]["landed"], tr["cw"]["landed"]) != (1, 0):
        problems.append(
            f"landings ccw {tr['ccw']['landed']} cw {tr['cw']['landed']}, expected 1 and 0"
        )
    cond = tr.get("conditions", {})
    for key in ("initial_in_bistable", "nearest_crossings_straddle_cusp"):
        if cond.get(key) is not True:
            problems.append(f"sufficient condition {key} is not true")
    cusp = folds["cusp"]
    if cusp is None or math.dist(cusp, FIG5_CUSP) > FIG5_CUSP_TOL:
        problems.append(f"cusp {cusp} not within {FIG5_CUSP_TOL} of {FIG5_CUSP}")
    if not folds["lines"]:
        problems.append("no fold line")
    return problems


_PHYSICS = {
    "fig4a_map": _fig4a_map,
    "fig4_slow_loop": _fig4_slow_loop,
    "fig2_fast_loop": _fig2_fast_loop,
    "fig5_meanfield": _fig5_meanfield,
}


def check(workload: str, sections: dict, out_dir: str) -> list[str]:
    """Problems with one run's artifacts; empty when the run is correct."""
    problems = _manifest_problems(workload, out_dir)
    try:
        problems += _PHYSICS[workload](sections, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"artifacts unreadable: {exc!r}")
    return problems
