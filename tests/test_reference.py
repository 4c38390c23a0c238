"""Behaviour lock: each bundled preset against its reference summary.

``tests/reference/<preset>.json`` holds a summary of the preset's
artifacts: verdicts, fidelities, final populations and the projected
eigenvalue at t = kT/16 for the loops; EP locations, orders, eigenvalues,
line vertex counts and the lines themselves for the ``fig4a`` map; the
cusp, the fold lines, the landings and the final populations for ``fig5``.
A refactor may move the last bits of a result, but not past the
tolerances below.

Regenerate the files only with a reason in CHANGES.md:

    PYTHONPATH=src python tests/test_reference.py
"""

import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest

from epkit.cli import PRESETS, run

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Fidelities and final populations of the loops, absolute.  A loop whose
# reference or whose current run is only as accurate as its step count gets
# a tolerance from its measured step-doubling change: doubling the default
# 4,096 CF4 steps of fig4_adiabatic moves these quantities by up to 8.4e-8,
# and doubling the 3,000 RK4 steps the fig4_intermediate reference was made
# with moved them by up to 3.3e-7.
DYNAMICS_TOL = {"fig2": 1e-9, "fig4_adiabatic": 2e-7, "fig4_intermediate": 1e-6, "fig5": 1e-9}
# The projected eigenvalue at t = kT/16, linearly interpolated from the
# records, absolute in each of Re and Im.
PROJECTION_TOL = 1e-7
# EP locations and eigenvalues, the fig5 cusp.
POINT_TOL = 1e-9
# Hausdorff distance between traced polylines and their references.
HAUSDORFF_TOL = 1e-9


def _load(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _trajectory(out_dir, direction):
    path = os.path.join(out_dir, f"trajectory_{direction}.csv")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}


def summarize(name, out_dir):
    """The locked quantities of one preset run, from its artifacts."""
    if name == "fig4a":
        emap = _load(out_dir, "map.json")
        return {
            "points": [{"location": p["location"], "order": p["order"],
                        "eigenvalue": p["eigenvalue"]} for p in emap["points"]],
            "vertex_counts": [len(line) for line in emap["lines"]],
            "lines": emap["lines"],
        }
    if name == "fig5":
        tr, folds = _load(out_dir, "transfer.json"), _load(out_dir, "folds.json")
        return {
            "verdict": tr["verdict"],
            "initial_branch_index": tr["initial_branch_index"],
            "conditions": tr["conditions"],
            "landed": {d: tr[d]["landed"] for d in ("ccw", "cw")},
            "final_population": {d: tr[d]["final_population"] for d in ("ccw", "cw")},
            "cusp": folds["cusp"],
            "lines": folds["lines"],
        }
    rep = _load(out_dir, "chirality.json")
    out = {"verdict": rep["verdict"], "adiabaticity": rep["adiabaticity"]}
    for d in ("ccw", "cw"):
        traj = _trajectory(out_dir, d)
        T = traj["t"][-1]
        tk = T * np.arange(17) / 16.0
        out[d] = {
            "fidelity_to_initial_branch": rep[d]["fidelity_to_initial_branch"],
            "fidelity_to_other_branch": rep[d]["fidelity_to_other_branch"],
            "final_populations": [traj["pop1"][-1], traj["pop2"][-1]],
            "projection": [[float(np.interp(t, traj["t"], traj["re_projection"])),
                            float(np.interp(t, traj["t"], traj["im_projection"]))]
                           for t in tk],
        }
    return out


def _hausdorff(a, b):
    """Hausdorff distance between two vertex sets (n, 2) and (m, 2)."""
    d = np.hypot(*(np.asarray(a)[:, None, :] - np.asarray(b)[None, :, :]).transpose(2, 0, 1))
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def _assert_lines(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert _hausdorff(g, r) <= HAUSDORFF_TOL


def _assert_close(got, ref, tol):
    np.testing.assert_allclose(np.asarray(got, float), np.asarray(ref, float), rtol=0, atol=tol)


def compare(name, got, ref):
    if name == "fig4a":
        assert got["vertex_counts"] == ref["vertex_counts"]
        assert len(got["points"]) == len(ref["points"])
        for g, r in zip(got["points"], ref["points"]):
            assert g["order"] == r["order"]
            _assert_close(g["location"], r["location"], POINT_TOL)
            _assert_close(g["eigenvalue"], r["eigenvalue"], POINT_TOL)
        _assert_lines(got["lines"], ref["lines"])
        return
    assert got["verdict"] == ref["verdict"]
    if name == "fig5":
        for key in ("initial_branch_index", "conditions", "landed"):
            assert got[key] == ref[key]
        for d in ("ccw", "cw"):
            _assert_close(got["final_population"][d], ref["final_population"][d],
                          DYNAMICS_TOL[name])
        assert math.dist(got["cusp"], ref["cusp"]) <= POINT_TOL
        _assert_lines(got["lines"], ref["lines"])
        return
    # the adiabaticity probe does not depend on the integrator
    _assert_close(list(got["adiabaticity"].values()), list(ref["adiabaticity"].values()), 1e-12)
    for d in ("ccw", "cw"):
        for key in ("fidelity_to_initial_branch", "fidelity_to_other_branch",
                    "final_populations"):
            _assert_close(got[d][key], ref[d][key], DYNAMICS_TOL[name])
        _assert_close(got[d]["projection"], ref[d]["projection"], PROJECTION_TOL)


def _run_summary(name):
    with tempfile.TemporaryDirectory() as out:
        run(PRESETS[name](), out_dir=out)
        return summarize(name, out)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_matches_reference(name):
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    compare(name, _run_summary(name), ref)


if __name__ == "__main__":
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for preset in sys.argv[1:] or sorted(PRESETS):
        with open(os.path.join(REFERENCE_DIR, f"{preset}.json"), "w", encoding="utf-8") as fh:
            json.dump(_run_summary(preset), fh, indent=1)
            fh.write("\n")
        print(f"wrote {preset}.json")
