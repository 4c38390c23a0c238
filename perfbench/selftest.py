"""Self-tests of the benchmark's own parts (about 10 s).

    python3 perfbench/selftest.py

Checks that seed 0 is each preset verbatim, that the physics checker counts
a corrupted verdict or a missing point as a failure, that on a small grid
the traced self times account for the traced wall time within the
``wall_s`` bound of BENCHMARK.json, and that the speed meter puts the
SIGALRM handler and timer back when it stops.  Exits 1 when any check fails.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import signal
import sys
import time

import checks
import speedmeter
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_out", "selftest")
sys.path.insert(0, os.path.join(ROOT, "src"))

from epkit import cli  # noqa: E402


def test_seed0_is_preset():
    for name, w in workloads.WORKLOADS.items():
        got = cli.parse_config(workloads.render(workloads.sections_for(name, 0)))
        want = cli.PRESETS[w.preset]()
        for field in ("command", "model", "params", "plane", "path", "run"):
            assert getattr(got, field) == getattr(want, field), (name, field)


def test_seeds_are_reproducible():
    for name in workloads.WORKLOADS:
        text = workloads.render(workloads.sections_for(name, 7))
        assert text == workloads.render(workloads.sections_for(name, 7))
        assert text != workloads.render(workloads.sections_for(name, 8))
        assert text != workloads.render(workloads.sections_for(name, 0))


def _write_artifacts(out_dir, files):
    """Artifacts plus a manifest that lists their true checksums."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    outputs = {}
    for name, content in files.items():
        data = (json.dumps(content) if isinstance(content, dict) else content).encode()
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
        outputs[name] = hashlib.sha256(data).hexdigest()
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump({"outputs": outputs}, fh)


def test_checker_counts_corruption_as_failure():
    out = os.path.join(SCRATCH, "artifacts")
    sections = workloads.sections_for("fig4a_map", 0)
    points = [{"location": list(p), "order": 3} for p in checks.FIG4A_POINTS]
    good_map = {"lines": [[[0.0, 0.001], [0.0, 0.002]]], "points": points}
    _write_artifacts(out, {"map.csv": "x,y\n", "map.json": good_map})
    assert checks.check("fig4a_map", sections, out) == []

    missing = dict(good_map, points=points[:1])
    _write_artifacts(out, {"map.csv": "x,y\n", "map.json": missing})
    assert any("order-3" in p for p in checks.check("fig4a_map", sections, out))

    loops = {"trajectory_ccw.csv": "t\n", "trajectory_cw.csv": "t\n"}
    fid = {"fidelity_to_initial_branch": 0.99}
    _write_artifacts(out, dict(loops, **{"chirality.json": {"verdict": "chiral"}}))
    assert checks.check("fig2_fast_loop", {}, out) == []
    _write_artifacts(out, dict(loops, **{"chirality.json": {"verdict": "non_chiral"}}))
    assert checks.check("fig2_fast_loop", {}, out)
    slow = {"verdict": "chiral", "ccw": fid, "cw": fid}
    _write_artifacts(out, dict(loops, **{"chirality.json": slow}))
    assert checks.check("fig4_slow_loop", {}, out)

    transfer = {"verdict": "chiral", "ccw": {"landed": 1}, "cw": {"landed": 0},
                "conditions": {"initial_in_bistable": True,
                               "nearest_crossings_straddle_cusp": True}}
    folds = {"lines": [[[1.0, -2.0], [1.5, -2.5]]], "cusp": list(checks.FIG5_CUSP)}
    rydberg = dict(loops, **{"steady_scan.csv": "Omega\n", "folds.json": folds})
    _write_artifacts(out, dict(rydberg, **{"transfer.json": transfer}))
    assert checks.check("fig5_meanfield", {}, out) == []
    _write_artifacts(out, dict(rydberg, **{"transfer.json": dict(transfer, verdict="none")}))
    assert checks.check("fig5_meanfield", {}, out)

    # an artifact changed after the run no longer matches the manifest
    with open(os.path.join(out, "folds.json"), "a") as fh:
        fh.write(" ")
    assert any("SHA-256" in p for p in checks.check("fig5_meanfield", {}, out))


def _traced_run(cfg):
    for _, module, _, _ in tracing.TARGETS:
        importlib.import_module(module)
    originals = [(owner, dict(vars(owner))) for owner in _traced_owners()]
    tracer = tracing.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        cli.run(cfg, out_dir=os.path.join(SCRATCH, "run"))
    finally:
        tracer.remove()
    wall = time.perf_counter() - t0
    for owner, saved in originals:
        for attr, value in saved.items():
            assert vars(owner)[attr] is value, f"{owner.__name__}.{attr} still wrapped"
    return tracer, wall


def _traced_owners():
    from epkit import models

    return [m for n, m in sys.modules.items() if n.startswith("epkit.")] + [
        models.ModelSpec, models.PathDrive]


def test_self_times_account_for_wall_time():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bound = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}["wall_s"]
    sections = workloads.sections_for("fig4a_map", 3)
    sections["plane"].update(x_res=41, y_res=41)
    cfg = cli.parse_config(workloads.render(sections))
    tracer, wall = _traced_run(cfg)
    self_sum = sum(tracer.self_times())
    assert abs(self_sum - wall) <= bound * wall, (self_sum, wall)
    m = tracer.metrics(tracer.self_times())
    assert m["spectra.scan_grid.cells"] == 41 * 41
    assert m["spectra.evaluate_cells.calls"] > 41
    assert m["linalg.eig_batch.calls"] >= m["spectra.evaluate_cells.calls"]

    fig2 = cli.PRESETS["fig2"]()
    fig2.run["steps"] = 1000
    tracer, wall = _traced_run(fig2)
    m = tracer.metrics(tracer.self_times())
    assert (m["dynamics.integrate.calls"], m["dynamics.integrate.steps"]) == (4, 4000)
    assert abs(sum(tracer.self_times()) - wall) <= bound * wall


def test_speed_meter_restores_handler():
    for meter in (speedmeter.SpeedMeter(),
                  speedmeter.SpeedMeter(speedmeter.python_task, speedmeter.SETUP_NOMINAL_S,
                                        speedmeter.SETUP_PERIOD_S)):
        before = signal.getsignal(signal.SIGALRM)
        meter.start()
        t0 = time.monotonic()
        while time.monotonic() - t0 < 0.5:
            sum(i * i for i in range(1000))
        t1 = time.monotonic()
        meter.stop()
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert 5 <= len(meter.calls) <= 0.5 / meter.period + 1, len(meter.calls)
        assert 0 < meter.spent_s(t0, t1) < t1 - t0 and meter.scaled(t0, t1) > 0


def main():
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
