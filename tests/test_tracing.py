"""The benchmark's trace targets name functions that epkit defines, and
its counters read what a traced run does."""

import importlib
import importlib.util
import os
from pathlib import Path

from epkit import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

ENCIRCLE_CONFIG = """
experiment.command = encircle
experiment.model = encircle
param.Gamma = 1.0
path.center_x = 0.5
path.center_y = 0.0
path.radius = 0.1
path.period = 10.0
path.plane = J-Omega
run.steps = 200
"""
MAP_CONFIG = """
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
"""


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_target_resolves():
    # `perfbench/run.py --trace 1` wraps each TARGETS entry, a method in the
    # class's own namespace; a deleted or renamed target fails here first.
    tracing = _tracing()
    assert tracing.TARGETS
    for _, module, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(attr)), (module, cls_name, attr)
        else:
            assert callable(getattr(owner, attr, None)), (module, attr)


def test_traced_runs_count_their_layers(tmp_path):
    # A traced run's counters read the calls it makes: a signature change
    # that breaks a counter fails here, not first in a benchmark run.  The
    # configs are validated before tracing, as perfbench's setup does, so
    # the encircle run's one linalg.eig call is the shared sheet pass over
    # the 200 distinct steps of both directions' 201 records.
    tracing = _tracing()
    expected = {
        "encircle": (ENCIRCLE_CONFIG, {
            "cli.run.calls": 1, "cli.serialize.calls": 3, "cli.write.calls": 4,
            "dynamics.classify_chirality.calls": 1, "dynamics.integrate.calls": 2,
            "dynamics.integrate.steps": 400, "dynamics.project_trajectory.calls": 2,
            "dynamics.track_sheets.calls": 2, "dynamics.track_sheets.samples": 402,
            "linalg.eig.calls": 1, "linalg.eig_batch.matrices": 200,
        }),
        "map": (MAP_CONFIG, {
            "cli.run.calls": 1, "cli.serialize.calls": 2, "cli.write.calls": 3,
            "spectra.scan_grid.calls": 1, "spectra.scan_grid.cells": 24 * 21,
            "spectra.evaluate_cells.cells": 24 * 21, "spectra.trace_lines.calls": 1,
        }),
    }
    for name, (text, counts) in expected.items():
        cfg = cli.parse_config(text)
        out = tmp_path / name
        tracer = tracing.Tracer()
        tracer.install()
        try:
            manifest = cli.run(cfg, out_dir=str(out))
        finally:
            tracer.remove()
        self_times = tracer.self_times()
        metrics = tracer.metrics(self_times)
        assert {k: metrics.get(k) for k in counts} == counts, name
        assert metrics["cli.write.bytes"] == sum(os.path.getsize(f) for f in out.iterdir())
        if name == "encircle":
            assert (metrics["dynamics.track_sheets.ambiguous"]
                    == manifest["counters"]["track_sheets.ambiguous"])
        else:
            assert "linalg.eig.calls" not in metrics
        # every span nests in the one cli.run span, whose time they account for
        roots = [span for span in tracer.spans if span[1] is None]
        assert [span[0] for span in roots] == ["cli.run"]
        assert abs(sum(self_times) - (roots[0][3] - roots[0][2])) < 1e-6
    # the originals are back
    assert cli.run.__module__ == "epkit.cli" and not hasattr(cli.run, "__wrapped__")
