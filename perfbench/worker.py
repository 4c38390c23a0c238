"""One benchmark sample in a fresh interpreter.

    python3 worker.py MODE CONFIG OUT_DIR SPAWN_TIME [SPANS_PATH]

MODE is ``setup`` (import epkit and validate the config only), ``run``
(untraced ``epkit.cli.run``) or ``trace`` (the same run with ``tracing``
installed).  SPAWN_TIME is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_raw_s`` covers interpreter start, ``import
epkit`` and parsing and validating the experiment file, net of the speed
meter's calls; ``setup_s`` is the same time at the reference speed of
``speedmeter``, whose Python-only task runs during the start-up.  In
``run`` mode the speed meter runs during ``cli.run``: ``wall_raw_s`` is the
run's wall time net of the meter's calls and ``wall_s`` the same time at
the reference speed.  The last line of standard output is a JSON summary.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv):
    mode, config_path, out_dir, spawn_time = argv[:4]
    import speedmeter

    setup_meter = speedmeter.SpeedMeter(speedmeter.python_task, speedmeter.SETUP_NOMINAL_S,
                                        speedmeter.SETUP_PERIOD_S)
    setup_meter.start()
    try:
        sys.path.insert(0, SRC)
        from epkit import cli

        with open(config_path, "r", encoding="utf-8") as fh:
            cfg = cli.parse_config(fh.read())
        setup_end = time.monotonic()
    finally:
        setup_meter.stop()

    import json
    import resource

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"epkit imported from {cli.__file__}, not from {SRC}")
    spawn = float(spawn_time)
    summary = {"setup_raw_s": setup_end - spawn - setup_meter.spent_s(spawn, setup_end),
               "setup_s": setup_meter.scaled(spawn, setup_end)}
    meter = speedmeter.SpeedMeter()
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    if mode == "run":
        meter.start()
    if mode != "setup":
        t0 = time.monotonic()
        try:
            cli.run(cfg, out_dir=out_dir)
        finally:
            t1 = time.monotonic()
            meter.stop()
            if tracer is not None:
                tracer.remove()
    if mode == "run":
        summary["wall_s"] = meter.scaled(t0, t1)
        summary["wall_raw_s"] = t1 - t0 - meter.spent_s(t0, t1)
        summary["ref_call_s"] = meter.call_s
        summary["ref_calls"] = len(meter.calls)
    elif mode == "trace":
        summary["wall_raw_s"] = t1 - t0
    if tracer is not None:
        self_times = tracer.self_times()
        summary["self_sum_s"] = sum(self_times)
        summary["spans"] = len(self_times)
        summary["layers"] = tracer.metrics(self_times)
        tracer.write(argv[4])
    if mode != "setup":
        # ru_maxrss is in KiB on Linux
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary["env"] = environment()
    print(json.dumps(summary))


def environment():
    import ctypes
    import glob
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


if __name__ == "__main__":
    main(sys.argv[1:])
