"""epkit benchmark: preset-derived workloads through ``epkit.cli.run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample is a fresh interpreter
(``worker.py``) that imports ``epkit`` from ``src/``, parses and validates
the workload's experiment file and runs it, one sample at a time (a closed
loop with one caller).  Samples start while the next one is expected to end
within ``--seconds``; there is always at least one.  Every sample's
artifacts are checked by ``checks.py``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the median
``wall_s`` and ``peak_rss_mb`` of the samples and the median ``setup_s`` of
at least MIN_SETUP interpreter starts.  ``wall_s`` and ``setup_s`` are in
seconds at the reference speed of ``speedmeter.py``, which times a fixed
task during each measurement, so that the host's drifting speed cancels
out; the raw times are printed and kept in the result file as
``wall_raw_s`` and ``setup_raw_s``.  ``--trace 1`` alternates untraced and
traced samples and reports the per-layer metrics of the traced ones
(medians), with ``trace.overhead_s`` = traced minus untraced median raw
wall time.  ``--workload all`` runs every workload in turn.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans, configs and
results go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
MIN_SETUP = 7
# one BLAS thread: epkit's matrices are tiny, and a second thread would put
# the other core's contention into the measurement
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
SAMPLE_TIMEOUT_S = 170


class Sampler:
    """Runs worker samples for one workload and seed and checks their output."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.sections = workloads.sections_for(workload, seed)
        self.tag = f"{workload}-s{seed}"
        self.config = os.path.join(OUT, f"{self.tag}.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(workloads.render(self.sections))
        self.attempted = self.failed = 0
        self.setup, self.setup_raw = [], []
        self.env = None

    def sample(self, mode):
        """One worker run; returns its summary, or None when it failed."""
        k = self.attempted + len(self.setup)
        out_dir = os.path.join(OUT, f"{self.tag}-{k}")
        spans = os.path.join(OUT, f"spans-{self.tag}.json.gz")
        if mode == "setup":
            return self._spawn(mode, out_dir, spans)
        self.attempted += 1
        summary = self._spawn(mode, out_dir, spans)
        if summary is not None:
            problems = checks.check(self.workload, self.sections, out_dir)
            if problems:
                summary = self._fail(mode, "; ".join(problems))
        shutil.rmtree(out_dir, ignore_errors=True)
        return summary

    def _spawn(self, mode, out_dir, spans):
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, mode, self.config, out_dir,
                 repr(time.monotonic()), spans],
                cwd=ROOT, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
                env=WORKER_ENV,
            )
        except subprocess.TimeoutExpired:
            return self._fail(mode, f"timed out after {SAMPLE_TIMEOUT_S} s")
        if proc.returncode != 0:
            return self._fail(mode, proc.stderr.strip()[-2000:])
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setup.append(summary["setup_s"])
        self.setup_raw.append(summary["setup_raw_s"])
        self.env = summary["env"]
        return summary

    def _fail(self, mode, reason):
        if mode == "setup":
            raise SystemExit(f"setup failed: {reason}")
        self.failed += 1
        print(f"sample failed ({mode}): {reason}", file=sys.stderr)
        return None


def _fits(start, seconds, durations):
    """Whether another sample is expected to end within ``seconds``."""
    return time.monotonic() - start + statistics.median(durations) <= seconds


def measure(sampler, seconds):
    """Untraced samples: the end-to-end metric values."""
    start, durations, runs = time.monotonic(), [], []
    while not durations or _fits(start, seconds, durations):
        t0 = time.monotonic()
        s = sampler.sample("run")
        durations.append(time.monotonic() - t0)
        if s is not None:
            runs.append(s)
    while len(sampler.setup) < MIN_SETUP:
        sampler.sample("setup")
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "setup_s": sampler.setup,
        "wall_raw_s": [r["wall_raw_s"] for r in runs],
        "setup_raw_s": sampler.setup_raw,
        "ref_call_s": [r["ref_call_s"] for r in runs],
    }
    values = {k: statistics.median(v) for k, v in samples.items() if v}
    if len(runs) > 10:
        # the highest percentile with at least ten samples beyond it
        values["wall_s.tail"] = sorted(samples["wall_s"])[-11]
    return values, samples


def measure_traced(sampler, seconds):
    """Untraced/traced pairs: the per-layer metric values."""
    start, durations, plain, traced = time.monotonic(), [], [], []
    while not durations or _fits(start, seconds, durations):
        t0 = time.monotonic()
        a, b = sampler.sample("run"), sampler.sample("trace")
        durations.append(time.monotonic() - t0)
        if a is not None:
            plain.append(a["wall_raw_s"])
        if b is not None:
            traced.append(b)
            print(f"trace: {b['spans']} spans; self times sum to {b['self_sum_s']:.4f} s "
                  f"of {b['wall_raw_s']:.4f} s traced wall time")
    samples = {"wall_raw_s": plain, "traced_wall_s": [t["wall_raw_s"] for t in traced]}
    if not plain or not traced:
        return {}, samples
    names = {k for t in traced for k in t["layers"]}
    values = {k: statistics.median(t["layers"].get(k, 0) for t in traced) for k in names}
    values["trace.overhead_s"] = (statistics.median(samples["traced_wall_s"])
                                  - statistics.median(plain))
    return values, samples


def run_workload(name, seed, seconds, trace, spec):
    sampler = Sampler(name, seed)
    if trace:
        values, samples = measure_traced(sampler, seconds)
        wanted = spec["per_layer"]
    else:
        values, samples = measure(sampler, seconds)
        wanted = spec["end_to_end"]
    metrics = {}
    complete = bool(values) if trace else "wall_s" in values
    if complete:
        # a layer the workload never calls reads 0
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in wanted}
    error_rate = sampler.failed / sampler.attempted
    print(f"== {name} seed {seed} ({'traced' if trace else 'untraced'}): "
          f"{sampler.attempted} runs, {sampler.failed} failed")
    if not trace:
        for m in wanted + [{"name": "wall_raw_s", "unit": "s"},
                           {"name": "setup_raw_s", "unit": "s"},
                           {"name": "ref_call_s", "unit": "s"}]:
            if m["name"] in values:
                print(f"  {m['name']:<12} {values[m['name']]:.6g} {m['unit']}  "
                      f"(median of {len(samples[m['name']])})")
        n = len(samples["wall_s"])
        if "wall_s.tail" in values:
            print(f"  wall_s p{100 * (n - 10) // n}: {values['wall_s.tail']:.6g} s")
        print(f"  {'error_rate':<12} {error_rate:.6g} ratio  "
              f"({sampler.failed} of {sampler.attempted})")
    env = dict(sampler.env or {}, seed=seed, commit=source_version())
    print("env: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": sampler.failed == 0 and bool(metrics),
        "attempted": sampler.attempted,
        "failed": sampler.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{sampler.tag}-t{int(trace)}.json"), "w") as fh:
        json.dump(dict(result, env=env, error_rate=error_rate, samples=samples), fh,
                  indent=1, sort_keys=True)
    return result


def source_version():
    """The git commit if the checkout has one, else a digest of ``src/``."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                ref = fh.read().strip()
        return ref
    except OSError:
        pass
    import hashlib

    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, fn)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "epkit", "cli.py")):
        print(f"error: no epkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    os.makedirs(OUT, exist_ok=True)
    # byte-compile once, so that no setup sample pays for it
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, seconds, args.trace, spec) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
