"""Deterministic artifact serialization: CSV, JSON, checksums.

All floats are written with 17 significant digits ('%.17g'), which
round-trips IEEE doubles exactly; CSV uses '.' decimals, ',' separators and
LF line endings.  JSON objects are emitted with sorted keys.  Identical
inputs therefore produce byte-identical files regardless of worker count.
The CSV writers return blocks of rows that ``write_text`` formats, writes
and hashes one at a time, so a large table is never held as one text.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os

import numpy as np


def fmt(x) -> str:
    """17-significant-digit decimal form of a float (exact round trip)."""
    return "%.17g" % float(x)


# Rows formatted and written at a time by the streamed CSV writers.
CSV_BLOCK_ROWS = 2048


def csv_blocks(header, columns):
    """CSV text with one row per index of the equal-length ``columns``, as
    an iterator: the header line, then blocks of CSV_BLOCK_ROWS rows.

    Integer and boolean columns are written with '%d', all others with
    '%.17g'; one format string formats each row.
    """
    cols = [np.asarray(c) for c in columns]
    line = ",".join("%d" if c.dtype.kind in "biu" else "%.17g" for c in cols) + "\n"
    yield ",".join(header) + "\n"
    for i in range(0, len(cols[0]) if cols else 0, CSV_BLOCK_ROWS):
        rows = zip(*(c[i:i + CSV_BLOCK_ROWS].tolist() for c in cols))
        yield "".join([line % values for values in rows])


def write_text(path, text) -> str:
    """Write ``text``, a str or an iterable of str, to ``path`` and return
    the SHA-256 of its bytes.

    Each block is encoded, written and hashed in turn, so a streamed text
    is never held whole.  The bytes go to a temporary file next to ``path``
    that is then renamed onto it, so a failed write, or an iterable that
    raises, leaves no partial artifact behind.
    """
    digest = hashlib.sha256()
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for block in [text] if isinstance(text, str) else text:
                data = block.encode("utf-8")
                fh.write(data)
                digest.update(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return digest.hexdigest()


def write_json(path, obj) -> str:
    return write_text(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def complex_columns(prefix: str, z):
    """Header names and columns Re, Im of each column of a (rows, k) array."""
    names = [f"{part}_{prefix}{k}" for k in range(1, z.shape[1] + 1) for part in ("re", "im")]
    return names, list(np.stack([z.real, z.imag], axis=-1).reshape(len(z), -1).T)


def map_csv(emap):
    """One row per cell: x, y, Re/Im of each eigenvalue, min gap, max
    overlap; streamed as ``csv_blocks``."""
    nx, ny, dim = emap.eigenvalues.shape
    names, lam = complex_columns("lambda", emap.eigenvalues.reshape(nx * ny, dim))
    return csv_blocks(
        ["x", "y", *names, "min_gap", "max_overlap"],
        [np.repeat(emap.xs, ny), np.tile(emap.ys, nx), *lam,
         emap.min_gap.ravel(), emap.max_overlap.ravel()],
    )


def map_json(emap) -> dict:
    return {
        "model": emap.model,
        "plane": {
            "x": {"name": emap.plane.x.name, "lo": emap.plane.x.lo,
                  "hi": emap.plane.x.hi, "res": emap.plane.x.res},
            "y": {"name": emap.plane.y.name, "lo": emap.plane.y.lo,
                  "hi": emap.plane.y.hi, "res": emap.plane.y.res},
            "fixed": dict(sorted(emap.plane.fixed.items())),
        },
        "lines": [[[float(v[0]), float(v[1])] for v in line] for line in emap.lines],
        "points": [
            {
                "location": [c.location[0], c.location[1]],
                "order": c.order,
                "eigenvalue": [c.eigenvalue.real, c.eigenvalue.imag],
                "residual": c.residual,
                "kind": "point",
            }
            for c in emap.points
        ],
    }


def trajectory_csv(traj):
    """t, Re/Im state components, norm, Re/Im projection, sheet, weights.

    States are the unit-normalized snapshots; the norm column carries the
    magnitude (zero after underflow).  Integer sheet indices are written
    as integers, any other sheet column as floats.  Streamed as
    ``csv_blocks``.
    """
    nan = np.full(len(traj.times), np.nan)
    names, states = complex_columns("state", traj.states)
    proj = [nan, nan] if traj.projected is None else [traj.projected.real, traj.projected.imag]
    pops = [nan, nan] if traj.populations is None else (np.abs(traj.populations) ** 2).T[:2]
    sheet = nan if traj.sheet_index is None else traj.sheet_index
    return csv_blocks(
        ["t", *names, "norm", "re_projection", "im_projection", "sheet_index", "pop1", "pop2"],
        [traj.times, *states, traj.norm, *proj, sheet, *pops],
    )


def chirality_json(report) -> dict:
    return {
        "ccw": {
            "fidelity_to_initial_branch": report.ccw_final_fidelity_to_initial_branch,
            "fidelity_to_other_branch": report.ccw_final_fidelity_to_other_branch,
        },
        "cw": {
            "fidelity_to_initial_branch": report.cw_final_fidelity_to_initial_branch,
            "fidelity_to_other_branch": report.cw_final_fidelity_to_other_branch,
        },
        "verdict": report.verdict,
        "adiabaticity": {
            "min_gap": report.adiabaticity.min_real_gap,
            "period_times_min_gap": report.adiabaticity.dimensionless_ratio,
        },
    }


def steady_scan_csv(omegas, deltas, steady):
    """Omega, Delta, root count, each population, stability flags.

    ``steady`` holds the steady-state arrays of the (Omega, Delta) grid,
    Omega along the first axis; missing roots read nan and stability -1.
    Streamed as ``csv_blocks``.
    """
    om, de = np.meshgrid(omegas, deltas, indexing="ij")
    n = steady.n.reshape(-1, 3)
    stable = np.where(np.isfinite(n), steady.stable.reshape(-1, 3), -1)
    return csv_blocks(
        ["Omega", "Delta", "root_count", "n_1", "n_2", "n_3",
         "stable_1", "stable_2", "stable_3"],
        [om.ravel(), de.ravel(), np.isfinite(n).sum(axis=-1), *n.T, *stable.T],
    )


def fold_json(fmap) -> dict:
    return {
        "gamma": fmap.gamma,
        "W": fmap.W,
        "lines": [[[float(v[0]), float(v[1])] for v in line] for line in fmap.lines],
        "cusp": list(fmap.cusp) if fmap.cusp is not None else None,
    }
