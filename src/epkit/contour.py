"""Zero-set polylines of a sign field sampled on a rectangular grid.

Exceptional lines (sign changes of the eigenvalue-gap product) and fold
lines (sign changes of the mean-field cubic discriminant) are both traced
here, by marching squares (the two-dimensional case of Lorensen and Cline,
"Marching cubes", SIGGRAPH 1987): every cell whose corners differ in sign
contributes segments between its crossed edges, the caller locates the
crossing on all crossed edges in one batch, and segments sharing an edge
are chained.  Bisection runs on lanes, one per edge or interval, with
per-lane arithmetic only, so a lane's result does not depend on its batch.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

# Cell edges in marching-squares order, and the segments of each corner code
# (bit k set: corner k negative; corners bottom-left, bottom-right,
# top-right, top-left).  Codes 5 and 10 are saddles, decided by the
# cell-centre sample.
_BOTTOM, _RIGHT, _TOP, _LEFT = range(4)
_CELL_SEGMENTS = {
    1: [(_LEFT, _BOTTOM)],
    2: [(_BOTTOM, _RIGHT)],
    3: [(_LEFT, _RIGHT)],
    4: [(_RIGHT, _TOP)],
    6: [(_BOTTOM, _TOP)],
    7: [(_LEFT, _TOP)],
    8: [(_TOP, _LEFT)],
    9: [(_BOTTOM, _TOP)],
    11: [(_RIGHT, _TOP)],
    12: [(_LEFT, _RIGHT)],
    13: [(_RIGHT, _BOTTOM)],
    14: [(_LEFT, _BOTTOM)],
}


def trace(xs, ys, field: np.ndarray, locate) -> list:
    """Polylines of the zero set of ``field`` sampled at the nodes xs x ys.

    ``locate(p0, p1, f0, f1)`` receives the (n, 2) end nodes of every
    crossed grid edge and the field values there, and returns the (n, 2)
    crossing points, all edges in one call.  Returns one (k, 2) vertex array
    per chain, in chaining order; ``arrange`` gives the canonical order.
    """
    segments = _segments(field)
    keys = list(dict.fromkeys(k for seg in segments for k in seg))
    if not keys:
        return []
    crossings = dict(zip(keys, locate(*_edge_endpoints(xs, ys, field, keys))))
    chains = _chain_segments(segments)
    return [np.array([crossings[k] for k in chain]) for chain in chains]


def bisect(f, lo, hi, f_lo, iters: int) -> np.ndarray:
    """Sign bisection on the lane brackets [lo, hi], all lanes in one batch.

    ``f`` maps an array of abscissae, one per lane, to the field values;
    ``f_lo`` holds the field at ``lo``, and the sign at ``hi`` differs.
    Every lane halves its bracket ``iters`` times and returns the midpoint;
    a lane that samples an exact zero stays on it.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    fa = np.array(f_lo, dtype=float)
    done = np.zeros(a.shape, dtype=bool)  # lanes that hit an exact zero
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = f(m)
        zero = ~done & (fm == 0.0)
        live = ~done & ~zero
        flip = (fa < 0) != (fm < 0)
        b = np.where(zero | (live & flip), m, b)
        a = np.where(zero | (live & ~flip), m, a)
        fa = np.where(live & ~flip, fm, fa)
        done |= zero
    return 0.5 * (a + b)


def arrange(lines: list) -> list:
    """Polylines in canonical order.

    Each line runs from its lexicographically smaller (x, y) end point, and
    the lines are sorted by their first vertex.  Columns after the first two
    hold per-vertex data and are reordered with the vertices.
    """
    out = [v if tuple(v[0, :2]) <= tuple(v[-1, :2]) else v[::-1] for v in lines]
    out.sort(key=lambda v: (v[0, 0], v[0, 1]))
    return out


def _segments(field: np.ndarray) -> list:
    """Marching-squares segments of the sign field, as pairs of edge keys.

    An edge key is (i, j, axis): axis 0 joins nodes (i,j)-(i+1,j), axis 1
    joins (i,j)-(i,j+1).  Cells are visited row by row.
    """
    neg = (field < 0).astype(int)
    codes = neg[:-1, :-1] | neg[1:, :-1] << 1 | neg[1:, 1:] << 2 | neg[:-1, 1:] << 3
    segments = []
    for i, j in np.argwhere((codes != 0) & (codes != 15)).tolist():
        code = int(codes[i, j])
        edges = ((i, j, 0), (i + 1, j, 1), (i, j + 1, 0), (i, j, 1))
        entry = _CELL_SEGMENTS.get(code)
        if entry is None:
            # Saddle: the cell-center sample decides which negative corners
            # connect.
            center = 0.25 * (
                field[i, j] + field[i + 1, j] + field[i + 1, j + 1] + field[i, j + 1]
            )
            neg_diag_bl_tr = code == 5
            if (center < 0) == neg_diag_bl_tr:
                entry = [(_BOTTOM, _RIGHT), (_TOP, _LEFT)]
            else:
                entry = [(_LEFT, _BOTTOM), (_RIGHT, _TOP)]
        segments.extend((edges[ea], edges[eb]) for ea, eb in entry)
    return segments


def _edge_endpoints(xs, ys, field, keys):
    """End nodes (n, 2) and their field values for a list of edge keys."""
    i0, j0, axis = np.array(keys).T
    i1, j1 = i0 + (axis == 0), j0 + (axis == 1)
    p0 = np.stack([xs[i0], ys[j0]], axis=1)
    p1 = np.stack([xs[i1], ys[j1]], axis=1)
    return p0, p1, field[i0, j0], field[i1, j1]


def _chain_segments(segments) -> list:
    """Join segments sharing edge keys into ordered chains of edge keys."""
    adj = defaultdict(list)
    for a, b in segments:
        adj[a].append(b)
        adj[b].append(a)
    visited = set()
    chains = []

    def walk(chain):
        while True:
            cur = chain[-1]
            visited.add(frozenset((chain[-2], cur)))
            options = [k for k in adj[cur] if frozenset((cur, k)) not in visited]
            if not options:
                return chain
            chain.append(options[0])

    # Start from degree-1 nodes (open curves), then sweep leftover loops.
    keys = sorted(adj)
    for k in [k for k in keys if len(adj[k]) == 1] + keys:
        for nb in adj[k]:
            if frozenset((k, nb)) not in visited:
                chains.append(walk([k, nb]))
    return chains
