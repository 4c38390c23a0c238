"""Marching squares, sign bisection and chaining of the shared contour engine."""

import numpy as np
import pytest

from epkit.contour import _segments, arrange, bisect, trace

# Edge keys of the single cell of a 2 x 2 node grid.
BOTTOM, RIGHT, TOP, LEFT = (0, 0, 0), (1, 0, 1), (0, 1, 0), (0, 0, 1)


def _linear(p0, p1, f0, f1):
    t = f0 / (f0 - f1)
    return p0 + t[:, None] * (p1 - p0)


@pytest.mark.parametrize(
    "corners, expected",
    [
        # code 5 (bottom-left and top-right negative)
        ((-3.0, 1.0, -3.0, 1.0), [(BOTTOM, RIGHT), (TOP, LEFT)]),  # centre < 0
        ((-1.0, 3.0, -1.0, 3.0), [(LEFT, BOTTOM), (RIGHT, TOP)]),  # centre > 0
        # code 10 (bottom-right and top-left negative)
        ((3.0, -1.0, 3.0, -1.0), [(BOTTOM, RIGHT), (TOP, LEFT)]),  # centre > 0
        ((1.0, -3.0, 1.0, -3.0), [(LEFT, BOTTOM), (RIGHT, TOP)]),  # centre < 0
    ],
)
def test_saddle_cell_follows_centre_sample(corners, expected):
    # The two segments cut off the two corners whose sign differs from the
    # cell-centre sample, so the corners sharing its sign stay connected.
    bl, br, tr, tl = corners
    field = np.array([[bl, tl], [br, tr]])  # field[i, j]: x index i, y index j
    assert _segments(field) == expected
    lines = trace(np.array([0.0, 1.0]), np.array([0.0, 1.0]), field, _linear)
    assert sorted(len(line) for line in lines) == [2, 2]


def test_trace_closed_loop_and_arrange():
    # A circle's signed distance gives one closed chain whose crossings lie
    # on the circle; arrange starts it at its smallest (x, y) vertex end.
    xs = ys = np.linspace(-1.0, 1.0, 21)
    field = np.hypot(xs[:, None], ys[None, :]) - 0.55
    lines = trace(xs, ys, field, _linear)
    assert len(lines) == 1
    line = arrange(lines)[0]
    assert np.array_equal(line[0], line[-1])
    assert np.all(np.abs(np.hypot(*line.T) - 0.55) < 0.02)


def test_bisect_lanes_and_exact_zero():
    # Each lane brackets its own root; a lane whose first midpoint is an
    # exact zero stays on it.
    roots = np.array([0.3, 0.5, 0.7071])
    t = bisect(lambda t: t - roots, np.zeros(3), np.ones(3), -roots, 60)
    assert t[1] == 0.5
    assert np.max(np.abs(t - roots)) < 1e-15
