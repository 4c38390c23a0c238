"""Plane scans, exceptional-line tracing and point detection."""

import dataclasses
import itertools
import os
import warnings

import numpy as np
import pytest

from epkit import linalg
from epkit.cli import PRESETS
from epkit.contour import _edge_endpoints, _segments
from epkit.errors import ResolutionTooLarge, UnknownModel
from epkit.models import get_model
from epkit.spectra import (
    EP_REACH,
    GAP_TOL_FACTOR,
    OVERLAP_MIN,
    AxisSpec,
    EPCandidate,
    PlaneSpec,
    _cell_params,
    _detect_eps,
    _edge_zeros,
    _eigvals,
    _pair_mean,
    _pin_ep,
    detect_ep,
    evaluate_cells,
    quasi_steady_index,
    scan_grid,
    trace_lines,
)


def _charpoly_real(mat):
    coeffs = linalg.char_poly(mat)
    assert np.max(np.abs(coeffs.imag)) < 1e-9 * (1 + np.max(np.abs(coeffs)))
    return coeffs.real


def triple_point_oracle(model_name, fixed, seed, xname="delta", yname="J"):
    """Newton solve of p(r) = p'(r) = p''(r) = 0 on the char polynomial.

    Independent of the map pipeline: works directly on the characteristic
    polynomial coefficients as functions of the plane parameters.
    """
    model = get_model(model_name)

    def F(z):
        r, x, y = z
        c = _charpoly_real(model.matrix(**{**fixed, xname: x, yname: y}))
        p = np.polyval(c, r)
        dp = np.polyval(np.polyder(c), r)
        ddp = np.polyval(np.polyder(c, 2), r)
        return np.array([p, dp, ddp])

    z = np.array(seed, dtype=float)
    for _ in range(120):
        f = F(z)
        jac = np.zeros((3, 3))
        for j in range(3):
            zp = z.copy()
            h = 1e-9 * max(1.0, abs(z[j]))
            zp[j] += h
            jac[:, j] = (F(zp) - f) / h
        step = np.linalg.lstsq(jac, -f, rcond=None)[0]
        z = z + step
        if np.max(np.abs(step)) < 1e-15:
            break
    return z  # (triple eigenvalue, delta, J)


# -- scan_grid ----------------------------------------------------------------


def test_scan_basic_liouvillian_gamma_sweep():
    # 1-D style scan over Gamma at fixed J = 1/8: the two fast modes close
    # their gap at Gamma = 1.
    plane = PlaneSpec(
        x=AxisSpec("Gamma", 0.5, 1.5, 201),
        y=AxisSpec("J", 0.124, 0.126, 3),
    )
    m = scan_grid(plane, "basic_liouvillian")
    j_mid = 1  # row at J = 0.125
    gaps = m.min_gap[:, j_mid]
    k = int(np.argmin(gaps))
    assert abs(m.xs[k] - 1.0) <= (m.xs[1] - m.xs[0])
    # the grid samples Gamma = 1 exactly, where the pair is degenerate
    assert gaps.min() < 1e-6


def test_scan_hermitian_no_coalescence():
    plane = PlaneSpec(
        x=AxisSpec("J", 0.1, 1.0, 21),
        y=AxisSpec("Gamma", 0.0, 0.0 + 1e-12, 2),
    )
    m = scan_grid(plane, "pt")
    assert m.max_overlap.max() < 1e-8


def test_scan_rejects_unknown_model_and_huge_grids():
    plane = PlaneSpec(x=AxisSpec("J", 0, 1, 4), y=AxisSpec("Gamma", 0, 1, 4))
    with pytest.raises(UnknownModel):
        scan_grid(plane, "nope")
    with pytest.raises(ResolutionTooLarge):
        PlaneSpec(x=AxisSpec("J", 0, 1, 10000), y=AxisSpec("Gamma", 0, 1, 10000))


def test_scan_deterministic_across_threads():
    plane = PlaneSpec(
        x=AxisSpec("delta", -0.5, 0.5, 48),
        y=AxisSpec("J", 0.05, 0.5, 37),
        fixed={"Gamma": 1.0},
    )
    a = scan_grid(plane, "detuned_liouvillian", threads=1)
    b = scan_grid(plane, "detuned_liouvillian", threads=8)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.min_gap, b.min_gap)
    assert np.array_equal(a.max_overlap, b.max_overlap)
    assert np.array_equal(a.indicator, b.indicator)


def test_scan_workers_start_spread_over_the_cpus(monkeypatch):
    # Each worker is moved once to the next usable CPU and then given the
    # full mask back; the scan is unchanged.
    calls = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity",
                        lambda pid, mask: calls.append((pid, sorted(mask))), raising=False)
    plane = PlaneSpec(x=AxisSpec("delta", -0.5, 0.5, 48), y=AxisSpec("J", 0.05, 0.5, 9),
                      fixed={"Gamma": 1.0})
    threaded = scan_grid(plane, "detuned_liouvillian", threads=4)
    workers = len(calls) // 2
    assert 1 <= workers <= 4 and len(calls) == 2 * workers
    assert [c for c in calls if len(c[1]) == 3] == [(0, [0, 1, 2])] * workers
    singles = sorted(mask[0] for _, mask in calls if len(mask) == 1)
    assert singles == sorted(k % 3 for k in range(workers))
    assert np.array_equal(threaded.eigenvalues,
                          scan_grid(plane, "detuned_liouvillian", threads=1).eigenvalues)
    assert len(calls) == 2 * workers  # a serial scan moves nothing

    def refused(pid, mask):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refused, raising=False)
    assert np.array_equal(scan_grid(plane, "detuned_liouvillian", threads=4).eigenvalues,
                          threaded.eigenvalues)


def _real_and_complex_planes():
    fig4a = PRESETS["fig4a"]()  # its plan holds the plane
    criterion_9 = PlaneSpec(x=AxisSpec("delta", -0.5, 0.5, 200),
                            y=AxisSpec("J", 0.02, 0.5, 200), fixed={"Gamma": 1.0})
    return {"fig4a": (fig4a.model, fig4a.plan.plane),
            "criterion_9": ("detuned_liouvillian", criterion_9)}


@pytest.mark.parametrize("case", ["fig4a", "criterion_9"])
def test_real_scan_matches_complex_scan(case):
    # The scan runs on the real Bloch form; the row-major complex form of
    # the same generator gives the same summaries to rounding.
    name, plane = _real_and_complex_planes()[case]
    model = get_model(name)
    emap = scan_grid(plane, name)
    xs, ys = emap.xs[:, None], emap.ys[None, :]
    row_major = dataclasses.replace(model, bloch_build=None)
    vals, _, overlap, indicator = evaluate_cells(row_major, plane, xs, ys)
    assert vals.shape == emap.eigenvalues.shape
    assert np.array_equal(np.sign(emap.indicator), np.sign(indicator))
    fro = np.linalg.norm(model.matrix(**_cell_params(model, plane, xs, ys)), axis=(-2, -1))
    dev = np.minimum.reduce([np.abs(vals[..., list(p)] - emap.eigenvalues).max(axis=-1)
                             for p in itertools.permutations(range(model.dim))])
    assert (dev <= 1e-14 * (1.0 + fro)).all()
    assert np.abs(emap.max_overlap - overlap).max() <= 1e-12


# -- detect_ep ----------------------------------------------------------------


def test_detect_order2_basic_liouvillian():
    plane = PlaneSpec(
        x=AxisSpec("J", 0.1, 0.15, 6),
        y=AxisSpec("Gamma", 0.9, 1.1, 6),
    )
    cand = detect_ep("basic_liouvillian", plane, (0.124, 0.99), (0.01, 0.04))
    assert cand is not None
    assert cand.order == 2
    ratio = cand.location[1] / cand.location[0]
    assert abs(ratio - 8.0) < 8.0 * 1e-6
    assert abs(cand.eigenvalue - (-0.75 * cand.location[1])) < 1e-5


def test_detect_order2_pt_model():
    plane = PlaneSpec(
        x=AxisSpec("J", 0.3, 0.7, 5),
        y=AxisSpec("Gamma", 0.99, 1.01, 3),
    )
    cand = detect_ep("pt", plane, (0.52, 1.0), (0.05, 0.008))
    assert cand is not None
    assert cand.order == 2
    assert abs(cand.location[0] - 0.5 * cand.location[1]) < 1e-6
    assert abs(cand.eigenvalue) < 1e-4


def test_detect_returns_none_away_from_structure():
    plane = PlaneSpec(
        x=AxisSpec("J", 0.3, 0.7, 5),
        y=AxisSpec("Gamma", 0.2, 0.3, 3),
    )
    assert detect_ep("pt", plane, (0.6, 0.25), (0.02, 0.02)) is None


def test_detect_order3_detuned_endpoint():
    plane = PlaneSpec(
        x=AxisSpec("delta", 0.05, 0.15, 6),
        y=AxisSpec("J", 0.12, 0.15, 6),
        fixed={"Gamma": 1.0},
    )
    cand = detect_ep("detuned_liouvillian", plane, (0.096, 0.136), (0.003, 0.0015))
    assert cand is not None
    assert cand.order == 3
    assert abs(cand.eigenvalue - (-2.0 / 3.0)) < 1e-6
    r, dx, jy = triple_point_oracle(
        "detuned_liouvillian", {"Gamma": 1.0}, (-0.6, 0.096, 0.136)
    )
    assert abs(cand.location[0] - dx) < 1e-9
    assert abs(cand.location[1] - jy) < 1e-9


def test_detect_order3_on_a_zoomed_plane():
    # With cells of 5e-7 the rounding noise of the solve moves the point by
    # more than EP_STEP_TOL of a cell; the solve still ends on the triple
    # root, once p, p' and p'' reach their rounding level.
    r, dx, jy = triple_point_oracle(
        "detuned_liouvillian", {"Gamma": 1.0}, (-0.6, 0.096, 0.136)
    )
    w = 1e-5
    plane = PlaneSpec(
        x=AxisSpec("delta", dx - w, dx + w, 41),
        y=AxisSpec("J", jy - w, jy + w, 41),
        fixed={"Gamma": 1.0},
    )
    cell = 2 * w / 40
    cand = detect_ep("detuned_liouvillian", plane, (dx - 2 * cell, jy - 0.7 * cell),
                     (cell, cell))
    assert cand is not None and cand.order == 3
    assert abs(cand.location[0] - dx) < 1e-9
    assert abs(cand.location[1] - jy) < 1e-9


def test_detect_near_miss_keeps_landing_point():
    # On the exceptional line ~10 cells from the detuned third-order point a
    # third eigenvalue is close enough to start the triple-root solve, which
    # lands outside its 3-cell reach: the lane keeps the point of its
    # double-root solve, as an order-2 candidate, and warns about nothing.
    model = get_model("detuned_liouvillian")
    plane = PlaneSpec(
        x=AxisSpec("delta", -0.15, 0.15, 61),
        y=AxisSpec("J", 0.02, 0.16, 61),
        fixed={"Gamma": 1.0},
    )
    seed, cell = np.array([[0.0872, 0.132]]), (0.001, 0.001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (cand,), counters = _detect_eps(model, plane, seed, cell)
    lam0 = _pair_mean(_eigvals(model, plane, seed[:, 0], seed[:, 1]))
    coords, converged, _ = _pin_ep(model, plane, 2, seed, lam0, np.diag(cell))
    x, y = (seed + coords * cell)[0]
    assert converged[0] and np.abs(coords).max() <= EP_REACH
    assert cand is not None and cand.order == 2
    assert cand.location == (x, y)
    assert counters["refine.ep3_rejects"] == [
        {"location": [x, y], "reason": "out of reach"}
    ]
    assert counters["refine.ep3_iterations"] > 0


def test_detect_failed_solve_is_a_rejection(monkeypatch):
    # A least-squares failure in the triple-root solve rejects the lane
    # instead of raising: the candidate stays at the point of its
    # double-root solve, as an order-2 one.
    from epkit import spectra

    plane = PlaneSpec(
        x=AxisSpec("delta", 0.05, 0.15, 6),
        y=AxisSpec("J", 0.12, 0.15, 6),
        fixed={"Gamma": 1.0},
    )
    seed, cell = (0.096, 0.136), (0.003, 0.0015)
    pin = spectra._pin_ep

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    def pin_failing_order3(model, plane, order, *args):
        if order == 3:
            monkeypatch.setattr(np.linalg, "pinv", fail)
        return pin(model, plane, order, *args)

    monkeypatch.setattr(spectra, "_pin_ep", pin_failing_order3)
    (cand,), counters = _detect_eps(get_model("detuned_liouvillian"), plane, [seed], cell)
    assert cand is not None and cand.order == 2
    assert [r["reason"] for r in counters["refine.ep3_rejects"]] == ["no convergence"]
    assert cand.location == tuple(counters["refine.ep3_rejects"][0]["location"])


TRIPLE_POINT_SEEDS = [(0.3, 0.2), (-1.0, 0.5), (2.0, -1.5)]  # in cells from the point


def _zoomed_plane(width):
    """41 x 41 detuned plane ``width`` wide, centred on the third-order point."""
    r, dx, jy = triple_point_oracle(
        "detuned_liouvillian", {"Gamma": 1.0}, (-0.6, 0.096, 0.136)
    )
    w = width / 2
    plane = PlaneSpec(
        x=AxisSpec("delta", dx - w, dx + w, 41),
        y=AxisSpec("J", jy - w, jy + w, 41),
        fixed={"Gamma": 1.0},
    )
    return plane, (dx, jy), width / 40


@pytest.mark.parametrize("width", [2e-2, 2e-3, 2e-4, 2e-5])
def test_detect_order3_near_the_point_at_every_zoom(width):
    # Seeds within two cells of the third-order point solve to it at every
    # zoom, also where the pair gap at the line's exact double roots is
    # cube-root limited and above the pair tolerance.
    plane, (dx, jy), cell = _zoomed_plane(width)
    for sx, sy in TRIPLE_POINT_SEEDS:
        cand = detect_ep("detuned_liouvillian", plane, (dx + sx * cell, jy + sy * cell),
                         (cell, cell))
        assert cand is not None and cand.order == 3
        assert abs(cand.location[0] - dx) < 1e-9
        assert abs(cand.location[1] - jy) < 1e-9


@pytest.mark.parametrize("width", [2e-2, 2e-3])
def test_trace_reports_only_certified_third_order_points(width):
    # Line ends whose triple-root solve is rejected stay order 2, so every
    # order-3 point of a zoomed map is the third-order point itself.
    plane, (dx, jy), _ = _zoomed_plane(width)
    m = trace_lines(scan_grid(plane, "detuned_liouvillian"))
    assert m.lines
    for p in m.points:
        assert p.order == 3
        assert abs(p.location[0] - dx) < 1e-9
        assert abs(p.location[1] - jy) < 1e-9


# -- trace_lines --------------------------------------------------------------


@pytest.fixture(scope="module")
def detuned_map():
    plane = PlaneSpec(
        x=AxisSpec("delta", -0.15, 0.15, 61),
        y=AxisSpec("J", 0.02, 0.16, 61),
        fixed={"Gamma": 1.0},
    )
    return trace_lines(scan_grid(plane, "detuned_liouvillian"))


def test_trace_detuned_symmetric_lines(detuned_map):
    m = detuned_map
    assert len(m.lines) >= 1
    verts = np.vstack(m.lines)
    # mirror symmetry delta -> -delta: every vertex has a mirror partner
    for v in verts[:: max(1, len(verts) // 50)]:
        mirrored = np.array([-v[0], v[1]])
        dist = np.min(np.hypot(verts[:, 0] - mirrored[0], verts[:, 1] - mirrored[1]))
        assert dist < 0.01


def test_trace_detuned_vertices_satisfy_contract(detuned_map):
    model = get_model("detuned_liouvillian")
    for line in detuned_map.lines:
        for v in line[:: max(1, len(line) // 10)]:
            mat = model.matrix(delta=v[0], J=v[1], Gamma=1.0)
            dec = linalg.eig(mat)
            gaps = [
                (abs(dec.eigenvalues[i] - dec.eigenvalues[j]), i, j)
                for i in range(4)
                for j in range(i + 1, 4)
            ]
            g, bi, bj = min(gaps)
            assert g < GAP_TOL_FACTOR * (1 + np.linalg.norm(mat))
            assert linalg.coalescence_measure(dec, bi, bj) > OVERLAP_MIN


def test_trace_detuned_third_order_points(detuned_map):
    pts = detuned_map.points
    assert len(pts) == 2
    locs = sorted(p.location for p in pts)
    r, dx, jy = triple_point_oracle(
        "detuned_liouvillian", {"Gamma": 1.0}, (-0.6, 0.096, 0.136)
    )
    assert abs(locs[0][0] + dx) < 1e-9 and abs(locs[0][1] - jy) < 1e-9
    assert abs(locs[1][0] - dx) < 1e-9 and abs(locs[1][1] - jy) < 1e-9
    for p in pts:
        assert p.order == 3
        assert abs(p.eigenvalue - r) < 1e-5


COLDATOM_PLANE = PlaneSpec(
    x=AxisSpec("delta", -0.006, 0.006, 49),
    y=AxisSpec("J", 0.0005, 0.012, 49),
    fixed={"Gamma": 1 / 20, "gamma": 1 / 100},
)


@pytest.fixture(scope="module")
def coldatom_map():
    return trace_lines(scan_grid(COLDATOM_PLANE, "coldatom_liouvillian"))


def test_trace_coldatom_lines_end_at_third_order_points(coldatom_map):
    m = coldatom_map
    assert len(m.lines) >= 1
    assert len(m.points) == 2
    r, dx, jy = triple_point_oracle(
        "coldatom_liouvillian",
        {"Gamma": 1 / 20, "gamma": 1 / 100},
        (-0.035, 0.0021, 0.0088),
        yname="coupling",
    )
    locs = sorted(p.location for p in m.points)
    assert abs(locs[1][0] - dx) < 1e-9 and abs(locs[1][1] - jy) < 1e-9
    assert abs(locs[0][0] + dx) < 1e-9 and abs(locs[0][1] - jy) < 1e-9


def test_edge_refinement_lanes_independent(coldatom_map):
    # All crossing edges refined in one batch land on exactly the vertices
    # that each edge refined alone (a batch of one) lands on.
    m = coldatom_map
    model = get_model(m.model)
    keys = sorted({k for seg in _segments(m.indicator) for k in seg})
    p0, p1, f0, _ = _edge_endpoints(m.xs, m.ys, m.indicator, keys)
    batch, _ = _edge_zeros(model, COLDATOM_PLANE, p0, p1, f0)
    alone = np.vstack([
        _edge_zeros(model, COLDATOM_PLANE, p0[k : k + 1], p1[k : k + 1], f0[k : k + 1])[0]
        for k in range(len(keys))
    ])
    assert len(keys) > 20
    assert np.array_equal(batch, alone)
    rows = {tuple(v) for v in alone}
    for line in m.lines:
        assert all(tuple(v) in rows for v in line)


def test_edge_vertices_stay_on_their_edges():
    # The exceptional ray Gamma = 8 J of this plane runs through grid nodes,
    # where the double root solves to just outside its edge (by ~1e-14 of
    # it); the solved point is clipped back onto the edge.
    plane = PlaneSpec(x=AxisSpec("J", 0.1, 0.2, 11), y=AxisSpec("Gamma", 0.8, 1.6, 11))
    m = scan_grid(plane, "basic_liouvillian")
    keys = sorted({k for seg in _segments(m.indicator) for k in seg})
    p0, p1, f0, _ = _edge_endpoints(m.xs, m.ys, m.indicator, keys)
    verts, _ = _edge_zeros(get_model("basic_liouvillian"), plane, p0, p1, f0)
    assert len(keys) == 20
    assert ((np.minimum(p0, p1) <= verts) & (verts <= np.maximum(p0, p1))).all()


def test_detect_lanes_independent(coldatom_map):
    # Seeds detected together give the candidates of seeds detected one by
    # one, solved third-order points included.
    m = coldatom_map
    cell = (m.xs[1] - m.xs[0], m.ys[1] - m.ys[0])
    seeds = [tuple(line[k]) for line in m.lines for k in (0, -1)]
    verts = np.vstack(m.lines)
    for p in m.points:
        near = np.argmin(np.hypot(*(verts - np.array(p.location)).T))
        seeds.append(tuple(verts[near]))
    together, _ = _detect_eps(get_model(m.model), COLDATOM_PLANE, seeds, cell)
    alone = [detect_ep(m.model, COLDATOM_PLANE, s, cell) for s in seeds]
    assert together == alone
    assert sum(c is not None and c.order == 3 for c in together) >= 2


def test_trace_checks_vertices_in_one_batch(monkeypatch):
    # The traced vertices are checked in one stacked eigensolve and the
    # solved third-order points in another; the line seeds go to the
    # third-order solve as they are.
    scan = scan_grid(COLDATOM_PLANE, "coldatom_liouvillian")
    calls = []
    original = linalg.eig_batch

    def counted(m):
        calls.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(linalg, "eig_batch", counted)
    m = trace_lines(scan)
    assert len(m.points) == 2
    assert len(calls) <= 2
    assert calls[0][0] >= sum(len(line) for line in m.lines)
    assert m.counters["refine.vertex_rejects"] == {"gap": 0, "overlap": 0}


@pytest.mark.parametrize("model_name, plane, seed, cell", [
    ("coldatom_liouvillian", COLDATOM_PLANE, (-0.00214, 0.0088), (0.00025, 0.00024)),
    ("detuned_liouvillian",
     PlaneSpec(x=AxisSpec("delta", 0.05, 0.15, 21), y=AxisSpec("J", 0.1, 0.16, 21),
               fixed={"Gamma": 1.0}),
     (0.096, 0.136), (0.005, 0.003)),
])
def test_map_solves_liouvillians_in_real_form(monkeypatch, model_name, plane, seed, cell):
    # Scan, tracing and detection solve every Liouvillian in its real Bloch
    # form, with right vectors only: each stacked eigensolve and
    # characteristic polynomial gets a float64 stack, and the
    # left-vector eigendecomposition is never called.
    dtypes = []

    def recorded(name):
        original = getattr(linalg, name)

        def record(m, *args, **kwargs):
            dtypes.append((name, np.asarray(m).dtype))
            return original(m, *args, **kwargs)
        return record

    for name in ("eig_batch", "eigvals_batch", "char_poly", "eig"):
        monkeypatch.setattr(linalg, name, recorded(name))
    m = trace_lines(scan_grid(plane, model_name))
    cand = detect_ep(model_name, plane, seed, cell)
    assert m.lines and cand is not None and cand.order == 3
    assert {name for name, _ in dtypes} == {"eig_batch", "eigvals_batch", "char_poly"}
    assert all(dtype == np.float64 for _, dtype in dtypes)


@pytest.mark.parametrize("gate", ["gap", "overlap"])
def test_trace_counts_rejected_vertices(monkeypatch, gate):
    # With a gate no vertex can pass, every traced vertex is counted under
    # the first gate it fails, and no line or point is left.
    from epkit import spectra

    scan = scan_grid(COLDATOM_PLANE, "coldatom_liouvillian")
    traced = sum(len(line) for line in trace_lines(scan).lines)
    if gate == "gap":
        monkeypatch.setattr(spectra, "GAP_TOL_FACTOR", 0.0)
    else:
        monkeypatch.setattr(spectra, "OVERLAP_MIN", 2.0)
    m = trace_lines(scan)
    assert m.lines == [] and m.points == []
    rejects = m.counters["refine.vertex_rejects"]
    assert rejects[gate] >= traced > 20
    assert sum(rejects.values()) == rejects[gate]
    assert m.counters["refine.ep3_rejects"] == []


def test_trace_hermitian_sweep_empty():
    plane = PlaneSpec(
        x=AxisSpec("J", 0.1, 1.0, 16),
        y=AxisSpec("Omega", -0.5, 0.5, 16),
        fixed={"Gamma": 0.0},
    )
    scan = scan_grid(plane, "encircle")
    scan.counters = {"refine.ep3_iterations": 6}  # left by an earlier pass
    m = trace_lines(scan)
    assert m.lines == []
    assert m.points == []
    assert m.counters == {}


def test_ray_slope_of_basic_liouvillian_locus():
    plane = PlaneSpec(
        x=AxisSpec("J", 0.05, 0.25, 41),
        y=AxisSpec("Gamma", 0.3, 2.1, 41),
    )
    m = trace_lines(scan_grid(plane, "basic_liouvillian"))
    verts = np.vstack(m.lines)
    assert len(verts) > 20
    ratio = verts[:, 1] / verts[:, 0]
    assert np.max(np.abs(ratio - 8.0)) < 8.0 * 1e-4


def test_detect_order_consistent_with_charpoly_roots():
    # the reported order equals the multiplicity of the char-poly root
    # cluster under the same ratio rule
    from epkit.spectra import _estimate_order

    plane = PlaneSpec(
        x=AxisSpec("delta", 0.05, 0.15, 6),
        y=AxisSpec("J", 0.12, 0.15, 6),
        fixed={"Gamma": 1.0},
    )
    cand = detect_ep("detuned_liouvillian", plane, (0.096, 0.136), (0.003, 0.0015))
    model = get_model("detuned_liouvillian")
    mat = model.matrix(delta=cand.location[0], J=cand.location[1], Gamma=1.0)
    roots = np.roots(linalg.char_poly(mat))
    pairs = [
        (abs(roots[i] - roots[j]), i, j)
        for i in range(len(roots))
        for j in range(i + 1, len(roots))
    ]
    _, bi, bj = min(pairs)
    order, _, _ = _estimate_order(roots, bi, bj)
    assert order == cand.order


# -- quasi_steady_index --------------------------------------------------------


def test_quasi_steady_basic_liouvillian():
    from epkit.models import basic_liouvillian

    d = linalg.eig(basic_liouvillian(J=0.3, Gamma=1.0))
    i = quasi_steady_index(d)
    assert abs(d.eigenvalues[i]) < 1e-12


def test_quasi_steady_coldatom_negative_but_maximal():
    from epkit.models import ColdAtomParams, coldatom_liouvillian

    d = linalg.eig(
        coldatom_liouvillian(
            ColdAtomParams(delta=0.1, coupling=0.3, Gamma=1 / 20, gamma=1 / 100)
        )
    )
    i = quasi_steady_index(d)
    assert d.eigenvalues[i].real < 0
    assert d.eigenvalues[i].real == d.eigenvalues.real.max()


def test_quasi_steady_shift_invariance():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    d1 = linalg.eig(a)
    d2 = linalg.eig(a - 0.7 * np.eye(4))
    assert quasi_steady_index(d1) == quasi_steady_index(d2)
