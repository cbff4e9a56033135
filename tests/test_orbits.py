"""One grid point per orbit of the unread coordinates, against a scan of every point.

``topology.orbits`` groups the grid by the coordinates that g_L and T read;
the tests below patch it to the identity map, which scans every point, and
require the same arrays and the same report bytes from both.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from statcurv import cli, topology
from statcurv.errors import GridPointError
from statcurv.expr import coordinates_read, parse_expression
from statcurv.generators import GeneratorRecipe, generate
from statcurv.metric import KillingField, MetricSpec, load_spec, load_spec_file
from statcurv.stationary import StationaryStructure, conformal_normalize, flip_spec
from statcurv.tolerances import DEFAULT

from conftest import SPEC_DIR
from oracles import orbits_by_unique


def every_point(s, pts):
    """The identity map: each grid point an orbit of its own."""
    rows = np.arange(len(pts))
    return rows, rows


def _flipped_spec_text(coords, intervals, metric, killing) -> str:
    """Spec text of the Lorentzian flip of a Riemannian metric ``metric`` {(i, j): text}
    with the Killing field ``killing`` (one text per coordinate)."""
    entries = tuple((i, j, parse_expression(e, coords)) for (i, j), e in sorted(metric.items()))
    t = tuple(parse_expression(e, coords) for e in killing)
    riem = MetricSpec(coords, intervals, 1e-3, "riemannian", entries, KillingField(t, False))
    return flip_spec(riem).to_text()


_LORENTZIAN_TAIL = "[signature]\nkind = lorentzian\n"

# name -> (spec text, grid sizes, orbit count on that grid)
CASES = {
    "s3": ((SPEC_DIR / "s3.spec").read_text(), (4, 3, 5), 4),
    # reads no coordinate: the whole grid is one orbit
    "flat_torus": ((SPEC_DIR / "flat_torus.spec").read_text(), (3, 2, 4), 1),
    # a rotation in the (x, y) plane plus a translation in t, flipped: g_L and
    # T read x and y, and the unread t sits between them
    "two_of_three": (
        _flipped_spec_text(
            ("x", "t", "y"),
            ((0.2, 1.2), (0.0, 2 * math.pi), (0.2, 1.2)),
            {(0, 0): "1", (1, 1): "1", (2, 2): "1"},
            ("-y", "1", "x"),
        ),
        (3, 4, 5),
        15,
    ),
    # flat g_L reads nothing, the rotating T reads x and y
    "read_by_t_only": (
        "[chart]\ncoords = t, x, y\nt = 0, 6.28\nx = -1, 1\ny = -1, 1\n"
        '[metric]\ng_0_0 = "-1"\ng_1_1 = "1"\ng_2_2 = "1"\n' + _LORENTZIAN_TAIL
        + '[killing]\nT_0 = "1"\nT_1 = "-0.3*y"\nT_2 = "0.3*x"\nunit = false\n',
        (3, 4, 5),
        20,
    ),
    # T = d/dt reads nothing, g_L reads y
    "read_by_metric_only": (
        "[chart]\ncoords = t, x, y\nt = 0, 6.28\nx = 0, 6.28\ny = 0, 6.28\n"
        '[metric]\ng_0_0 = "-1"\ng_1_1 = "(2+sin(y))^2"\ng_2_2 = "1"\n' + _LORENTZIAN_TAIL
        + '[killing]\nT_0 = "1"\nT_1 = "0"\nT_2 = "0"\nunit = true\n',
        (3, 4, 5),
        5,
    ),
}
# the random specs `examples --random --seed 3` writes; they read t only
for _n in range(5, 9):
    CASES[f"random{_n}"] = (generate(GeneratorRecipe(3, _n)).spec.to_text(), (2,) * _n, 2)


def _structure(text: str) -> StationaryStructure:
    return StationaryStructure.from_spec(load_spec(text))


@pytest.mark.parametrize("name", CASES)
def test_orbit_count(name):
    text, grid, count = CASES[name]
    s = _structure(text)
    pts, _ = topology.build_grid(s.spec, grid)
    first, inverse = topology.orbits(s, pts)
    assert len(first) == count
    assert np.all(np.diff(first) > 0)  # representatives in grid order
    assert np.array_equal(inverse[first], np.arange(count))
    # each point agrees with its representative on every coordinate read
    read = list(coordinates_read([e for _, _, e in s.spec.entries] + list(s.t)))
    assert np.array_equal(pts[first][inverse][:, read], pts[:, read])


@pytest.mark.parametrize("name", CASES)
def test_reduced_scan_equals_full_scan(name, monkeypatch):
    text, grid, _ = CASES[name]
    s = _structure(text)
    if not s.unit:
        s = conformal_normalize(s)
    pts, _ = topology.build_grid(s.spec, grid)
    reduced = topology.scan_points(s, pts)
    monkeypatch.setattr(topology, "orbits", every_point)
    full = topology.scan_points(s, pts)
    for got, want in zip(reduced, full):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def _reports(capsys, spec: str, grid: str) -> list:
    reports = []
    for argv in (
        ["analyze", spec, "--all-p", "--grid", grid, "--format", "json"],
        ["analyze", spec, "--all-p", "--grid", grid],
        ["verify", spec, "--grid", grid],
        ["export", spec, "--grid", grid],
    ):
        code = cli.main(argv)
        captured = capsys.readouterr()
        reports.append((code, captured.out, captured.err))
    return reports


@pytest.mark.parametrize("name", CASES)
def test_reports_equal_full_scan_bytes(name, capsys, monkeypatch, tmp_path):
    text, grid, _ = CASES[name]
    spec = tmp_path / f"{name}.spec"
    spec.write_text(text)
    sizes = ",".join(map(str, grid))
    reduced = _reports(capsys, str(spec), sizes)
    monkeypatch.setattr(topology, "orbits", every_point)
    full = _reports(capsys, str(spec), sizes)
    assert reduced == full
    # verify passes and every report is there to compare
    assert reduced[2][0] == 0 and all(out for _, out, _ in reduced)


# g_2_2 = 1.2 - x*y turns negative first at x = 1.0, y = 1.4995, the
# fourteenth of the 25 (x, y) pairs in row-major order; the unread t is the
# first axis
_DEGENERATE = (
    "[chart]\ncoords = t, x, y\nt = 0, 6.28\nx = 0, 2\ny = 0, 2\n"
    '[metric]\ng_0_0 = "-1"\ng_1_1 = "1"\ng_2_2 = "1.2-x*y"\n' + _LORENTZIAN_TAIL
    + '[killing]\nT_0 = "1"\nT_1 = "0"\nT_2 = "0"\nunit = true\n'
)


def test_failure_names_the_first_failing_grid_point(capsys, monkeypatch, tmp_path):
    s = _structure(_DEGENERATE)
    grid = (3, 5, 5)
    with pytest.raises(GridPointError) as reduced:
        topology.grid_scan(s, grid, 1)
    assert reduced.value.point == (0.001, 1.0, 1.4995)
    spec = tmp_path / "degenerate.spec"
    spec.write_text(_DEGENERATE)
    reports = _reports(capsys, str(spec), "3,5,5")
    monkeypatch.setattr(topology, "orbits", every_point)
    with pytest.raises(GridPointError) as full:
        topology.grid_scan(s, grid, 1)
    assert str(full.value) == str(reduced.value)
    assert _reports(capsys, str(spec), "3,5,5") == reports
    assert all(
        code == 3 and out == "" and "failure at grid point [0.001, 1.0, 1.4995]" in err
        for code, out, err in reports
    )


def test_point_outside_the_chart_is_scanned_itself(monkeypatch):
    # theta1 is unread, but the interior check reads it: the second point,
    # outside the chart along theta1 only, must fail as in a full scan
    s = StationaryStructure.from_spec(load_spec_file(SPEC_DIR / "s3.spec"))
    pts = np.array([[0.5, 1.0, 1.0], [0.5, -1.0, 1.0], [0.7, 1.0, 1.0]])
    first, inverse = topology.orbits(s, pts)
    assert first.tolist() == [0, 1, 2]
    with pytest.raises(GridPointError) as reduced:
        topology.scan_points(s, pts)
    monkeypatch.setattr(topology, "orbits", every_point)
    with pytest.raises(GridPointError) as full:
        topology.scan_points(s, pts)
    assert str(reduced.value) == str(full.value)
    assert reduced.value.point == (0.5, -1.0, 1.0)


def test_every_command_runs_through_one_driver(capsys, monkeypatch):
    # analyze, verify and export each reach orbits once, through chunked
    calls = []
    real_chunked, real_orbits = topology.chunked, topology.orbits

    def chunked(s, pts, step):
        calls.append("chunked")
        return real_chunked(s, pts, step)

    def orbits(s, pts):
        calls.append("orbits")
        return real_orbits(s, pts)

    monkeypatch.setattr(topology, "chunked", chunked)
    monkeypatch.setattr(topology, "orbits", orbits)
    spec = str(SPEC_DIR / "s3.spec")
    for argv in (
        ["analyze", spec, "--all-p", "--grid", "3"],
        ["verify", spec, "--grid", "3"],
        ["export", spec, "--grid", "2"],
    ):
        calls.clear()
        assert cli.main(argv) == 0
        assert calls == ["chunked", "orbits"], argv
    capsys.readouterr()


def test_empty_grid_keeps_the_step_shapes():
    s = StationaryStructure.from_spec(load_spec_file(SPEC_DIR / "s3.spec"))
    pts, _ = topology.build_grid(s.spec, (0, 3, 3))
    vals, central = topology.scan_points(s, pts)
    assert vals.shape == (0, 3) and central.shape == (0,)
    assert topology.verify_points(s, pts, DEFAULT).shape == (0, len(topology.VERIFY_LINES))


# coordinate values for the orbit keys: both signed zeros, repeats, values
# outside the chart on a read and on an unread coordinate, and NaN (outside)
_ORBIT_VALUES = st.sampled_from([0.0, -0.0, 0.5, 0.25, 1.0, 3.0, -3.0, 9.0, math.nan])


@pytest.mark.parametrize("name", ["read_by_t_only", "two_of_three", "s3", "flat_torus"])
@given(data=st.data())
def test_orbits_match_unique_oracle(name, data):
    s = _structure(CASES[name][0])
    n = s.dimension
    # rows drawn from a small pool, so equal rows repeat across the batch
    pool = data.draw(st.lists(st.lists(_ORBIT_VALUES, min_size=n, max_size=n), min_size=1, max_size=6))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    pts = np.array([pool[i] for i in picks], dtype=float).reshape(len(picks), n)
    first, inverse = topology.orbits(s, pts)
    want_first, want_inverse = orbits_by_unique(s, pts)
    assert first.dtype == want_first.dtype and inverse.dtype == want_inverse.dtype
    assert np.array_equal(first, want_first) and np.array_equal(inverse, want_inverse)


def test_orbits_of_no_row_and_of_one_row():
    s = _structure(CASES["two_of_three"][0])
    for pts in (np.empty((0, 3)), np.array([[0.5, 1.0, -0.0]])):
        first, inverse = topology.orbits(s, pts)
        want_first, want_inverse = orbits_by_unique(s, pts)
        assert first.shape == want_first.shape and inverse.shape == want_inverse.shape
        assert np.array_equal(first, want_first) and np.array_equal(inverse, want_inverse)
