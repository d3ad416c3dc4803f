"""One bundle per chunk of points: the callers build it, the evaluators read it.

`verify identities|el|gallery` and `inspect` build one `PointGeometry` over
each chunk of their points (a node bundle) and pass it to every identity,
registry runner and gallery quantity; only a chunk that fails is read again
as one bundle per point.  `cli._el_equations`, which the benchmark calls,
still builds one bundle per point.  A runner's report must not depend on
what else has read the same bundle before it, and an error the bundle
raises must reach every check as it would on a bundle of its own, while
the failing member is built once.
"""

import gc
import json
import random
import traceback
import weakref

import numpy as np
import pytest

from mixedcurv import cli, gallery, geometry
from mixedcurv import euler_lagrange as el
from mixedcurv.errors import MixedCurvError
from mixedcurv.geometry import PointGeometry, identity_suite_at
from mixedcurv.structure import load_structure

from test_random_structures import seeded_structure


@pytest.fixture
def built(monkeypatch):
    """The point of every PointGeometry constructed while the test runs: a
    tuple of floats, or for a node bundle the tuple of its nodes."""
    points = []
    init = PointGeometry.__init__

    def counting(self, struct, point, *args, **kwargs):
        arr = np.array(point, dtype=float)
        points.append(tuple(map(tuple, arr.tolist())) if arr.ndim == 2
                      else tuple(arr.tolist()))
        init(self, struct, point, *args, **kwargs)

    monkeypatch.setattr(PointGeometry, "__init__", counting)
    return points


SEED = 20260808


def verify(suite, name, tmp_path):
    """`verify SUITE --gallery NAME` at two random points: exit code, report
    and the points."""
    out = tmp_path / f"{suite}-{name}.json"
    code = cli.main(["verify", suite, "--gallery", name, "--random", "2",
                     "--seed", str(SEED), "--out", str(out)])
    points = gallery.load_entry(name).structure.interior_points(2, SEED)
    return code, json.loads(out.read_text()), [tuple(pt) for pt in points]


@pytest.mark.parametrize("suite", ["el", "gallery", "identities"])
@pytest.mark.parametrize("name", gallery.list_entries())
def test_verify_builds_one_bundle_per_point(suite, name, tmp_path, built):
    # both points fit one chunk, so they are read as one node bundle
    code, rep, points = verify(suite, name, tmp_path)
    assert code == 0
    assert {tuple(c["point"]) for c in rep["checks"]} <= set(points)
    assert built == [tuple(points)]


def test_inspect_builds_one_bundle_per_chunk(tmp_path, built, monkeypatch):
    # with room for 8 nodes per chunk at d = 7, 20 points make chunks of 8,
    # 8 and 4 nodes
    monkeypatch.setattr(geometry, "BATCH_ELEMENTS", 8 * 7 ** 4)
    s = gallery.load_entry("s7_three_sasakian").structure
    out = tmp_path / "inspect.json"
    assert cli.main(["inspect", "--gallery", "s7_three_sasakian", "--random", "20",
                     "--seed", "3", "--out", str(out)]) == 0
    points = [tuple(pt) for pt in s.interior_points(20, 3)]
    assert built == [tuple(points[:8]), tuple(points[8:16]), tuple(points[16:])]
    assert [tuple(p["point"]) for p in json.loads(out.read_text())["points"]] == points


def test_el_equations_build_one_bundle_per_point(built):
    s = gallery.load_entry("r3_contact").structure
    points = s.interior_points(3, 5)
    equations = cli._el_equations(s)
    assert [eq for eq, _ in equations] == el.applicable(s)
    for pt in points:
        for _, evaluate in equations:
            evaluate(pt)
    assert built == [tuple(pt) for pt in points]


def test_el_tildeT_action_runs_once_per_point(tmp_path, monkeypatch):
    calls = []
    body = el.el_tildeT_action

    def counting(geom, *args, **kwargs):
        calls.append(geom.point)
        return body(geom, *args, **kwargs)

    monkeypatch.setattr(el, "el_tildeT_action", counting)
    code, rep, points = verify("el", "r3_contact", tmp_path)
    assert code == 0
    assert {"ELtildeT1", "ELtildeT2", "ELtildeT3"} <= {c["check"] for c in rep["checks"]}
    assert calls == [tuple(points)]            # once, on the bundle over both points


def outcome(run, geom):
    """A runner's report as its repr, or its error as (class, message)."""
    try:
        return repr(run(geom))
    except MixedCurvError as exc:
        return type(exc), str(exc)


def read_identities(geom):
    identity_suite_at(geom)
    geom.summary()


def assert_order_independent(s, pt):
    eqs = el.applicable(s)
    fresh = {eq: outcome(el.EQUATIONS[eq].run, PointGeometry(s, pt)) for eq in eqs}
    orders = (eqs, eqs[::-1], random.Random(len(eqs)).sample(eqs, len(eqs)))
    for before in (lambda geom: None, read_identities):
        for order in orders:
            geom = PointGeometry(s, pt)
            before(geom)
            shared = {eq: outcome(el.EQUATIONS[eq].run, geom) for eq in order}
            assert shared == fresh, order


@pytest.mark.parametrize("name", gallery.list_entries())
def test_shared_bundle_reports_match_fresh_bundles(name):
    s = gallery.load_entry(name).structure
    assert_order_independent(s, s.interior_points(1, 11)[0])


@pytest.mark.parametrize("seed, d, n, lorentz", [
    (1, 3, 1, False), (2, 3, 2, True), (3, 4, 1, False), (4, 4, 3, False),
    (5, 4, 2, True)])
def test_shared_bundle_reports_match_fresh_bundles_generated(seed, d, n, lorentz):
    assert_order_independent(*seeded_structure(seed, d, n, lorentz))


NULL_DISTRIBUTION = """\
dim = 3
dtilde_dim = 2
metric 0 0 = 1
metric 1 1 = 1
metric 2 2 = 1
dtilde 0 = 1, 0, 0
dtilde 1 = 1, x0, 0
domain = [-1, 1] x [-1, 1] x [-1, 1]
"""


def test_bundle_error_reaches_every_check_unchanged(tmp_path):
    s = load_structure(NULL_DISTRIBUTION)
    pt = (0.0, 0.0, 0.0)
    eqs = el.applicable(s)
    fresh = {eq: outcome(el.EQUATIONS[eq].run, PointGeometry(s, pt)) for eq in eqs}
    assert all(isinstance(v, tuple) for v in fresh.values())
    geom = PointGeometry(s, pt)
    assert {eq: outcome(el.EQUATIONS[eq].run, geom) for eq in eqs} == fresh

    spec = tmp_path / "null.spec"
    spec.write_text(NULL_DISTRIBUTION)
    out = tmp_path / "null.json"
    code = cli.main(["verify", "el", "--spec", str(spec), "--points", "(0,0,0)",
                     "--out", str(out)])
    rep = json.loads(out.read_text())
    assert code == 1
    assert {c["check"]: c["error"] for c in rep["checks"]} == {
        eq: msg for eq, (_, msg) in fresh.items()}
    assert all(c["residual"] is None and not c["verdict"] for c in rep["checks"])


def test_a_failing_member_is_built_once(monkeypatch):
    # every applicable runner reads the frame, which fails at the point; the
    # bundle keeps the error and raises a fresh copy of it on every later
    # read, with the class, message and point of the first
    s = load_structure(NULL_DISTRIBUTION)
    calls, frame = [], geometry.orthonormal_frame

    def counted(*args, **kwargs):
        calls.append(kwargs.get("point"))
        return frame(*args, **kwargs)

    monkeypatch.setattr(geometry, "orthonormal_frame", counted)
    geom = PointGeometry(s, (0.0, 0.0, 0.0))
    assert len(el.applicable(s)) == 7
    reports = [outcome(el.EQUATIONS[eq].run, geom) for eq in el.applicable(s)]
    assert calls == [(0.0, 0.0, 0.0)]
    assert len(set(reports)) == 1
    raised, depths = [], []
    for _ in range(3):
        with pytest.raises(MixedCurvError) as info:
            geom.frameJ
        raised.append(info.value)
        depths.append(len(traceback.extract_tb(info.value.__traceback__)))
    assert len({(type(e), str(e), e.point) for e in raised}) == 1
    assert (type(raised[0]), str(raised[0])) == reports[0]
    assert raised[0].point == (0.0, 0.0, 0.0)
    assert depths[0] == depths[1] == depths[2]
    assert calls == [(0.0, 0.0, 0.0)]


def test_a_failing_bundle_is_freed_without_cycle_collection():
    # the kept error holds no traceback, whose frames would hold the bundle
    s = load_structure(NULL_DISTRIBUTION)
    gc.disable()
    try:
        geom = PointGeometry(s, (0.0, 0.0, 0.0))
        for _ in range(3):
            try:
                geom.frameJ
            except MixedCurvError:
                pass
        ref = weakref.ref(geom)
        del geom
        assert ref() is None
    finally:
        gc.enable()


def test_a_failing_chunk_is_read_point_by_point(tmp_path, built):
    # the distribution is degenerate where x0 = 0: the chunk over the three
    # points fails, and each point gets a bundle of its own, so the two good
    # points pass and the bad one reports the error of its own bundle
    spec = tmp_path / "null.spec"
    spec.write_text(NULL_DISTRIBUTION)
    points = [(0.5, 0.0, 0.0), (0.0, 0.0, 0.0), (0.3, 0.1, 0.0)]
    out = tmp_path / "null.json"
    code = cli.main(["verify", "el", "--spec", str(spec), "--out", str(out), "--points",
                     ";".join(f"({x},{y},{z})" for x, y, z in points)])
    assert code == 1
    assert built == [tuple(points)] + points
    s = load_structure(NULL_DISTRIBUTION)
    fresh = {eq: outcome(el.EQUATIONS[eq].run, PointGeometry(s, points[1]))
             for eq in el.applicable(s)}
    rep = json.loads(out.read_text())
    assert all(c["verdict"] for c in rep["checks"] if tuple(c["point"]) != points[1])
    assert {c["check"]: c["error"] for c in rep["checks"]
            if tuple(c["point"]) == points[1]} == {eq: msg for eq, (_, msg) in fresh.items()}
