"""The CLI's contract on point sets that mix good points with failing ones.

`verify identities|el|gallery` and `inspect` read their points as one bundle
per chunk and read a failing chunk again point by point.  Whatever the mix:

- the exit code is 0, 1 or 2;
- it is 1 exactly when a verdict failed;
- 2 comes only with ``error: ...`` on stderr and nothing on stdout;
- a repeated run gives the same bytes;
- each check (and each inspected point) equals the run at that point
  alone: the same error string and a residual within 1e-12 max(1, |r|);
  an exit 2 reports the error of the first point that exits 2 alone.

The failing points come from a degenerate distribution (``NULL_DISTRIBUTION``:
the span is dependent where x0 = 0), a metric whose curvature overflows to
non-finite values everywhere (``HUGE_SPEC``) and a metric expression that
overflows where x0 > 0.7 (``OVERFLOW_SPEC``).
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcurv import cli, gallery

from test_cli import HUGE_SPEC, OVERFLOW_SPEC
from test_shared_bundle import NULL_DISTRIBUTION

SPECS = {
    "null": (NULL_DISTRIBUTION, [(0.5, 0.0, 0.0), (0.0, 0.0, 0.0), (0.3, 0.1, 0.0),
                                 (0.0, 0.5, -0.2), (-0.4, 0.2, 0.3)]),
    "huge": (HUGE_SPEC, [(0.9, 0.1, 0.1), (0.2, -0.3, 0.5)]),
    "overflow": (OVERFLOW_SPEC, [(0.2, 0.5), (0.9, 0.5), (0.5, 0.1), (0.75, 0.3)]),
}
ENTRIES = ("r3_contact", "nil4_flow", "codim1_coth_tanh")
POOLS = {**{k: pts for k, (_, pts) in SPECS.items()},
         **{name: [tuple(pt) for pt in gallery.load_entry(name).structure.interior_points(3, 5)]
            for name in ENTRIES}}


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs")
    for name, (text, _) in SPECS.items():
        (path / f"{name}.spec").write_text(text)
    return path


@st.composite
def invocations(draw):
    """(argument list without --points, points)."""
    command = draw(st.sampled_from(["identities", "el", "gallery", "inspect"]))
    source = draw(st.sampled_from(sorted(POOLS)))
    pts = draw(st.lists(st.sampled_from(POOLS[source]), min_size=1, max_size=4))
    head = ["inspect"] if command == "inspect" else ["verify", command]
    where = ["--gallery", source] if source in ENTRIES else ["--spec", f"{source}.spec"]
    return head + where, pts


def run(args, pts, spec_dir):
    out, err = io.StringIO(), io.StringIO()
    points = ";".join("(" + ",".join(map(repr, pt)) + ")" for pt in pts)
    args = [str(spec_dir / a) if a.endswith(".spec") else a for a in args]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args + ["--points", points])
    return code, out.getvalue(), err.getvalue()


def same(got, want, key):
    """A report field against the one-point run's, residuals to 1e-12."""
    if isinstance(want, float) and isinstance(got, float):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), key
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), key
        for k in want:
            same(got[k], want[k], k)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), key
        for g, w in zip(got, want):
            same(g, w, key)
    else:
        assert got == want, key


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(invocations())
def test_cli_contract_on_mixed_points(spec_dir, invocation):
    args, pts = invocation
    code, out, err = run(args, pts, spec_dir)
    assert code in (0, 1, 2)
    assert run(args, pts, spec_dir) == (code, out, err)
    alone = [run(args, [pt], spec_dir) for pt in pts]
    if code == 2:
        assert out == "" and err.startswith("error: ")
        assert err == next(e for c, _, e in alone if c == 2)
        return
    assert err == "" and all(c != 2 for c, _, _ in alone)
    rep = json.loads(out)
    if args[0] == "inspect":
        assert code == 0
        for got, (_, text, _) in zip(rep["points"], alone):
            same(got, json.loads(text)["points"][0], "points")
        return
    assert rep["failed"] == sum(not c["verdict"] for c in rep["checks"])
    assert (code == 1) == (rep["failed"] > 0) == any(c == 1 for c, _, _ in alone)
    want = [c for _, text, _ in alone for c in json.loads(text)["checks"]]
    assert len(rep["checks"]) == len(want)
    for got, one in zip(rep["checks"], want):
        assert got.keys() == one.keys()
        for key in one:
            same(got[key], one[key], key)
