import dataclasses
import json
import math
import os
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedcurv import cli, gallery
from mixedcurv import euler_lagrange as el
from mixedcurv.errors import SingularEvaluationError


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = cli.main(list(args) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_gallery_listing(tmp_path):
    code, text = run(["gallery"], tmp_path)
    rep = json.loads(text)
    assert code == 0
    assert rep["count"] == 9
    names = [e["name"] for e in rep["entries"]]
    assert "r3_contact" in names and "codim1_coth_tanh" in names
    entry = next(e for e in rep["entries"] if e["name"] == "r3_contact")
    quantities = {x["quantity"] for x in entry["expected"]}
    assert "At_reference" in quantities


def test_gallery_criticality_filter(tmp_path):
    code, text = run(["gallery", "--filter-critical", "E-main-1i"], tmp_path)
    rep = json.loads(text)
    names = {e["name"] for e in rep["entries"]}
    assert "s3_hopf" in names and "r3_contact" not in names
    code, text = run(["gallery", "--filter-noncritical", "E-main-1i"], tmp_path)
    rep = json.loads(text)
    names = {e["name"] for e in rep["entries"]}
    assert "r3_contact" in names and "s3_hopf" not in names
    # a flag without a registered evaluator is still a known name
    code, text = run(["gallery", "--filter-noncritical", "P-flows"], tmp_path)
    assert code == 0
    assert [e["name"] for e in json.loads(text)["entries"]] == ["nil4_flow"]


def test_inspect_contact_origin(tmp_path):
    code, text = run(["inspect", "--gallery", "r3_contact",
                      "--points", "(0,0,0)"], tmp_path)
    rep = json.loads(text)
    assert code == 0
    assert "tolerance" not in rep                    # inspect judges nothing
    assert rep["points"][0]["ric_N"] == pytest.approx(0.0, abs=1e-9)
    assert rep["points"][0]["norm_T_tilde"] == pytest.approx(2.0, abs=1e-9)


def test_inspect_flat_all_zero(tmp_path):
    code, text = run(["inspect", "--gallery", "euclidean_product",
                      "--points", "(0.1,0.2,0.3)"], tmp_path)
    rep = json.loads(text)
    for key in ("S_mix", "norm_h", "norm_T_tilde", "div_H"):
        assert rep["points"][0][key] == 0.0


def test_inspect_outside_domain_exit_2(tmp_path, capsys):
    code = cli.main(["inspect", "--gallery", "r3_contact",
                     "--points", "(5,0,0)"])
    assert code == 2


def test_bad_config_exit_2():
    assert cli.main(["inspect"]) == 2
    assert cli.main(["inspect", "--spec", "/nonexistent.spec"]) == 2
    assert cli.main(["verify", "identities", "--gallery", "r3_contact",
                     "--points", "(0,0)"]) == 2


@pytest.mark.parametrize("args", [
    ["verify", "identities", "--gallery", "r3_contact",
     "--points", "(0.1,abc,0.2)"],
    ["verify", "variations", "--gallery", "r3_contact",
     "--box", "[0,1e] x [0,1] x [0,1]"],
    ["verify", "el", "--gallery", "r3_contact", "--random", "0"],
    ["verify", "el", "--gallery", "r3_contact", "--random", "-3"],
    ["verify", "identities", "--gallery", "r3_contact", "--random", "1",
     "--tol", "-1"],
    ["verify", "identities", "--gallery", "r3_contact", "--random", "1",
     "--tol", "nan"],
    ["gallery", "--filter-critical", "NoSuchEq"],
    ["gallery", "--filter-noncritical", "NoSuchEq"],
    # --box and --grid are the variations suite's, and --grid needs --box
    ["verify", "identities", "--gallery", "euclidean_product", "--random", "1",
     "--box", "garbage", "--grid", "-3"],
    ["verify", "el", "--gallery", "r3_contact", "--random", "1", "--grid", "4"],
    ["verify", "gallery", "--gallery", "r3_contact", "--random", "1",
     "--box", "[-0.5,0.5] x [-0.5,0.5] x [-0.5,0.5]"],
    ["verify", "variations", "--gallery", "r3_contact", "--random", "1",
     "--grid", "3"],
    ["verify", "variations", "--gallery", "r3_contact", "--random", "1",
     "--box", "[-0.5,0.5] x [-0.5,0.5] x [-0.5,0.5]", "--grid", "1"],
    ["verify", "variations", "--gallery", "r3_contact", "--random", "1",
     "--box", "[0.5,-0.5] x [-0.5,0.5] x [-0.5,0.5]"],
    ["verify", "variations", "--gallery", "r3_contact", "--random", "1",
     "--box", "[5,6] x [-0.5,0.5] x [-0.5,0.5]"],
    ["inspect", "--spec", "x.spec", "--gallery", "r3_contact"],
    ["verify", "identities", "--gallery", "r3_contact", "--points", ";"],
])
def test_bad_input_exit_2(args, capsys, monkeypatch):
    # malformed numbers, empty samples, unusable tolerances, unknown
    # equation names and misplaced quadrature options are configuration
    # errors, not crashes, failed verdicts or silently empty passing
    # reports, and they are refused before any point is evaluated
    def no_point_work(*args, **kwargs):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(cli, "PointGeometry", no_point_work)
    monkeypatch.setattr(cli.va, "verify_first_variation", no_point_work)
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["gallery", "--seed", "3"],
    ["gallery", "--tol", "5"],
    ["inspect", "--gallery", "r3_contact", "--random", "1", "--grid", "-7"],
    ["inspect", "--gallery", "r3_contact", "--random", "1", "--box", "garbage"],
    ["inspect", "--gallery", "r3_contact", "--random", "1", "--tol", "5"],
], ids=["gallery-seed", "gallery-tol", "inspect-grid", "inspect-box", "inspect-tol"])
def test_removed_options_rejected(args, capsys):
    # options that would change nothing are not accepted: argparse exits 2
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_inspect_blocks_of_different_scale(tmp_path):
    path = tmp_path / "s.spec"
    path.write_text("dim = 2\ndtilde_dim = 1\nmetric 0 0 = 1e10\n"
                    "metric 1 1 = 1\ndtilde 0 = 1, 0\n"
                    "domain = [-1, 1] x [-1, 1]\n")
    code, text = run(["inspect", "--spec", str(path), "--random", "1"], tmp_path)
    assert code == 0
    assert json.loads(text)["points"][0]["eps_perp"] == [1.0]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(tol=st.floats(allow_nan=True, allow_infinity=True))
@example(tol=-0.0)
@example(tol=math.nan)
@example(tol=math.inf)
@example(tol=5e-324)
def test_tol_exit_code(tol):
    code = cli.main(["verify", "identities", "--gallery", "euclidean_product",
                     "--points", "(0.1,0.2,0.3)", f"--tol={tol!r}",
                     "--out", os.devnull])
    assert code == (2 if not math.isfinite(tol) or tol < 0 else 0)


OVERFLOW_SPEC = """name = overflow
dim = 2
dtilde_dim = 1
metric 0 0 = exp(1000*x0)
metric 1 1 = 1
dtilde 0 = 1, 0
domain = [0, 1] x [0, 1]
"""

POLE_SPEC = """name = pole
dim = 2
dtilde_dim = 1
metric 0 0 = 1 + 1/(x0 - 0.5)^2
metric 1 1 = 1
dtilde 0 = 1, 0
domain = [0, 1] x [0, 1]
"""


@pytest.mark.parametrize("spec, args, message", [
    # math.exp overflows at the point
    (OVERFLOW_SPEC, ["inspect", "--points", "(0.9,0.5)"], "arithmetic error in expression"),
    # the middle quadrature node sits on the pole: the jet division by zero
    # names the node, as a bundle at that node alone does
    (POLE_SPEC, ["verify", "variations", "--box", "[0.25,0.75] x [0.25,0.75]",
                 "--grid", "3"],
     "division by jet with zero value at point (0.5, 0.3333333333333333)\n"),
], ids=["overflow", "pole"])
def test_arithmetic_error_exit_2(spec, args, message, tmp_path, capsys):
    path = tmp_path / "s.spec"
    path.write_text(spec)
    assert cli.main(args + ["--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message)


# widely scaled blocks of a product metric: S_mix = 0, and every product
# the bundle forms stays finite
PRODUCT_SPEC = """dim = 3
dtilde_dim = 1
metric 0 0 = 1
metric 1 1 = 1e300*(1+x0^2)
metric 2 2 = 1e-300
dtilde 0 = 0, 0, 1
domain = [-1, 1] x [-1, 1] x [-1, 1]
"""

# Gamma^0_11 = -x0 1e600 overflows in exact arithmetic: the bundle's
# curvature is non-finite there
HUGE_SPEC = """dim = 3
dtilde_dim = 1
metric 0 0 = 1e-300
metric 1 1 = 1e300*(1+x0^2)
metric 2 2 = 1
dtilde 0 = 0, 0, 1
domain = [-1, 1] x [-1, 1] x [-1, 1]
"""


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("suite", ["el", "identities"])
def test_non_finite_residual_fails_its_check(suite, tmp_path, capsys):
    path = tmp_path / "s.spec"
    path.write_text(HUGE_SPEC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(["verify", suite, "--spec", str(path),
                          "--points", "(0.9,0.1,0.1)"], tmp_path)
    assert code == 1
    assert capsys.readouterr().err == ""
    rep = _strict_json(text)
    bad = [c for c in rep["checks"] if "error" in c]
    assert bad and rep["failed"] == len(bad)
    for c in bad:
        assert c["residual"] is None and c["verdict"] is False
        assert c["error"] == "non-finite residual nan at point (0.9, 0.1, 0.1)"


def test_inspect_non_finite_exit_2(tmp_path, capsys):
    path = tmp_path / "s.spec"
    path.write_text(HUGE_SPEC)
    code, text = run(["inspect", "--spec", str(path), "--points", "(0.9,0.1,0.1)"],
                     tmp_path)
    assert code == 2 and text == ""
    assert capsys.readouterr().err.startswith("error: non-finite S_mix")


def test_product_of_widely_scaled_blocks_is_finite(tmp_path):
    path = tmp_path / "s.spec"
    path.write_text(PRODUCT_SPEC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(["inspect", "--spec", str(path), "--points", "(0.9,0.1,0.1)"],
                         tmp_path)
        assert code == 0
        assert _strict_json(text)["points"][0]["S_mix"] == 0.0
        for suite in ("identities", "el"):
            code, text = run(["verify", suite, "--spec", str(path),
                              "--points", "(0.9,0.1,0.1)"], tmp_path, f"{suite}.json")
            rep = _strict_json(text)
            assert code == 0 and rep["failed"] == 0, suite
            assert not any("error" in c for c in rep["checks"]), suite


def test_emit_refuses_non_finite_numbers(tmp_path):
    args = cli.build_parser().parse_args(["inspect", "--out", str(tmp_path / "x")])
    with pytest.raises(ValueError):
        cli._emit({"residual": math.nan}, args)


def test_verify_identities_flat(tmp_path):
    code, text = run(["verify", "identities", "--gallery", "euclidean_product",
                      "--random", "3"], tmp_path)
    rep = json.loads(text)
    assert code == 0 and rep["failed"] == 0


def test_verify_el_hopf_and_contact(tmp_path):
    code, _ = run(["verify", "el", "--gallery", "s3_hopf", "--random", "2"],
                  tmp_path)
    assert code == 0
    # the contact entry passes because non-criticality is the expectation
    code, text = run(["verify", "el", "--gallery", "r3_contact",
                      "--random", "2"], tmp_path)
    rep = json.loads(text)
    assert code == 0
    noncrit = [c for c in rep["checks"] if c["expected"] == "non-critical"]
    assert noncrit and all(c["residual"] >= 1e-5 for c in noncrit)


def test_verify_gallery_entry(tmp_path):
    code, text = run(["verify", "gallery", "--gallery", "warped_product",
                      "--random", "2"], tmp_path)
    rep = json.loads(text)
    assert code == 0 and rep["failed"] == 0
    assert all("provenance" in c for c in rep["checks"])


def test_reports_reproducible_and_hashed(tmp_path):
    args = ["verify", "identities", "--gallery", "r3_contact", "--random", "2",
            "--seed", "77"]
    _, a = run(args, tmp_path, "a.json")
    _, b = run(args, tmp_path, "b.json")
    assert a == b                       # byte-identical for identical config
    rep = json.loads(a)
    assert len(rep["spec_sha256"]) == 64
    assert rep["seed"] == 77
    _, c = run(args[:-1] + ["78"], tmp_path, "c.json")
    assert json.loads(c)["seed"] == 78


def test_csv_export_flattens_tensors(tmp_path):
    code, text = run(["inspect", "--gallery", "r3_contact",
                      "--points", "(0,0,0)", "--format", "csv"], tmp_path,
                     "out.csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "section,name,index,value"
    import csv as csvmod
    import io as iomod
    rows = list(csvmod.reader(iomod.StringIO(text)))[1:]
    rperp = [r for r in rows if r[0].endswith("r_perp")]
    assert len(rperp) == 4                           # 2x2 block, row-major
    assert [r[2] for r in rperp] == ["0,0", "0,1", "1,0", "1,1"]


def test_verify_el_gallery_checks_only_flagged_equations(tmp_path):
    # this entry only claims the leafwise divergence equation; nothing else
    # may be asserted about it
    code, text = run(["verify", "el", "--gallery", "codim1_tau_riccati",
                      "--random", "2"], tmp_path)
    rep = json.loads(text)
    assert code == 0
    assert {c["check"] for c in rep["checks"]} == {"codimoneEL2"}


@pytest.mark.parametrize("name", gallery.list_entries())
def test_verify_el_accounts_for_every_claim(name, tmp_path):
    code, text = run(["verify", "el", "--gallery", name, "--random", "1"],
                     tmp_path)
    rep = json.loads(text)
    assert code == 0
    checked = {c["check"] for c in rep["checks"]}
    skipped = {c["check"] for c in rep.get("skipped", [])}
    assert checked | skipped == set(gallery.load_entry(name).criticality)
    assert not checked & skipped
    assert all(c["reason"] for c in rep.get("skipped", []))
    assert "skipped" not in rep or rep["skipped"]


def test_verify_el_engine_error_fails_the_check(tmp_path, monkeypatch):
    def boom(geom):
        raise SingularEvaluationError("injected", point=geom.point)

    spec = el.EQUATIONS["E-main-0ii"]
    monkeypatch.setitem(el.EQUATIONS, "E-main-0ii",
                        dataclasses.replace(spec, run=boom))
    code, text = run(["verify", "el", "--gallery", "r3_contact",
                      "--random", "1"], tmp_path)
    rep = json.loads(text)
    assert code == 1
    bad = [c for c in rep["checks"] if not c["verdict"]]
    assert [c["check"] for c in bad] == ["E-main-0ii"]
    assert bad[0]["error"].startswith("injected") and bad[0]["residual"] is None
    assert rep["failed"] == 1 and rep["passed"] == 8


def test_verify_variations_cli(tmp_path):
    code, text = run(["verify", "variations", "--gallery", "euclidean_product",
                      "--random", "2"], tmp_path)
    rep = json.loads(text)
    assert code == 0 and rep["failed"] == 0


def test_verify_variations_box_adds_the_bar_relation_check(tmp_path):
    # --box turns the volume-normalized action relation into one more check
    args = ["verify", "variations", "--gallery", "r3_contact", "--random", "2",
            "--box", "[-0.3,0.3] x [-0.3,0.3] x [-0.3,0.3]", "--grid", "6"]
    code, text = run(args, tmp_path)
    assert code == 0
    bar = [c for c in json.loads(text)["checks"]
           if c["check"] == "volume-normalized-action-relation"]
    assert len(bar) == 1 and bar[0]["grid"] == 6 and bar[0]["verdict"] is True
    assert bar[0]["residual"] <= bar[0]["tolerance"]
    assert bar[0]["volume_drift"] <= 1e-6
    assert run(args, tmp_path, "again.json") == (0, text)


@pytest.mark.parametrize("domain, message", [
    ("[a, 1] x [-1, 1]", "bad domain interval '[a, 1]'"),
    ("[-1, inf] x [-1, 1]", "non-finite domain interval '[-1, inf]'"),
    ("[-1, 1] x [nan, 1]", "non-finite domain interval '[nan, 1]'"),
    ("[1, 1] x [-1, 1]", "empty domain interval '[1, 1]'"),
], ids=["letter", "inf", "nan", "empty"])
def test_bad_spec_domain_exit_2(domain, message, tmp_path, capsys):
    # the spec's domain and --box share one interval parser: a malformed or
    # non-finite bound is a configuration error, not a traceback or a
    # failure at the first point
    path = tmp_path / "s.spec"
    path.write_text("dim = 2\ndtilde_dim = 1\nmetric 0 0 = 1\nmetric 1 1 = 1\n"
                    f"dtilde 0 = 1, 0\ndomain = {domain}\n")
    assert cli.main(["inspect", "--spec", str(path), "--random", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("box, message", [
    ("[-0.5,0.5] x [-0.5,b] x [0,1]", "bad box interval '[-0.5,b]'"),
    ("[-0.5,0.5] x [-0.5,inf] x [0,1]", "non-finite box interval '[-0.5,inf]'"),
], ids=["letter", "inf"])
def test_bad_box_interval_exit_2(box, message, capsys):
    assert cli.main(["verify", "variations", "--gallery", "r3_contact", "--random", "1",
                     "--box", box]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
