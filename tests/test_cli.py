import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chp_pack
from chp_pack import build_chp, seed_guided, validate_config
from chp_pack.builder import PackingConfiguration
from chp_pack.cli import main
from chp_pack.configio import dumps_config, loads_config, read_config
from chp_pack.errors import ParseError, SchemaMismatch
from chp_pack.geometry import outside_by
from chp_pack.svg import render_svg

DATA = Path(__file__).parent / "data"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_output(capsys):
    code, out, err = run_cli(["count", "--sigma", "12", "--k", "6"], capsys)
    assert code == 0
    assert out.strip() == "10"


def test_density_digits(capsys):
    code, out, _ = run_cli(["density", "--sigma", "12", "--k", "23"], capsys)
    assert code == 0
    assert out.strip() == "0.836837494348"


def test_density_names_its_sigma_rule(capsys):
    # density takes every integer side count from 6 up, not only multiples of 6
    code, out, _ = run_cli(["density", "--sigma", "7", "--k", "2"], capsys)
    assert (code, out) == (0, "0.798040967272\n")
    for k in ("2", "3", "5"):
        code, out, err = run_cli(["density", "--sigma", "4", "--k", k], capsys)
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "NotMultipleOfSix",
            "message": "sigma must be an integer >= 6 or 'circle', got 4",
        }


def test_solve_json(capsys):
    code, out, _ = run_cli(["solve", "--sigma", "12", "--k", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n_V"] == 2
    assert doc["eta"] == 1
    assert len(doc["phi"]) == 2
    assert doc["d"] == pytest.approx(2 * math.sin(math.pi / 12), abs=1e-15)


def test_enumerate_lines(capsys):
    code, out, _ = run_cli(["enumerate", "--sigma", "12", "--k", "4"], capsys)
    assert code == 0
    assert out.splitlines() == ["aabb", "abab", "abba"]


def test_build_golden_bytes(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, _, _ = run_cli(["build", "--sigma", "12", "--k", "2", "-o", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_bytes() == (DATA / "build_12_2.json").read_bytes()


def test_render_golden_bytes(tmp_path, capsys):
    svg_path = tmp_path / "out.svg"
    code, _, _ = run_cli(
        ["render", "-i", str(DATA / "build_12_2.json"), "-o", str(svg_path)], capsys
    )
    assert code == 0
    assert svg_path.read_bytes() == (DATA / "render_12_2.svg").read_bytes()


def test_render_disk_count_and_bbox(capsys):
    config = build_chp(12, 2)
    svg = render_svg(config)
    assert svg.count('class="disk"') == config.n_disks
    # bounding box encloses the outer polygon
    first = svg.splitlines()[0]
    vb = first.split('viewBox="')[1].split('"')[0].split()
    r = config.diameter / 2
    outer = (math.cos(math.pi / 12) + r) / math.cos(math.pi / 12)
    assert float(vb[0]) <= -outer and float(vb[2]) >= 2 * outer


def test_render_options_are_additive():
    config = build_chp(12, 2)
    plain = render_svg(config)
    both = render_svg(config, contacts=True, fundamental=True)
    assert both.count('class="contact"') > 0
    assert both.count('class="fundamental"') == 1
    assert plain.count('class="contact"') == 0


def test_render_with_contacts_is_byte_stable():
    # the render_12_2.svg golden has no contact lines or sector wedge
    svg = render_svg(build_chp(12, 4), contacts=True, fundamental=True)
    digest = hashlib.sha256(svg.encode("utf-8")).hexdigest()
    assert digest == "2dfe6f0439220386ba246e4f85e416bc12ae7c9e1bbcc91a0d909610283afd18"


def test_render_prints_no_negative_zero():
    # a rounding residue's sign must not reach the document's bytes
    config = build_chp(12, 2)
    flipped = config.centers.copy()
    flipped[np.abs(flipped) < 1e-12] = -1e-17
    twin = PackingConfiguration(sigma=12, centers=flipped, diameter=config.diameter)
    svg = render_svg(twin, contacts=True, fundamental=True)
    assert "-0.00000000" not in svg
    assert svg == render_svg(config, contacts=True, fundamental=True)


def test_tables_repeated_sigma_is_tabled_once(capsys):
    code, once, _ = run_cli(["tables", "--sigma-list", "12", "--k-max", "2"], capsys)
    assert code == 0
    for repeated in ("12,12", "12,,12,12"):
        code, out, _ = run_cli(["tables", "--sigma-list", repeated, "--k-max", "2"], capsys)
        assert code == 0
        assert out == once


def test_validate_good_and_corrupt(tmp_path, capsys):
    good = tmp_path / "good.json"
    run_cli(["build", "--sigma", "12", "--k", "2", "-o", str(good)], capsys)
    code, out, _ = run_cli(["validate", "-i", str(good)], capsys)
    assert code == 0
    assert json.loads(out)["is_valid"] is True

    doc = json.loads(good.read_text())
    doc["centers"][4] = doc["centers"][3]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(["validate", "-i", str(bad)], capsys)
    assert code == 3
    assert json.loads(out)["is_valid"] is False


def _strict_json(text):
    """``json.loads`` that refuses NaN, Infinity and -Infinity, which are not JSON."""

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def test_validate_prints_strict_json_for_an_asymmetric_packing(tmp_path, capsys):
    # a packing without the pi/3 symmetry has an infinite residual, which the
    # report writes as null; the Python field stays inf
    path = tmp_path / "p.json"
    code, _, _ = run_cli(["pack", "--sigma", "12", "--n", "8", "--seed", "1", "-o", str(path)], capsys)
    assert code == 0
    code, out, err = run_cli(["validate", "-i", str(path)], capsys)
    assert (code, err) == (0, "")
    report = _strict_json(out)
    assert report["is_valid"] is True
    assert report["symmetry_residual"] is None
    assert validate_config(read_config(path)).symmetry_residual == math.inf


def test_validate_duplicated_disk_without_scipy(tmp_path):
    # two rotated centers share their nearest center: the residual is inf
    # without an assignment solver, and the report is strict JSON on stdout
    doc = json.loads(dumps_config(build_chp(12, 1)))
    origin = min(doc["centers"], key=lambda c: math.hypot(*c))
    doc["centers"].append(origin)
    doc["n_disks"] += 1
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    script = "import sys; sys.modules['scipy'] = None; from chp_pack.cli import main; sys.exit(main(['validate', '-i', sys.argv[1]]))"
    src = str(Path(chp_pack.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (3, "")
    report = _strict_json(proc.stdout)
    assert report["is_valid"] is False
    assert report["symmetry_residual"] is None
    assert report["min_distance"] == 0.0


def test_validate_centers_whose_differences_overflow(tmp_path):
    # finite centers 2e308 apart: no warning on stderr, and a strict-JSON
    # report whose minimum distance, past the largest float, is null
    doc = {"schema_version": "chp-pack/1", "sigma": 12, "n_disks": 2, "diameter": 0.5, "centers": [[1e308, 0.0], [-1e308, 0.0]]}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    script = "import sys; from chp_pack.cli import main; sys.exit(main(['validate', '-i', sys.argv[1]]))"
    src = str(Path(chp_pack.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (3, "")
    report = _strict_json(proc.stdout)
    assert report["is_valid"] is False
    assert report["min_distance"] is None
    # a pair among them still gets its distance
    doc["centers"] += [[0.0, 0.0], [0.5, 0.0]]
    doc["n_disks"] = 4
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (3, "")
    report = _strict_json(proc.stdout)
    assert report["min_distance"] == 0.5
    assert report["contact_count_histogram"] == {"0": 2, "1": 2}


def test_validate_and_shake_single_disk(tmp_path, capsys):
    one = tmp_path / "one.json"
    doc = {"schema_version": "chp-pack/1", "sigma": 12, "n_disks": 1, "diameter": 0.5, "centers": [[0.0, 0.0]]}
    one.write_text(json.dumps(doc))
    code, out, _ = run_cli(["validate", "-i", str(one)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["min_distance"] is None
    assert report["is_valid"] is True

    code, out, err = run_cli(["shake", "-i", str(one), "--trials", "1"], capsys)
    assert code == 3
    assert out == ""
    assert json.loads(err.splitlines()[-1])["error"] == "PreconditionViolated"


def test_sigma_list_messages_name_side_counts_only(capsys):
    # --sigma-list takes integer side counts, so neither refusal offers "circle"
    for bad_list in ("12,x", "0,12"):
        code, out, err = run_cli(["tables", "--sigma-list", bad_list], capsys)
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["error"] == "bad_arguments"
        assert f"expected comma-separated integer side counts >= 3, got {bad_list!r}" in doc["message"]
        assert "circle" not in doc["message"]


def test_exit_codes_and_error_json(tmp_path, capsys):
    code, _, err = run_cli(["count", "--sigma", "13", "--k", "2"], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "NotMultipleOfSix"

    code, _, err = run_cli(["count", "--sigma", "12"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "bad_arguments"

    for bad_list in ("12,x", "circle", "", "0,12"):
        code, _, err = run_cli(["tables", "--sigma-list", bad_list], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "bad_arguments"

    for args in (
        ["tables", "--k-max", "0"],
        ["tables", "--k-max", "-1"],
        ["tables", "--enumerate-limit", "-1"],
        ["enumerate", "--sigma", "12", "--k", "3", "--limit", "0"],
        ["enumerate", "--sigma", "12", "--k", "3", "--limit", "-1"],
        ["pack", "--sigma", "12", "--n", "1"],
        ["pack", "--sigma", "12", "--n", "3", "--trials", "0"],
        ["shake", "-i", str(tmp_path / "nope.json"), "--trials", "0"],
    ):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, ""), args
        assert json.loads(err)["error"] == "bad_arguments"

    for k in ("0", "-1"):
        code, _, err = run_cli(["density", "--sigma", "circle", "--k", k], capsys)
        assert code == 3
        assert json.loads(err)["error"] == "NoSolution"

    code, _, err = run_cli(["validate", "-i", str(tmp_path / "nope.json")], capsys)
    assert code == 2

    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    code, _, err = run_cli(["validate", "-i", str(bad)], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "ParseError"

    built = json.loads(dumps_config(build_chp(12, 1)))
    for doc in (
        dict(built, provenance={"theta": [0]}),
        dict(built, dna=5),
        dict(built, provenance={"seed": [1, 2]}),
    ):
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(["shake", "-i", str(bad), "-o", str(tmp_path / "out.json")], capsys)
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "ParseError"
    assert not (tmp_path / "out.json").exists()

    # a 401-digit integer for the diameter or a coordinate, and one of
    # 5,000 digits, past the interpreter's limit on parsing an integer
    for doc in (dict(built, diameter=10**400), dict(built, centers=[[0, 10**400]] * len(built["centers"]))):
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(["validate", "-i", str(bad)], capsys)
        assert code == 3
        assert err.count("\n") == 1 and json.loads(err)["error"] == "ParseError"
    bad.write_text(dumps_config(build_chp(12, 1)).replace('"diameter": ', '"diameter": ' + "9" * 5000 + ", \"was\": ", 1))
    code, _, err = run_cli(["validate", "-i", str(bad)], capsys)
    assert code == 3
    assert err.count("\n") == 1 and json.loads(err)["error"] == "ParseError"


def test_sigma_argument_names_the_rule(capsys):
    for bad in ("2", "abc", "-6"):
        code, out, err = run_cli(["pack", "--sigma", bad, "--n", "3"], capsys)
        assert (code, out) == (2, ""), bad
        doc = json.loads(err)
        assert doc["error"] == "bad_arguments"
        assert "argument --sigma: sigma must be an integer >= 3 or 'circle', got" in doc["message"], bad


def test_pack_validate_render_side_count_not_multiple_of_six(tmp_path, capsys):
    # a 15-gon container through configio, outside_by, project_into and svg
    path, svg_path = tmp_path / "p.json", tmp_path / "p.svg"
    code, _, _ = run_cli(["pack", "--sigma", "15", "--n", "7", "--seed", "1", "-o", str(path)], capsys)
    assert code == 0
    config = read_config(path)
    assert (config.sigma, config.n_disks) == (15, 7)
    assert dumps_config(config) == path.read_text()
    code, out, _ = run_cli(["validate", "-i", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["is_valid"] is True
    code, _, _ = run_cli(["render", "-i", str(path), "--fundamental", "--contacts", "-o", str(svg_path)], capsys)
    assert code == 0
    svg = svg_path.read_text()
    container = svg.split('<polygon class="container" points="')[1].split('"')[0]
    wedge = svg.split('<polygon class="fundamental" points="')[1].split('"')[0]
    assert (len(container.split()), len(wedge.split())) == (15, 15 // 6 + 3)
    assert svg.count('class="disk"') == 7


@pytest.mark.parametrize("sigma", [3, 4, 5, 9, 12, 15, 20, 36])
def test_fundamental_wedge_spans_sixty_degrees(sigma):
    # the wedge runs from the origin to P1 and on along the container to
    # the boundary point pi/3 further round, wherever that falls
    r = 0.05
    config = PackingConfiguration(sigma=sigma, centers=[(0.0, 0.0)], diameter=2 * r)
    svg = render_svg(config, fundamental=True)
    wedge = svg.split('<polygon class="fundamental" points="')[1].split('"')[0]
    pts = [tuple(map(float, p.split(","))) for p in wedge.split()]
    assert pts[0] == (0.0, 0.0)
    assert len(pts) >= 3
    start = math.atan2(pts[1][1], pts[1][0])
    end = math.atan2(pts[-1][1], pts[-1][0])
    assert (end - start) % (2 * math.pi) == pytest.approx(math.pi / 3, abs=1e-7)
    # the end lies on the drawn container, the polygon offset by r
    outer = chp_pack.geometry.circumradius(sigma, r)
    gap = chp_pack.geometry.outside_by(sigma, np.array([pts[-1]]) / outer)[0]
    assert abs(gap) < 1e-7


def test_pack_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(["pack", "--sigma", "12", "--n", "2", "--seed", "3", "-o", str(a)], capsys)
    run_cli(["pack", "--sigma", "12", "--n", "2", "--seed", "3", "-o", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()
    cfg = read_config(a)
    assert cfg.n_disks == 2


def test_shake_emits_trial_csv(tmp_path, capsys):
    src = tmp_path / "in.json"
    run_cli(["build", "--sigma", "12", "--k", "2", "-o", str(src)], capsys)
    code, out, _ = run_cli(["shake", "-i", str(src), "--trials", "3", "--pin", "border"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trial,lps,stop,density"
    # one row per trial, in order: the polish's LP count and stop reason, and
    # the density it reached, kept or not
    rows = [row.split(",") for row in lines[1:]]
    assert [row[0] for row in rows] == ["0", "1", "2"]
    for _, lps, stop, value in rows:
        assert int(lps) >= 1
        assert stop in ("converged", "stalled", "singular", "lp cap")
        assert 0.0 < float(value) < 0.92


def test_shake_border_pins_keep_their_rows(tmp_path, capsys):
    # the (12, 2) build is already densest and a guided start is not; either
    # way the border disks that --pin border freezes come back byte for byte
    built, start, out = tmp_path / "built.json", tmp_path / "start.json", tmp_path / "out.json"
    run_cli(["build", "--sigma", "12", "--k", "2", "-o", str(built)], capsys)
    start.write_text(dumps_config(seed_guided(12, 2, 0.12, 0.95)[0]))
    for src in (built, start):
        code, _, _ = run_cli(["shake", "-i", str(src), "--pin", "border", "--trials", "1", "-o", str(out)], capsys)
        assert code == 0
        before, after = read_config(src), read_config(out)
        pinned = np.flatnonzero(np.abs(outside_by(12, before.centers)) <= 1e-7)
        assert len(pinned) == 12
        assert after.centers[pinned].tobytes() == before.centers[pinned].tobytes()
        assert (after.centers.tobytes() == before.centers.tobytes()) == (src == built)


def test_config_round_trip_bitwise(tmp_path):
    config = build_chp(18, 3, "abc")
    text = dumps_config(config)
    back = loads_config(text)
    assert np.array_equal(back.centers, config.centers)
    assert back.diameter == config.diameter
    assert back.sigma == 18
    assert back.meta["dna"] == "abc"
    assert back.meta["mode"] == "deterministic"


def test_config_file_round_trip(tmp_path):
    config = build_chp(12, 2)
    p = tmp_path / "c.json"
    p.write_text(dumps_config(config), encoding="utf-8")
    again = read_config(p)
    assert np.array_equal(again.centers, config.centers)


def test_config_missing_dna_is_fine():
    config = build_chp(12, 2)
    doc = json.loads(dumps_config(config))
    doc.pop("dna", None)
    doc["provenance"] = {"mode": "algorithm1", "seed": 5}
    back = loads_config(json.dumps(doc))
    assert "dna" not in back.meta
    assert back.meta["seed"] == 5


def test_config_schema_mismatch():
    config = build_chp(12, 2)
    doc = json.loads(dumps_config(config))
    doc["schema_version"] = "chp-pack/2"
    with pytest.raises(SchemaMismatch):
        loads_config(json.dumps(doc))


def test_config_field_errors():
    config = build_chp(12, 2)
    doc = json.loads(dumps_config(config))
    doc["n_disks"] = 5
    with pytest.raises(ParseError) as info:
        loads_config(json.dumps(doc))
    assert "centers" in str(info.value)
    with pytest.raises(ParseError):
        loads_config("[1, 2, 3]")
    doc["n_disks"] = config.n_disks
    for field, value in (
        ("k", "x"),
        ("k", 2.5),
        ("k", True),
        ("k", 0),
        ("provenance", {"mode": 5}),
        ("provenance", []),
        ("dna", 5),
        ("dna", ["a", "b"]),
        # integers past the float range, and an infinite diameter
        ("diameter", 10**400),
        ("diameter", math.inf),
        ("centers", [[10**400, 0.0]] + doc["centers"][1:]),
    ):
        bad = dict(doc, **{field: value})
        with pytest.raises(ParseError) as info:
            loads_config(json.dumps(bad))
        assert field in str(info.value)
    for key, value in (
        ("mode", 3),
        ("seed", [1, 2]),
        ("seed", True),
        ("seed", 1.5),
        ("trial", "0"),
        ("theta", "x"),
        ("scale", False),
    ):
        bad = dict(doc, provenance={key: value})
        with pytest.raises(ParseError) as info:
            loads_config(json.dumps(bad))
        assert f"provenance.{key}" in str(info.value)
    good = dict(doc, provenance={"mode": "algorithm2", "seed": 3, "trial": 0, "theta": 0, "scale": 1.5, "params": None})
    assert loads_config(json.dumps(good)).meta["scale"] == 1.5


def test_provenance_cannot_override_checked_fields():
    # "dna" and "k" are not provenance keys: inside provenance they are
    # ignored, so the document written back keeps the checked top-level ones;
    # "params", which no command writes, is ignored like any unknown key
    doc = json.loads(dumps_config(build_chp("circle", 2)))
    for extra in ({"dna": 5}, {"k": 7}, {"k": "abc"}, {"params": 5}, {"params": {"s_final": 1000.0}}):
        odd = dict(doc, provenance=dict(doc["provenance"], **extra))
        config = loads_config(json.dumps(odd))
        assert "params" not in config.meta, extra
        assert json.loads(dumps_config(config)) == doc, extra


def test_circle_config_round_trip():
    config = build_chp("circle", 2)
    back = loads_config(dumps_config(config))
    assert back.sigma == "circle"


_WITHOUT_SCIPY = """
import sys

sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import chp_pack.cli
from chp_pack import CIRCLE, CountInput, OptimizerParams, algorithm1, algorithm2, build_chp, chp_density
from chp_pack import count_configurations, enumerate_dnas, extract_dna, seed_guided, solve_border, validate_config
from chp_pack.configio import dumps_config
from chp_pack.svg import render_svg

solve_border(48, 8)
enumerate_dnas(48, 8)
for sigma in (12, CIRCLE):
    count_configurations(CountInput.from_border(solve_border(sigma, 6)))
    chp_density(sigma, 6)
config = build_chp(12, 4)
dumps_config(config)
render_svg(config)
# the pair scans need no scipy at any size: 271 and 817 disks
for sigma, k in ((12, 9), (CIRCLE, 16)):
    config = build_chp(sigma, k)
    validate_config(config)
    extract_dna(config, sigma, k)
    render_svg(config, contacts=True)
params = OptimizerParams()
algorithm1(12, 7, params)
start, pins = seed_guided(12, 2, 0.1, 0.97)
algorithm2(start, params, pins)
# all ten subcommands through the CLI, writing into the directory named by argv[1]
built = sys.argv[1] + "/built.json"
for argv in (
    ["solve", "--sigma", "12", "--k", "4"],
    ["density", "--sigma", "12", "--k", "4"],
    ["count", "--sigma", "12", "--k", "4"],
    ["enumerate", "--sigma", "12", "--k", "4"],
    ["tables", "-o", sys.argv[1] + "/tables.csv"],
    ["build", "--sigma", "12", "--k", "2", "-o", built],
    ["validate", "-i", built],
    ["render", "-i", built, "--contacts", "-o", sys.argv[1] + "/built.svg"],
    ["pack", "--sigma", "12", "--n", "7", "--seed", "1", "-o", sys.argv[1] + "/packed.json"],
    ["shake", "-i", built, "--pin", "border", "--trials", "1", "-o", sys.argv[1] + "/shaken.json"],
):
    assert chp_pack.cli.main(argv) == 0, argv
"""


def test_tables_counts_builds_and_searches_run_without_scipy(tmp_path):
    # the runtime needs numpy alone: the package, the CLI and every pair
    # scan must run with scipy blocked
    src = str(Path(chp_pack.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
