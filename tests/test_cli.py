import contextlib
import io
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residue_lab import cli, oracles
from residue_lab._util import ConfigError
from residue_lab.manifold import shapes


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def shape_file(tmp_path, doc, name="shape.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_beta_circle_csv(tmp_path, capsys):
    cfg = shape_file(tmp_path, {"kind": "circle", "params": {"r": 1.0}})
    code, out = run_cli(["--cmd", "beta", "--shape", cfg, "--z", "1,0,-0.5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z,re_value,im_value,method,note"
    vals = {float(ln.split(",")[0]): float(ln.split(",")[1]) for ln in lines[1:]}
    assert vals[1.0] == pytest.approx(16 * math.pi, rel=1e-9)
    assert vals[0.0] == pytest.approx(4 * math.pi ** 2, rel=1e-9)
    assert vals[-0.5] == pytest.approx(oracles.beta_sphere(2, -0.5).real, rel=1e-9)


def test_beta_pole_row_reports_residue(tmp_path, capsys):
    cfg = shape_file(tmp_path, {"kind": "circle", "params": {"r": 1.0}})
    code, out = run_cli(["--cmd", "beta", "--shape", cfg, "--z", "-1"], capsys)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(4 * math.pi, rel=1e-9)
    assert "pole@-1" in row[4]


def test_beta_ball_inline_shape(capsys):
    code, out = run_cli(["--cmd", "beta",
                         "--shape", '{"kind": "ball", "params": {"n": 3}}',
                         "--z", "0"], capsys)
    assert code == 0
    val = float(out.strip().splitlines()[1].split(",")[1])
    assert val == pytest.approx((4 * math.pi / 3) ** 2, rel=1e-9)


def test_residues_command_ball(tmp_path, capsys):
    cfg = shape_file(tmp_path, {"kind": "ball", "params": {"n": 3, "r": 1.0}})
    code, out = run_cli(["--cmd", "residues", "--shape", cfg, "--order", "24"], capsys)
    assert code == 0
    assert out.startswith("RESIDUE-REPORT 1")
    assert "residue -3 " in out
    rows = {ln.split()[1]: float(ln.split()[2]) for ln in out.splitlines()
            if ln.startswith("residue ")}
    assert rows["-3"] == pytest.approx(16 * math.pi ** 2 / 3, rel=1e-9)


def test_residues_command_five_sphere_reports_real_errors(capsys):
    # one frame per rotation orbit; each error is the spread to order + 4
    code, out = run_cli(["--cmd", "residues", "--shape",
                         '{"kind": "sphere", "params": {"m": 5}}'], capsys)
    assert code == 0 and "nan" not in out
    rows = {ln.split()[1]: [float(t) for t in ln.split()[2:5:2]]
            for ln in out.splitlines() if ln.startswith("residue ")}
    o4, o5 = oracles.sphere_volume(4), oracles.sphere_volume(5)
    assert rows["-5"][0] == pytest.approx(o4 * o5, rel=1e-12)
    assert rows["-7"][0] == pytest.approx(o4 / 40.0 * (10.0 - 25.0) * o5, rel=1e-12)
    assert all(0.0 <= err <= 1e-10 for _, err in rows.values())


def test_residues_command_polygon(tmp_path, capsys):
    cfg = shape_file(tmp_path, {
        "kind": "polygon_knot",
        "params": {"vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]}})
    code, out = run_cli(["--cmd", "residues", "--shape", cfg], capsys)
    assert code == 0
    rows = {ln.split()[1]: float(ln.split()[2]) for ln in out.splitlines()
            if ln.startswith("residue ")}
    assert rows["-1"] == 8.0
    assert rows["-2"] == pytest.approx(-8 + 4 * math.pi, rel=1e-12)


def test_gw_command(tmp_path, capsys):
    cfg = shape_file(tmp_path, {"kind": "sphere", "params": {"m": 4, "r": 1.0}})
    code, out = run_cli(["--cmd", "gw", "--shape", cfg, "--order", "32"], capsys)
    assert code == 0
    rows = dict(ln.split(" ", 1) for ln in out.strip().splitlines())
    assert float(rows["gw"]) == pytest.approx(math.pi ** 2, rel=1e-9)
    assert abs(float(rows["identity_residual"])) < 1e-9


def test_sweep_determinism_and_round_minimum(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["--cmd", "sweep", "--sweep", "0.8:1.2:0.2", "--order", "24"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2), "--workers", "3"]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    lines = b1.decode().strip().splitlines()
    assert lines[0] == "a,gw,r8,r8_nu"
    row1 = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert float(row1["a"]) == 1.0
    assert float(row1["gw"]) == pytest.approx(math.pi ** 2, rel=1e-8)
    assert abs(float(row1["r8"])) < 1e-8
    assert float(row1["r8_nu"]) == pytest.approx(2 * math.pi ** 4 / 3, rel=1e-8)


def test_config_error_exit_code(tmp_path, capsys):
    cfg = shape_file(tmp_path, {"kind": "dodecahedron"})
    code, _ = run_cli(["--cmd", "beta", "--shape", cfg], capsys)
    assert code == 2
    cfg2 = shape_file(tmp_path, {"kind": "circle", "frobnicate": 1}, "bad2.json")
    code2, _ = run_cli(["--cmd", "beta", "--shape", cfg2], capsys)
    assert code2 == 2
    code3, _ = run_cli(["--cmd", "beta", "--shape", "/nonexistent.json"], capsys)
    assert code3 == 2


def test_numeric_error_exit_code(tmp_path, capsys):
    cfg = shape_file(tmp_path, {"kind": "ellipse", "params": {"a": 1.0, "b": 0.6}})
    code, _ = run_cli(["--cmd", "beta", "--shape", cfg, "--delta", "5.0"], capsys)
    assert code == 3


def test_torus_beta_at_a_small_delta(capsys):
    # the ramp of the cut (0.05, 0.2) would need ~3e8 orbit-row pairs to
    # resolve; the pair grid shrinks to its budget instead
    code, out = run_cli(["--cmd", "beta", "--shape",
                         '{"kind": "torus", "params": {"R": 2, "r": 1}}',
                         "--delta", "0.2", "--z", "0,-3"], capsys)
    assert code == 0
    vals = {float(ln.split(",")[0]): float(ln.split(",")[1])
            for ln in out.strip().splitlines()[1:]}
    assert vals[0.0] == pytest.approx((4 * math.pi ** 2 * 2.0) ** 2, rel=1e-6)   # vol^2
    assert vals[-3.0] == pytest.approx(19.398, rel=5e-3)   # converged in the cut and grid


def test_beta_report_format(tmp_path, capsys):
    cfg = shape_file(tmp_path, {"kind": "circle", "params": {"r": 1.0}})
    code, out = run_cli(["--cmd", "beta", "--shape", cfg, "--z", "1",
                         "--format", "report"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("beta[1] ")


def test_bad_workers_env_is_config_error(monkeypatch, capsys):
    monkeypatch.setenv("RESIDUE_LAB_WORKERS", "abc")
    code = cli.main(["--cmd", "beta", "--shape", '{"kind": "circle"}', "--z", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err and "RESIDUE_LAB_WORKERS" in captured.err
    # an explicit --workers overrides the environment
    assert cli.main(["--cmd", "beta", "--shape", '{"kind": "circle"}', "--z", "1",
                     "--workers", "1"]) == 0


def test_patches_key_is_rejected(tmp_path, capsys):
    cfg = shape_file(tmp_path, {"kind": "circle", "params": {"r": 1.0}, "patches": 2})
    assert cli.main(["--cmd", "beta", "--shape", cfg]) == 2
    assert "unknown shape config keys: ['patches']" in capsys.readouterr().err


def test_shape_params_pass_by_keyword(capsys):
    # a subset of params keeps its names: r alone is the torus minor radius
    base = ["--cmd", "residues", "--order", "16", "--shape"]
    code, out = run_cli(base + ['{"kind": "torus", "params": {"r": 0.5}}'], capsys)
    assert code == 0
    assert run_cli(base + ['{"kind": "torus", "params": {"R": 2.0, "r": 0.5}}'],
                   capsys) == (0, out)
    # the CLI output is symmetric in r1, r2, so the spec is checked directly
    spec = shapes.from_config({"kind": "clifford_torus", "params": {"r2": 2}})
    assert spec.params == {"r1": 1.0, "r2": 2.0}


@pytest.mark.parametrize("shape", [
    '{"kind": "sphere", "params": {"r": 2}}',
    '{"kind": "ellipsoid"}',
    '{"kind": "circle", "params": {"r": "abc"}}',
    '{"kind": "circle", "params": {"r": 1e400}}',
    '{"kind": "sphere", "params": {"m": 2.5}}',
    '{"kind": "ellipsoid", "params": {"semiaxes": ["a", 1, 1]}}',
    '{"kind": "polygon_knot", "params": {"vertices": [[0, 0], [1, 0], [0, 1]]}}',
    '{"kind": "circle", "params": {"r": -1}}',
    '{"kind": "ball", "params": {"n": 3, "r": 0}}',
    '{"kind": "ellipse", "params": {"a": -1, "b": 0.6}}',
    '{"kind": "sphere", "params": {"m": 2, "r": -0.5}}',
    '{"kind": "spheroid", "params": {"a": 0}}',
    '{"kind": "ellipsoid", "params": {"semiaxes": [1, -1.3, 0.8]}}',
    '{"kind": "ellipsoid_body", "params": {"semiaxes": [1, 1.3, 0]}}',
    '{"kind": "clifford_torus", "params": {"r1": 1, "r2": -2}}',
    '{"kind": "polygon_knot", "params": {"vertices": [[0, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0]]}}',
    '{"kind": "polygon_knot", "params": {"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 0]]}}',
])
def test_bad_shape_params_are_config_errors(shape, capsys):
    code = cli.main(["--cmd", "beta", "--shape", shape, "--z", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("shape", [
    '{"kind": "sphere", "params": {"m": 1000000000}}',
    '{"kind": "sphere", "params": {"m": 65}}',
    '{"kind": "ball", "params": {"n": 1000000000}}',
])
def test_dimensions_above_the_bound_are_config_errors(shape, capsys):
    # a dimension is checked before anything of that size is built
    assert cli.main(["--cmd", "beta", "--shape", shape, "--z", "1"]) == 2
    assert f"an integer from 1 to {shapes.MAX_DIMENSION}" in capsys.readouterr().err


def test_the_largest_sphere_dimension_runs(capsys):
    code, out = run_cli(["--cmd", "beta", "--shape",
                         '{"kind": "sphere", "params": {"m": 64}}', "--z", "1"], capsys)
    assert code == 0 and len(out.splitlines()) == 2


@pytest.mark.parametrize("z", ["nan", "inf", "1,-inf"])
def test_nonfinite_z_is_config_error(z, capsys):
    code = cli.main(["--cmd", "beta", "--shape", '{"kind": "circle"}', "--z", z])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


def test_z_list_with_a_leading_negative_number_in_two_tokens(capsys):
    base = ["--cmd", "beta", "--shape", '{"kind": "circle"}']
    assert run_cli(base + ["--z", "-2,-3"], capsys) == run_cli(base + ["--z=-2,-3"], capsys)
    code, out = run_cli(base + ["--z=-2,-3"], capsys)
    assert code == 0 and len(out.splitlines()) == 3
    assert cli.main(base + ["--z", "--cmd", "beta"]) == 2
    assert cli.main(base + ["--z"]) == 2


_VALUES = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 6),
                    st.booleans(), st.none(), st.text(max_size=3),
                    st.lists(st.floats(-3, 3), max_size=5),
                    st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=4),
                             max_size=5))
_PARAM_NAMES = ["r", "a", "b", "m", "n", "R", "r1", "r2", "semiaxes", "vertices", "x"]


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(shapes._BUILTINS) + ["cube", ""]),
       params=st.dictionaries(st.sampled_from(_PARAM_NAMES), _VALUES, max_size=3))
def test_from_config_gives_a_spec_or_a_config_error(kind, params):
    # builds specs only; every malformed input must be a ConfigError
    try:
        spec = shapes.from_config({"kind": kind, "params": params})
    except ConfigError:
        return
    assert isinstance(spec, shapes.ManifoldSpec)



_CIRCLE = '{"kind": "circle", "params": {"r": 1.0}}'
_ELLIPSE = '{"kind": "ellipse", "params": {"a": 1.0, "b": 0.6}}'


@pytest.mark.parametrize("argv", [
    ["--cmd", "beta", "--shape", _ELLIPSE, "--order", "1"],
    ["--cmd", "beta", "--shape", _ELLIPSE, "--fit-degree", "0"],
    ["--cmd", "beta", "--shape", _ELLIPSE, "--delta", "0"],
    ["--cmd", "beta", "--shape", _ELLIPSE, "--delta", "nan"],
    ["--cmd", "gw", "--shape", '{"kind": "spheroid", "params": {"a": 1.5}}', "--order", "0"],
    ["--cmd", "beta", "--shape", _CIRCLE, "--order", "-3"],
    ["--cmd", "beta", "--shape", _CIRCLE, "--workers", "0"],
], ids=lambda argv: " ".join(argv[-2:]))
def test_out_of_range_numeric_flags_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_zero_workers_env_is_config_error(monkeypatch, capsys):
    monkeypatch.setenv("RESIDUE_LAB_WORKERS", "0")
    assert cli.main(["--cmd", "beta", "--shape", _CIRCLE, "--z", "1"]) == 2
    assert "RESIDUE_LAB_WORKERS must be >= 1" in capsys.readouterr().err


_SQUARE = '{"kind": "polygon_knot", "params": {"vertices": [[0,0,0],[1,0,0],[1,1,0],[0,1,0]]}}'
_CHEAP_SHAPES = [_CIRCLE, '{"kind": "sphere", "params": {"m": 2}}',
                 '{"kind": "ball", "params": {"n": 3}}', _SQUARE]
_MALFORMED = ["", "-", "--", "nan", "-inf", "1e400", "-1", "0", "abc", ",", "1,,a", "x:y",
              "0:inf:1", "nan:1:1", "1:0:1", "{", "{}", "[1]", '{"kind": "circle", "params": [1]}',
              '{"kind": "circle", "params": "ab"}', '{"kind": "cube"}', ".", "/",
              "/nonexistent/shape.json", "--bogus", "--z", "--order", "--shape", "--cmd",
              "--out", "verify-not"]
_OPTIONS = {
    "--shape": st.one_of(st.sampled_from(_CHEAP_SHAPES), st.sampled_from(_MALFORMED)),
    "--z": st.one_of(st.sampled_from(["1", "-2,-3", "-1", "0,-0.5", "1e308", "-1e308", "2.5,-4"]),
                     st.lists(st.floats(-6, 3), min_size=1, max_size=3).map(
                         lambda zs: ",".join(map(repr, zs)))),
    "--weight": st.sampled_from(["one", "nu", "normal-product", "relative-boundary",
                                 "relative-boundary-flipped", "custom"]),
    "--order": st.sampled_from(["2", "3", "4", "6", "1", "0", "-3", "x", "1e9"]),
    "--delta": st.sampled_from(["0.05", "0.2", "0.5", "5", "1e-300", "0", "-1", "nan", "inf"]),
    "--fit-degree": st.sampled_from(["1", "2", "3", "6", "0", "-1", "y"]),
    "--format": st.sampled_from(["csv", "report", "xml"]),
    "--workers": st.sampled_from(["1", "2", "0", "z"]),
    "--sweep": st.sampled_from(["1:1:1", "0.8:1.2:0.4", "-1:1:1", "0:1:0", "2:1:1"]),
    "--out": st.sampled_from(["/nonexistent/dir/out.csv", "."]),
}


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["beta", "residues", "gw", "sweep", "bogus"]))
    argv = ["--cmd", cmd]
    flags = draw(st.lists(st.sampled_from(sorted(_OPTIONS)), max_size=4, unique=True))
    if "--shape" not in flags and draw(st.integers(0, 4)):
        flags.append("--shape")
    for flag in flags:
        argv += [flag, draw(_OPTIONS[flag])]
    if cmd in ("residues", "gw", "sweep") and "--order" not in argv:
        argv += ["--order", draw(st.sampled_from(["2", "4"]))]    # keep the run cheap
    if cmd == "sweep" and "--sweep" not in argv:
        argv += ["--sweep", "1:1:1"]
    for token in draw(st.lists(st.sampled_from(_MALFORMED), max_size=1)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_argv())
def test_cli_exits_0_2_or_3_without_a_traceback(argv):
    # every argv list maps to a documented exit code; an exception escaping
    # main() would be a traceback
    saved = os.environ.get("RESIDUE_LAB_WORKERS")
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        if saved is None:
            os.environ.pop("RESIDUE_LAB_WORKERS", None)
        else:
            os.environ["RESIDUE_LAB_WORKERS"] = saved
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv, code", [
    (["--cmd", "beta", "--shape", "{bad"], 2),
    (["--cmd", "beta", "--shape", "."], 2),
    (["--cmd", "beta", "--shape", '{"kind": "circle", "params": [1]}'], 2),
    (["--cmd", "beta", "--shape", _CIRCLE, "--out", "/nonexistent/dir/out.csv"], 2),
    (["--cmd", "sweep", "--sweep", "0:inf:1"], 2),
    (["--cmd", "sweep", "--sweep", "nan:1:1"], 2),
    (["--cmd", "sweep", "--sweep", "0:1:1e-12"], 2),
    (["--cmd", "beta", "--shape", _CIRCLE, "--delta", "1e-300"], 3),
    (["--cmd", "beta", "--shape", _CIRCLE, "--delta", "1e-300", "--fit-degree", "1",
      "--z", "-5.5"], 3),
    (["--cmd", "beta", "--shape", '{"kind": "torus", "params": {"R": 2, "r": 1}}',
      "--delta", "5e-324"], 3),
    (["--cmd", "beta", "--shape", _CIRCLE, "--z", "1e308"], 3),
    (["--cmd", "beta", "--shape", '{"kind": "ball", "params": {"n": 3}}', "--z", "1e308"], 3),
], ids=lambda v: " ".join(v[-2:]) if isinstance(v, list) else str(v))
def test_inputs_that_gave_tracebacks_or_nan(argv, code, capsys):
    # each of these raised a traceback or printed a nan row
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "nan" not in captured.out


def test_torus_residues_take_the_periodic_rule(capsys):
    # midpoint rows in theta integrate the periodic curvature integrand to
    # the rounding floor (Gauss rows left 2e-10 at order 32)
    R, r = 2.0, 1.0
    code, out = run_cli(["--cmd", "residues", "--shape",
                         json.dumps({"kind": "torus", "params": {"R": R, "r": r}}),
                         "--order", "32"], capsys)
    assert code == 0
    rows = {float(tok[1]): (float(tok[2]), float(tok[4])) for tok in
            (line.split() for line in out.splitlines()) if tok[0] == "residue"}
    value, err = rows[-4.0]
    exact = math.pi ** 3 * R * R / (2 * r * math.sqrt(R * R - r * r))
    assert abs(value / exact - 1.0) <= 1e-13
    assert err <= 1e-12


def test_frames_too_large_to_build_exit_3(capsys, monkeypatch):
    # an order-2 frame of sphere(16) needs 561 coefficient products per
    # series; no CLI shape reaches the real bound (sphere(64) needs 8,385),
    # so the bound is lowered to just below sphere(16)'s table
    import time
    from residue_lab.manifold import series
    monkeypatch.setattr(series, "MAX_COEFFS", 560)
    t0 = time.perf_counter()
    code = cli.main(["--cmd", "residues", "--shape", '{"kind": "sphere", "params": {"m": 16}}'])
    assert code == 3 and time.perf_counter() - t0 < 5.0
    assert "coefficients" in capsys.readouterr().err


def test_residues_of_sphere16_match_the_closed_forms(tmp_path):
    # R(-m) = o_{m-1} Vol(S^m) and R(-m-2) = (o_{m-1} / 8m)(2m - m^2) Vol(S^m)
    out = tmp_path / "r.txt"
    code = cli.main(["--cmd", "residues", "--shape", '{"kind": "sphere", "params": {"m": 16}}',
                     "--out", str(out)])
    assert code == 0
    got = {float(line.split()[1]): float(line.split()[2])
           for line in out.read_text().splitlines() if line.startswith("residue ")}
    o15, vol = oracles.sphere_volume(15), oracles.sphere_volume(16)
    want = {-16.0: o15 * vol, -18.0: o15 / 128.0 * (32.0 - 256.0) * vol}
    assert set(got) == set(want)
    for pole, value in want.items():
        assert abs(got[pole] / value - 1.0) <= 1e-12


# --cmd beta output of the closed-form round profiles
_ROUND_BETA = {
    "sphere2": """z,re_value,im_value,method,note
1,210.55156055657213,0,profile,
0,157.91367041742916,0,profile,
-0.5,148.88243625896234,0,profile,
-1.5,223.32365438844462,0,profile,
-2.5,-111.66182719421704,0,profile,
-1,157.91367041742959,0,profile,
-2,78.956835208714836,0,profile,pole@-2;finite_part=54.7287077108586
-3,-39.478417604344145,0,profile,
-4,1.1367920911588752e-11,0,profile,pole@-4;finite_part=-9.8696044010484911
""",
    "circle": """z,re_value,im_value,method,note
1,50.265482457436661,0,profile,
0,39.478417604357446,0,profile,
-0.5,46.597979083335034,0,profile,
-1.5,-10.646393612861942,0,profile,
-2.5,3.8831649233666212,0,profile,
-1,12.566370614359567,0,profile,pole@-1;finite_part=17.420688722427329
-2,-3.0269120543380268e-11,0,profile,
-3,1.5707963262526095,0,profile,pole@-3;finite_part=1.3921879285667842
-4,1.4899796951794997e-08,0,profile,
""",
    "ball3": """z,re_value,im_value,method,note
1,18.047276619134735,-0,boundary-reduction,
0,17.54596337971433,-0,boundary-reduction,
-0.5,18.561966079039415,-0,boundary-reduction,
-1.5,26.467988668259856,-0,boundary-reduction,
-2.5,85.075677862264925,0,boundary-reduction,
-1,21.055156055657179,-0,boundary-reduction,
-2,39.478417604357674,0,boundary-reduction,
-3,52.637890139143678,0,boundary-reduction,pole@-3;finite_part=-33.698048378286799
-4,-39.478417604357659,0,boundary-reduction,pole@-4;finite_part=-47.103562657608485
""",
}
_ROUND_SHAPES = {"sphere2": '{"kind": "sphere", "params": {"m": 2}}', "circle": _CIRCLE,
                 "ball3": '{"kind": "ball", "params": {"n": 3}}'}


@pytest.mark.parametrize("name", sorted(_ROUND_BETA))
def test_round_shape_beta_output_is_unchanged(name, capsys):
    code, out = run_cli(["--cmd", "beta", "--shape", _ROUND_SHAPES[name],
                         "--z", "1,0,-0.5,-1.5,-2.5,-1,-2,-3,-4"], capsys)
    assert code == 0 and out == _ROUND_BETA[name]


def test_residues_order_flag_reaches_the_z_minus_8_row(capsys):
    # a generic 4-D ellipsoid takes the tensor grid: at --order 4 the z = -8
    # row integrates 4^4 frames, not 48^4
    import time
    t0 = time.perf_counter()
    code, out = run_cli(["--cmd", "residues", "--order", "4", "--shape",
                         '{"kind": "ellipsoid", "params": {"semiaxes": [1, 1.2, 0.9, 1.1, 1.3]}}'],
                        capsys)
    assert code == 0 and time.perf_counter() - t0 < 30.0
    rows = [ln.split() for ln in out.splitlines() if ln.startswith("residue ")]
    assert [r[1] for r in rows] == ["-4", "-6", "-8"]
    assert all(math.isfinite(float(r[2])) and math.isfinite(float(r[4])) for r in rows)


def test_beta_on_the_clifford_torus(capsys):
    # codimension 2: the near zone solves its caps along parameter rays. At
    # z = 0 the energy is vol^2; the order-16 pair grid is 0.2% off it
    code, out = run_cli(["--cmd", "beta", "--order", "16", "--z", "0", "--shape",
                         '{"kind": "clifford_torus", "params": {"r1": 1, "r2": 1}}'], capsys)
    assert code == 0
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(
        (4 * math.pi ** 2) ** 2, rel=5e-3)


def test_the_runtime_does_not_import_scipy():
    import subprocess
    import sys
    code = "import sys, residue_lab.cli, residue_lab.mobius; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "False"
