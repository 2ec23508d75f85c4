"""CLI behaviour: formats, determinism, schemas, exit codes."""

import json
import math
import os
import struct

import numpy as np
import pytest

import jsonschema

from conftest import soliton_grid
from varjet import cli
from varjet.cli import main
from varjet.numeric import GridFunction, save_grid

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "schemas")

KDV_PROBLEM = """\
# KdV potential form
independents = t x
dependents = u
lagrangian = u_x^3 - 1/2*u_x*u_t + 1/2*u_xx^2
order = 2
rho = 0; u^2
"""

ZERO_PROBLEM = """\
independents = x
dependents = u
lagrangian = 0
order = 1
"""

WAVE_PROBLEM = """\
independents = t x
dependents = u
lagrangian = 1/2*u_t^2 - 1/2*u_x^2
order = 1
"""


def schema(name):
    with open(os.path.join(SCHEMA_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def kdv_problem(tmp_path):
    path = tmp_path / "kdv.problem"
    path.write_text(KDV_PROBLEM)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_el_plain_golden(capsys, kdv_problem):
    code, out, _ = run(capsys, "el", kdv_problem)
    assert code == 0
    assert out == "u_tx - 6*u_x*u_xx + u_xxxx = 0\n"


def test_el_zero_lagrangian(capsys, tmp_path):
    path = tmp_path / "zero.problem"
    path.write_text(ZERO_PROBLEM)
    code, out, _ = run(capsys, "el", str(path))
    assert code == 0
    assert out == "0 = 0\n"


def test_hessian_json(capsys, kdv_problem):
    code, out, _ = run(capsys, "hessian", kdv_problem, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 3 and data["rank"] == 1 and data["regular"] is False
    jsonschema.validate(data, schema("hessian.schema.json"))


def test_elh_json_schema(capsys, kdv_problem):
    code, out, _ = run(capsys, "elh", kdv_problem, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["equations"]) == 12
    jsonschema.validate(data, schema("equation_system.schema.json"))


def test_el_json_schema(capsys, kdv_problem):
    code, out, _ = run(capsys, "el", kdv_problem, "--format", "json")
    jsonschema.validate(json.loads(out), schema("cartan_form.schema.json"))


def test_legendre_json_schema(capsys, kdv_problem):
    code, out, _ = run(capsys, "legendre", kdv_problem, "--format", "json")
    data = json.loads(out)
    jsonschema.validate(data, schema("legendre_form.schema.json"))
    by_key = {(e["alpha"], tuple(e["I"]), e["i"]): e["coeff"] for e in data}
    assert by_key[(1, (2,), 2)] == "u_xx"


def test_reduce_json_schema_and_diagnosis(capsys, kdv_problem):
    code, out, _ = run(capsys, "reduce", kdv_problem, "--format", "json")
    assert code == 0  # diagnosed non-regularity is success
    data = json.loads(out)
    jsonschema.validate(data, schema("reduced_system.schema.json"))
    assert data["diagnosis"] == "reducible"
    assert data["substitutions"]["u_xx"] == "p_x.x"


def test_constraints_plain(capsys, kdv_problem):
    code, out, _ = run(capsys, "constraints", kdv_problem)
    assert code == 0
    assert "p_x.x" in out and out.count("=") == 3


def test_energy_latex_runs(capsys, kdv_problem):
    code, out, _ = run(capsys, "energy", kdv_problem, "--format", "latex")
    assert code == 0 and "\\frac{1}{2}" in out


def test_shift_uses_problem_rho(capsys, kdv_problem, tmp_path):
    code, out, _ = run(capsys, "shift", kdv_problem)
    assert code == 0
    code2, out2, _ = run(capsys, "shift", kdv_problem, "--rho", "0; u^2")
    assert out2 == out
    code3, out3, _ = run(capsys, "shift", kdv_problem, "--rho", "0; 0")
    elh = run(capsys, "elh", kdv_problem)[1]
    assert out3 == elh  # zero shift is the identity


def test_prolong_default_el(capsys, kdv_problem):
    code, out, _ = run(capsys, "prolong", kdv_problem, "--level", "0")
    assert code == 0
    assert out == "el:u: u_tx - 6*u_x*u_xx + u_xxxx = 0\n"


def test_prolong_lifts_order_bound_by_level(capsys, kdv_problem):
    # prolonging the 4th-order EL equation needs 5th jets; the explicit
    # --level lifts the bound by exactly that much
    code, out, _ = run(capsys, "prolong", kdv_problem, "--level", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3 and "u_xxxxx" in lines[2]


def test_prolong_system_file(capsys, tmp_path, kdv_problem):
    sysfile = tmp_path / "system.json"
    sysfile.write_text(json.dumps({
        "unknowns": ["u_x"],
        "equations": [{"label": "eq", "residual": "u_x"}],
    }))
    code, out, _ = run(capsys, "prolong", kdv_problem, "--system", str(sysfile),
                       "--level", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eq: u_x = 0"
    assert set(lines[1:]) == {"eq|t: u_tx = 0", "eq|x: u_xx = 0"}


def test_check_solution_el(capsys, tmp_path, kdv_problem):
    n, box = 192, 10.0
    t = np.linspace(-box, box, n)
    x = np.linspace(-box, box, n)
    T, X = np.meshgrid(t, x, indexing="ij")
    grid = GridFunction(("t", "x"), (t[0], x[0]), (t[1] - t[0], x[1] - x[0]),
                        {"u": -np.tanh((X - T) / 2)})
    gridfile = tmp_path / "soliton.grid"
    save_grid(grid, str(gridfile))
    code, out, _ = run(capsys, "check-solution", kdv_problem,
                       "--grid", str(gridfile), "--format", "json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, schema("residual_report.schema.json"))
    assert data["equations"][0]["max_abs"] <= 1e-3

    code, out, _ = run(capsys, "check-solution", kdv_problem,
                       "--grid", str(gridfile), "--system", "constraints")
    assert code == 0
    assert all(float(line.split()[-1]) <= 1e-10 for line in out.strip().splitlines())


def test_check_solution_hdw_and_elh(capsys, tmp_path):
    # u = sin(x - t) solves the wave equation; HDW and ELH residuals are
    # discretization-limited with momenta generated from the Legendre form
    path = tmp_path / "wave.problem"
    path.write_text(WAVE_PROBLEM)
    n = 160
    t = np.linspace(-3, 3, n)
    x = np.linspace(-3, 3, n)
    T, X = np.meshgrid(t, x, indexing="ij")
    grid = GridFunction(("t", "x"), (t[0], x[0]), (t[1] - t[0], x[1] - x[0]),
                        {"u": np.sin(X - T)})
    gridfile = tmp_path / "wave.grid"
    save_grid(grid, str(gridfile))
    for system in ("hdw", "elh"):
        code, out, _ = run(capsys, "check-solution", str(path),
                           "--grid", str(gridfile), "--system", system,
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["equations"] and all(e["max_abs"] <= 1e-6
                                         for e in data["equations"])


def test_check_solution_hdw_reads_rank_sampling(capsys, tmp_path, monkeypatch):
    # the reduction behind --system hdw samples the Hessian rank like `reduce`:
    # --rank-samples/--seed first, then the problem file's values
    path = tmp_path / "wave.problem"
    path.write_text(WAVE_PROBLEM + "seed = 7\nrank_samples = 3\n")
    n = 48
    t = np.linspace(-3, 3, n)
    x = np.linspace(-3, 3, n)
    T, X = np.meshgrid(t, x, indexing="ij")
    gridfile = tmp_path / "wave.grid"
    save_grid(GridFunction(("t", "x"), (t[0], x[0]), (t[1] - t[0], x[1] - x[0]),
                           {"u": np.sin(X - T)}), str(gridfile))
    argv = ["check-solution", str(path), "--grid", str(gridfile), "--system", "hdw"]
    plain = run(capsys, *argv)
    calls = []
    real = cli.reduce_lagrangian

    def recording(lag, *, samples=5, seed=0):
        calls.append((samples, seed))
        return real(lag, samples=samples, seed=seed)

    monkeypatch.setattr(cli, "reduce_lagrangian", recording)
    assert run(capsys, *argv) == plain
    assert run(capsys, *argv, "--seed", "2", "--rank-samples", "4") == plain
    assert calls == [(3, 7), (4, 2)]
    assert plain[0] == 0


@pytest.mark.parametrize("changes", [
    {}, {"axes": ("a", "b")}, {"origin": (100.0, 100.0)}, {"spacing": (7.0, 7.0)},
    {"axes": ("a", "b"), "origin": (100.0, 100.0), "spacing": (7.0, 7.0)},
], ids=["same", "axes", "origin", "spacing", "all"])
def test_check_solution_momentum_grid_sits_on_the_field_grid(capsys, tmp_path, kdv_problem,
                                                              changes):
    # axes, origin and spacing must equal the field grid's exactly, after both
    # went through the grid file's JSON header; the first mismatch is named
    field = soliton_grid(64, 64, box=8.0)
    save_grid(field, str(tmp_path / "u.grid"))
    geometry = {"axes": field.axes, "origin": field.origin, "spacing": field.spacing}
    save_grid(GridFunction(**{**geometry, **changes}, fields={"p_.t": np.zeros(field.shape)}),
              str(tmp_path / "p.grid"))
    code, out, err = run(capsys, "check-solution", kdv_problem, "--system", "elh",
                         "--grid", str(tmp_path / "u.grid"), "--momenta", str(tmp_path / "p.grid"))
    if not changes:
        assert code == 0 and out and err == ""
        return
    what = next(k for k in geometry if k in changes)
    assert (code, out) == (1, "")
    assert err == (f"varjet: momentum grid has {what} {changes[what]}, "
                   f"the field grid {geometry[what]}\n")


def test_parser_reuse_keeps_no_option_values(capsys, kdv_problem):
    # the parser is built once per process; a later call must not see the
    # option values of an earlier one
    cli.build_parser.cache_clear()
    fresh = run(capsys, "hessian", kdv_problem, "--format", "json")
    seeded = run(capsys, "hessian", kdv_problem, "--format", "json",
                 "--seed", "3", "--rank-samples", "2")
    again = run(capsys, "hessian", kdv_problem, "--format", "json")
    assert cli.build_parser() is cli.build_parser()
    assert again == fresh
    assert (json.loads(seeded[1])["seed"], json.loads(seeded[1])["samples"]) == (3, 2)
    assert (json.loads(again[1])["seed"], json.loads(again[1])["samples"]) == (0, 5)


def test_momentum_in_density_is_domain_error(capsys, tmp_path):
    # a density is jet-side at any momentum level, also above max_order
    for momentum in ("p_x.x", "p_xxxxx.x"):
        path = tmp_path / "momentum.problem"
        path.write_text(f"independents = x\ndependents = u\nlagrangian = u_x^2 + {momentum}\n")
        code, _, err = run(capsys, "el", str(path))
        assert code == 1 and "momenta present" in err


def test_byte_determinism(capsys, kdv_problem):
    first = run(capsys, "reduce", kdv_problem, "--format", "json", "--seed", "3")
    second = run(capsys, "reduce", kdv_problem, "--format", "json", "--seed", "3")
    assert first == second
    h1 = run(capsys, "hessian", kdv_problem, "--format", "json", "--seed", "9")
    h2 = run(capsys, "hessian", kdv_problem, "--format", "json", "--seed", "9")
    assert h1 == h2


def test_out_flag_writes_file(capsys, kdv_problem, tmp_path):
    target = tmp_path / "el.txt"
    code, out, _ = run(capsys, "el", kdv_problem, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "u_tx - 6*u_x*u_xx + u_xxxx = 0\n"


def test_missing_problem_file_is_domain_error(capsys):
    code, out, err = run(capsys, "el", "/nonexistent/kdv.problem")
    assert code == 1 and "varjet:" in err


def test_bad_expression_reports_position(capsys, tmp_path):
    path = tmp_path / "bad.problem"
    path.write_text("independents = x\ndependents = u\nlagrangian = u_x + w\n")
    code, out, err = run(capsys, "el", str(path))
    assert code == 1
    assert "line 1, column" in err  # position within the expression


def test_deeply_nested_density_is_domain_error(capsys, tmp_path):
    path = tmp_path / "deep.problem"
    path.write_text("independents = x\ndependents = u\n"
                    f"lagrangian = {'(' * 3000}u_x^2{')' * 3000}\norder = 1\n")
    code, out, err = run(capsys, "el", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("varjet: ") and "nested deeper than 100 levels" in err
    assert "line 1, column 101" in err


def test_usage_error_exits_2(kdv_problem):
    with pytest.raises(SystemExit) as exc:
        main(["el", kdv_problem, "--format", "html"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["hessian", kdv_problem, "--rank-samples", "0"])
    assert exc.value.code == 2
    # each subcommand takes only the flags it reads
    for argv in (["el", kdv_problem, "--seed", "3"],
                 ["energy", kdv_problem, "--grid", "g"],
                 ["reduce", kdv_problem, "--momenta", "m"],
                 ["shift", kdv_problem, "--rank-samples", "2"],
                 ["prolong", kdv_problem, "--grid", "g"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_check_solution_requires_grid(capsys, kdv_problem):
    with pytest.raises(SystemExit) as exc:
        main(["check-solution", kdv_problem])
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err


def test_shift_rho_component_count(capsys, kdv_problem, tmp_path):
    # one reading of rho serves the problem file and --rho, which wins
    path = tmp_path / "three.problem"
    path.write_text(KDV_PROBLEM.replace("rho = 0; u^2", "rho = 0; u^2; u"))
    code, out, err = run(capsys, "shift", str(path))
    assert (code, out, err) == (1, "", "varjet: rho needs 2 ';'-separated components, got 3\n")
    assert run(capsys, "shift", str(path), "--rho", "0; u^2") == run(capsys, "shift", kdv_problem)
    code, out, err = run(capsys, "shift", kdv_problem, "--rho", "u^2")
    assert (code, out, err) == (1, "", "varjet: rho needs 2 ';'-separated components, got 1\n")


def test_shift_without_rho(capsys, tmp_path):
    path = tmp_path / "wave.problem"
    path.write_text(WAVE_PROBLEM)
    code, out, err = run(capsys, "shift", str(path))
    assert (code, out) == (1, "")
    assert err == "varjet: problem file declares no rho components (key: rho)\n"


def test_order_override(capsys, tmp_path):
    path = tmp_path / "wave.problem"
    path.write_text(WAVE_PROBLEM)
    base = run(capsys, "constraints", str(path))[1]
    assert base.count("=") == 2
    lifted = run(capsys, "constraints", str(path), "--order", "2")[1]
    assert lifted.count("=") == 3  # three second-order constraint rows


BASE_LINES = ["independents = t x", "dependents = u", "lagrangian = 1/2*u_t^2 - 1/2*u_x^2"]


@pytest.mark.parametrize("extra, lineno, message", [
    ("order = abc", 4, "order expects an integer, got 'abc'"),
    ("seed = x", 4, "seed expects an integer, got 'x'"),
    ("max_order = 2.5", 4, "max_order expects an integer, got '2.5'"),
    ("rank_samples = 1.5", 4, "rank_samples expects an integer, got '1.5'"),
    ("auto_extend = maybe", 4, "auto_extend expects a boolean, got 'maybe'"),
    ("", 2, "name 'x' is declared both as an independent and as a dependent"),
    ("max_order = -3", 4, "max_order must be >= 0"),
    ("rank_samples = 0", 4, "rank_samples must be >= 1"),
], ids=["order", "seed", "max_order", "rank_samples", "auto_extend", "shared_name",
        "max_order_negative", "rank_samples_below_one"])
def test_malformed_problem_value_is_positioned(capsys, tmp_path, extra, lineno, message):
    lines = list(BASE_LINES)
    if extra:
        lines.append(extra)
    else:
        lines[1] = "dependents = u x"
    path = tmp_path / "bad.problem"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "el", str(path))
    assert code == 1 and out == ""
    assert err == f"varjet: {path}, line {lineno}: {message}\n"


GRID_HEADER = {"axes": ["t", "x"], "shape": [4, 6], "origin": [0.0, 0.0],
               "spacing": [0.5, 0.5], "fields": ["u"]}


def grid_bytes(header=None, data=8 * 24, **changes):
    """A grid file: magic, u32 header length, JSON header, `data` zero bytes."""
    head = dict(GRID_HEADER if header is None else header, **changes)
    text = json.dumps(head).encode("utf-8")
    return b"VJGRID1\n" + struct.pack("<I", len(text)) + text + bytes(data)


@pytest.mark.parametrize("content, message", [
    (b"not a grid", "not a varjet grid file"),
    (b"VJGRID1\n\x00\x01", "truncated header length"),
    (b"VJGRID1\n" + struct.pack("<I", 99) + b"{}",
     "truncated header: 99 bytes declared, 2 present"),
    (b"VJGRID1\n" + struct.pack("<I", 3) + b"{x}", "header is not valid JSON"),
    (b"VJGRID1\n" + struct.pack("<I", 2) + b"[]", "header is not a JSON object"),
    (grid_bytes({k: v for k, v in GRID_HEADER.items() if k != "axes"}),
     "header is missing the key 'axes'"),
    (grid_bytes({k: v for k, v in GRID_HEADER.items() if k != "shape"}),
     "header is missing the key 'shape'"),
    (grid_bytes({k: v for k, v in GRID_HEADER.items() if k != "origin"}),
     "header is missing the key 'origin'"),
    (grid_bytes({k: v for k, v in GRID_HEADER.items() if k != "spacing"}),
     "header is missing the key 'spacing'"),
    (grid_bytes({k: v for k, v in GRID_HEADER.items() if k != "fields"}),
     "header is missing the key 'fields'"),
    (grid_bytes(axes="t"), "axes must be a list of names"),
    (grid_bytes(shape=[4, 6, 2]), "shape has 3 entries for 2 axes"),
    (grid_bytes(shape=[-4, 16]), "shape entries must be positive integers, got [-4, 16]"),
    (grid_bytes(shape=[4.0, 6]), "shape entries must be positive integers, got [4.0, 6]"),
    (grid_bytes(origin=[0.0]), "origin and spacing must be lists of 2 numbers"),
    (grid_bytes(spacing=[0.5, "x"]), "origin and spacing must be lists of 2 numbers"),
    (grid_bytes(spacing=[0.5, 0.0]), "grid spacings must be positive"),
    (grid_bytes(fields=["u", "u"]), "fields must be a non-empty list of distinct names"),
    (grid_bytes(data=8 * 23), "field data is 184 bytes, 1 field(s) of shape (4, 6) take 192"),
    (grid_bytes(data=8 * 24 + 5), "field data is 197 bytes, 1 field(s) of shape (4, 6) take 192"),
], ids=["magic", "header_length", "header_short", "header_json", "header_object",
        "no_axes", "no_shape", "no_origin", "no_spacing", "no_fields", "axes_type",
        "rank", "shape_negative", "shape_float", "origin_length", "spacing_type",
        "spacing_zero", "fields_repeat", "data_short", "data_extra"])
def test_malformed_grid_file_is_domain_error(capsys, tmp_path, kdv_problem,
                                             content, message):
    path = tmp_path / "bad.grid"
    path.write_bytes(content)
    code, out, err = run(capsys, "check-solution", kdv_problem, "--grid", str(path))
    assert code == 1 and out == ""
    assert err == f"varjet: {path}: {message}\n"
