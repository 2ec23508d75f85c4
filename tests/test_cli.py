"""CLI behaviour: formats, determinism, schemas, exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import hypothesis.strategies as st
import jsonschema
from hypothesis import HealthCheck, given, settings

from conftest import record_arenas, soliton_grid
from varjet import cli, numeric, pdham, problemfile
from varjet.cli import main
from varjet.numeric import GridFunction, save_grid
from varjet.symcore import Expr

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "schemas")
PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")
BOM = b"\xef\xbb\xbf"

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
    elh = run(capsys, "elh", kdv_problem)[1]
    assert code == 0 and out != elh
    path = tmp_path / "zero.problem"
    path.write_text(KDV_PROBLEM.replace("rho = 0; u^2", "rho = 0; 0"))
    assert run(capsys, "shift", str(path))[1] == elh  # zero shift is the identity


def test_prolong_default_el(capsys, kdv_problem):
    code, out, _ = run(capsys, "prolong", kdv_problem, "--level", "0")
    assert code == 0
    assert out == "el:u: u_tx - 6*u_x*u_xx + u_xxxx = 0\n"


def test_prolong_lifts_order_bound_by_level(capsys, kdv_problem):
    # prolonging the 4th-order EL equation reads 5th jets, above any order
    # the density names
    code, out, _ = run(capsys, "prolong", kdv_problem, "--level", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3 and "u_xxxxx" in lines[2]


HUGE = "99999999999999999999"


@pytest.mark.parametrize("command", ["hessian", "reduce", "constraints", "elh", "energy"])
def test_huge_order_is_refused_before_any_enumeration(capsys, tmp_path, command):
    # refused where the order enters, before any subcommand enumerates multiindices
    path = tmp_path / "wave.problem"
    path.write_text(WAVE_PROBLEM.replace("order = 1", f"order = {HUGE}"))
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(path))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, "", f"varjet: {path}, line 4: order {HUGE} is too high: "
                                       "the multiindices up to it would hold more than "
                                       "50000000 entries\n")


def test_huge_order_in_a_problem_file_is_refused(capsys, tmp_path):
    path = tmp_path / "wave.problem"
    path.write_text(WAVE_PROBLEM.replace("order = 1", f"order = {HUGE}"))
    code, out, err = run(capsys, "elh", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"varjet: {path}, line 4: order {HUGE} is too high")


def test_huge_prolong_level_is_refused(capsys, kdv_problem):
    start = time.perf_counter()
    code, out, err = run(capsys, "prolong", kdv_problem, "--level", HUGE)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, "", f"varjet: level {HUGE} is too high: the multiindices "
                                       "up to it would hold more than 50000000 entries\n")


def test_high_orders_under_the_entry_bound_still_run(capsys, tmp_path, kdv_problem):
    # el and legendre read no enumeration: order 400 prints what order 2 does
    path = tmp_path / "high.problem"
    path.write_text(KDV_PROBLEM.replace("order = 2", "order = 400"))
    for command in ("el", "legendre"):
        assert run(capsys, command, str(path)) == run(capsys, command, kdv_problem)


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


def test_only_hessian_and_reduce_json_sample_the_rank(capsys, tmp_path, monkeypatch,
                                                     kdv_problem):
    # plain and LaTeX `reduce` and `check-solution --system hdw` print no rank,
    # so they run without the sampler
    path = tmp_path / "wave.problem"
    path.write_text(WAVE_PROBLEM)
    n = 48
    t = np.linspace(-3, 3, n)
    x = np.linspace(-3, 3, n)
    T, X = np.meshgrid(t, x, indexing="ij")
    gridfile = tmp_path / "wave.grid"
    save_grid(GridFunction(("t", "x"), (t[0], x[0]), (t[1] - t[0], x[1] - x[0]),
                           {"u": np.sin(X - T)}), str(gridfile))
    argvs = [["check-solution", str(path), "--grid", str(gridfile), "--system", "hdw"]] + [
        ["reduce", problem, "--format", fmt]
        for problem in (str(path), kdv_problem) for fmt in ("plain", "latex")]
    outputs = [run(capsys, *argv) for argv in argvs]

    def sampler(*args, **kwargs):
        raise AssertionError("the Hessian rank was sampled")

    monkeypatch.setattr(pdham, "hessian", sampler)
    monkeypatch.setattr(cli, "hessian", sampler)
    assert [run(capsys, *argv) for argv in argvs] == outputs
    assert all(code == 0 and out for code, out, _ in outputs)


def test_derivation_subcommands_start_without_numpy(kdv_problem):
    # only check-solution reads grids, so only it loads numeric and numpy
    commands = [name for name in cli._COMMANDS if name != "check-solution"]
    code = ("import io, sys, contextlib; from varjet.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main([name, {kdv_problem!r}]) for name in {commands!r}]\n"
            "print(codes, 'numpy' in sys.modules)")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == f"{[0] * len(commands)} False\n"


@pytest.mark.parametrize("lines, sampling", [("seed = 7\n", (7, 5)), ("", (0, 5))],
                         ids=["problem_file", "defaults"])
def test_reduce_json_prints_the_hessian_report(capsys, tmp_path, lines, sampling):
    # the "hessian" object of `reduce` is the report of `hessian`, matrix aside,
    # sampled with the same seed (the file's, else 0) at pdham.RANK_SAMPLES points
    path = tmp_path / "kdv.problem"
    path.write_text(KDV_PROBLEM + lines)
    code, out, _ = run(capsys, "reduce", str(path), "--format", "json")
    assert code == 0
    _, report, _ = run(capsys, "hessian", str(path), "--format", "json")
    expected = json.loads(report)
    del expected["matrix"]
    assert (expected["seed"], expected["samples"]) == sampling
    assert json.loads(out)["hessian"] == expected


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_reduce_renders_the_hdw_rows_once(capsys, monkeypatch, kdv_problem, fmt):
    # the equations on P are the HDW equations: one rendering, printed under
    # both heads in plain and LaTeX and once, as "equations", in JSON
    calls = []
    for name in ("_system_text", "_equations_json"):
        def recording(*args, _render=getattr(cli, name), _name=name):
            calls.append(_name)
            return _render(*args)
        monkeypatch.setattr(cli, name, recording)
    code, out, _ = run(capsys, "reduce", kdv_problem, "--format", fmt)
    assert code == 0
    assert calls == ["_equations_json" if fmt == "json" else "_system_text"]
    if fmt == "json":
        data = json.loads(out)
        assert len(data["equations"]) == 7
        assert "equations_P" not in data and "E_on_P" not in data
    else:
        on_p, hdw = out.split("equations on P:\n")[1].split("HDW equations:\n")
        assert on_p == hdw and on_p.count("\n") == 7


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
    fresh = run(capsys, "prolong", kdv_problem)
    level_0 = run(capsys, "prolong", kdv_problem, "--level", "0", "--format", "json")
    again = run(capsys, "prolong", kdv_problem)
    assert cli.build_parser() is cli.build_parser()
    assert again == fresh and fresh[1].count("\n") == 3
    assert len(json.loads(level_0[1])["equations"]) == 1


def test_momentum_in_density_is_domain_error(capsys, tmp_path):
    # a density is jet-side at any momentum level
    for momentum in ("p_x.x", "p_xxxxx.x"):
        path = tmp_path / "momentum.problem"
        path.write_text(f"independents = x\ndependents = u\nlagrangian = u_x^2 + {momentum}\n")
        code, _, err = run(capsys, "el", str(path))
        assert (code, err) == (1, f"varjet: {path}, line 3: the density reads {momentum}, "
                                  "a momentum, which is not jet-side\n")


def test_comma_derivative_in_density_or_rho_is_domain_error(capsys, tmp_path):
    # u,_t reads as the comma-derivative the mixed systems print, which a
    # density and a shift component, both jet-side, refuse
    path = tmp_path / "comma.problem"
    path.write_text("independents = t x\ndependents = u\nlagrangian = u,_t^2 + u_x^2\n")
    assert run(capsys, "el", str(path)) == (1, "", f"varjet: {path}, line 3: the density reads "
                                            "u,_t, a comma-derivative, which is not jet-side\n")
    path.write_text(WAVE_PROBLEM + "rho = u,_t; 0\n")
    assert run(capsys, "shift", str(path)) == \
        (1, "", f"varjet: {path}, line 5: a shift component reads u,_t, a comma-derivative, "
                "which is not jet-side\n")


@pytest.mark.parametrize("rho, message", [
    ("p_.t; 0", "a shift component reads p_.t, a momentum, which is not jet-side"),
    ("0; u_xxxxxxx", "shift component order 7 too high for momentum level 1"),
], ids=["momentum", "order"])
def test_shift_refusals_of_the_file_rho_are_on_its_line(capsys, tmp_path, rho, message):
    # the shift's own refusals of the file's rho were printed without its line
    path = tmp_path / "kdv.problem"
    path.write_text(KDV_PROBLEM.replace("rho = 0; u^2", f"rho = {rho}"))
    assert run(capsys, "shift", str(path)) == (1, "", f"varjet: {path}, line 6: {message}\n")


def test_byte_determinism(capsys, tmp_path):
    for seed in (3, 9):
        path = tmp_path / f"seed{seed}.problem"
        path.write_text(KDV_PROBLEM + f"seed = {seed}\n")
        for command in ("reduce", "hessian"):
            first = run(capsys, command, str(path), "--format", "json")
            assert first == run(capsys, command, str(path), "--format", "json")
            assert first[0] == 0 and '"seed": %d' % seed in first[1]


def test_out_flag_writes_file(capsys, kdv_problem, tmp_path):
    target = tmp_path / "el.txt"
    code, out, _ = run(capsys, "el", kdv_problem, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "u_tx - 6*u_x*u_xx + u_xxxx = 0\n"


def test_missing_problem_file_is_domain_error(capsys):
    code, out, err = run(capsys, "el", "/nonexistent/kdv.problem")
    assert code == 1 and "varjet:" in err


def test_unwritable_out_is_domain_error(capsys, kdv_problem, tmp_path):
    # the write is an OSError like any other: a message and exit 1, no traceback
    for target, reason in ((tmp_path / "missing" / "el.txt", "No such file or directory"),
                           (tmp_path, "Is a directory")):
        code, out, err = run(capsys, "el", kdv_problem, "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("varjet: [Errno ") and reason in err and str(target) in err
        assert err.count("\n") == 1


def test_problem_file_that_is_not_utf8_is_domain_error(capsys, tmp_path):
    # on the same line with a leading byte-order mark, which is not counted
    path = tmp_path / "latin1.problem"
    for mark in (b"", BOM):
        path.write_bytes(mark + b"independents = t x\r\n\ndependents = u\n"
                         b"lagrangian = 1/2*u_x^2 \xff u_t\n")
        code, out, err = run(capsys, "el", str(path))
        assert (code, out) == (1, "")
        assert err == (f"varjet: {path}, line 4: byte 0xff is not valid UTF-8 "
                       "(invalid start byte)\n")


@pytest.mark.parametrize("name", sorted(os.listdir(PROBLEMS)))
def test_a_leading_byte_order_mark_is_ignored(capsys, tmp_path, name):
    # a file saved with a UTF-8 byte-order mark was refused for its first
    # key, read as '\ufeffindependents'
    source = os.path.join(PROBLEMS, name)
    path = tmp_path / name
    with open(source, "rb") as fh:
        path.write_bytes(BOM + fh.read())
    for command in ("el", "reduce"):
        expected = run(capsys, command, source)
        assert expected[0] == 0 and run(capsys, command, str(path)) == expected


def test_a_byte_order_mark_moves_no_column(capsys, tmp_path):
    path = tmp_path / "bad.problem"
    errors = []
    for mark in (b"", BOM):
        path.write_bytes(mark + b"lagrangian = u_x + w\nindependents = x\ndependents = u\n")
        errors.append(run(capsys, "el", str(path)))
    assert errors == [(1, "", f"varjet: {path}, line 1, column 20: "
                              "unknown identifier 'w'\n")] * 2


def test_bad_expression_reports_position(capsys, tmp_path):
    # on the file's line, the column counted from the start of that line
    path = tmp_path / "bad.problem"
    path.write_text("independents = x\ndependents = u\nlagrangian = u_x + w\n")
    code, out, err = run(capsys, "el", str(path))
    assert (code, out, err) == (1, "", f"varjet: {path}, line 3, column 20: "
                                       "unknown identifier 'w'\n")
    path.write_text("# wave\nindependents = t x\ndependents   = u\n"
                    "lagrangian   = u_t^2 + * u\n")
    code, out, err = run(capsys, "el", str(path))
    assert (code, out, err) == (1, "", f"varjet: {path}, line 4, column 24: "
                                       "unexpected token '*'\n")
    # a construct that is not polynomial is placed the same way
    path.write_text("independents = x\ndependents = u\nlagrangian = u_x^2 + sin(u)\n")
    code, out, err = run(capsys, "el", str(path))
    assert (code, out, err) == (1, "", f"varjet: {path}, line 3, column 22: "
                                       "transcendental function 'sin' is not polynomial\n")


def test_bad_rho_reports_position_on_its_own_line(capsys, tmp_path):
    # a component is placed on the file's line: the columns count the spaces
    # around and inside the components
    path = tmp_path / "rho.problem"
    for rho, column, name in (("0;  u_q", 11, "u_q"), ("0;   u + w", 16, "w")):
        path.write_text("independents = t x\ndependents = u\nlagrangian = u_t^2\n"
                        f"rho = {rho}\n")
        assert run(capsys, "shift", str(path)) == \
            (1, "", f"varjet: {path}, line 4, column {column}: unknown identifier '{name}'\n")


def test_aliases_of_a_name_are_unknown_identifiers(capsys, tmp_path):
    # u_ was read as u and, with one dependent, p^u_.t as p_.t
    path = tmp_path / "alias.problem"
    path.write_text("independents = t x\ndependents = u\nlagrangian = u_x^2 + u_^2\n")
    code, out, err = run(capsys, "el", str(path))
    assert (code, out, err) == (1, "", f"varjet: {path}, line 3, column 22: "
                                       "unknown identifier 'u_'\n")
    path.write_text("independents = t x\ndependents = u\nlagrangian = u_t^2\n"
                    "rho = p^u_.t; 0\n")
    code, out, err = run(capsys, "shift", str(path))
    assert (code, out, err) == (1, "", f"varjet: {path}, line 4, column 7: "
                                       "unknown identifier 'p^u_.t'\n")


def test_deeply_nested_density_is_domain_error(capsys, tmp_path):
    path = tmp_path / "deep.problem"
    path.write_text("independents = x\ndependents = u\n"
                    f"lagrangian = {'(' * 3000}u_x^2{')' * 3000}\norder = 1\n")
    code, out, err = run(capsys, "el", str(path))
    assert (code, out) == (1, "")
    assert err == f"varjet: {path}, line 3, column 114: expression nested deeper than " \
        "100 levels\n"


def test_power_over_the_term_budget_is_domain_error(capsys, tmp_path):
    # a bound of C(205, 5), about 2.9e9 terms, refused before any expansion
    path = tmp_path / "big.problem"
    path.write_text("independents = t x\ndependents = u\n"
                    "lagrangian = (u + u_t + u_x + u_tt + u_tx + u_xx)^200\norder = 2\n")
    code, out, err = run(capsys, "el", str(path))
    assert (code, out) == (1, "")
    assert err == (f"varjet: {path}, line 3: the power 200 of a 6-term sum may have up to "
                   "2872408791 terms, over the budget of 1000000\n")


OVER_DIGITS = "a coefficient or exponent of the result is over the limit of 4300 digits"
# each literal under the limit, their product (folded by the term reader) not
PRODUCT_OVER_DIGITS = "7" * 3000 + "*" + "7" * 3000 + "*u_x^2"


@pytest.mark.parametrize("lagrangian, message", [
    # the value starts at column 14 of line 3
    ("u_x^" + "9" * 5000, "{file}, line 3, column 18: integer literal of 5000 digits, "
                          "over the limit of 4300 digits"),
    ("2^" + "9" * 5000, "{file}, line 3, column 16: integer literal of 5000 digits, "
                        "over the limit of 4300 digits"),
    ("7" * 5000 + "*u_x^2", "{file}, line 3, column 14: integer literal of 5000 digits, "
                            "over the limit of 4300 digits"),
    # 3^3000000 has 1431364 digits: refused before it is built
    ("(3*u_x)^3000000", "{file}, line 3: the power 3000000 of a 1-term expression may have "
                        "coefficients over the limit of 4300 digits"),
    # past the limit only after parsing: the folded product, and el's second
    # derivative N*(N-1)*u_x^(N-2)*u_xx, end at the writers
    (PRODUCT_OVER_DIGITS, OVER_DIGITS),
    ("u_x^" + "9" * 3000, OVER_DIGITS),
], ids=["exponent", "number_exponent", "coefficient", "power_coefficient",
        "product_coefficient", "derived_coefficient"])
def test_integer_over_the_digit_limit_is_domain_error(capsys, tmp_path, digit_limit,
                                                      lagrangian, message):
    path = tmp_path / "digits.problem"
    path.write_text(f"independents = x\ndependents = u\nlagrangian = {lagrangian}\n")
    for fmt in ("plain", "latex", "json"):
        code, out, err = run(capsys, "el", str(path), "--format", fmt)
        assert (code, out) == (1, ""), fmt
        assert err == f"varjet: {message.format(file=path)}\n", fmt


def test_energy_json_over_the_digit_limit_is_domain_error(capsys, tmp_path, digit_limit):
    # a folded coefficient; and two exponents at the limit whose sum, an int
    # the JSON writer spells, is past it
    for lagrangian in (PRODUCT_OVER_DIGITS, "u_x^" + "9" * 4300 + "*u_x^" + "9" * 4300):
        path = tmp_path / "digits.problem"
        path.write_text(f"independents = x\ndependents = u\nlagrangian = {lagrangian}\n")
        code, out, err = run(capsys, "energy", str(path), "--format", "json")
        assert (code, out) == (1, "")
        assert err == f"varjet: {OVER_DIGITS}\n"


def test_usage_error_exits_2(kdv_problem):
    with pytest.raises(SystemExit) as exc:
        main(["el", kdv_problem, "--format", "html"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    # an integer option below the least value it can mean
    with pytest.raises(SystemExit) as exc:
        main(["prolong", kdv_problem, "--level", "-1"])
    assert exc.value.code == 2
    # each subcommand takes only the flags it reads
    for argv in (["energy", kdv_problem, "--grid", "g"],
                 ["reduce", kdv_problem, "--momenta", "m"],
                 ["prolong", kdv_problem, "--grid", "g"],
                 ["prolong", kdv_problem, "--system", "s.json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("level, message", [("x", "expected an integer, got 'x'"),
                                            ("-1", "must be >= 0, got -1")],
                         ids=["not_an_integer", "negative"])
def test_prolong_level_usage_errors(capsys, kdv_problem, level, message):
    with pytest.raises(SystemExit) as exc:
        main(["prolong", kdv_problem, "--level", level])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument --level: {message}\n")


@pytest.mark.parametrize("flag, value", [("--order", "3"), ("--seed", "3"),
                                         ("--rank-samples", "2"), ("--rho", "0; u^2")],
                         ids=["order", "seed", "rank_samples", "rho"])
def test_problem_file_settings_are_not_options(capsys, kdv_problem, flag, value):
    # the order, the rank's seed and the shift components are the problem
    # file's alone, and the rank's sample count is a constant: no subcommand
    # restates them
    for command in cli._COMMANDS:
        grid = ["--grid", "g"] if command == "check-solution" else []
        with pytest.raises(SystemExit) as exc:
            main([command, kdv_problem, *grid, flag, value])
        assert exc.value.code == 2, command
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err, command


def test_check_solution_el_rejects_momenta(capsys, tmp_path, kdv_problem):
    # the EL system reads no momenta, so a momentum grid beside it is a usage error
    save_grid(soliton_grid(64, 64, box=8.0), str(tmp_path / "u.grid"))
    save_grid(GridFunction(("a", "b"), (100.0, 100.0), (7.0, 7.0), {"junk": np.zeros((3, 3))}),
              str(tmp_path / "p.grid"))
    with pytest.raises(SystemExit) as exc:
        main(["check-solution", kdv_problem, "--grid", str(tmp_path / "u.grid"),
              "--momenta", str(tmp_path / "p.grid")])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--momenta is read only by --system constraints, elh and hdw" in out.err


def test_check_solution_requires_grid(capsys, kdv_problem):
    with pytest.raises(SystemExit) as exc:
        main(["check-solution", kdv_problem])
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize("lagrangian, grid, message", [
    ("u_x^3 - 1/2*u_x*u_t + 1/2*u_xx^2", {"axes": ("t", "y")},
     "grid axes do not match the context independents"),
    ("u_x^3 - 1/2*u_x*u_t + 1/2*u_xx^2", {"fields": {"v": np.zeros((16, 16))}},
     "grid is missing the dependent field 'u'"),
    # the EL equation reads u_xxxxxx, past the order-4 stencils
    ("1/2*u_xxx^2", {}, "finite-difference prolongation supports order <= 4"),
], ids=["axes", "missing_field", "order_above_4"])
def test_check_solution_refuses_a_grid_the_system_cannot_read(capsys, tmp_path, lagrangian,
                                                               grid, message):
    path = tmp_path / "p.problem"
    path.write_text(f"independents = t x\ndependents = u\nlagrangian = {lagrangian}\n")
    geometry = {"axes": ("t", "x"), "origin": (0.0, 0.0), "spacing": (0.5, 0.5),
                "fields": {"u": np.zeros((16, 16))}}
    save_grid(GridFunction(**{**geometry, **grid}), str(tmp_path / "u.grid"))
    assert run(capsys, "check-solution", str(path), "--grid", str(tmp_path / "u.grid")) == \
        (1, "", f"varjet: {message}\n")


def test_check_solution_hdw_without_an_hdw_system(capsys, tmp_path):
    # a density cubic in its top jet reduces to no HDW system
    path = tmp_path / "cubic.problem"
    path.write_text("independents = t x\ndependents = u\nlagrangian = u_xx^3\n")
    save_grid(soliton_grid(16, 16, box=8.0), str(tmp_path / "u.grid"))
    assert run(capsys, "check-solution", str(path), "--grid", str(tmp_path / "u.grid"),
               "--system", "hdw") == \
        (1, "", "varjet: reduction did not produce HDW equations "
                "(irreducible: nonlinear constraints)\n")


def test_shift_rho_component_count(capsys, tmp_path):
    path = tmp_path / "count.problem"
    for rho, count in (("0; u^2; u", 3), ("u^2", 1)):
        path.write_text(KDV_PROBLEM.replace("rho = 0; u^2", f"rho = {rho}"))
        assert run(capsys, "shift", str(path)) == \
            (1, "", f"varjet: {path}, line 6: need one shift component per independent "
                    f"variable (2), got {count}\n")


def test_shift_rho_over_the_momentum_level(capsys, tmp_path):
    path = tmp_path / "wave.problem"
    path.write_text(WAVE_PROBLEM + "rho = 0; u_xxxxxxxx\n")
    code, out, err = run(capsys, "shift", str(path))
    assert (code, out) == (1, "")
    assert err == (f"varjet: {path}, line 5: shift component order 8 too high for momentum "
                   "level 0\n")


def test_shift_without_rho(capsys, tmp_path):
    path = tmp_path / "wave.problem"
    path.write_text(WAVE_PROBLEM)
    code, out, err = run(capsys, "shift", str(path))
    assert (code, out) == (1, "")
    assert err == f"varjet: {path}: problem file declares no rho components (key: rho)\n"


@pytest.mark.parametrize("problem, lineno, column", [("kdv", 6, 6), ("wave", 5, 8)],
                         ids=["kdv", "wave"])
def test_shift_refuses_an_empty_rho(capsys, tmp_path, problem, lineno, column):
    # a rho line without a value holds one empty component, which the parser
    # refuses where the value ends
    path = tmp_path / f"{problem}.problem"
    path.write_text(KDV_PROBLEM.replace("rho = 0; u^2", "rho =") if problem == "kdv"
                    else WAVE_PROBLEM + "rho =  # none\n")
    assert run(capsys, "shift", str(path)) == \
        (1, "", f"varjet: {path}, line {lineno}, column {column}: unexpected end of input\n")


def test_order_override(capsys, tmp_path):
    # a declared order overrides the least order the density reads
    path = tmp_path / "wave.problem"
    path.write_text(WAVE_PROBLEM)
    base = run(capsys, "constraints", str(path))[1]
    assert base.count("=") == 2
    path.write_text(WAVE_PROBLEM.replace("order = 1", "order = 2"))
    lifted = run(capsys, "constraints", str(path))[1]
    assert lifted.count("=") == 3  # three second-order constraint rows


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("command", ["el", "legendre", "prolong"])
def test_declared_order_far_above_the_density_costs_nothing(capsys, tmp_path, monkeypatch,
                                                            command, fmt):
    # el, legendre and prolong read the density's partials from one gradient,
    # so an order of 400 prints the bytes of the file's order and builds
    # exactly as many expressions
    built = []
    normalise = Expr.__init__

    def counting(self, *args):
        built.append(self)
        normalise(self, *args)

    monkeypatch.setattr(Expr, "__init__", counting)
    for text, order in ((KDV_PROBLEM, "order = 2"), (WAVE_PROBLEM, "order = 1")):
        path = tmp_path / "order.problem"
        outputs, counts = [], []
        for declared in (text, text.replace(order, "order = 400")):
            path.write_text(declared)
            built.clear()
            outputs.append(run(capsys, command, str(path), "--format", fmt))
            counts.append(len(built))
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]
        assert counts[1] == counts[0]


BASE_LINES = ["independents = t x", "dependents = u", "lagrangian = 1/2*u_t^2 - 1/2*u_x^2"]


@pytest.mark.parametrize("extra, lineno, message", [
    ("order = abc", 4, "order expects an integer, got 'abc'"),
    ("seed = x", 4, "seed expects an integer, got 'x'"),
    # rank_samples is no key, whatever its value: the sample count is pdham.RANK_SAMPLES
    ("rank_samples = 1.5", 4, "unknown key 'rank_samples'"),
    ("dependents = u x", 2, "name 'x' is declared both as an independent and as a dependent"),
    # the context's name rules, each placed on the line of the list it refuses
    ("independents = t x t", 1, "name 't' is declared twice"),
    ("dependents = u_x", 2, "invalid name 'u_x'"),
    ("dependents = ,", 2, "dependents lists no names"),
    # u_xx would read as the jet along xx and as the second jet along x
    ("independents = x xx", 1, "independent name 'x' is a prefix of 'xx'"),
    ("independents = tx t", 1, "independent name 't' is a prefix of 'tx'"),
    ("rank_samples = 0", 4, "unknown key 'rank_samples'"),
    ("rank_samples = 1001", 4, "unknown key 'rank_samples'"),
    # the density's order rule, placed on the order line
    ("order = 0", 4, "declared order 0 below the minimal order 1 of the density"),
    # the density fixes the jet orders, so no key bounds them
    ("max_order = 8", 4, "unknown key 'max_order'"),
    ("auto_extend = true", 4, "unknown key 'auto_extend'"),
    ("rank_samples = 5", 4, "unknown key 'rank_samples'"),
], ids=["order", "seed", "rank_samples", "shared_name", "repeated_name", "invalid_name",
        "no_names", "prefix_names", "prefix_names_reversed", "rank_samples_below_one",
        "rank_samples_above_bound", "order_zero", "unknown_key_max_order",
        "unknown_key_auto_extend", "unknown_key_rank_samples"])
def test_malformed_problem_value_is_positioned(capsys, tmp_path, extra, lineno, message):
    # a line with a key of BASE_LINES replaces that line, any other is appended
    lines = list(BASE_LINES)
    keys = [line.split("=")[0] for line in lines]
    if extra.split("=")[0] in keys:
        lines[keys.index(extra.split("=")[0])] = extra
    else:
        lines.append(extra)
    path = tmp_path / "bad.problem"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "el", str(path))
    assert code == 1 and out == ""
    assert err == f"varjet: {path}, line {lineno}: {message}\n"


@pytest.mark.parametrize("text, lineno, message", [
    # a declared order below the density's least, placed on its line
    ("independents = t x\ndependents = u\nlagrangian = u_xx^2\norder = 1\n", 4,
     "declared order 1 below the minimal order 2 of the density"),
    # an inferred order over the multiindex budget goes on the lagrangian line
    ("independents = x\ndependents = u\nlagrangian = u_" + "x" * 12000 + "\n", 3,
     "order 12000 is too high: the multiindices up to it would hold more than "
     "50000000 entries"),
], ids=["below_minimal_order", "inferred_order_over_budget"])
def test_density_errors_are_positioned(capsys, tmp_path, text, lineno, message):
    # LagrangianDensity checks the file's density; the reader places its error
    path = tmp_path / "bad.problem"
    path.write_text(text)
    assert run(capsys, "el", str(path)) == (1, "", f"varjet: {path}, line {lineno}: {message}\n")


SHIFT_LINES = BASE_LINES + ["order = 1", "rho = 0; u"]
BUDGET = "(u + u_t + u_x + u_tt + u_tx + u_xx)^200"
OVER_BUDGET = "the power 200 of a 6-term sum may have up to 2872408791 terms, over the budget " \
    "of 1000000"


@pytest.mark.parametrize("edits, message", [
    # parse_problem_text: each refusal on its line, with the column for an
    # error inside an expression
    ({4: "order 1"}, "{path}, line 4: expected 'key = value'"),
    ({6: "seed"}, "{path}, line 6: expected 'key = value'"),
    ({6: "colour = red"}, "{path}, line 6: unknown key 'colour'"),
    ({6: "order = 2"}, "{path}, line 6: duplicate key 'order'"),
    ({1: None}, "{path}: missing required key 'independents'"),
    ({2: None}, "{path}: missing required key 'dependents'"),
    ({3: None}, "{path}: missing required key 'lagrangian'"),
    ({6: "seed = 1e3"}, "{path}, line 6: seed expects an integer, got '1e3'"),
    ({2: "dependents = t"}, "{path}, line 2: name 't' is declared both as an independent and "
                            "as a dependent"),
    ({4: "order = -2"}, "{path}, line 4: declared order -2 below the minimal order 1 of the "
                        "density"),
    ({6: "rank_samples = -1"}, "{path}, line 6: unknown key 'rank_samples'"),
    ({6: "rank_samples = 5000"}, "{path}, line 6: unknown key 'rank_samples'"),
    ({3: "lagrangian = u_t^2 + w"}, "{path}, line 3, column 22: unknown identifier 'w'"),
    ({3: f"lagrangian = {BUDGET}"}, "{path}, line 3: " + OVER_BUDGET),
    ({3: "lagrangian = p_.t^2"}, "{path}, line 3: the density reads p_.t, a momentum, which "
                                 "is not jet-side"),
    ({3: "lagrangian = u_tt^2"}, "{path}, line 4: declared order 1 below the minimal order 2 "
                                 "of the density"),
    ({3: "lagrangian = u_" + "x" * 12000, 4: None}, "{path}, line 3: order 12000 is too high: "
     "the multiindices up to it would hold more than 50000000 entries"),
    # Problem.rho, when shift reads the file's rho, and momentum_shift's count
    ({5: None}, "{path}: problem file declares no rho components (key: rho)"),
    ({5: "rho ="}, "{path}, line 5, column 6: unexpected end of input"),
    ({5: "rho = 0; u; u"}, "{path}, line 5: need one shift component per independent "
                           "variable (2), got 3"),
    ({5: "rho = 0;"}, "{path}, line 5, column 9: unexpected end of input"),
    ({5: "rho = 0; u +* u"}, "{path}, line 5, column 13: unexpected token '*'"),
    ({5: f"rho = 0; {BUDGET}"}, "{path}, line 5: " + OVER_BUDGET),
], ids=["no_equals", "no_value_no_equals", "unknown_key", "duplicate_key",
        "missing_independents", "missing_dependents", "missing_lagrangian", "not_an_integer",
        "context", "order_below_one", "rank_samples_below_one", "rank_samples_above_bound",
        "lagrangian_parse", "lagrangian_term_budget", "lagrangian_domain",
        "order_below_the_density", "inferred_order_over_budget", "rho_absent", "rho_empty",
        "rho_count", "rho_empty_component", "rho_parse", "rho_term_budget"])
def test_every_problem_file_refusal_names_the_file_and_line(capsys, tmp_path, edits, message):
    # SHIFT_LINES with each line numbered in edits replaced (None drops it,
    # line 6 is appended): each refusal of the reader and of Problem.rho
    # names "<file>, line N", but a missing key or an absent rho, which has
    # no line, names the file and the key
    lines = {**dict(enumerate(SHIFT_LINES, start=1)), **edits}
    path = tmp_path / "bad.problem"
    path.write_text("".join(f"{lines[k]}\n" for k in sorted(lines) if lines[k] is not None))
    assert run(capsys, "shift", str(path)) == (1, "", f"varjet: {message.format(path=path)}\n")


def test_documented_problem_keys_are_the_known_keys():
    # the example block of docs/problemfile.md shows every key once
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "problemfile.md")
    with open(path, "r", encoding="utf-8") as fh:
        block = fh.read().split("```")[1]
    documented = {line.split("=", 1)[0].strip() for line in block.splitlines()
                  if "=" in line.split("#", 1)[0]}
    assert documented == problemfile._KNOWN_KEYS


def test_documented_flags_are_the_parser_flags():
    # README's "Flags, by subcommand" table names each subcommand's options,
    # its "every one" row those every subcommand takes
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, "r", encoding="utf-8") as fh:
        table = fh.read().split("Flags, by subcommand", 1)[1].split("\n\n", 2)[1]
    documented = {}
    for line in table.splitlines()[2:]:
        names, flags = line.strip("|").split("|", 1)
        spans = flags.split("`")[1::2]
        for name in names.replace("`", "").split(","):
            documented.setdefault(name.strip(), set()).update(
                span.split()[0] for span in spans if span.startswith("--"))
    every = documented.pop("every one")
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, parser in subparsers.choices.items():
        options = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        assert options == every | documented.pop(name, set()), name
    assert documented == {}


GRID_HEADER = {"axes": ["t", "x"], "shape": [4, 6], "origin": [0.0, 0.0],
               "spacing": [0.5, 0.5], "fields": ["u"]}


def grid_bytes(header=None, data=8 * 24, **changes):
    """A grid file: magic, u32 header length, JSON header, `data` zero bytes."""
    head = dict(GRID_HEADER if header is None else header, **changes)
    text = json.dumps(head).encode("utf-8")
    return b"VJGRID1\n" + struct.pack("<I", len(text)) + text + bytes(data)


NORMAL_H4 = "each h**4 must be a normal float (finite, nonzero and not subnormal)"


@pytest.mark.parametrize("content, message", [
    (b"not a grid", "not a varjet grid file"),
    (b"VJGRID1\n\x00\x01", "truncated header length"),
    (b"VJGRID1\n" + struct.pack("<I", 99) + b"{}",
     "truncated header: 99 bytes declared, 2 present"),
    (b"VJGRID1\n" + struct.pack("<I", 3) + b"{x}", "header is not valid JSON"),
    # nested past the JSON reader's recursion limit
    (b"VJGRID1\n" + struct.pack("<I", 100_000) + b"[" * 100_000, "header is not valid JSON"),
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
    (grid_bytes(origin=[True, 0.0]), "origin and spacing must be lists of 2 numbers"),
    # ints past the float range: an OverflowError escaped before
    (grid_bytes(origin=[10 ** 400, 0.0]), "origin and spacing must be lists of 2 numbers"),
    (grid_bytes(spacing=[0.5, 10 ** 400]), "origin and spacing must be lists of 2 numbers"),
    (grid_bytes(spacing=[0.5, 0.0]), "grid spacings must be positive"),
    (grid_bytes(fields=["u", "u"]), "fields must be a non-empty list of distinct names"),
    (grid_bytes(data=8 * 23), "field data is 184 bytes, 1 field(s) of shape (4, 6) take 192"),
    (grid_bytes(data=8 * 24 + 5), "field data is 197 bytes, 1 field(s) of shape (4, 6) take 192"),
    # the JSON header may spell Infinity and NaN; the stencils divide by h**4
    (grid_bytes(spacing=[math.inf, 0.5]),
     f"grid spacings [inf, 0.5] are out of range: {NORMAL_H4}"),
    (grid_bytes(origin=[math.nan, 0.0]), "grid origins must be finite, got [nan, 0.0]"),
    (grid_bytes(spacing=[0.5, 1e308]), f"grid spacings [0.5, 1e+308] are out of range: {NORMAL_H4}"),
    (grid_bytes(spacing=[1e-100, 0.5]), f"grid spacings [1e-100, 0.5] are out of range: {NORMAL_H4}"),
    # 1e-320 is nonzero, but dividing by it overflows
    (grid_bytes(spacing=[0.5, 1e-80]), f"grid spacings [0.5, 1e-80] are out of range: {NORMAL_H4}"),
], ids=["magic", "header_length", "header_short", "header_json", "header_nesting",
        "header_object",
        "no_axes", "no_shape", "no_origin", "no_spacing", "no_fields", "axes_type",
        "rank", "shape_negative", "shape_float", "origin_length", "spacing_type",
        "origin_bool", "origin_past_float_range", "spacing_past_float_range",
        "spacing_zero", "fields_repeat", "data_short", "data_extra", "spacing_infinite",
        "origin_nan", "spacing_overflow", "spacing_underflow", "spacing_subnormal"])
@pytest.mark.filterwarnings("error")  # a warning would reach stderr outside the test
def test_malformed_grid_file_is_domain_error(capsys, tmp_path, kdv_problem,
                                             content, message):
    path = tmp_path / "bad.grid"
    path.write_bytes(content)
    code, out, err = run(capsys, "check-solution", kdv_problem, "--grid", str(path))
    assert code == 1 and out == ""
    assert err == f"varjet: {path}: {message}\n"


@pytest.mark.filterwarnings("error")  # a warning would reach stderr outside the test
def test_overflowing_residual_is_domain_error(capsys, tmp_path, kdv_problem):
    # u_x^3 of a field of size 1e200 overflows: the row is non-finite, with
    # no RuntimeWarning on the way
    grid = soliton_grid(64, 64, box=8.0)
    grid.fields["u"] *= 1e200
    save_grid(grid, str(tmp_path / "big.grid"))
    code, out, err = run(capsys, "check-solution", kdv_problem, "--grid", str(tmp_path / "big.grid"))
    assert (code, out) == (1, "")
    assert err == "varjet: non-finite interior residual for equation 'el:u'\n"


@pytest.mark.parametrize("system, where", [
    ("el", "equation 'el:u'"),
    ("elh", "the Legendre coefficient of p_.x"),
])
def test_coefficient_past_the_float_range_is_domain_error(capsys, tmp_path, system, where):
    # 2 * 7...7 (400 digits) is about 1.6e400, past the largest float
    path = tmp_path / "big.problem"
    path.write_text("independents = t x\ndependents = u\n"
                    f"lagrangian = {'7' * 400}*u_x^2 + 1/2*u_t^2\norder = 1\n")
    save_grid(soliton_grid(64, 64), str(tmp_path / "g.grid"))
    code, out, err = run(capsys, "check-solution", str(path), "--grid",
                         str(tmp_path / "g.grid"), "--system", system)
    assert (code, out) == (1, "")
    assert err == f"varjet: {where}: a coefficient of about 10^400 is out of the float range\n"


WAVE3_PROBLEM = ("independents = t x y\ndependents = u\n"
                 "lagrangian = 1/2*u_t^2 - 1/2*u_x^2 - 1/2*u_y^2\norder = 1\n")


def save_wave3(path, rows):
    """u = sin(0.6x + 0.8y - t) on a rows x 64 x 64 grid, saved at path;
    returns the field's bytes."""
    h = 0.1
    t, xy = h * np.arange(rows), h * np.arange(64)
    u = np.sin(0.6 * xy[None, :, None] + 0.8 * xy[None, None, :] - t[:, None, None])
    save_grid(GridFunction(("t", "x", "y"), (0.0,) * 3, (h,) * 3, {"u": u}), str(path))
    return u.nbytes


def traced_peak(capsys, monkeypatch, *argv):
    """The tracemalloc peak of a run, after one run that warms the caches,
    plus the bytes of the largest arena the run maps, which tracemalloc
    does not see."""
    assert run(capsys, *argv)[0] == 0
    arenas = record_arenas(monkeypatch)
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    return peak + max(nbytes for nbytes, _ in arenas)


def test_check_solution_holds_no_full_grid_array(capsys, monkeypatch, tmp_path):
    # the ELH residual of a wave, its field read from the file one band at a
    # time: the peak is the band buffers, the same on 64 rows as on 256, and
    # below the field's own bytes on 256 (on 64, a band is 16 rows and the
    # peak about 1.8 times the field); holding the field, it would exceed both
    problem = tmp_path / "wave3.problem"
    problem.write_text(WAVE3_PROBLEM)
    save_wave3(tmp_path / "cube.grid", 64)
    nbytes = save_wave3(tmp_path / "long.grid", 256)
    cube, long = (traced_peak(capsys, monkeypatch, "check-solution", str(problem),
                              "--grid", str(tmp_path / name), "--system", "elh")
                  for name in ("cube.grid", "long.grid"))
    assert long < nbytes
    assert long < 1.05 * cube


def change_file(path, how):
    data = path.read_bytes()
    if how == "truncated":
        path.write_bytes(data[:len(data) // 2])
    elif how == "rewritten":  # the same size and other values, a second later
        stat = path.stat()
        path.write_bytes(data[:-8] + struct.pack("<d", 7.0))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10 ** 9))
    elif how == "replaced":  # another file under its name
        path.with_suffix(".new").write_bytes(data)
        os.replace(path.with_suffix(".new"), path)
    else:
        path.unlink()


CHANGED = "the file changed after it was loaded"


@pytest.mark.parametrize("how, message", [
    ("truncated", CHANGED), ("rewritten", CHANGED), ("replaced", CHANGED),
    ("removed", "No such file or directory"),
])
def test_grid_file_changed_after_loading_is_domain_error(capsys, tmp_path, kdv_problem,
                                                         monkeypatch, how, message):
    path = tmp_path / "u.grid"
    save_grid(soliton_grid(64, 64, box=8.0), str(path))
    real = numeric.load_grid

    def load_then_change(name):
        grid = real(name)
        change_file(path, how)
        return grid

    monkeypatch.setattr(numeric, "load_grid", load_then_change)
    code, out, err = run(capsys, "check-solution", kdv_problem, "--grid", str(path))
    assert (code, out, err) == (1, "", f"varjet: {path}: {message}\n")


@pytest.mark.parametrize("how, message", [
    ("truncated", "truncated field 'u'"), ("rewritten", CHANGED),
])
def test_grid_file_changed_during_the_run_is_domain_error(capsys, tmp_path, kdv_problem,
                                                          monkeypatch, how, message):
    # changed once the first band's rows are read; later bands read past the half
    path = tmp_path / "u.grid"
    save_grid(soliton_grid(64, 64, box=8.0), str(path))
    monkeypatch.setattr(numeric, "BAND_ELEMENTS", 8 * 64)
    real, reads = numeric._read_rows, []

    def read_then_change(*args):
        rows = real(*args)
        if not reads:
            change_file(path, how)
        reads.append(args[1:3])
        return rows

    monkeypatch.setattr(numeric, "_read_rows", read_then_change)
    code, out, err = run(capsys, "check-solution", kdv_problem, "--grid", str(path))
    assert (code, out, err) == (1, "", f"varjet: {path}: {message}\n")
    assert len(reads) > 1


# -- fuzzing the grid-file reader ----------------------------------------------

def mostly(valid, other):
    """A strategy drawing from ``valid`` about four times in five."""
    return st.integers(0, 4).flatmap(lambda i: other if i == 4 else valid)


grid_headers = st.fixed_dictionaries({
    "axes": mostly(st.just(["t", "x"]), st.one_of(
        st.lists(st.sampled_from(["t", "x", "y", 1]), max_size=3), st.text(max_size=2))),
    "shape": mostly(st.lists(st.integers(6, 12), min_size=2, max_size=2), st.lists(
        st.one_of(st.integers(-1, 9), st.floats(0, 9), st.booleans()), max_size=3)),
    "origin": mostly(st.just([0.0, -1.0]), st.lists(
        st.one_of(st.floats(), st.integers(-9, 9), st.text(max_size=1)), max_size=3)),
    "spacing": mostly(st.just([0.5, 0.25]), st.lists(
        st.one_of(st.floats(), st.integers(-1, 9), st.none()), max_size=3)),
    "fields": mostly(st.just(["u"]), st.one_of(
        st.lists(st.sampled_from(["u", "v", ""]), max_size=3), st.just("u"))),
}).flatmap(lambda header: mostly(st.just(()), st.sets(st.sampled_from(sorted(header)),
                                                      max_size=2)).map(
    lambda dropped: {k: v for k, v in header.items() if k not in dropped}))


def declared_cells(header) -> int:
    """The float64 count the header's shape and fields declare, or 0."""
    shape, names = header.get("shape"), header.get("fields")
    if not (isinstance(shape, list) and all(type(k) is int and k > 0 for k in shape)
            and isinstance(names, list)):
        return 0
    return math.prod(shape) * len(names)


@st.composite
def grid_files(draw):
    """Grid-file bytes: a magic, a header length, a JSON header (or bytes)
    and float64 data, each mostly what the header declares."""
    magic = draw(mostly(st.just(b"VJGRID1\n"), st.sampled_from([b"VJGRID2\n", b"VJGR", b""])))
    header = draw(mostly(grid_headers, st.binary(max_size=12)))
    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    length = draw(mostly(st.just(len(text)), st.integers(0, 2 ** 32 - 1)))
    cells = draw(mostly(st.just(declared_cells({} if isinstance(header, bytes) else header)),
                        st.integers(0, 30)))
    # one value for every cell, so the long data draws stay cheap
    value = draw(st.one_of(st.floats(-2, 2), st.floats()))
    data = np.full(cells, value, dtype="<f8").tobytes()
    return magic + struct.pack("<I", length) + text + data + draw(st.binary(max_size=2))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(content=grid_files(), system=st.sampled_from(["el", "elh"]))
def test_grid_file_reader_never_raises(tmp_path_factory, content, system):
    base = tmp_path_factory.getbasetemp()
    (base / "fuzz.grid").write_bytes(content)
    (base / "fuzz.problem").write_text(WAVE_PROBLEM)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["check-solution", str(base / "fuzz.problem"), "--grid",
                     str(base / "fuzz.grid"), "--system", system])
    assert code in (0, 1, 2)


# -- fuzzing the problem-file reader --------------------------------------------

# index words of at most four letters over the two independents
words = st.text(alphabet="tx", max_size=4)
u_jets = words.map(lambda word: "u_" + word if word else "u")
jet_names = st.builds(lambda dep, word: dep + ("_" + word if word else ""),
                      st.sampled_from("uv"), words)
momentum_names = st.builds(lambda tag, word, i: f"p{tag}_{word}.{i}",
                           st.sampled_from(["", "^u", "^v"]), words, st.sampled_from("tx"))
atoms = st.one_of(st.integers(min_value=0, max_value=99).map(str), st.sampled_from("tx"),
                  u_jets, u_jets, jet_names, momentum_names)
expressions = st.recursive(atoms, lambda inner: st.one_of(
    st.builds(lambda a, op, b: f"{a} {op} {b}", inner, st.sampled_from("+-*/"), inner),
    inner.map(lambda a: f"({a})"),
    inner.map(lambda a: f"-{a}"),
    st.builds(lambda a, e: f"{a}^{e}", inner, st.integers(min_value=0, max_value=9))),
    max_leaves=6)
# any text over the characters of the format, for what the grammar never builds
scraps = st.text(alphabet="tuvpx_.^*/+-()0123456789 =#;,", max_size=24)
values = {
    "independents": st.sampled_from(["t x", "x", "t, x", "x x", "", "u", "t_x"]),
    "dependents": st.sampled_from(["u", "u v", "v,u", "x", "", "p"]),
    "lagrangian": expressions,
    "order": st.integers(min_value=-1, max_value=4).map(str),
    "seed": st.integers(min_value=-3, max_value=3).map(str),
    "rho": st.lists(expressions, min_size=1, max_size=3).map("; ".join),
}


def entries(keys, junk):
    return st.sampled_from(keys).flatmap(
        lambda key: (st.one_of(values[key], scraps) if junk else values[key]).map(
            lambda value: f"{key} = {value}"))


# the required keys with names that parse, then optional keys once each
whole_files = st.builds(
    lambda i, d, lag, rest: "\n".join(
        [f"independents = {i}", f"dependents = {d}", f"lagrangian = {lag}"] + rest),
    st.sampled_from(["t x", "x"]), st.sampled_from(["u", "u v"]), expressions,
    st.lists(entries(["order", "seed", "rho"], junk=False),
             max_size=3, unique_by=lambda line: line.split("=")[0]))
any_lines = st.lists(st.one_of(entries(sorted(values), junk=True), scraps),
                     max_size=6).map("\n".join)
# two whole files to one of any lines, so most examples reach the constructions
problem_texts = st.sampled_from([whole_files, whole_files, any_lines]).flatmap(lambda s: s)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=problem_texts,
       command=st.sampled_from(["el", "legendre", "elh", "constraints", "hessian",
                                "energy", "reduce", "shift", "prolong"]),
       fmt=st.sampled_from(cli.FORMATS))
def test_problem_file_reader_never_raises(tmp_path_factory, text, command, fmt):
    path = tmp_path_factory.getbasetemp() / "fuzz.problem"
    path.write_text(text + "\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(path), "--format", fmt])
    assert code in (0, 1, 2)
