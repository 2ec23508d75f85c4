"""Golden CLI outputs: derivation stdout byte for byte, residuals bit for bit.

The derivation goldens (tests/golden/derive/) hold the stdout of every
derivation subcommand in every format for the three sample problems and four
derive-ladder problems (tests/golden/problems/), and the plain `reduce` stdout
of one larger regular density past the ladder.  The `check-solution
--format json` report prints each max-abs residual with full float
precision, so its byte comparison pins every residual bit.  Every JSON golden
also validates against its subcommand's schema under schemas/.  Every plain
and LaTeX `reduce` golden prints its Hamiltonian and its HDW rows as two equal
copies, and every JSON one prints each once.  The goldens were written by
`write_goldens` and `write_derive_goldens`; only a change that means to alter
an output regenerates them, and says why.
"""

import functools
import glob
import io
import json
import os
import re
from contextlib import redirect_stdout

import jsonschema
import pytest

from conftest import soliton_grid, wave3_grid
from varjet.cli import main
from varjet.numeric import save_grid
from varjet.pdham import elh_system, momentum_shift, reduce_lagrangian
from varjet.problemfile import load_problem
from varjet.symcore import parse, render

HERE = os.path.dirname(__file__)
GOLDEN_DIR = os.path.join(HERE, "golden")
DERIVE_DIR = os.path.join(GOLDEN_DIR, "derive")
SCHEMA_DIR = os.path.join(HERE, os.pardir, "schemas")

PROBLEMS = {
    "kdv": ("independents = t x\ndependents = u\n"
            "lagrangian = u_x^3 - 1/2*u_x*u_t + 1/2*u_xx^2\norder = 2\n"),
    "wave3": ("independents = t x y\ndependents = u\n"
              "lagrangian = 1/2*u_t^2 - 1/2*u_x^2 - 1/2*u_y^2\norder = 1\n"),
}


GRIDS = {"kdv": lambda: soliton_grid(64, 64, box=8.0), "wave3": lambda: wave3_grid(24)}
CASES = [(grid, system) for grid in GRIDS for system in ("el", "elh", "hdw")]

# problem name -> file; each declares the rho that `shift` reads
DERIVE_PROBLEMS = {
    **{name: os.path.join(HERE, "..", "problems", f"{name}.problem")
       for name in ("free_particle", "kdv", "wave")},
    **{name: os.path.join(GOLDEN_DIR, "problems", f"{name}.problem")
       for name in ("ladder-regular", "ladder-reducible", "ladder-nonregular",
                    "ladder-assumption")},
}
DERIVE_COMMANDS = ("el", "legendre", "elh", "constraints", "hessian", "reduce",
                   "energy", "shift", "prolong")
DERIVE_CASES = [(problem, command, fmt) for problem in DERIVE_PROBLEMS
                for command in DERIVE_COMMANDS for fmt in ("plain", "latex", "json")]

# subcommand -> the schema of its JSON output
SCHEMAS = {"el": "cartan_form", "legendre": "legendre_form", "elh": "equation_system",
           "constraints": "equation_system", "hessian": "hessian", "reduce": "reduced_system",
           "energy": "expression", "shift": "equation_system", "prolong": "equation_system",
           "check-solution": "residual_report"}


# a regular (3, 1, 4) density past the derive ladder, where `reduce` substitutes
# 15 solved top jets of 33 terms each into a 108-term energy, giving a 595-term
# Hamiltonian: (problem, command, format)
SCALE_CASE = ("regular-3-1-4", "reduce", "plain")


# the plain goldens of the mixed systems, the scale case's included: (problem, command)
MIXED_CASES = [case[:2] for case in DERIVE_CASES + [SCALE_CASE]
               if case[1] in ("elh", "reduce", "shift") and case[2] == "plain"]


def golden_path(grid: str, system: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{grid}-{system}.json")


def derive_golden_path(problem: str, command: str, fmt: str) -> str:
    return os.path.join(DERIVE_DIR, f"{problem}-{command}.{fmt}")


def stdout_of(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


def check_solution_json(workdir: str, grid: str, system: str) -> str:
    """Stdout of `varjet check-solution --format json` on the named grid."""
    problem = os.path.join(workdir, f"{grid}.problem")
    gridfile = os.path.join(workdir, f"{grid}.grid")
    with open(problem, "w", encoding="utf-8") as fh:
        fh.write(PROBLEMS[grid])
    save_grid(GRIDS[grid](), gridfile)
    return stdout_of(["check-solution", problem, "--grid", gridfile,
                      "--system", system, "--format", "json"])


def derive_stdout(problem: str, command: str, fmt: str) -> str:
    """Stdout of `varjet <command> <problem> --format <fmt>`."""
    return stdout_of([command, problem_path(problem), "--format", fmt])


def problem_path(problem: str) -> str:
    """The file of a derive problem, or of the problem past the ladder."""
    past_the_ladder = os.path.join(GOLDEN_DIR, "problems", f"{problem}.problem")
    return DERIVE_PROBLEMS.get(problem, past_the_ladder)


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_goldens(workdir: str) -> None:
    """Regenerate every check-solution golden from the code on the import path."""
    for grid, system in CASES:
        _write(golden_path(grid, system), check_solution_json(workdir, grid, system))


def write_derive_goldens() -> None:
    """Regenerate every derivation golden from the code on the import path."""
    for case in DERIVE_CASES + [SCALE_CASE]:
        _write(derive_golden_path(*case), derive_stdout(*case))


@functools.lru_cache(maxsize=None)
def validator(command: str) -> jsonschema.Draft7Validator:
    """The validator of a subcommand's JSON output, its schema checked once."""
    with open(os.path.join(SCHEMA_DIR, f"{SCHEMAS[command]}.schema.json"),
              "r", encoding="utf-8") as fh:
        schema = json.load(fh)
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


def assert_schema(command: str, text: str) -> None:
    validator(command).validate(json.loads(text))


def assert_golden(path: str, got: str) -> None:
    """Fail naming the first line where ``got`` differs from the golden file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        want = fh.read()
    if got != want:
        got_lines, want_lines = got.splitlines(True), want.splitlines(True)
        k = next(k for k in range(max(len(got_lines), len(want_lines)))
                 if got_lines[k:k + 1] != want_lines[k:k + 1])
        pytest.fail(f"{path} line {k + 1}: "
                    f"expected {want_lines[k:k + 1]!r}, got {got_lines[k:k + 1]!r}")


@pytest.mark.parametrize("grid, system", CASES)
def test_check_solution_golden(tmp_path, grid, system):
    got = check_solution_json(str(tmp_path), grid, system)
    assert_golden(golden_path(grid, system), got)
    assert_schema("check-solution", got)


@pytest.mark.parametrize("problem, command, fmt", DERIVE_CASES)
def test_derive_golden(problem, command, fmt):
    got = derive_stdout(problem, command, fmt)
    assert_golden(derive_golden_path(problem, command, fmt), got)
    if fmt == "json":
        assert_schema(command, got)


def mixed_rows(problem: str, command: str):
    """The density of a golden problem and the rows of the mixed system that
    `command` (elh, shift or reduce) prints for it; reduce's plain and LaTeX
    outputs print these rows twice."""
    source = load_problem(problem_path(problem))
    lag = source.density
    if command == "elh":
        return lag, list(elh_system(lag).equations)
    if command == "shift":
        rho, _ = source.rho()
        return lag, list(momentum_shift(elh_system(lag), rho).equations)
    system = reduce_lagrangian(lag).system_hdw
    return lag, [] if system is None else list(system.equations)


def printed_rows(path: str, fmt: str):
    """The (label, row text) pairs of a golden: each "label: row = 0" line of
    a plain or LaTeX text, each entry of a JSON text's "equations"."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        return [(row["label"], row["residual"]) for row in json.loads(text)["equations"]]
    return [tuple(line[:-len(" = 0")].split(": ", 1)) for line in text.splitlines()
            if ": " in line and line.endswith(" = 0")]


@pytest.mark.parametrize("problem, command", MIXED_CASES)
def test_mixed_golden_rows_parse_back(problem, command):
    # each "label: row = 0" line of the golden, read by parse, is the row the
    # library builds; reduce prints its HDW rows twice
    lag, rows = mixed_rows(problem, command)
    printed = printed_rows(derive_golden_path(problem, command, "plain"), "plain")
    assert [(label, parse(text, lag.context)) for label, text in printed] == \
        rows * (2 if command == "reduce" else 1)


@pytest.mark.parametrize("problem, command, fmt",
                         [case for case in DERIVE_CASES if case[1] in ("elh", "reduce", "shift")])
def test_mixed_golden_rows_have_one_spelling_per_format(problem, command, fmt):
    # a mixed system's row is spelled by render in the density's context, as
    # every other output is; JSON carries the plain spelling
    lag, rows = mixed_rows(problem, command)
    if fmt != "json" and command == "reduce":
        rows *= 2
    spelled = [(label, render(res, lag.context, "plain" if fmt == "json" else fmt))
               for label, res in rows]
    assert printed_rows(derive_golden_path(problem, command, fmt), fmt) == spelled


@pytest.mark.parametrize("problem, command, fmt",
                         [case for case in DERIVE_CASES if case[1] == "reduce"])
def test_reduce_golden_head_lines_have_one_spelling_per_format(problem, command, fmt):
    # the P and P0 coordinates and each eliminated coordinate are spelled as
    # the format spells a coordinate: by latex_name in LaTeX, by name in plain
    # and JSON (JSON keys sort by text)
    lag = load_problem(DERIVE_PROBLEMS[problem]).density
    red, ctx = reduce_lagrangian(lag), lag.context
    spell = ctx.latex_name if fmt == "latex" else ctx.name
    eliminated = [spell(c) for c in sorted(red.substitutions)]
    with open(derive_golden_path(problem, command, fmt), "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        payload = json.loads(text)
        head = (payload["p_coords"], payload["p0_coords"], list(payload["substitutions"]))
        eliminated.sort()
    else:
        lines = text.splitlines()
        head = (lines[1][len("P coordinates:  "):].split(),
                lines[2][len("P0 coordinates: "):].split(),
                [line[len("eliminate "):].split(" = ")[0] for line in lines
                 if line.startswith("eliminate ")])
    assert head == ([spell(c) for c in red.p_coordinates],
                    [spell(c) for c in red.p0_coordinates], eliminated)


def test_latex_goldens_have_no_double_superscript():
    # LaTeX refuses x^{a}^{b}; a powered momentum p^{I.i} is grouped
    double = re.compile(r"\^\{[^{}]*\}\^")
    paths = glob.glob(os.path.join(GOLDEN_DIR, "**", "*.latex"), recursive=True)
    assert len(paths) == len(DERIVE_PROBLEMS) * len(DERIVE_COMMANDS)
    offending = []
    for path in sorted(paths):
        with open(path, "r", encoding="utf-8") as fh:
            offending += [f"{os.path.basename(path)}: {line}" for line in fh
                          if double.search(line)]
    assert offending == []


def test_golden_files_are_the_cases():
    # a regeneration writes every case's file and leaves no orphan behind
    problems = os.path.abspath(os.path.join(GOLDEN_DIR, "problems"))
    named = {golden_path(*case) for case in CASES}
    named |= {derive_golden_path(*case) for case in DERIVE_CASES + [SCALE_CASE]}
    named |= {path for path in DERIVE_PROBLEMS.values()
              if os.path.dirname(os.path.abspath(path)) == problems}
    named.add(os.path.join(problems, f"{SCALE_CASE[0]}.problem"))
    present = {os.path.join(root, name) for root, _, names in os.walk(GOLDEN_DIR)
               for name in names}
    assert sorted(map(os.path.abspath, present)) == sorted(map(os.path.abspath, named))


def test_reduce_golden_past_the_ladder():
    assert_golden(derive_golden_path(*SCALE_CASE), derive_stdout(*SCALE_CASE))


@pytest.mark.parametrize("problem, command, fmt",
                         [case for case in DERIVE_CASES + [SCALE_CASE] if case[1] == "reduce"])
def test_reduce_golden_prints_one_result_twice(problem, command, fmt):
    # the restricted energy is H and the rows on P are the HDW rows, so each
    # pair of copies is one rendering printed twice
    with open(derive_golden_path(problem, command, fmt), "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        assert not {"E_on_P", "equations_P"} & set(json.loads(text))
        return
    lines = text.splitlines()
    assert [line[len("E|_P = "):] for line in lines if line.startswith("E|_P = ")] == \
        [line[len("H = "):] for line in lines if line.startswith("H = ")]
    if "HDW equations:" not in lines:
        assert "equations on P:" not in lines
        return
    on_p, hdw = lines.index("equations on P:"), lines.index("HDW equations:")
    end = next((k for k in range(hdw, len(lines)) if lines[k].startswith("offending rows: ")),
               len(lines))
    assert lines[on_p + 1:hdw] == lines[hdw + 1:end]
