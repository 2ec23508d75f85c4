"""Golden CLI outputs: derivation stdout byte for byte, residuals bit for bit.

The derivation goldens (tests/golden/derive/) hold the stdout of every
derivation subcommand in every format for the three sample problems and three
derive-ladder problems (tests/golden/problems/).  The `check-solution
--format json` report prints each max-abs residual with full float
precision, so its byte comparison pins every residual bit.  Every JSON golden
also validates against its subcommand's schema under schemas/.  The goldens
were written once by `write_goldens` and `write_derive_goldens`; only a change
that means to alter an output regenerates them, and says why.
"""

import functools
import io
import json
import os
from contextlib import redirect_stdout

import jsonschema
import pytest

from conftest import soliton_grid, wave3_grid
from varjet.cli import main
from varjet.numeric import save_grid

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

# problem name -> (file, extra arguments of `shift`): a problem without rho
# shifts by one zero per independent
DERIVE_PROBLEMS = {
    "free_particle": (os.path.join(HERE, "..", "problems", "free_particle.problem"),
                      ["--rho", "0"]),
    "kdv": (os.path.join(HERE, "..", "problems", "kdv.problem"), []),
    "wave": (os.path.join(HERE, "..", "problems", "wave.problem"), ["--rho", "0; 0"]),
    **{name: (os.path.join(GOLDEN_DIR, "problems", f"{name}.problem"), [])
       for name in ("ladder-regular", "ladder-reducible", "ladder-nonregular")},
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
    path, shift_args = DERIVE_PROBLEMS[problem]
    extra = shift_args if command == "shift" else []
    return stdout_of([command, path, "--format", fmt, *extra])


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
    for case in DERIVE_CASES:
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
