"""Golden `check-solution --format json` outputs: residuals bit for bit.

The JSON report prints each max-abs residual with full float precision, so
a byte comparison pins every residual bit.  The goldens under tests/golden/
were written once by `write_goldens`; only a change that means to alter
residuals regenerates them, and says why.
"""

import io
import os
from contextlib import redirect_stdout

import pytest

from conftest import soliton_grid, wave3_grid
from varjet.cli import main
from varjet.numeric import save_grid

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

PROBLEMS = {
    "kdv": ("independents = t x\ndependents = u\n"
            "lagrangian = u_x^3 - 1/2*u_x*u_t + 1/2*u_xx^2\norder = 2\n"),
    "wave3": ("independents = t x y\ndependents = u\n"
              "lagrangian = 1/2*u_t^2 - 1/2*u_x^2 - 1/2*u_y^2\norder = 1\n"),
}


GRIDS = {"kdv": lambda: soliton_grid(64, 64, box=8.0), "wave3": lambda: wave3_grid(24)}
CASES = [(grid, system) for grid in GRIDS for system in ("el", "elh", "hdw")]


def golden_path(grid: str, system: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{grid}-{system}.json")


def check_solution_json(workdir: str, grid: str, system: str) -> str:
    """Stdout of `varjet check-solution --format json` on the named grid."""
    problem = os.path.join(workdir, f"{grid}.problem")
    gridfile = os.path.join(workdir, f"{grid}.grid")
    with open(problem, "w", encoding="utf-8") as fh:
        fh.write(PROBLEMS[grid])
    save_grid(GRIDS[grid](), gridfile)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["check-solution", problem, "--grid", gridfile,
                     "--system", system, "--format", "json"])
    assert code == 0
    return out.getvalue()


def write_goldens(workdir: str) -> None:
    """Regenerate every golden from the code on the import path."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for grid, system in CASES:
        with open(golden_path(grid, system), "w", encoding="utf-8", newline="") as fh:
            fh.write(check_solution_json(workdir, grid, system))


@pytest.mark.parametrize("grid, system", CASES)
def test_check_solution_golden(tmp_path, grid, system):
    with open(golden_path(grid, system), "r", encoding="utf-8", newline="") as fh:
        want = fh.read()
    got = check_solution_json(str(tmp_path), grid, system)
    if got != want:
        got_lines, want_lines = got.splitlines(True), want.splitlines(True)
        k = next(k for k in range(max(len(got_lines), len(want_lines)))
                 if got_lines[k:k + 1] != want_lines[k:k + 1])
        pytest.fail(f"{golden_path(grid, system)} line {k + 1}: "
                    f"expected {want_lines[k:k + 1]!r}, got {got_lines[k:k + 1]!r}")
