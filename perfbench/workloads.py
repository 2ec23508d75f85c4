"""Seeded input generation for the three benchmark workloads.

Nothing here imports varjet: the program under test receives only the texts
and files made here.  Every input is a pure function of (seed, cycle, slot),
so a seed fixes a run's inputs, and no two ops of a run share an input.

A run is a sequence of cycles.  A cycle holds one op per slot of the
workload's fixed ladder, so every cycle costs about the same whatever the
seed: the seed draws coefficients, factors and grid parameters, while the
shape of each slot (sizes, sparsity pattern, grid size) is fixed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import struct
from fractions import Fraction

import numpy as np

INDEPENDENTS = "txyz"
DEPENDENTS = "uv"

# -- derive-ladder -----------------------------------------------------------

# (n independents, m dependents, density order, kind).  "regular" is dense
# quadratic in the top jets; "reducible" is quadratic in a third of the top
# jets only (degenerate like KdV); "nonlinear" (a cubic top jet) and
# "assumption" (a free top jet times a lower jet) are diagnosed non-regular.
LADDER = (
    (2, 1, 2, "reducible"),
    (2, 1, 3, "regular"),
    (2, 2, 2, "regular"),
    (2, 2, 3, "nonlinear"),
    (3, 1, 2, "assumption"),
    (3, 1, 3, "reducible"),
    (3, 2, 2, "reducible"),
    (3, 2, 3, "nonlinear"),
    (4, 1, 2, "regular"),
    (4, 1, 3, "assumption"),
    (4, 2, 2, "nonlinear"),
    (4, 2, 3, "assumption"),
)

DERIVE_COMMANDS = ("el", "legendre", "elh", "constraints", "hessian",
                   "energy", "reduce", "shift", "prolong")

# what `reduce` must diagnose for each kind of density
DIAGNOSIS = {"regular": "regular",
             "reducible": "reducible",
             "nonlinear": "irreducible: nonlinear constraints",
             "assumption": "Assumption 1 check failed"}


def _rng(seed: int, *salt) -> random.Random:
    return random.Random("/".join(str(s) for s in (seed,) + salt))


def jet_name(alpha: int, index) -> str:
    word = "".join(INDEPENDENTS[i] for i in sorted(index))
    return DEPENDENTS[alpha] + ("_" + word if word else "")


def _coeff(rng: random.Random, bound: int = 5) -> Fraction:
    return Fraction(rng.randint(1, bound) * rng.choice((-1, 1)), rng.randint(1, 3))


def _term(coeff: Fraction, factors) -> str:
    """One monomial as text, e.g. '(-3/2)*u_x^2*v_t'."""
    powers = {}
    for f in factors:
        powers[f] = powers.get(f, 0) + 1
    body = "".join(f"*{f}" if p == 1 else f"*{f}^{p}" for f, p in sorted(powers.items()))
    return f"({coeff.numerator}/{coeff.denominator}){body}"


def _jets(n: int, m: int, orders) -> list:
    return [jet_name(a, I) for a in range(m) for k in orders
            for I in itertools.combinations_with_replacement(range(n), k)]


def density(n: int, m: int, order: int, kind: str, rng: random.Random) -> str:
    """Polynomial density text of the given kind (see LADDER)."""
    tops = _jets(n, m, (order,))
    lower = _jets(n, m, range(1, order))
    # the sparsity pattern is fixed per rung; the seed draws coefficients and
    # lower-order factors, so ops of one rung cost about the same
    quad = tops if kind == "regular" else tops[::3]
    rest = [t for t in tops if t not in quad]
    # banded quadratic form on `quad`, strictly diagonally dominant so that
    # it is nonsingular
    off = {(i, j): _coeff(rng, 3) for i in range(len(quad))
           for j in (i + 1, i + 3) if j < len(quad)}
    terms = []
    for i, a in enumerate(quad):
        row = sum(abs(c) for (p, q), c in off.items() if i in (p, q))
        terms.append(_term(Fraction(row + 1 + rng.randint(0, 3), 2), (a, a)))
    for (i, j), c in sorted(off.items()):
        terms.append(_term(c, (quad[i], quad[j])))
    # couplings linear in a solvable top jet, and lower-order interactions
    for a in quad[:3]:
        terms.append(_term(_coeff(rng), (a, rng.choice(lower))))
    for k in range(n + m):
        terms.append(_term(_coeff(rng), [rng.choice(lower) for _ in range(2 + k % 2)]))
    if kind == "nonlinear":
        terms.append(_term(_coeff(rng), (quad[-1],) * 3))
    elif kind == "assumption":
        terms.append(_term(_coeff(rng), (rest[0], rng.choice(lower))))
    return " + ".join(terms)


def problem_text(n: int, m: int, order: int, kind: str, rng: random.Random) -> str:
    lower = _jets(n, m, range(0, order))
    rho = [_term(_coeff(rng), [rng.choice(lower) for _ in range(1 + k % 2)])
           for k in range(n)]
    return "\n".join([
        f"independents = {' '.join(INDEPENDENTS[:n])}",
        f"dependents   = {' '.join(DEPENDENTS[:m])}",
        f"lagrangian   = {density(n, m, order, kind, rng)}",
        f"order        = {order}",
        f"seed         = {rng.randint(0, 2**31)}",
        f"rho          = {'; '.join(rho)}",
        "",
    ])


def lagrangian_of(problem: str) -> str:
    for line in problem.splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "lagrangian":
            return value.strip()
    raise ValueError("problem text has no lagrangian")


def derive_cycle(seed: int, cycle: int) -> list:
    ops = []
    for slot, (n, m, order, kind) in enumerate(LADDER):
        rng = _rng(seed, "derive", cycle, slot)
        ops.append({"kind": "derive", "slot": slot, "n": n, "m": m, "order": order,
                    "density": kind, "problem": problem_text(n, m, order, kind, rng)})
    return ops


# -- expand-roundtrip --------------------------------------------------------

# (independents, jets per factor, exponents): the op parses the product of
# (sum of jets)^exponent over the factors, with disjoint jets, so the term
# count is fixed per slot.  Counts run from about 200 to over 800; the
# largest keeps the quadratic re-parse visible.
EXPAND_SHAPES = (
    (2, (3,), (18,)),        # 190 terms
    (2, (3,), (19,)),        # 210
    (3, (5,), (6,)),         # 210
    (3, (2, 2), (13, 14)),   # 210
    (3, (4,), (9,)),         # 220
    (2, (4,), (9,)),         # 220
    (2, (3,), (20,)),        # 231
    (2, (2, 3), (10, 5)),    # 231
    (3, (2, 3), (8, 6)),     # 252
    (2, (3,), (21,)),        # 253
    (2, (5,), (7,)),         # 330
    (2, (2, 2), (27, 28)),   # 812
)

# coefficient magnitudes of a factor's summands.  The seed draws the jets,
# the signs and which jet gets which magnitude; that permutes the monomials
# of the expansion but keeps the sizes of its coefficients, so every seed
# gives a slot the same amount of rational arithmetic.
EXPAND_MAGNITUDES = (Fraction(3, 2), Fraction(2), Fraction(1, 3), Fraction(4, 3), Fraction(1))


def expand_cycle(seed: int, cycle: int) -> list:
    ops = []
    for slot, (n, sizes, exps) in enumerate(EXPAND_SHAPES):
        rng = _rng(seed, "expand", cycle, slot)
        chosen = iter(rng.sample(_jets(n, 1, range(0, 4)), sum(sizes)))
        factors = []
        for size, e in zip(sizes, exps):
            summands = [_term(rng.choice((-1, 1)) * c, (next(chosen),))
                        for c in rng.sample(EXPAND_MAGNITUDES[:size], size)]
            factors.append(f"({' + '.join(summands)})^{e}")
        ops.append({"kind": "expand", "slot": slot, "n": n, "expr": "*".join(factors)})
    return ops


# -- residual-grid -----------------------------------------------------------

KDV_PROBLEM = ("independents = t x\ndependents = u\n"
               "lagrangian = u_x^3 - 1/2*u_x*u_t + 1/2*u_xx^2\norder = 2\n")
WAVE3_PROBLEM = ("independents = t x y\ndependents = u\n"
                 "lagrangian = 1/2*u_t^2 - 1/2*u_x^2 - 1/2*u_y^2\norder = 1\n")

# (grid, points per axis, system).  The 1024^2 soliton has exactly half the
# 512^2 spacing, and the two `el` slots of a cycle share the soliton's
# parameters, so their residuals give the halving ratio.
GRID_SLOTS = tuple((g, s, system)
                   for g, s in (("soliton", 512), ("soliton", 1024), ("wave3", 128))
                   for system in ("el", "elh", "hdw"))
SOLITON_BOX = 16.0
WAVE3_BOX = 6.0


def grid_cycle(seed: int, cycle: int) -> list:
    """Op specs with grid parameters; grid_arrays makes the data."""
    ops = []
    for slot, (g, npts, system) in enumerate(GRID_SLOTS):
        # the two soliton `el` slots draw from the same stream
        salt = "el" if (g, system) == ("soliton", "el") else slot
        rng = _rng(seed, "grid", cycle, salt)
        if g == "soliton":
            params = {"c": rng.uniform(0.8, 1.2), "shift": rng.uniform(-2.0, 2.0)}
        else:
            params = {"angle": rng.uniform(0.0, 2 * math.pi),
                      "phase": rng.uniform(0.0, 2 * math.pi)}
        ops.append({"kind": "grid", "slot": slot, "grid": g, "npts": npts,
                    "system": system, "params": params,
                    "problem": KDV_PROBLEM if g == "soliton" else WAVE3_PROBLEM})
    return ops


def grid_arrays(op: dict):
    """(axes, origin, spacing, u) of an exact solution sampled on the op's grid."""
    p, npts = op["params"], op["npts"]
    if op["grid"] == "soliton":
        # KdV soliton u = -sqrt(c) tanh(sqrt(c)/2 (x - c t - shift))
        h = 2 * SOLITON_BOX / 511 * 512 / npts
        axis = -SOLITON_BOX + h * np.arange(npts)
        T, X = np.meshgrid(axis, axis, indexing="ij")
        c = p["c"]
        u = -math.sqrt(c) * np.tanh(math.sqrt(c) / 2 * (X - c * T - p["shift"]))
        return ("t", "x"), (axis[0],) * 2, (h,) * 2, u
    # plane wave u = sin(kx x + ky y - t + phase), |k| = 1: u_tt = u_xx + u_yy
    kx = 0.6 * math.cos(p["angle"]) - 0.8 * math.sin(p["angle"])
    ky = 0.6 * math.sin(p["angle"]) + 0.8 * math.cos(p["angle"])
    h = 2 * WAVE3_BOX / (npts - 1)
    axis = -WAVE3_BOX + h * np.arange(npts)
    T, X, Y = np.meshgrid(axis, axis, axis, indexing="ij")
    return ("t", "x", "y"), (axis[0],) * 3, (h,) * 3, np.sin(kx * X + ky * Y - T + p["phase"])


def write_grid(path: str, axes, origin, spacing, u) -> None:
    """The documented grid layout (docs/gridfile.md): magic, u32 header
    length, JSON header, then float64 little-endian C-order data."""
    header = json.dumps({"axes": list(axes), "fields": ["u"],
                         "origin": [float(v) for v in origin],
                         "shape": list(u.shape),
                         "spacing": [float(v) for v in spacing]},
                        sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"VJGRID1\n")
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(np.ascontiguousarray(u, dtype="<f8").tobytes())


# the reference job (calibrate.py) that scales each kind of op's time: the
# one the host slows as it slows the op
REFERENCE_JOB = {"derive": "interpreter", "expand": "interpreter", "grid": "stream"}

CYCLES = {"derive-ladder": derive_cycle,
          "expand-roundtrip": expand_cycle,
          "residual-grid": grid_cycle}

# cycles in a run of NOMINAL_SECONDS: on the seed code they take 11 to 23 s
# of scaled time (a 2-vCPU 2.0 GHz Xeon VM with Python 3.11), which with the
# reference jobs, warm-up, set-up and checks keeps a run under a minute even
# when the host runs at half speed.  The count scales with --seconds and
# does not depend on measured speed, so both sides of a comparison do the
# same work.
NOMINAL_SECONDS = 20
CYCLES_PER_RUN = {"derive-ladder": 2,
                  "expand-roundtrip": 2,
                  "residual-grid": 3}
