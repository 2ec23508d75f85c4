"""Correctness checks on op outputs, made after the timed run.

References never come from varjet: Euler-Lagrange equations are recomputed
with sympy (every op by jet-symbol differentiation, and some by
sympy.calculus.euler.euler_equations as well), expansions with sympy.expand,
and residuals are held to the numeric acceptance tolerances.  Each check
returns None when the op passes, else a one-line reason.

run.py starts `python3 checks.py` with a JSON list of [op, paired op,
full oracle] tasks on stdin and reads the list of reasons from stdout.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys

import sympy
from sympy.calculus.euler import euler_equations

from workloads import DEPENDENTS, DIAGNOSIS, INDEPENDENTS, jet_name, lagrangian_of

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_SEPARATOR = re.compile(r" ([+-]) ")


def _symbols(text: str) -> dict:
    return {name: sympy.Symbol(name) for name in set(_NAME.findall(text))}


def _monomial(text: str):
    factors = []
    for factor in text.split("*"):
        base, _, power = factor.partition("^")
        factors.append(sympy.Rational(base) if base[0].isdigit()
                       else sympy.Symbol(base) ** int(power or 1))
    return sympy.Mul(*factors)


def plain_to_sympy(text: str):
    """Read varjet's plain format ('3/2*u_x^2 - u_t + 1') term by term; a
    single sympify of a long sum is quadratic in the number of terms."""
    parts = _SEPARATOR.split(text.strip())
    head = parts[0]
    terms = [-_monomial(head[1:]) if head.startswith("-") else _monomial(head)]
    for sign, body in zip(parts[1::2], parts[2::2]):
        terms.append(_monomial(body) if sign == "+" else -_monomial(body))
    return sympy.Add(*terms)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _split_jet(name: str):
    dep, _, word = name.partition("_")
    return DEPENDENTS.index(dep), [INDEPENDENTS.index(ch) for ch in word]


def jet_euler_lagrange(n: int, m: int, order: int, lagrangian: str) -> list:
    """sum over multiindices I of (-1)^|I| D_I (dL/du_I), with the total
    derivative D_i = d/dx^i + sum_J u_Ji d/du_J over jet symbols."""
    L = sympy.sympify(lagrangian.replace("^", "**"), locals=_symbols(lagrangian))

    def total(e, i):
        out = sympy.Integer(0)
        for s in e.free_symbols:
            alpha, index = _split_jet(s.name)
            out += e.diff(s) * sympy.Symbol(jet_name(alpha, index + [i]))
        return out

    components = []
    for alpha in range(m):
        acc = sympy.Integer(0)
        for k in range(order + 1):
            for I in itertools.combinations_with_replacement(range(n), k):
                part = L.diff(sympy.Symbol(jet_name(alpha, I)))
                for i in I:
                    part = total(part, i)
                acc += (-1) ** k * part
        components.append(sympy.expand(acc))
    return components


def sympy_euler_lagrange(n: int, m: int, lagrangian: str) -> list:
    """The same components from sympy.calculus.euler.euler_equations."""
    xs = sympy.symbols(list(INDEPENDENTS[:n]))
    fs = [sympy.Function(d)(*xs) for d in DEPENDENTS[:m]]
    to_fn = {}
    for name, sym in _symbols(lagrangian).items():
        alpha, index = _split_jet(name)
        to_fn[sym] = sympy.Derivative(fs[alpha], *[xs[i] for i in index]) if index \
            else fs[alpha]
    eqs = euler_equations(sympy.sympify(lagrangian.replace("^", "**"),
                                        locals=_symbols(lagrangian)).xreplace(to_fn), fs, xs)
    back = {f: sympy.Symbol(DEPENDENTS[a]) for a, f in enumerate(fs)}
    out = []
    for eq in eqs:
        lhs = eq.lhs
        for d in lhs.atoms(sympy.Derivative):
            index = [xs.index(v) for v, count in d.variable_count for _ in range(count)]
            back[d] = sympy.Symbol(jet_name(fs.index(d.expr), index))
        out.append(sympy.expand(lhs.xreplace(back)))
    return out


def check_derive(op: dict, full_oracle: bool):
    outs = {cmd: _read(path) for cmd, path in op["outputs"].items()}
    diagnosis = outs["reduce"].splitlines()[0]
    if diagnosis != "diagnosis: " + DIAGNOSIS[op["density"]]:
        return f"reduce says {diagnosis!r} for a {op['density']} density"
    regular = "regular yes" in outs["hessian"].splitlines()[0]
    if regular != (op["density"] == "regular"):
        return f"hessian regularity {regular} for a {op['density']} density"
    lines = outs["el"].splitlines()
    if len(lines) != op["m"] or not all(line.endswith(" = 0") for line in lines):
        return "el output is not one '... = 0' line per dependent"
    got = [plain_to_sympy(line[:-4]) for line in lines]
    lagrangian = lagrangian_of(op["problem"])
    references = [jet_euler_lagrange(op["n"], op["m"], op["order"], lagrangian)]
    if full_oracle:
        references.append(sympy_euler_lagrange(op["n"], op["m"], lagrangian))
    for ref in references:
        for alpha, (a, b) in enumerate(zip(ref, got)):
            if sympy.expand(a - b) != 0:
                return f"Euler-Lagrange component {DEPENDENTS[alpha]} differs from sympy"
    return None


def check_expand(op: dict):
    if not op["result"].get("reparse_equal"):
        return "re-parse of the plain rendering differs from the original"
    text = op["expr"]
    ref = sympy.expand(sympy.sympify(text.replace("^", "**"), locals=_symbols(text)))
    if sympy.expand(ref - plain_to_sympy(_read(op["out"]))) != 0:
        return "expansion differs from sympy.expand"
    return None


# numeric acceptance tolerances: EL residual of the soliton at 512^2, the
# 512^2 -> 1024^2 halving ratio of 4th-order stencils, Legendre transport on
# the algebraic (top-order momentum) rows, and a finite-difference bound for
# every other row on every grid
SOLITON_EL_512 = 1e-5
HALVING_RATIO = (8.0, 32.0)
TRANSPORT = 1e-10
FD_BOUND = 1e-4
TRANSPORT_ROWS = ("mom:u:tt", "mom:u:tx", "mom:u:xx")


def grid_residuals(op: dict) -> dict:
    report = json.loads(_read(op["out"]))
    return {row["label"]: row["max_abs"] for row in report["equations"]}


def check_grid(op: dict, paired_el):
    res = grid_residuals(op)
    if not res or not all(math.isfinite(v) for v in res.values()):
        return "empty or non-finite residual report"
    for label, value in res.items():
        bound = TRANSPORT if label in TRANSPORT_ROWS else FD_BOUND
        if value > bound:
            return f"residual {label} = {value:.3e} above {bound:.0e}"
    if op["grid"] == "soliton" and op["system"] == "el" and op["npts"] == 512:
        if res["el:u"] > SOLITON_EL_512:
            return f"soliton EL residual {res['el:u']:.3e} above {SOLITON_EL_512:.0e}"
        if paired_el is not None:
            ratio = res["el:u"] / grid_residuals(paired_el)["el:u"]
            if not HALVING_RATIO[0] <= ratio <= HALVING_RATIO[1]:
                return f"halving ratio {ratio:.2f} outside {HALVING_RATIO}"
    return None


def check(op: dict, paired, full_oracle: bool):
    """The op's failure reason, or None when it passes."""
    if op["result"]["error"] is not None:
        return op["result"]["error"]
    try:
        if op["kind"] == "derive":
            return check_derive(op, full_oracle)
        if op["kind"] == "expand":
            return check_expand(op)
        return check_grid(op, paired)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc}"


def main() -> int:
    json.dump([check(*task) for task in json.load(sys.stdin)], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
