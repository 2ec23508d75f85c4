"""Floating-point evaluation and finite-difference residual verification.

Grid data lives on uniform rectangular grids; jets are estimated with
4th-order central stencils (one 1-D stencil per axis, so mixed partials are
composition-order independent), and only interior points ever enter a
residual: stencil application poisons the boundary band with NaN, evaluation
trims the accumulated margin and checks that nothing non-finite survives.

Every differenced array is named by its pass chain: a root array (a
dependent field or a momentum field) and the sequence of ``(axis, order)``
stencil passes applied to it.  The jet u_I is the root u with one pass per
axis that I contains, in ascending axis order (u_tx is ``u, ((0,1),(1,1))``);
a comma-derivative appends ``(axis, 1)`` to its operand's chain.  Arrays are
shared between equal chains only, so a reused array is bit-for-bit the one a
fresh computation would give: u_tx reuses the u_t pass, and the
comma-derivative u_{,t} is the jet u_t itself.  ``residual`` computes its
arrays one band of rows along axis 0 at a time, each on the band plus the
halo its later passes read, so it never holds a full-grid array of its own.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .multiindex import MultiIndex, multiindices_up_to
from .symcore import JET, CoordinateId, Expr, JetContext, VarjetError, row_echelon
from .jetcalc import EquationSystem
from .variational import LegendreForm

MAX_FD_ORDER = 4


class MissingFieldError(VarjetError):
    pass


class GridTooSmallError(VarjetError):
    pass


def evaluate(e: Expr, sample: Mapping[CoordinateId, object],
             powers: Optional[Dict[Tuple[CoordinateId, int], object]] = None):
    """Evaluate a polynomial at a sample; values may be floats or numpy arrays.

    Each power ``sample[c] ** p`` with p > 1 is computed once and kept in
    ``powers`` under (c, p); calls that pass one dict for one sample share
    their powers.
    """
    if powers is None:
        powers = {}
    total = None
    for mono, coeff in e.terms:
        term = float(coeff)
        for c, p in mono:
            if c not in sample:
                raise MissingFieldError(f"sample is missing coordinate {c}")
            if p == 1:
                term = term * sample[c]
                continue
            if (c, p) not in powers:
                powers[(c, p)] = sample[c] ** p
            term = term * powers[(c, p)]
        total = term if total is None else total + term
    if total is None:
        return 0.0
    return total


@dataclass
class GridFunction:
    """Uniform rectangular grid with one float64 array per dependent field."""

    axes: Tuple[str, ...]
    origin: Tuple[float, ...]
    spacing: Tuple[float, ...]
    fields: Dict[str, np.ndarray]

    def __post_init__(self):
        self.axes = tuple(self.axes)
        self.origin = tuple(float(v) for v in self.origin)
        self.spacing = tuple(float(v) for v in self.spacing)
        if not all(math.isfinite(v) for v in self.origin):
            raise VarjetError(f"grid origins must be finite, got {list(self.origin)}")
        if not all(h > 0 for h in self.spacing):
            raise VarjetError("grid spacings must be positive")
        # the stencils divide by h**order, which overflows at once when the
        # divisor is subnormal
        with np.errstate(over="ignore", under="ignore"):
            scales = np.power(self.spacing, MAX_FD_ORDER)
        if not (np.isfinite(scales) & (scales >= np.finfo(np.float64).tiny)).all():
            raise VarjetError(f"grid spacings {list(self.spacing)} are out of range: "
                              f"each h**{MAX_FD_ORDER} must be a normal float "
                              "(finite, nonzero and not subnormal)")
        shapes = {f.shape for f in self.fields.values()}
        if len(shapes) > 1:
            raise VarjetError("all field arrays must share one shape")
        for name, arr in self.fields.items():
            if arr.ndim != len(self.axes):
                raise VarjetError(f"field {name!r} rank does not match the axes")
            self.fields[name] = np.asarray(arr, dtype=np.float64)

    @property
    def shape(self) -> Tuple[int, ...]:
        return next(iter(self.fields.values())).shape

    def axis_values(self, a: int) -> np.ndarray:
        return self.origin[a] + self.spacing[a] * np.arange(self.shape[a])

    def meshes(self) -> List[np.ndarray]:
        """Coordinate arrays of the grid points, as read-only broadcast views."""
        return list(np.meshgrid(*(self.axis_values(a) for a in range(len(self.axes))),
                                indexing="ij", copy=False))


@lru_cache(maxsize=None)
def fd_weights(order: int, radius: int) -> Tuple[float, ...]:
    """Exact central finite-difference weights for one derivative order.

    Solves the Vandermonde moment system over the rationals on the symmetric
    stencil [-radius .. radius]; with radius = (order + 3) // 2 the truncation
    error is O(h^4).
    """
    offsets = list(range(-radius, radius + 1))
    npts = len(offsets)
    if order >= npts:
        raise GridTooSmallError("stencil too narrow for the requested derivative")
    # row k: sum_j w_j offset_j^k = order! if k == order else 0; the offsets
    # are distinct, so the echelon form has its pivots on the diagonal
    rhs = [Fraction(math.factorial(order) if k == order else 0) for k in range(npts)]
    rows, _ = row_echelon([[Fraction(o) ** k for o in offsets] + [rhs[k]] for k in range(npts)])
    weights = [Fraction(0)] * npts
    for k in reversed(range(npts)):
        row = rows[k]
        weights[k] = (row[npts] - sum(row[j] * weights[j] for j in range(k + 1, npts))) / row[k]
    return tuple(float(w) for w in weights)


def stencil_radius(order: int) -> int:
    return 0 if order == 0 else (order + 3) // 2


# elements per band of the stencil kernel: the band's two work buffers
# (512 KiB each) stay in cache while every tap streams through them; the
# residual's bands (see _stream) hold about as many elements
BAND_ELEMENTS = 1 << 16


def _check_axis(n: int, r: int) -> None:
    if n < 2 * r + 1:
        raise GridTooSmallError(f"axis of {n} points cannot host a radius-{r} stencil")


def _apply_stencil(arr: np.ndarray, axis: int, order: int, h: float) -> np.ndarray:
    """1-D central stencil along one axis; the boundary band becomes NaN.

    Every interior point gets
    ``(((0 + w_0 (a_{-r} - a_0)) + w_1 (a_{1-r} - a_0)) + ...) / h**order``
    over the taps other than the center: the weights sum to zero exactly, so
    constants are annihilated bit-exactly.  The output is computed in bands
    of about BAND_ELEMENTS elements along axis 0, in place in two preallocated
    buffers, with the operations above in that order for each element.
    """
    if order == 0:
        return arr
    arr = np.asarray(arr, dtype=np.float64)
    r = stencil_radius(order)
    n = arr.shape[axis]
    _check_axis(n, r)
    taps = [(k - r, w) for k, w in enumerate(fd_weights(order, r)) if k != r]
    scale = h ** order
    out = np.empty(arr.shape)
    edge = (slice(None),) * axis
    out[edge + (slice(0, r),)] = np.nan
    out[edge + (slice(n - r, n),)] = np.nan

    def window(lo: int, hi: int, o: int) -> tuple:
        """Rows lo..hi of axis 0, shifted by the tap offset o along the axis."""
        if axis == 0:
            return (slice(lo + o, hi + o),)
        return (slice(lo, hi),) + edge[1:] + (slice(r + o, n - r + o),)

    first, last = (r, n - r) if axis == 0 else (0, arr.shape[0])
    inner = list(arr.shape[1:])
    if axis:
        inner[axis - 1] = n - 2 * r
    step = max(1, BAND_ELEMENTS // max(1, math.prod(inner)))
    acc_buf = np.empty([min(step, last - first)] + inner)
    term_buf = np.empty_like(acc_buf)
    for lo in range(first, last, step):
        hi = min(lo + step, last)
        acc, term = acc_buf[:hi - lo], term_buf[:hi - lo]
        center = arr[window(lo, hi, 0)]
        for tap, (o, w) in enumerate(taps):
            np.subtract(arr[window(lo, hi, o)], center, out=term)
            np.multiply(term, w, out=term)
            if tap:
                np.add(acc, term, out=acc)
            else:  # 0 + x, not x: a first term of -0 sums to +0
                np.add(term, 0.0, out=acc)
        np.divide(acc, scale, out=out[window(lo, hi, 0)])
    return out


Chain = Tuple[Tuple[int, int], ...]


def _chain(index: MultiIndex) -> Chain:
    """The pass chain of the jet u_I: one (axis, count) pass per axis of I, ascending."""
    return tuple((axis, index.count(axis)) for axis in sorted(set(index.entries)))


def _check_prolongation(grid: GridFunction, order: int, ctx: JetContext) -> None:
    """The eager checks of ``residual``, made before any work: the order bound,
    the axes, the dependent fields, and the stencil of every jet of order
    ``order`` or less, whether or not the equations read it."""
    if order > MAX_FD_ORDER:
        raise VarjetError(f"finite-difference prolongation supports order <= {MAX_FD_ORDER}")
    if tuple(grid.axes) != ctx.independents:
        raise VarjetError("grid axes do not match the context independents")
    for alpha, dep in enumerate(ctx.dependents):
        if dep not in grid.fields:
            raise MissingFieldError(f"grid is missing the dependent field {dep!r}")
        if alpha == 0:
            # the first too-wide pass over all jets up to order, in their order
            for I in multiindices_up_to(ctx.n, order):
                for axis, m in _chain(I):
                    _check_axis(grid.shape[axis], stencil_radius(m))


def _fields(grid: GridFunction, ctx: JetContext) -> Dict[CoordinateId, np.ndarray]:
    """The zero jet of every dependent, by its field's array."""
    return {CoordinateId.jet(alpha): grid.fields[dep] for alpha, dep in enumerate(ctx.dependents)}


def _max_jet_order(exprs) -> int:
    return max((e.max_jet_order() for e in exprs), default=0)


def _jets_of(exprs) -> set:
    return {c for e in exprs for c in e.coordinates() if c.kind == JET}


Key = Tuple[CoordinateId, Chain]


def residual(system: EquationSystem, grid: GridFunction,
             momentum_fields: Optional[GridFunction] = None,
             legendre: Optional[LegendreForm] = None) -> Dict[str, float]:
    """Max-abs interior residual of every equation against sampled field data.

    Jet unknowns come from finite-difference prolongation of the grid,
    restricted to the jets the equations read.  For mixed first-order systems
    the momentum unknowns the equations read are either read from ``momentum_fields``
    (matching plain names, on the field grid's axes, origin and spacing) or
    generated by evaluating the Legendre-form coefficients along the
    prolonged field; comma-derivatives of all unknowns are differenced with
    the same stencils, through the same pass chains.  The grid checks (see _check_prolongation) run first; the
    residuals are then computed band by band along axis 0 (see _stream).
    """
    rows = [res for _, res in system.equations]
    dc = system.derived
    if dc is None:
        order = _max_jet_order(rows)
        _check_prolongation(grid, order, system.context)
        keys = {c: (CoordinateId.jet(c.alpha), _chain(c.index)) for c in _jets_of(rows)}
        return _stream(system, grid, keys, _fields(grid, system.context),
                       (stencil_radius(order),) * len(grid.shape))

    base = dc.base
    need = max([len(c.index) for c in dc.fiber if c.kind == JET], default=0)
    if legendre is not None:
        need = max(need, _max_jet_order(legendre.coeffs.values()))
    read = _jets_of(rows)
    fibers = {dc.fiber[c.alpha] for c in read}

    def supplied(c: CoordinateId) -> bool:
        return momentum_fields is not None and base.name(c) in momentum_fields.fields

    coeffs = {c: legendre.coefficient(c.alpha, c.index, c.i) for c in fibers
              if legendre is not None and c.kind != JET and not supplied(c)}
    _check_prolongation(grid, need, base)
    if momentum_fields is not None:
        for what in ("axes", "origin", "spacing"):
            mine, theirs = getattr(momentum_fields, what), getattr(grid, what)
            if mine != theirs:
                raise VarjetError(f"momentum grid has {what} {mine}, the field grid {theirs}")
    roots = _fields(grid, base)
    for c in fibers:
        if c.kind == JET:
            continue
        if supplied(c):
            roots[c] = momentum_fields.fields[base.name(c)]
            if roots[c].shape != grid.shape:
                raise VarjetError(f"momentum field {base.name(c)} has shape "
                                  f"{roots[c].shape}, the grid {grid.shape}")
        elif c in coeffs:
            roots[c] = coeffs[c]
        else:
            raise MissingFieldError(
                f"no field or Legendre form supplies the momentum {base.name(c)}")

    margin = [stencil_radius(need)] * base.n
    keys: Dict[CoordinateId, Key] = {}
    for c in read:
        f = dc.fiber[c.alpha]
        root, chain = (CoordinateId.jet(f.alpha), _chain(f.index)) if f.kind == JET \
            else (f, ())
        if len(c.index):
            # comma-derivatives of unknowns use the same first-order stencil
            axis = c.index.entries[0]
            chain += ((axis, 1),)
            margin[axis] = max(margin[axis], stencil_radius(need) + stencil_radius(1))
        keys[c] = (root, chain)
    return _stream(system, grid, keys, roots, tuple(margin))


def _halos(keys: Dict[CoordinateId, Key],
           inputs: Dict[CoordinateId, Dict[CoordinateId, Key]]) -> Dict[Key, int]:
    """The rows beyond a band that each array must cover: the axis-0 radii of
    the passes after it, and the halo of any momentum evaluated from it."""
    halo: Dict[Key, int] = {}

    def reach(key: Key, rows: int) -> None:
        root, chain = key
        for k in range(len(chain), -1, -1):
            if halo.get((root, chain[:k]), -1) >= rows:
                return  # and so do its prefixes
            halo[(root, chain[:k])] = rows
            if k and chain[k - 1][0] == 0:
                rows += stencil_radius(chain[k - 1][1])

    for key in keys.values():
        reach(key, 0)
    for root, jets in inputs.items():  # after every read of the momentum root
        for key in jets.values():
            reach(key, halo[(root, ())])
    return halo


def _schedule(equations, inputs: Dict[CoordinateId, Dict[CoordinateId, Key]]):
    """The steps of one band: each array (a Key) after the arrays it is made
    from, and each equation (its index) after the arrays it reads.  Also
    returns, for every step, the arrays it is the last to read."""
    steps: List[object] = []
    reads: List[List[Key]] = []

    def add(key: Key) -> None:
        if key not in done:
            root, chain = key
            needs = [(root, chain[:-1])] if chain else list(inputs.get(root, {}).values())
            for k in needs:
                add(k)
            done.add(key)
            steps.append(key)
            reads.append(needs)

    done: set = set()
    for j, (_, _, read) in enumerate(equations):
        for key in read.values():
            add(key)
        steps.append(j)
        reads.append(list(read.values()))
    last = {key: s for s, needs in enumerate(reads) for key in needs}
    dead: List[List[Key]] = [[] for _ in steps]
    for key, s in last.items():
        dead[s].append(key)
    return steps, dead


# an overflow, and the NaN of a difference of infinities, make a row
# non-finite, which _stream reports as a domain error rather than a warning
@np.errstate(over="ignore", invalid="ignore")
def _stream(system: EquationSystem, grid: GridFunction, keys: Dict[CoordinateId, Key],
            roots: Dict[CoordinateId, object], margin: Tuple[int, ...]) -> Dict[str, float]:
    """Max-abs residuals over the interior ``margin`` leaves, one band of rows
    along axis 0 at a time.

    ``keys`` maps each jet coordinate the equations read to the (root, pass
    chain) of the array it samples; ``roots`` gives each root (a dependent
    field's zero jet or a momentum) as a full-grid array, or a momentum as
    the Legendre coefficient to evaluate.  Each array of a band covers the
    band plus its halo (see _halos) and is dropped once nothing later in the
    band reads it.  Every element a band keeps goes through the operations
    of a full-grid computation in the same order, and a maximum is exact, so
    the residuals are bit-identical to a full-grid computation's.  A band
    holds about BAND_ELEMENTS elements, and is at least twice as high as the
    deepest halo, so that no array is computed on more than twice the band.
    """
    shape = grid.shape
    # the passes' own checks, before any work, in the order they are met
    for _, chain in keys.values():
        for axis, order in chain:
            _check_axis(shape[axis], stencil_radius(order))
    if any(s - 2 * m <= 0 for s, m in zip(shape, margin)):
        raise GridTooSmallError("grid too small for the stencil margins")
    inputs = {root: {c: (CoordinateId.jet(c.alpha), _chain(c.index)) for c in _jets_of([e])}
              for root, e in roots.items() if isinstance(e, Expr)}
    halo = _halos(keys, inputs)
    equations = [(label, res, {c: keys[c] for c in res.coordinates() if c in keys})
                 for label, res in system.equations]
    steps, dead = _schedule(equations, inputs)

    n0 = shape[0]
    first, stop = margin[0], n0 - margin[0]
    height = max(1, BAND_ELEMENTS // math.prod(shape[1:]), 2 * max(halo.values(), default=0))
    cols = tuple(slice(m, s - m) for m, s in zip(margin[1:], shape[1:]))
    meshes = grid.meshes()
    peak = [0.0] * len(equations)
    for lo in range(first, stop, height):
        hi = min(lo + height, stop)
        span = {key: (max(0, lo - rows), min(n0, hi + rows)) for key, rows in halo.items()}
        arrays: Dict[Key, np.ndarray] = {}
        powers: Dict[object, dict] = {}  # one cache per extent evaluated on

        def rows(key: Key, a: int, b: int) -> np.ndarray:
            return arrays[key][a - span[key][0]:b - span[key][0]]

        def sample(a: int, b: int, read: Dict[CoordinateId, Key], within: tuple = ()):
            """Rows a..b of the independents and of the arrays ``read`` names,
            cut to ``within`` on the other axes."""
            out = {CoordinateId.independent(i): mesh[(slice(a, b),) + within]
                   for i, mesh in enumerate(meshes)}
            for c, key in read.items():
                out[c] = rows(key, a, b)[(slice(None),) + within]
            return out

        for s, step in enumerate(steps):
            if isinstance(step, int):  # an equation
                _, res, read = equations[step]
                vals = evaluate(res, sample(lo, hi, read, cols), powers.setdefault(None, {}))
                if np.ndim(vals) == 0:
                    peak[step] = abs(float(vals))
                else:
                    top = float(np.max(np.abs(vals, out=vals)))
                    # a NaN or an infinity in any band makes the row non-finite
                    peak[step] = max(peak[step], top if math.isfinite(top) else math.inf)
            else:
                root, chain = step
                a, b = span[step]
                if chain:
                    axis, order = chain[-1]
                    r = stencil_radius(order) if axis == 0 else 0
                    a_in, b_in = max(0, a - r), min(n0, b + r)
                    out = _apply_stencil(rows((root, chain[:-1]), a_in, b_in),
                                         axis, order, grid.spacing[axis])
                    arrays[step] = out[a - a_in:b - a_in]
                elif root in inputs:
                    # a constant coefficient evaluates to a float
                    vals = evaluate(roots[root], sample(a, b, inputs[root]),
                                    powers.setdefault((a, b), {}))
                    arrays[step] = np.broadcast_to(vals, (b - a,) + shape[1:])
                else:
                    arrays[step] = roots[root][a:b]
            for key in dead[s]:
                del arrays[key]
    for (label, _, _), top in zip(equations, peak):
        if top == math.inf:
            raise VarjetError(f"non-finite interior residual for equation {label!r}")
    return {label: top for (label, _, _), top in zip(equations, peak)}


# -- grid file format --------------------------------------------------------

_MAGIC = b"VJGRID1\n"


def save_grid(grid: GridFunction, path: str) -> None:
    """Write the documented binary layout: magic, u32 header length, JSON
    header, then each field as little-endian float64 in C order."""
    names = sorted(grid.fields)
    header = json.dumps({
        "axes": list(grid.axes),
        "shape": list(grid.shape),
        "origin": list(grid.origin),
        "spacing": list(grid.spacing),
        "fields": names,
    }, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for name in names:
            fh.write(np.ascontiguousarray(grid.fields[name], dtype="<f8").tobytes())


_HEADER_KEYS = ("axes", "shape", "origin", "spacing", "fields")


def load_grid(path: str) -> GridFunction:
    """Read the layout save_grid writes; a malformed file raises a VarjetError
    that names it (the rules are in docs/gridfile.md)."""
    def bad(message: str) -> VarjetError:
        return VarjetError(f"{path}: {message}")

    def numbers(value, count: int) -> bool:
        return isinstance(value, list) and len(value) == count and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)

    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise bad("not a varjet grid file")
        size = os.fstat(fh.fileno()).st_size
        word = fh.read(4)
        if len(word) != 4:
            raise bad("truncated header length")
        (hlen,) = struct.unpack("<I", word)
        if fh.tell() + hlen > size:
            raise bad(f"truncated header: {hlen} bytes declared, "
                      f"{size - fh.tell()} present")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError:  # invalid UTF-8 or invalid JSON
            raise bad("header is not valid JSON") from None
        if not isinstance(header, dict):
            raise bad("header is not a JSON object")
        for key in _HEADER_KEYS:
            if key not in header:
                raise bad(f"header is missing the key {key!r}")
        axes, shape, origin, spacing, names = (header[key] for key in _HEADER_KEYS)
        if not (isinstance(axes, list) and all(isinstance(a, str) for a in axes)):
            raise bad("axes must be a list of names")
        if not (isinstance(shape, list)
                and all(type(k) is int and k > 0 for k in shape)):
            raise bad(f"shape entries must be positive integers, got {shape!r}")
        if len(shape) != len(axes):
            raise bad(f"shape has {len(shape)} entries for {len(axes)} axes")
        if not (numbers(origin, len(axes)) and numbers(spacing, len(axes))):
            raise bad(f"origin and spacing must be lists of {len(axes)} numbers")
        if not (isinstance(names, list) and names
                and all(isinstance(f, str) for f in names)
                and len(set(names)) == len(names)):
            raise bad("fields must be a non-empty list of distinct names")
        nbytes = 8 * math.prod(shape)
        present = size - fh.tell()
        if present != nbytes * len(names):
            raise bad(f"field data is {present} bytes, {len(names)} field(s) of "
                      f"shape {tuple(shape)} take {nbytes * len(names)}")
        fields = {}
        for name in names:
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(memoryview(arr).cast("B")) != nbytes:
                raise bad(f"truncated field {name!r}")
            fields[name] = arr
    try:
        return GridFunction(tuple(axes), tuple(origin), tuple(spacing), fields)
    except VarjetError as exc:
        raise bad(str(exc)) from None
