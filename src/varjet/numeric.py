"""Floating-point evaluation and finite-difference residual verification.

Grid data lives on uniform rectangular grids; jets are estimated with
4th-order central stencils (one 1-D stencil per axis, so mixed partials are
composition-order independent), and only interior points ever enter a
residual: stencil application poisons the boundary band with NaN, evaluation
trims the accumulated margin and checks that nothing non-finite survives.
``GridFunction`` checks a grid and ``residual`` checks it against the
system, each axis's size included: an axis's margin is at least the radius
of every stencil pass along it, so the grid fits when each axis holds
2 margin + 1 points, the one size check.

Every differenced array is named by its pass chain: a root array (a
dependent field or a momentum field) and the sequence of ``(axis, order)``
stencil passes applied to it.  The jet u_I is the root u with one pass per
axis that I contains, in ascending axis order (u_tx is ``u, ((0,1),(1,1))``);
a comma-derivative appends ``(axis, 1)`` to its operand's chain.  Arrays are
shared between equal chains only, so a reused array is bit-for-bit the one a
fresh computation would give: u_tx reuses the u_t pass, and the
comma-derivative u_{,t} is the jet u_t itself.  ``residual`` computes its
arrays one band of rows along axis 0 at a time, each on the band plus the
halo its later passes read, in buffers planned once per call and reused by
every band.  The plan orders the arrays, each after its inputs, then walks
them back once, to give each its halo and its last reader, and forward
once, to size each and place it in a buffer that no live array holds.  A
band holds about BAND_ELEMENTS elements however deep the halos are, and a
pass along axis 0 computes only the rows its array keeps.  The buffers are
one page mapping per call, unmapped when ``residual`` returns, so a
process that checks several grids holds one call's buffers at a time.  A
grid file's fields are read one band of rows at a time too (load_grid
reads only the header), so a run on a grid file holds no full-grid array
at all.

The kernels skip every numpy pass that cannot change an output bit; each
rule rests on round-to-nearest arithmetic being sign-symmetric:

- ``_apply_stencil`` computes w_k (a_{j+k} - a_j) once for the mirrored
  taps +k and -k.  The central weights satisfy w_{-k} = (-1)**order w_k
  exactly, so tap -k's term w_{-k} (a_{i-k} - a_i) is that product read k
  points back and negated or not: negation commutes with a rounded product
  or difference, and ``s - x`` is ``s + (-x)``.  The two forms differ only
  in the sign of a zero term, and the sum, which starts as ``0 + t`` (or
  ``0 - t``) and so is never -0, adds either zero alike.
- ``evaluate`` multiplies by no coefficient of 1 (``1.0 * x`` is ``x``) and
  subtracts a term of coefficient -1 after the first (``s + (-1.0 * x)`` is
  ``s - x``); in the band loop it writes into the buffers it is given,
  with each product and sum taken in the order a term-by-term evaluation
  takes them.  Where a result is written changes no bit of it.
- ``_stream`` runs no stencil over a constant momentum (a Legendre
  coefficient that reads no coordinate evaluates to a finite float): every
  interior point of such a pass is ``0 + w (c - c) + ... = +0.0``, which is
  what the residuals read.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import mmap
import numbers
import os
import struct
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .symcore import (
    COMMA,
    INDEPENDENT,
    JET,
    MOMENTUM,
    CoordinateId,
    Expr,
    Q,
    UnsupportedExpressionError,
    VarjetError,
    eliminate,
)
from .jetcalc import EquationSystem

MAX_FD_ORDER = 4


class MissingFieldError(VarjetError):
    pass


class GridTooSmallError(VarjetError):
    pass


def _float(coeff: Q) -> float:
    """A coefficient as a float; one past the float range is a domain error."""
    try:
        return float(coeff)
    except OverflowError:  # |coeff| past about 1.8e308
        exponent = math.floor(math.log10(abs(coeff.numerator)) - math.log10(coeff.denominator))
        raise UnsupportedExpressionError(
            f"a coefficient of about 10^{exponent} is out of the float range") from None


Power = Tuple[CoordinateId, int]


def evaluate(e: Expr, sample: Mapping[CoordinateId, object],
             into: Optional[Tuple[np.ndarray, Optional[np.ndarray],
                                  Mapping[Power, np.ndarray]]] = None):
    """Evaluate a polynomial at a sample; values may be floats or numpy arrays.

    Each power ``sample[c] ** p`` with p > 1 is computed once per call.  The
    value is bit for bit the term-by-term sum ``((t_1 + t_2) + ...)`` with
    each term ``coeff * f_1 * f_2 * ...``: a coefficient of 1 is not
    multiplied (``1.0 * x`` is ``x``), and a term of coefficient -1 after the
    first is subtracted (``s + (-1.0 * x)`` is ``s - x``).  It never writes
    into a sample value and never returns one, so the caller owns an array
    it returns.

    ``into`` = (value, term, power buffers) has evaluate allocate nothing:
    for samples of arrays of one shape, the value is computed in ``value``,
    the products of each term after the first in ``term``, and each power
    (c, p) in its buffer; an array value is then ``value`` itself.  Without
    it, each product and sum is a new value.
    """
    value, term_buf, power_bufs = into if into is not None else (None, None, None)
    powers: Dict[Power, object] = {}
    total = None
    for mono, coeff in e.terms:
        factors = []
        for c, p in mono:
            if c not in sample:
                raise MissingFieldError(f"sample is missing coordinate {c}")
            if p == 1:
                factors.append(sample[c])
                continue
            if (c, p) not in powers:
                powers[(c, p)] = sample[c] ** p if into is None \
                    else np.power(sample[c], p, out=power_bufs[(c, p)])
            factors.append(powers[(c, p)])
        w = _float(coeff)
        unit = bool(factors) and (w == 1.0 or (w == -1.0 and total is not None))
        term, rest = (factors[0], factors[1:]) if unit else (w, factors)
        for f in rest:
            term = np.multiply(term, f, out=value if total is None else term_buf)
        if total is None:
            total = term
        else:
            op = np.subtract if unit and w < 0 else np.add
            total = op(total, term, out=value)
    if total is None:
        return 0.0
    if not isinstance(total, np.ndarray) or total is value:
        return total
    if into is not None:  # a lone sample value or power
        np.copyto(value, total)
        return value
    # a lone sample value, as 1.0 * x would copy it; a lone power is this call's
    return total.copy() if any(total is v for v in sample.values()) else total


def _writes_a_term(e: Expr) -> bool:
    """Whether evaluate computes a term after the first in a buffer: one of
    two factors or more, or of one factor and a coefficient other than +-1."""
    return any(len(mono) > 1 or (mono and abs(coeff) != 1) for mono, coeff in e.terms[1:])


@dataclass
class GridFunction:
    """Uniform rectangular grid with one float64 array per dependent field,
    or, from load_grid, one _FileField per field, read by rows on demand.
    It is the one home of a grid's rules, in memory and in a file alike
    (docs/gridfile.md lists them), and it never reads a _FileField."""

    axes: Tuple[str, ...]
    origin: Tuple[float, ...]
    spacing: Tuple[float, ...]
    fields: Dict[str, object]

    def __post_init__(self):
        if not (isinstance(self.axes, (list, tuple)) and all(isinstance(a, str) for a in self.axes)):
            raise VarjetError("axes must be a list of names")
        self.axes = tuple(self.axes)
        n = len(self.axes)
        try:
            values = [tuple(map(float, v)) for v in (self.origin, self.spacing)
                      if isinstance(v, (list, tuple)) and len(v) == n and all(
                          isinstance(x, numbers.Real) and not isinstance(x, bool) for x in v)]
        except OverflowError:  # an int past the float range
            values = []
        if len(values) != 2:
            raise VarjetError(f"origin and spacing must be lists of {n} numbers")
        self.origin, self.spacing = values
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
        if not self.fields:
            raise VarjetError("a grid needs at least one field")
        # a dict of the grid's own: the caller's is left as it was
        self.fields = dict(self.fields)
        for name, arr in self.fields.items():
            if not isinstance(arr, _FileField):
                try:
                    arr = np.asarray(arr)
                except ValueError:  # a ragged list
                    arr = None
                if arr is None or arr.dtype.kind not in "iuf":
                    raise VarjetError(f"field {name!r} is not a rectangular array of real numbers")
                self.fields[name] = np.asarray(arr, dtype=np.float64)
        if len({f.shape for f in self.fields.values()}) > 1:
            raise VarjetError("all field arrays must share one shape")
        if len(self.shape) != n:
            raise VarjetError(f"shape has {len(self.shape)} entries for {n} axes")

    @property
    def shape(self) -> Tuple[int, ...]:
        return next(iter(self.fields.values())).shape

    def meshes(self) -> List[np.ndarray]:
        """Coordinate arrays of the grid points, as read-only broadcast views."""
        return list(np.meshgrid(*(o + h * np.arange(n) for o, h, n
                                  in zip(self.origin, self.spacing, self.shape)),
                                indexing="ij", copy=False))


@lru_cache(maxsize=None)
def fd_weights(order: int) -> Tuple[float, ...]:
    """Exact central finite-difference weights for one derivative order, an
    integer >= 0: the Vandermonde moment system solved over the rationals on
    the stencil [-r .. r], r = stencil_radius(order), of truncation error O(h^4)."""
    if not (isinstance(order, numbers.Integral) and not isinstance(order, bool) and order >= 0):
        raise VarjetError(f"a derivative order must be an integer >= 0, got {order!r}")
    radius = stencil_radius(order)
    offsets = list(range(-radius, radius + 1))
    npts = len(offsets)
    # row k: sum_j w_j offset_j^k - (order! if k == order else 0) = 0, the
    # constant in column npts; the offsets are distinct, so every w_j is solved
    rows = {k: dict(enumerate([Q(o) ** k for o in offsets]
                              + [-math.factorial(order) if k == order else 0]))
            for k in range(npts)}
    solutions, _ = eliminate(rows, range(npts))
    return tuple(float(solutions[j].get(npts, 0)) for j in range(npts))


def stencil_radius(order: int) -> int:
    return 0 if order == 0 else (order + 3) // 2


# elements per band: a band of the residual (see _stream) holds about this
# many, and the stencil kernel's r q_k buffers share as many, so that they
# stay in cache while every tap streams through them.  The residual's arrays
# also cover their halos, so on a 128^3 grid the kernel computes 4 or 8 rows
# of 128^2 points a call; without bands of its own it ran 1.1-1.3x slower on
# 8 rows and 1.3-1.5x slower on 16 along axes 1 and 2 (2 vCPUs, warm heap: no
# page faults)
BAND_ELEMENTS = 1 << 16


def _stencil_work(shape: Tuple[int, ...], axis: int, r: int) -> int:
    """The elements of each of _apply_stencil's r q_k buffers, for a
    radius-r pass along axis whose result has ``shape``: an r-th of
    BAND_ELEMENTS in whole rows of axis 0 (at least one, at most the
    result's), and the r neighbours before them along the axis."""
    row = math.prod(shape[1:])
    rows = min(max(1, BAND_ELEMENTS // r // row), shape[0])
    return rows * row + r * math.prod(shape[axis + 1:])


def _apply_stencil(arr: np.ndarray, axis: int, order: int, h: float,
                   out: Optional[np.ndarray] = None,
                   work: Optional[np.ndarray] = None,
                   rows: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """1-D central stencil along one axis; the boundary band becomes NaN.

    Every interior point gets
    ``(((0 + t_{-r}) + t_{1-r}) + ... + t_r) / h**order`` over the taps other
    than the center, tap o being ``w_o (a_{i+o} - a_i)``: the weights sum to
    zero exactly, so constants are annihilated bit-exactly.  Mirrored taps
    share one product: with q_k[j] = w_k (a_{j+k} - a_j), tap +k is q_k[i]
    and tap -k is (-1)**(order+1) q_k[i-k], added or subtracted (bit for bit
    the same term, see the module docstring); that is 4r + 1 passes for a
    radius-r stencil.

    The output is computed in bands of about BAND_ELEMENTS / r elements
    along axis 0, so that the r q_k buffers together hold about
    BAND_ELEMENTS; each band's sum is taken and divided in its rows of the
    result.  Each pass runs over a band as one contiguous run of the
    flattened array, where the neighbour k points along the axis is
    k * stride elements on; along any axis but 0 that run also covers the
    axis's boundary points, which read neighbours across the band's other
    indices and are set to NaN at the end.

    ``rows`` = (a, b) computes only rows a..b of the result along axis 0
    (all of them by default); a pass along axis 0 then reads only the r
    rows of arr beyond them.  The result, of b - a rows, is written into
    ``out`` and the q_k buffers are carved from ``work`` (r buffers of the
    elements _stencil_work gives) when they are given, and allocated
    otherwise.  ``out`` must not overlap arr, and the axis must hold 2r + 1
    points (residual checks that once per call).
    """
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    r = stencil_radius(order)
    n = arr.shape[axis]
    a, b = rows if rows is not None else (0, arr.shape[0])
    weights = fd_weights(order)[r + 1:]  # w_1 .. w_r; w_{-k} = (-1)**order w_k
    mirror = np.add if order % 2 else np.subtract  # applies tap -k's sign
    scale = h ** order
    if out is None:
        out = np.empty((b - a,) + arr.shape[1:])
    flat, flat_out = arr.reshape(-1), out.reshape(-1)
    stride = math.prod(arr.shape[axis + 1:])  # elements from a point to its neighbour
    row = math.prod(arr.shape[1:])  # elements per index of axis 0
    # the runs start and end r neighbours inside the array along the axis
    first, last, pad = (max(a, r), min(b, n - r), 0) if axis == 0 else (a, b, r * stride)
    step = max(1, BAND_ELEMENTS // r // row)
    q_size = _stencil_work(out.shape, axis, r)
    if work is None:
        work = np.empty(r * q_size)
    q_bufs = [work[j * q_size:(j + 1) * q_size] for j in range(r)]
    for lo in range(first, last, step):
        start, stop = lo * row + pad, min(lo + step, last) * row - pad
        m = stop - start
        q = []
        for k, (w, buf) in enumerate(zip(weights, q_bufs), 1):
            # q_k from k neighbours before the run to its end
            back = k * stride
            qk = buf[:m + back]
            np.subtract(flat[start:stop + back], flat[start - back:stop], out=qk)
            np.multiply(qk, w, out=qk)
            q.append(qk)
        acc = flat_out[start - a * row:stop - a * row]
        for k in range(r, 0, -1):  # taps -r .. -1
            # 0 + x, not x: a first term of -0 sums to +0
            mirror(acc if k < r else 0.0, q[k - 1][:m], out=acc)
        for k in range(1, r + 1):  # taps 1 .. r
            np.add(acc, q[k - 1][k * stride:k * stride + m], out=acc)
        np.divide(acc, scale, out=acc)
    if axis == 0:  # the boundary rows the result holds
        out[:max(0, r - a)] = np.nan
        out[max(0, n - r - a):] = np.nan
    else:
        edge = (slice(None),) * axis
        out[edge + (slice(0, r),)] = np.nan
        out[edge + (slice(n - r, n),)] = np.nan
    return out


Chain = Tuple[Tuple[int, int], ...]
Key = Tuple[CoordinateId, Chain]


def _key(c: CoordinateId) -> Key:
    """The (root, pass chain) of the array that samples c: a jet u_I is its
    dependent's field with one (axis, count) pass per axis of I, ascending,
    a momentum is its own root, and a comma-derivative c,_J appends
    (axis, 1) to c's chain for each axis of J."""
    kind = c.kind
    if kind == JET:
        return CoordinateId.jet(c.alpha), tuple((axis, c.index.count(axis))
                                                for axis in sorted(set(c.index)))
    if kind == COMMA:
        root, chain = _key(c.base)
        return root, chain + tuple((axis, 1) for axis in c.comma_index)
    return c, ()


def residual(system: EquationSystem, grid: GridFunction,
             momentum_fields: Optional[GridFunction] = None,
             legendre: Optional[Mapping[CoordinateId, Expr]] = None) -> Dict[str, float]:
    """Max-abs interior residual of every equation against sampled field data.

    Jet unknowns come from finite-difference prolongation of the grid,
    restricted to the jets the equations read, to the order of the
    system's fiber, of the jets its rows read (a comma-derivative's base
    among them) and of ``legendre``, whichever is highest.
    The momentum unknowns the equations read are either read from
    ``momentum_fields`` (matching plain names, on the field grid's axes,
    origin, spacing and shape) or generated by evaluating ``legendre``, the
    map from each momentum to its jet-side coefficient that legendre_form
    returns (an absent momentum is zero), along the prolonged field;
    comma-derivatives of all unknowns are differenced with the same
    stencils, through the same pass chains.  The rules that relate the grid
    to the system are checked first; the residuals are then computed band
    by band along axis 0 (see _stream).
    """
    ctx = system.context
    rows = [res for _, res in system.equations]
    read = {c for e in rows for c in e.coordinates() if c.kind != INDEPENDENT}
    need = max([len(c.index) for c in read if c.base.kind == JET]
               + [len(c.index) for c in system.fiber if c.kind == JET], default=0)
    if legendre is not None:
        need = max([need] + [e.max_jet_order() for e in legendre.values()])
    momenta = {c.base for c in read if c.kind != JET and c.base.kind == MOMENTUM}

    def supplied(c: CoordinateId) -> bool:
        return momentum_fields is not None and ctx.name(c) in momentum_fields.fields

    r = stencil_radius(need)
    margin = [r] * ctx.n
    for c in read:  # a comma pass, a first-order stencil, widens the margin on its axis
        for axis in c.comma_index if c.kind == COMMA else ():
            margin[axis] = max(margin[axis], r + c.comma_index.count(axis) * stencil_radius(1))
    if need > MAX_FD_ORDER:
        raise VarjetError(f"finite-difference prolongation supports order <= {MAX_FD_ORDER}")
    if grid.axes != ctx.independents:
        raise VarjetError("grid axes do not match the context independents")
    for dep in ctx.dependents:
        if dep not in grid.fields:
            raise MissingFieldError(f"grid is missing the dependent field {dep!r}")
    # An axis's margin is at least the radius of every stencil pass along it
    # (a jet's passes have order ``need`` or less, and stencil_radius does not
    # decrease with the order; each comma pass adds its own radius), so 2
    # margin + 1 points is the one check that the grid fits.
    for points, m in zip(grid.shape, margin):
        if points < 2 * m + 1:
            raise GridTooSmallError(f"axis of {points} points cannot host a radius-{m} stencil")
    if momentum_fields is not None:
        for what in ("axes", "origin", "spacing", "shape"):
            mine, theirs = getattr(momentum_fields, what), getattr(grid, what)
            if mine != theirs:
                raise VarjetError(f"momentum grid has {what} {mine}, the field grid {theirs}")
    # the zero jet of every dependent is its field
    roots = {CoordinateId.jet(alpha): grid.fields[dep] for alpha, dep in enumerate(ctx.dependents)}
    for c in sorted(momenta):
        if supplied(c):
            roots[c] = momentum_fields.fields[ctx.name(c)]
        elif legendre is not None:
            roots[c] = legendre.get(c, Expr.zero())
            ctx.refuse(roots[c].coordinates(), f"the Legendre coefficient of {ctx.name(c)} reads",
                       jet_side=True)
        else:
            raise MissingFieldError(
                f"no field or Legendre form supplies the momentum {ctx.name(c)}")

    keys = {c: _key(c) for c in read}
    try:
        return _stream(system, grid, keys, roots, tuple(margin))
    except VarjetError as exc:
        # raised again without _stream's frames and the error it replaced,
        # whose locals would keep the arena alive for as long as it is held
        exc.__context__ = None
        raise exc.with_traceback(None)


def _schedule(equations, inputs: Dict[CoordinateId, Dict[CoordinateId, Key]]):
    """The plan of one band: its steps, the halo of each array, and for every
    step the arrays it is the last to read.

    The steps are each array (a Key) after the arrays it is made from, and
    each equation (its index) as soon as the arrays it reads are made, so
    that they can be dropped early.  One walk back over them meets every
    reader of an array before the array.  An array's halo, the rows beyond a
    band that it must cover, is the largest over its readers of the reader's
    halo plus the reader's axis-0 stencil radius: an equation reads at 0,
    and a momentum's inputs take its halo.  An array's last reader is the
    first that walk meets; each step's dead arrays are listed first read
    first."""
    steps: List[object] = []
    reads: List[Tuple[List[Key], int]] = []  # each step's inputs, and its axis-0 radius
    waiting = dict(enumerate(equations))

    def add(key: Key) -> None:
        if key not in done:
            root, chain = key
            needs = [(root, chain[:-1])] if chain else list(inputs.get(root, {}).values())
            for k in needs:
                add(k)
            done.add(key)
            steps.append(key)
            radius = stencil_radius(chain[-1][1]) if chain and chain[-1][0] == 0 else 0
            reads.append((needs, radius))
            for j, (_, _, read) in list(waiting.items()):
                if all(k in done for k in read.values()):
                    del waiting[j]
                    steps.append(j)
                    reads.append((list(read.values()), 0))

    done: set = set()
    for j, (_, _, read) in enumerate(equations):
        for key in read.values():
            add(key)
        if j in waiting:  # an equation that reads no array
            del waiting[j]
            steps.append(j)
            reads.append(([], 0))
    halo: Dict[Key, int] = {}
    last: Dict[Key, int] = {}  # each array's last reader, moved last at each read
    for s in range(len(steps) - 1, -1, -1):
        needs, radius = reads[s]
        rows = halo.get(steps[s], 0) + radius  # an equation's index is no Key
        for key in reversed(needs):  # so the first read, even of a key read twice, is last
            halo[key] = max(halo.get(key, 0), rows)
            last[key] = last.pop(key, s)
    dead: List[List[Key]] = [[] for _ in steps]
    for key in reversed(last):
        dead[last[key]].append(key)
    return steps, halo, dead


def _evaluated(where: str, e: Expr, sample, into=None):
    """``evaluate``, with ``where`` naming the expression in a domain error."""
    try:
        return evaluate(e, sample, into)
    except UnsupportedExpressionError as exc:  # a coefficient past the float range
        raise UnsupportedExpressionError(f"{where}: {exc}") from None


def _arena(elements: int) -> np.ndarray:
    """``elements`` float64s in an anonymous page mapping of their own, which
    goes back to the OS when the last view of it dies (glibc keeps the heap
    pages of an np.empty block once a larger block has been freed).  Where
    mmap takes flags (not on Windows) the mapping is private and, on Linux,
    mapped in by the call: a 9.4 MiB arena took 3.3-4.1 ms to map, fill and
    unmap so, and 6.3-7.7 ms as a shared mapping faulted in page by page
    (2-vCPU Xeon VM).  Every call pays its arena's pages afresh, about 1.4k
    minor faults for the 5.7 MiB of a 1024^2 ELH residual.  mmap refuses
    length 0, so an empty arena maps a byte."""
    size = max(1, 8 * elements)
    if not hasattr(mmap, "MAP_PRIVATE"):
        return np.frombuffer(mmap.mmap(-1, size), np.float64, count=elements)
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, size, flags), np.float64, count=elements)


def _read_rows(field, a: int, b: int, out: np.ndarray, files) -> np.ndarray:
    """Rows a..b of a field (an array, or a _FileField read from its open
    file in ``files``) into ``out``."""
    if isinstance(field, _FileField):
        return field.read(files[field.path], a, b, out)
    np.copyto(out, field[a:b])
    return out


# an overflow, and the NaN of a difference of infinities, make a row
# non-finite, which _stream reports as a domain error rather than a warning
@np.errstate(over="ignore", invalid="ignore")
def _stream(system: EquationSystem, grid: GridFunction, keys: Dict[CoordinateId, Key],
            roots: Dict[CoordinateId, object], margin: Tuple[int, ...]) -> Dict[str, float]:
    """Max-abs residuals over the interior ``margin`` leaves, one band of rows
    along axis 0 at a time.  A row that is non-finite in any band is a
    domain error, raised after the band loop for the first such row.

    ``keys`` maps each jet coordinate the equations read to the (root, pass
    chain) of the array it samples; ``roots`` gives each root (a dependent
    field's zero jet or a momentum) as a field, an array or a _FileField
    whose rows are read from the file as each band needs them, or a
    momentum as the Legendre coefficient to evaluate.  Each array of a band
    covers the band plus its halo, and each equation is evaluated as soon
    as the arrays it reads are made (see _schedule).
    Every element a band keeps goes through the operations of a full-grid
    computation in the same order, and a maximum is exact, so the residuals
    are bit-identical to a full-grid computation's.  A pass over a constant
    momentum is not run: its interior points, the only ones the residuals
    read, are exactly +0.0, and it becomes a broadcast 0.0 (the margin still
    covers its stencil).  A band holds BAND_ELEMENTS // row rows
    (at least one), however deep the halos: a halo deeper than the band
    only makes each array cover more rows than the band keeps.  A pass
    along axis 0 is computed on the rows its array covers, from its input's
    rows and the stencil radius's beyond them.

    No array is allocated in the band loop.  One arena is mapped per call
    (see _arena) and carved, for the tallest band, into a slot per array of
    the rows it covers, which a later array of the band reuses once nothing
    reads the earlier one (the smallest free slot that holds it, assigned
    as the arrays are sized), and into the buffers that evaluate
    and the stencil kernel compute in: the values of the equations that are
    not constant, a term's products, one buffer per power (c, p), as large
    as the largest value that reads it, in which each evaluate call computes
    that power afresh, and the kernel's q_k buffers, which hold about
    BAND_ELEMENTS in all.  Every band reuses them.  So the memory is a few
    bands' worth, whatever the grid's size, and it is unmapped when this
    returns.
    """
    shape = grid.shape
    inputs = {root: {c: _key(c) for c in e.coordinates() if c.kind == JET}
              for root, e in roots.items() if isinstance(e, Expr)}
    # momenta whose coefficient reads no coordinate: a finite float, so every
    # interior point of a pass over one is +0.0
    constant = {root for root in inputs if roots[root].constant_value() is not None}
    names = {root: system.context.name(root) for root in inputs}
    equations = [(label, res, {c: keys[c] for c in res.coordinates() if c in keys})
                 for label, res in system.equations]
    steps, halo, dead = _schedule(equations, inputs)

    n0, row = shape[0], math.prod(shape[1:])
    first, stop = margin[0], n0 - margin[0]
    height = max(1, BAND_ELEMENTS // row)
    cols = tuple(slice(m, s - m) for m, s in zip(margin[1:], shape[1:]))
    inner = tuple(s - 2 * m for m, s in zip(margin[1:], shape[1:]))  # an equation's columns

    def extent(reach: int) -> int:
        """The rows of an array that reaches ``reach`` rows beyond the tallest band."""
        return min(n0, height + 2 * reach)

    # the plan: the elements of every buffer, in the tallest band.  An array
    # (not an equation, nor a broadcast) takes the smallest free slot that
    # holds it, else a new one of its size; its slot frees once it is dead.
    slot: Dict[Key, int] = {}
    slot_sizes: List[int] = []
    free: List[int] = []
    kernel = 0
    for key, gone in zip(steps, dead):
        if not (isinstance(key, int) or key[0] in constant):
            kept = extent(halo[key])  # a pass too is computed on these rows only
            fits = [i for i in free if slot_sizes[i] >= kept * row]
            if fits:
                slot[key] = min(fits, key=slot_sizes.__getitem__)
                free.remove(slot[key])
            else:
                slot[key] = len(slot_sizes)
                slot_sizes.append(kept * row)
            if key[1]:
                axis, order = key[1][-1]
                r = stencil_radius(order)
                kernel = max(kernel, r * _stencil_work((kept,) + shape[1:], axis, r))
        free.extend(slot[k] for k in gone if k in slot)
    # each evaluation: an equation on the band's rows, a momentum on its halo's
    evaluations = [(height * math.prod(inner), res) for _, res, _ in equations]
    evaluations += [(extent(halo[(root, ())]) * row, roots[root])
                    for root in inputs if root not in constant]
    sizes: Dict[object, int] = {("slot", i): size for i, size in enumerate(slot_sizes)}
    varying = any(res.constant_value() is None for _, res, _ in equations)
    sizes["value"] = height * math.prod(inner) if varying else 0
    sizes["term"] = max((size for size, e in evaluations if _writes_a_term(e)), default=0)
    sizes["kernel"] = kernel
    for size, e in evaluations:  # a buffer per power, for the largest value that reads it
        for cp in (cp for mono, _ in e.terms for cp in mono if cp[1] > 1):
            sizes[cp] = max(sizes.get(cp, 0), size)
    arena = _arena(sum(sizes.values()))
    buf = dict(zip(sizes, np.split(arena, list(itertools.accumulate(sizes.values()))[:-1])))

    def view(name, rows: int, within: Tuple[int, ...] = shape[1:]) -> np.ndarray:
        return buf[name][:rows * math.prod(within)].reshape((rows,) + within)

    def into(e: Expr, value: Optional[np.ndarray]):
        """evaluate's buffers for e's value, in value's shape; none when every
        equation is constant, and so has no value buffer."""
        if value is None:
            return None
        n = value.size
        term = buf["term"][:n].reshape(value.shape) if buf["term"].size >= n else None
        return value, term, {cp: buf[cp][:n].reshape(value.shape)
                             for mono, _ in e.terms for cp in mono if cp[1] > 1}

    meshes = grid.meshes()
    zero = np.broadcast_to(0.0, shape)
    consts = {root: np.broadcast_to(_evaluated(f"the Legendre coefficient of {names[root]}",
                                               roots[root], {}), shape)
              for root in constant}
    files = {f.path: f for f in roots.values() if isinstance(f, _FileField)}
    peak = [0.0] * len(equations)
    with contextlib.ExitStack() as stack:
        opened = {path: stack.enter_context(f.opened()) for path, f in files.items()}
        for lo in range(first, stop, height):
            hi = min(lo + height, stop)
            span = {key: (max(0, lo - rows), min(n0, hi + rows)) for key, rows in halo.items()}
            arrays: Dict[Key, np.ndarray] = {}
            values = view("value", hi - lo, inner) if varying else None

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

            def make(key: Key) -> np.ndarray:
                """The band's array of ``key``, from arrays made before it."""
                root, chain = key
                a, b = span[key]
                if root in constant:
                    return (zero if chain else consts[root])[:b - a]
                if chain:
                    axis, order = chain[-1]
                    r = stencil_radius(order) if axis == 0 else 0
                    a_in, b_in = max(0, a - r), min(n0, b + r)
                    return _apply_stencil(rows((root, chain[:-1]), a_in, b_in), axis, order,
                                          grid.spacing[axis], view(("slot", slot[key]), b - a),
                                          buf["kernel"], (a - a_in, b - a_in))
                if root in inputs:
                    return _evaluated(f"the Legendre coefficient of {names[root]}", roots[root],
                                      sample(a, b, inputs[root]),
                                      into(roots[root], view(("slot", slot[key]), b - a)))
                return _read_rows(roots[root], a, b, view(("slot", slot[key]), b - a), opened)

            for s, step in enumerate(steps):
                if not isinstance(step, int):
                    arrays[step] = make(step)
                else:  # an equation
                    label, res, read = equations[step]
                    vals = _evaluated(f"equation {label!r}", res, sample(lo, hi, read, cols),
                                      into(res, values))
                    if np.ndim(vals) == 0:
                        peak[step] = abs(float(vals))
                    else:
                        # max |x| = max(|max x|, |min x|), read without writing vals;
                        # a NaN or an infinity in any band makes the row non-finite
                        vmax, vmin = float(vals.max()), float(vals.min())
                        top = max(abs(vmax), abs(vmin)) \
                            if math.isfinite(vmax) and math.isfinite(vmin) else math.inf
                        peak[step] = max(peak[step], top)
                for key in dead[s]:
                    del arrays[key]
    for (label, _, _), top in zip(equations, peak):
        if top == math.inf:  # the mark of a non-finite row
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
    # the fields are read before open() truncates path, which they may be read from
    data = [np.ascontiguousarray(grid.fields[name], dtype="<f8") for name in names]
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for arr in data:
            fh.write(arr.tobytes())


def _stamp(st: os.stat_result) -> Tuple[int, ...]:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class _FileField:
    """One field of a grid file, as load_grid found it: ``read`` reads rows
    of it from the open file, and ``np.asarray`` reads all of it.

    The file must not change while it is in use.  A file whose device,
    inode, size or modification time differs from load_grid's, on opening
    or after use, and a short read, are errors that name it.
    """

    def __init__(self, path: str, name: str, offset: int, shape: Tuple[int, ...],
                 stamp: Tuple[int, ...]):
        self.path, self.name, self.offset, self.stamp = path, name, offset, stamp
        self.shape = tuple(shape)

    def _check(self, fh) -> None:
        if _stamp(os.fstat(fh.fileno())) != self.stamp:
            raise VarjetError(f"{self.path}: the file changed after it was loaded")

    @contextlib.contextmanager
    def opened(self):
        """The file, unbuffered, checked unchanged when opened and after use."""
        try:
            fh = open(self.path, "rb", buffering=0)
        except OSError as exc:
            raise VarjetError(f"{self.path}: {exc.strerror}") from None
        with fh:
            self._check(fh)
            yield fh
            self._check(fh)

    def read(self, fh, a: int, b: int, out: np.ndarray) -> np.ndarray:
        """Rows a..b into ``out``, a C-contiguous float64 array of their shape."""
        rest = memoryview(out).cast("B")
        fh.seek(self.offset + a * 8 * math.prod(self.shape[1:]))
        while rest:
            got = fh.readinto(rest)
            if not got:
                raise VarjetError(f"{self.path}: truncated field {self.name!r}")
            rest = rest[got:]
        if sys.byteorder == "big":  # the file's floats are little-endian
            out.byteswap(inplace=True)
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.empty(self.shape)
        with self.opened() as fh:
            self.read(fh, 0, self.shape[0], out)
        return out if dtype is None else out.astype(dtype, copy=False)


_HEADER_KEYS = ("axes", "shape", "origin", "spacing", "fields")


def load_grid(path: str) -> GridFunction:
    """Read the header of the layout save_grid writes, and check the file's
    size against it; a malformed file raises a VarjetError that names it
    (the rules are in docs/gridfile.md).  No field data is read: each field
    is a _FileField, whose rows residual reads one band at a time."""
    def bad(message: str) -> VarjetError:
        return VarjetError(f"{path}: {message}")

    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise bad("not a varjet grid file")
        stat = os.fstat(fh.fileno())
        size = stat.st_size
        word = fh.read(4)
        if len(word) != 4:
            raise bad("truncated header length")
        (hlen,) = struct.unpack("<I", word)
        if fh.tell() + hlen > size:
            raise bad(f"truncated header: {hlen} bytes declared, "
                      f"{size - fh.tell()} present")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (ValueError, RecursionError):  # invalid UTF-8 or JSON, or nested too deep
            raise bad("header is not valid JSON") from None
        if not isinstance(header, dict):
            raise bad("header is not a JSON object")
        for key in _HEADER_KEYS:
            if key not in header:
                raise bad(f"header is missing the key {key!r}")
        axes, shape, origin, spacing, names = (header[key] for key in _HEADER_KEYS)
        if not (isinstance(shape, list)
                and all(type(k) is int and k > 0 for k in shape)):
            raise bad(f"shape entries must be positive integers, got {shape!r}")
        if not (isinstance(names, list) and names
                and all(isinstance(f, str) for f in names)
                and len(set(names)) == len(names)):
            raise bad("fields must be a non-empty list of distinct names")
        nbytes = 8 * math.prod(shape)
        fields = {name: _FileField(path, name, fh.tell() + k * nbytes, shape, _stamp(stat))
                  for k, name in enumerate(names)}
        try:
            grid = GridFunction(axes, origin, spacing, fields)
        except VarjetError as exc:
            raise bad(str(exc)) from None
        present = size - fh.tell()
        if present != nbytes * len(names):
            raise bad(f"field data is {present} bytes, {len(names)} field(s) of "
                      f"shape {tuple(shape)} take {nbytes * len(names)}")
    return grid
