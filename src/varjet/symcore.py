"""Exact symbolic kernel: canonical polynomial normal forms over jet and momentum coordinates.

Expressions are polynomials with exact rational coefficients in three kinds of
coordinates: independent variables x^i, jet coordinates u_I^a (dependent
variable a, multiindex I), and momentum coordinates p_a^{I.i}.  The normal
form is unique: no zero coefficients, like monomials merged, monomials and
factors sorted by a fixed total order.  Structural equality therefore decides
mathematical equality.

Every result that can break the normal form goes through one normalisation
path, ``_normal_form``: summands and products stream their terms into one
dict and the merged monomials are sorted once, by keys built from each
coordinate's stored sort key.  Sums of many parts (the parser, substitution,
total derivatives, the variational and reduction constructions) make one
builder call, ``Expr.sum`` or ``Expr(terms)``, so a result is normalised
once, not once per partial sum.
Negation, scaling by a nonzero rational and powers of a single term keep the
order and skip it.  A power of a sum is expanded by the multinomial theorem,
one term per composition of the exponent, and normalised once.  Products and
powers whose size bound exceeds MAX_TERMS are refused before any work.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .multiindex import EMPTY, MultiIndex, multiindices_up_to

INDEPENDENT = "independent"
JET = "jet"
MOMENTUM = "momentum"

_KIND_RANK = {INDEPENDENT: 0, JET: 1, MOMENTUM: 2}


class VarjetError(Exception):
    """Base class for all domain errors."""


class ParseError(VarjetError):
    def __init__(self, message: str, text: str = "", pos: int = 0):
        self.pos = pos
        self.line = 1 + text.count("\n", 0, pos)
        self.column = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} (line {self.line}, column {self.column})")


class UnknownCoordinateError(VarjetError):
    pass


class UnsupportedExpressionError(VarjetError):
    pass


class OrderOverflowError(VarjetError):
    pass


class WrongDomainError(VarjetError):
    pass


@dataclass(frozen=True)
class CoordinateId:
    """One coordinate: an independent variable, a jet u_I^a, or a momentum p_a^{I.i}.

    ``alpha`` is the 0-based dependent index (jets and momenta), ``i`` the
    0-based independent index (independents and momenta).  A jet with empty
    multiindex is the dependent variable itself.  The sort key and the hash
    are computed once, at construction, in fields that equality ignores.
    """

    kind: str
    alpha: int = -1
    index: MultiIndex = EMPTY
    i: int = -1
    _key: Tuple[int, int, int, Tuple[int, ...], int] = field(
        init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # independents before jets before momenta; jets by (alpha, |I|, I);
        # momenta by (alpha, |I|, I, i).
        if self.kind == INDEPENDENT:
            key = (0, self.i, 0, (), 0)
        else:
            key = (_KIND_RANK[self.kind], self.alpha, len(self.index), self.index.entries, self.i)
        object.__setattr__(self, "_key", key)
        # hashed from the key, which equal fields give equal and which holds
        # only ints, so the cached value is the same in every process
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def independent(cls, i: int) -> "CoordinateId":
        return cls(INDEPENDENT, i=i)

    @classmethod
    def jet(cls, alpha: int, index: MultiIndex = EMPTY) -> "CoordinateId":
        return cls(JET, alpha=alpha, index=index)

    @classmethod
    def momentum(cls, alpha: int, index: MultiIndex, i: int) -> "CoordinateId":
        return cls(MOMENTUM, alpha=alpha, index=index, i=i)

    def sort_key(self) -> Tuple[int, int, int, Tuple[int, ...], int]:
        return self._key

    def __lt__(self, other: "CoordinateId") -> bool:
        return self._key < other._key


_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")


@dataclass(frozen=True)
class JetContext:
    """Declares the bundle: independent and dependent variable names plus order bounds.

    ``max_order`` is the highest admitted jet order and momentum level;
    operations that would exceed it raise OrderOverflowError unless
    ``auto_extend`` is set.
    ``jet_style`` selects the rendering of jets: "suffix" (u_xx) for base
    contexts with simple names, "comma" (u_x,_t) for derived first-order
    contexts whose dependents carry compound names.
    """

    independents: Tuple[str, ...]
    dependents: Tuple[str, ...]
    max_order: int = 4
    auto_extend: bool = False
    jet_style: str = "suffix"

    def __post_init__(self):
        object.__setattr__(self, "independents", tuple(self.independents))
        object.__setattr__(self, "dependents", tuple(self.dependents))
        if not self.independents or not self.dependents:
            raise ValueError("need at least one independent and one dependent variable")
        if self.max_order < 0:
            raise ValueError("max_order must be nonnegative")
        names = self.independents + self.dependents
        if len(set(names)) != len(names):
            raise ValueError("coordinate names must be pairwise distinct")
        if self.jet_style == "suffix":
            for name in names:
                if not _NAME_RE.match(name):
                    raise ValueError(f"invalid coordinate name {name!r}")
        elif self.jet_style != "comma":
            raise ValueError(f"unknown jet_style {self.jet_style!r}")

    @property
    def n(self) -> int:
        return len(self.independents)

    @property
    def m(self) -> int:
        return len(self.dependents)

    def check_order(self, index: MultiIndex) -> None:
        if len(index) > self.max_order and not self.auto_extend:
            raise OrderOverflowError(
                f"jet order {len(index)} exceeds max_order {self.max_order} "
                "(enable auto_extend to lift the bound)")

    def extended(self, max_order: int) -> "JetContext":
        if max_order <= self.max_order:
            return self
        return JetContext(self.independents, self.dependents, max_order,
                          self.auto_extend, self.jet_style)

    # -- naming ---------------------------------------------------------

    def index_word(self, index: MultiIndex) -> str:
        return "".join(self.independents[i] for i in index)

    def name(self, c: CoordinateId) -> str:
        if c.kind == INDEPENDENT:
            return self.independents[c.i]
        if c.kind == JET:
            base = self.dependents[c.alpha]
            if len(c.index) == 0:
                return base
            word = self.index_word(c.index)
            if self.jet_style == "comma":
                return f"{base},_{word}"
            return f"{base}_{word}"
        tag = f"^{self.dependents[c.alpha]}" if self.m > 1 else ""
        return f"p{tag}_{self.index_word(c.index)}.{self.independents[c.i]}"

    def latex_name(self, c: CoordinateId) -> str:
        if c.kind == INDEPENDENT:
            return self.independents[c.i]
        if c.kind == JET:
            base = self.dependents[c.alpha]
            if len(c.index) == 0:
                return base
            word = self.index_word(c.index)
            if self.jet_style == "comma":
                return f"{base}{{}}_{{,{word}}}"
            return f"{base}_{{{word}}}"
        word = self.index_word(c.index)
        tag = f"[{self.dependents[c.alpha]}]" if self.m > 1 else ""
        return f"p{tag}^{{{word}.{self.independents[c.i]}}}"

    # -- resolution -----------------------------------------------------

    def resolve(self, name: str) -> CoordinateId:
        """Resolve an identifier to a coordinate; raises UnknownCoordinateError."""
        coord = self._try_resolve(name)
        if coord is None:
            raise UnknownCoordinateError(f"unknown identifier {name!r}")
        return coord

    def _try_resolve(self, name: str) -> Optional[CoordinateId]:
        if name in self.independents:
            return CoordinateId.independent(self.independents.index(name))
        if name in self.dependents:
            return CoordinateId.jet(self.dependents.index(name))
        if ",_" in name:
            base, _, word = name.partition(",_")
            parent = self._try_resolve(base)
            if parent is None or parent.kind != JET:
                return None
            suffix = self._split_index_word(word)
            if suffix is None:
                return None
            index = parent.index
            for i in suffix:
                index = index.with_index(i)
            self.check_order(index)
            return CoordinateId.jet(parent.alpha, index)
        if self.jet_style == "suffix":
            mom = self._try_momentum(name)
            if mom is not None:
                return mom
            for alpha, dep in sorted(enumerate(self.dependents),
                                     key=lambda t: -len(t[1])):
                if name.startswith(dep + "_"):
                    suffix = self._split_index_word(name[len(dep) + 1:])
                    if suffix is not None:
                        index = MultiIndex(tuple(suffix))
                        self.check_order(index)
                        return CoordinateId.jet(alpha, index)
        return None

    def _try_momentum(self, name: str) -> Optional[CoordinateId]:
        if not name.startswith("p") or "." not in name:
            return None
        body = name[1:]
        alpha = 0
        if body.startswith("^"):
            rest = body[1:]
            for a, dep in sorted(enumerate(self.dependents), key=lambda t: -len(t[1])):
                if rest.startswith(dep + "_"):
                    alpha, body = a, rest[len(dep):]
                    break
            else:
                return None
        elif self.m > 1:
            return None  # dependent tag is mandatory when m > 1
        if not body.startswith("_"):
            return None
        word, dot, direction = body[1:].rpartition(".")
        if not dot or direction not in self.independents:
            return None
        suffix = self._split_index_word(word)
        if suffix is None:
            return None
        index = MultiIndex(tuple(suffix))
        if len(index) > self.max_order and not self.auto_extend:
            raise OrderOverflowError(
                f"momentum level {len(index)} exceeds admitted order {self.max_order}")
        return CoordinateId.momentum(alpha, index, self.independents.index(direction))

    def _split_index_word(self, word: str) -> Optional[List[int]]:
        """Greedily decompose a concatenation of independent names (longest first)."""
        ordered = sorted(enumerate(self.independents), key=lambda t: -len(t[1]))
        out: List[int] = []
        pos = 0
        while pos < len(word):
            for i, nm in ordered:
                if word.startswith(nm, pos):
                    out.append(i)
                    pos += len(nm)
                    break
            else:
                return None
        return out

    # -- enumeration ----------------------------------------------------

    def jets_up_to(self, order: int):
        return [CoordinateId.jet(a, I)
                for a in range(self.m)
                for I in multiindices_up_to(self.n, order)]

    def momenta_up_to(self, level: int):
        return [CoordinateId.momentum(a, I, i)
                for a in range(self.m)
                for I in multiindices_up_to(self.n, level)
                for i in range(self.n)]


Monomial = Tuple[Tuple[CoordinateId, int], ...]
Term = Tuple[Monomial, Fraction]

# the key of the constant monomial, sorting after every other monomial
_CONSTANT_MONO_KEY = ((9, 0, 0, (), 0), 0, ())
_ONE_Q = Fraction(1)


# the most terms a product or a power may have, by the size bound known
# before it is built: far above the expressions varjet derives from (the
# benchmark's largest has 812 terms, (u_x + u_t + u)^60 has 1891)
MAX_TERMS = 1_000_000


def _over_budget(what: str, bound: int) -> UnsupportedExpressionError:
    return UnsupportedExpressionError(
        f"{what} may have up to {bound} terms, over the budget of {MAX_TERMS}")


def _mono_key(mono: Monomial):
    # Canonical sum order: leading (largest) coordinate ascending, then total
    # degree descending, then exponents on the larger coordinates first.
    # Factors are stored ascending, so the leading one is the last.
    if not mono:
        return _CONSTANT_MONO_KEY
    tail = tuple([(c._key, -e) for c, e in reversed(mono)])
    return (tail[0][0], -sum([e for _, e in mono]), tail)


def _coord_key(c: CoordinateId):
    return c._key


def _factor_key(factor: Tuple[CoordinateId, int]):
    return factor[0]._key


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    powers: Dict[CoordinateId, int] = dict(a)
    for c, e in b:
        powers[c] = powers.get(c, 0) + e
    return tuple(sorted(powers.items(), key=_factor_key))


def _normal_form(terms: Iterable[Term]) -> Tuple[Term, ...]:
    """The kernel's one normalisation path: merge like monomials in one dict,
    drop zero coefficients and sort the monomials once.

    Coefficients that are not Fractions (ints from callers) are converted;
    every factor tuple must already be ascending and free of repeats.
    """
    merged: Dict[Monomial, Fraction] = {}
    get = merged.get
    for mono, coeff in terms:
        if coeff.__class__ is not Fraction:
            coeff = Fraction(coeff)
        prev = get(mono)
        merged[mono] = coeff if prev is None else prev + coeff
    monos = sorted([m for m, c in merged.items() if c], key=_mono_key)
    return tuple([(m, merged[m]) for m in monos])


def _canonical(terms: Tuple[Term, ...]) -> "Expr":
    """An Expr over terms already in normal form (no normalisation)."""
    out = Expr.__new__(Expr)
    out.terms = terms
    out._hash = None
    return out


class Expr:
    """A polynomial in canonical normal form.

    Stored as a sorted tuple of (monomial, coefficient) pairs with nonzero
    Fraction coefficients; a monomial is a tuple of (coordinate, positive
    exponent) pairs, ascending by coordinate.  Structural equality coincides
    with polynomial equality.

    ``Expr(terms)`` and ``Expr.sum(summands)`` are the builders: both feed
    ``_normal_form``, which merges and sorts once.  Products, powers, partials,
    substitution and parsing build their results through it too.  Negation,
    ``scale`` and powers of a single term keep the order and skip it.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Iterable[Term] = ()):
        self.terms: Tuple[Term, ...] = _normal_form(terms)
        self._hash = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Expr":
        return _ZERO

    @classmethod
    def number(cls, value) -> "Expr":
        k = Fraction(value)
        return _canonical((((), k),)) if k else _ZERO

    @classmethod
    def coord(cls, c: CoordinateId) -> "Expr":
        return _canonical(((((c, 1),), _ONE_Q),))

    @classmethod
    def sum(cls, summands: Iterable["Expr"]) -> "Expr":
        """The sum of any number of expressions, normalised once."""
        return cls(chain.from_iterable([e.terms for e in summands]))

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Expr") -> "Expr":
        if not other.terms:
            return self
        if not self.terms:
            return other
        # the merged monomials come in two ascending runs, which the sort
        # merges in linear time
        return Expr(self.terms + other.terms)

    def __sub__(self, other: "Expr") -> "Expr":
        if not other.terms:
            return self
        if not self.terms:
            return -other
        return Expr(chain(self.terms, [(m, -c) for m, c in other.terms]))

    def __neg__(self) -> "Expr":
        return _canonical(tuple([(m, -c) for m, c in self.terms]))

    def __mul__(self, other) -> "Expr":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = len(self.terms), len(other.terms)
        if a * b > MAX_TERMS:
            raise _over_budget(f"the product of a {a}-term and a {b}-term expression", a * b)
        return Expr([(_mono_mul(m1, m2), c1 * c2)
                     for m1, c1 in self.terms for m2, c2 in other.terms])

    __rmul__ = __mul__

    def scale(self, k) -> "Expr":
        k = Fraction(k)
        if not k:
            return _ZERO
        return _canonical(tuple([(m, c * k) for m, c in self.terms]))

    def __pow__(self, e: int) -> "Expr":
        if e < 0:
            raise UnsupportedExpressionError("negative exponents are not polynomial")
        if e == 0:
            return _ONE
        if e == 1 or not self.terms:
            return self
        if len(self.terms) == 1:
            # a power of one term multiplies its exponents and stays canonical
            mono, coeff = self.terms[0]
            return _canonical((((tuple([(c, k * e) for c, k in mono]), coeff ** e),)))
        s = len(self.terms)
        bound = math.comb(e + s - 1, s - 1)
        if bound > MAX_TERMS:
            raise _over_budget(f"the power {e} of a {s}-term sum", bound)
        return Expr(_multinomial_terms(self.terms, e))

    # -- structure -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Expr) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def coordinates(self) -> List[CoordinateId]:
        seen = {c for mono, _ in self.terms for c, _ in mono}
        return sorted(seen, key=_coord_key)

    def constant_value(self) -> Optional[Fraction]:
        """The value as a rational number, or None if not constant."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and self.terms[0][0] == ():
            return self.terms[0][1]
        return None

    def max_jet_order(self) -> int:
        orders = [len(c.index) for c in self.coordinates() if c.kind == JET]
        return max(orders, default=0)

    def total_degree(self) -> int:
        return max((sum(e for _, e in m) for m, _ in self.terms), default=0)

    def sign_normalized(self) -> "Expr":
        """Multiply by -1 if the leading coefficient is negative (row-sign canonical form)."""
        return -self if self.terms and self.terms[0][1] < 0 else self

    # -- calculus ---------------------------------------------------------

    def partial(self, c: CoordinateId) -> "Expr":
        """Formal partial derivative; all distinct coordinates are independent symbols."""
        key = c._key  # equal coordinates have equal keys: a cheap first test
        acc: List[Term] = []
        for mono, coeff in self.terms:
            for k, (cc, e) in enumerate(mono):
                if cc._key == key and cc == c:
                    if e > 1:
                        acc.append((mono[:k] + ((cc, e - 1),) + mono[k + 1:], coeff * e))
                    else:
                        acc.append((mono[:k] + mono[k + 1:], coeff))
                    break
        return Expr(acc)

    def coefficient_of(self, c: CoordinateId) -> "Expr":
        """Coefficient of the first power of c; meaningful when affine in c."""
        key = c._key
        acc = []
        for mono, coeff in self.terms:
            for k, (cc, e) in enumerate(mono):
                if e == 1 and cc._key == key and cc == c:
                    acc.append((mono[:k] + mono[k + 1:], coeff))
        return Expr(acc)

    def substitute(self, bindings: Mapping[CoordinateId, "Expr"]) -> "Expr":
        """Simultaneous substitution followed by normalization.

        Each power of a bound coordinate is expanded once per call; every
        monomial's image streams into one normalisation.
        """
        if not bindings:
            return self
        powers: Dict[Tuple[CoordinateId, int], Expr] = {}
        images: List[Term] = []
        for mono, coeff in self.terms:
            kept: List[Tuple[CoordinateId, int]] = []
            bound = None
            for c, e in mono:
                base = bindings.get(c)
                if base is None:
                    kept.append((c, e))
                    continue
                power = powers.get((c, e))
                if power is None:
                    power = powers[(c, e)] = base ** e
                bound = power if bound is None else bound * power
            rest = tuple(kept)
            if bound is None:
                images.append((rest, coeff))
            else:
                images.extend([(_mono_mul(m, rest), k * coeff) for m, k in bound.terms])
        return Expr(images)

    def __repr__(self):
        return f"Expr<{len(self.terms)} terms>"


def _multinomial_terms(terms: Tuple[Term, ...], e: int) -> List[Term]:
    """The terms of (t_1 + ... + t_s)^e, one per composition k_1 + ... + k_s = e:
    the coefficient e!/(k_1!...k_s!) c_1^k_1...c_s^k_s on the monomial
    mono_1^k_1...mono_s^k_s, like monomials not yet merged.

    A composition is built by picking, in ascending i, the terms with k_i > 0
    and the binomial C(left, k_i) of each pick, so the recursion is at most
    min(s, e) deep and every branch ends in a term.
    """
    last = len(terms) - 1
    # powers[i][k]: the i-th monomial and coefficient to the k-th power
    powers = [[(tuple([(c, p * k) for c, p in mono]), coeff ** k) for k in range(e + 1)]
              for mono, coeff in terms]
    out: List[Term] = []

    def expand(start: int, left: int, mono: Monomial, coeff: Fraction) -> None:
        for i in range(start, last):
            row = powers[i]
            for k in range(1, left):  # the later terms take the rest
                m, c = row[k]
                expand(i + 1, left - k, _mono_mul(mono, m), coeff * (math.comb(left, k) * c))
            m, c = row[left]
            out.append((_mono_mul(mono, m), coeff * c))
        m, c = powers[last][left]
        out.append((_mono_mul(mono, m), coeff * c))

    expand(0, e, (), _ONE_Q)
    return out


_ZERO = Expr()
_ONE = Expr.number(1)


# -- exact linear algebra ------------------------------------------------------

def row_echelon(matrix: Iterable[Iterable[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Forward elimination over the rationals: (echelon rows, pivot columns).

    Row k < rank has its pivot at column ``pivots[k]`` and zeros to the left
    of it; the rows from the rank on are zero.  Pivot rows are not scaled and
    rows above a pivot are not cleared, so the rank is ``len(pivots)`` and a
    square nonsingular system is solved by back-substitution.
    """
    rows = [list(r) for r in matrix]
    pivots: List[int] = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        pivot = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        head = rows[top]
        for r in range(top + 1, len(rows)):
            row = rows[r]
            if row[col]:
                f = row[col] / head[col]
                rows[r] = row[:col] + [a - f * b for a, b in zip(row[col:], head[col:])]
        pivots.append(col)
    return rows, pivots


# -- parsing ---------------------------------------------------------------

# "^" joins a name only when followed by a letter (momentum dependent tag);
# "^" followed by a digit stays the power operator.  Any other character is
# "bad", so the tokens tile the text up to its trailing whitespace.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_.]*(?:\^[A-Za-z][A-Za-z0-9_.]*)?(?:,_[A-Za-z][A-Za-z0-9]*)?)"
    r"|(?P<op>[-+*/^()])|(?P<bad>\S))")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", text, m.start())
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over: expr := [+-] term (('+'|'-') term)*;
    term := factor (('*'|'/') factor)*; factor := '-' factor | primary ['^' int];
    primary := int | name | '(' expr ')'.

    A term is read into one monomial and one coefficient: numbers and powers
    of names are multiplied in directly, and only a parenthesised or negated
    factor is an Expr (folded in when it has one term).  An expression
    collects its terms and builds one Expr.  Parentheses and unary minus
    signs nest at most MAX_DEPTH deep, which keeps the recursion well inside
    the interpreter's stack limit.
    """

    MAX_DEPTH = 100

    def __init__(self, text: str, ctx: JetContext):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0
        self.coords: Dict[str, CoordinateId] = {}  # names met so far in this text

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def nested(self, parse_inner, pos: int):
        """parse_inner() one nesting level deeper, for the token at ``pos``."""
        if self.depth == self.MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {self.MAX_DEPTH} levels",
                             self.text, pos)
        self.depth += 1
        e = parse_inner()
        self.depth -= 1
        return e

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", self.text, pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", self.text, pos)
        return e

    def expr(self) -> Expr:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        terms: List[Term] = []
        while True:
            terms.extend(self.term(-1 if negate else 1))
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                return Expr(terms)
            self.next()
            negate = val == "-"

    def term(self, sign: int) -> List[Term]:
        """The terms of one product, times ``sign``: a single term unless a
        factor is a sum."""
        num, den = sign, 1
        powers: Dict[CoordinateId, int] = {}
        sums = None  # the product of the factors that are not single terms
        f = self.factor()
        while True:
            if f.__class__ is int:
                num *= f
            elif f.__class__ is tuple:
                c, k = f
                powers[c] = powers.get(c, 0) + k
            elif len(f.terms) == 1:
                mono, q = f.terms[0]
                for c, k in mono:
                    powers[c] = powers.get(c, 0) + k
                num *= q.numerator
                den *= q.denominator
            else:
                sums = f if sums is None else sums * f
            kind, val, pos = self.peek()
            if kind != "op" or val not in "*/":
                break
            self.next()
            f = self.factor()
            if val == "/":
                if f.__class__ is int:
                    q = f
                elif f.__class__ is tuple:
                    q = None
                else:
                    q = f.constant_value()
                if q is None:
                    raise UnsupportedExpressionError(
                        "division by a non-constant expression is not polynomial")
                if q == 0:
                    raise ParseError("division by zero", self.text, pos)
                num *= q.denominator
                den *= q.numerator
                f = 1  # folded
        mono = tuple(sorted(powers.items(), key=_factor_key))
        coeff = Fraction(num, den)
        if sums is None:
            return [(mono, coeff)]
        return [(_mono_mul(m, mono), c * coeff) for m, c in sums.terms]

    def factor(self):
        """One factor: an int for a number, (coordinate, exponent) for a power
        of a name, an Expr for a parenthesised or negated factor."""
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            inner = self.nested(self.factor, pos)
            if inner.__class__ is tuple:
                return _canonical((((inner,), -_ONE_Q),))
            return -inner
        base = self.primary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind == "op" and val == "-":
                raise UnsupportedExpressionError("negative exponents are not polynomial")
            if kind != "num":
                raise ParseError("expected integer exponent", self.text, pos)
            e = int(val)
            if base.__class__ is CoordinateId:
                return (base, e) if e else 1
            return base ** e
        return (base, 1) if base.__class__ is CoordinateId else base

    _TRANSCENDENTAL = {"sin", "cos", "tan", "exp", "log", "ln", "sqrt",
                       "sinh", "cosh", "tanh", "abs"}

    def primary(self):
        """An int, a CoordinateId or, for a parenthesised expression, an Expr."""
        kind, val, pos = self.next()
        if kind == "num":
            return int(val)
        if kind == "name":
            if val in self._TRANSCENDENTAL and self.peek()[:2] == ("op", "("):
                raise UnsupportedExpressionError(
                    f"transcendental function {val!r} is not polynomial")
            coord = self.coords.get(val)
            if coord is None:
                try:
                    coord = self.coords[val] = self.ctx.resolve(val)
                except UnknownCoordinateError:
                    raise ParseError(f"unknown identifier {val!r}", self.text, pos)
            return coord
        if kind == "op" and val == "(":
            e = self.nested(self.expr, pos)
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input",
                         self.text, pos)


def parse(text: str, ctx: JetContext) -> Expr:
    """Parse an expression in the context's coordinate names.

    The grammar is documented in docs/grammar.bnf; parse-print-parse is a
    fixed point of the plain format.
    """
    return _Parser(text, ctx).parse()


# -- rendering ---------------------------------------------------------------

def _coeff_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"\\frac{{{c.numerator}}}{{{c.denominator}}}"


def render(e: Expr, ctx: JetContext, fmt: str = "plain") -> str:
    """Deterministic rendering; the plain format re-parses to the same Expr."""
    if fmt == "plain":
        return _render(e, ctx.name, "^{}".format, str, "*")
    if fmt == "latex":
        return _render(e, ctx.latex_name, "^{{{}}}".format, _coeff_latex, " ")
    if fmt == "json":
        return json.dumps(expr_to_json(e, ctx), sort_keys=True)
    raise ValueError(f"unknown format {fmt!r}")


def _render(e: Expr, name, power, coeff_text, joiner: str) -> str:
    """The signed terms of e, each its coefficient (unless 1) and its factors
    joined by ``joiner``; ``name``, ``power`` and ``coeff_text`` spell a
    coordinate, an exponent above 1 and a coefficient's magnitude.  Each
    (coordinate, exponent) is spelled once per call."""
    if not e.terms:
        return "0"
    spelled: Dict[Tuple[CoordinateId, int], str] = {}
    parts: List[str] = []
    for mono, coeff in e.terms:
        factors = []
        for factor in mono:
            text = spelled.get(factor)
            if text is None:
                c, p = factor
                text = spelled[factor] = name(c) + (power(p) if p > 1 else "")
            factors.append(text)
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, coeff_text(mag))
        body = joiner.join(factors)
        if parts:
            parts.append((" + " if coeff > 0 else " - ") + body)
        else:
            parts.append(body if coeff > 0 else "-" + body)
    return "".join(parts)


def expr_to_json(e: Expr, ctx: JetContext) -> dict:
    names: Dict[CoordinateId, str] = {}  # each coordinate spelled once per call

    def name(c: CoordinateId) -> str:
        text = names.get(c)
        if text is None:
            text = names[c] = ctx.name(c)
        return text

    return {
        "monomials": [
            {"coeff": str(coeff),
             "factors": [[name(c), p] for c, p in mono]}
            for mono, coeff in e.terms
        ]
    }
