"""Exact symbolic kernel: canonical polynomial normal forms over jet and momentum coordinates.

Expressions are polynomials with exact rational coefficients in four kinds of
coordinates: independent variables x^i, jet coordinates u_I^a (dependent
variable a, multiindex I), momentum coordinates p_a^{I.i}, and the
comma-derivatives c,_J of jets and momenta that mixed first-order systems
read, named by a JetContext at any order (the density fixes which orders are
read).  The normal form is unique: no zero coefficients, like monomials
merged, monomials and factors sorted by a fixed total order.  Structural
equality therefore decides mathematical equality.

A coordinate is the tuple of its sort key (kind rank, alpha, |I|, I, i),
followed by (|J|, J) for a comma-derivative, and a multiindex the tuple of
its sorted entries, so monomial dicts and factor sorts hash, compare and
order coordinates in C.

Every coefficient is a ``Q``, a Fraction subclass that defines only the
operators the kernel calls, each with a fast path: ``+`` and ``*`` by a Q
or an int, negation, powers to an int >= 0 and ``==``.  Any other operand
or operator goes to Fraction's own method and gives a Fraction.  A Q hashes,
orders and prints as the Fraction of its value.  The kernel converts what
it is given to Q where a coefficient enters, with one conversion
(``_as_q``, which refuses a NaN or an infinity): in ``_normal_form`` (so in
``Expr(terms)``), ``Expr.number``, ``Expr.scale`` and ``eliminate``.

Every result that can break the normal form goes through one normalisation
path, ``_normal_form``: summands and products stream their terms into one
dict, and the merged terms are sorted once, each by one flat tuple of its
coordinates and exponents (``_mono_key``); a list or tuple of one term is
neither merged nor sorted, and terms that already are a normal form (their
keys strictly ascending, their coefficients nonzero Qs) are found so by one
pass and kept as they are.  Sums of many parts (the parser, total
derivatives, the variational and reduction constructions) make one builder
call, ``Expr.sum`` or ``Expr(terms)``, so a result is normalised once, not once
per partial sum.  Every first partial comes from ``Expr.gradient``: one pass
over the terms gives the partial by each coordinate that occurs, so a
construction reads all of a density's partials for the cost of one scan.
Substitution collects the terms on their largest bound coordinate and its
exponent, and makes one product and one normalisation per such group, not
one product per monomial; the images of all the groups are normalised
together, once.  An Expr holds its terms alone.
Negation, scaling by a nonzero rational and powers of a single term keep the
order and skip it.  A power of a sum is expanded by the multinomial theorem,
one term per composition of the exponent, with integer numerators and
denominators carried through the compositions and one coefficient made per
term, and normalised once.  Products and powers whose size bound exceeds
MAX_TERMS, and powers whose coefficients may pass Python's digit limit on
int text, are refused before any work.

The reader splits a text into token strings at its operator characters
and whitespace, with string methods; only a text whose pieces are not
whole tokens is scanned by a regular expression.  It finds a token's
position, by scanning the text again, only for an error.  A name to an
integer power written without spaces, ``u_x^2``, is one token, made into
its factor once per text, and each name is resolved once per text.  It
reads each product into one term, reading its plain factors (a name met
before, an integer, a name met before to an integer power) in place, and
merges and sorts a term's factors only when one is not above the one
before it; an expression that is one sum, such as a power of a sum or a
product of two, is that sum's normal form and is not normalised again,
and an expression of one monomial is that term.  A bad character is placed at
its own start.  The renderers, JSON's included, write their text in one
pass, each coefficient from its integer numerator and denominator (the
Fraction slots) and each factor from ``JetContext.spell``'s tables.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import itemgetter
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from .multiindex import EMPTY, MultiIndex, VarjetError, multiindices_up_to

INDEPENDENT = "independent"
JET = "jet"
MOMENTUM = "momentum"
COMMA = "comma"

_KINDS = (INDEPENDENT, JET, MOMENTUM)


class ParseError(VarjetError):
    """``message`` at the 0-based ``pos`` of a text, read with its 1-based line and column."""

    def __init__(self, message: str, text: str = "", pos: int = 0):
        self.message, self.pos = message, pos
        self.line, self.column = 1 + text.count("\n", 0, pos), pos - text.rfind("\n", 0, pos)
        super().__init__(f"{message} (line {self.line}, column {self.column})")


class ContextError(VarjetError):
    """A JetContext's refusal of its names in ``field``, "independents" or "dependents"."""

    def __init__(self, message: str, field: str):
        super().__init__(message)
        self.field = field


class UnknownCoordinateError(VarjetError):
    pass


class UnsupportedExpressionError(VarjetError):
    pass


class WrongDomainError(VarjetError):
    pass


class CoordinateId(tuple):
    """One coordinate: an independent variable, a jet u_I^a, a momentum
    p_a^{I.i}, or a comma-derivative c,_J of a jet or a momentum c.

    ``alpha`` is the 0-based dependent index (jets and momenta), ``i`` the
    0-based independent index (independents and momenta).  A jet with empty
    multiindex is the dependent variable itself.  A coordinate is the tuple
    of its sort key: independents (0, i, 0, (), 0) before jets (1, alpha,
    |I|, I, -1) before momenta (2, alpha, |I|, I, i).  A comma-derivative
    c,_J is c's key followed by (|J|, J), so it sorts after c, by |J| and
    then J, and before every coordinate after c; its ``alpha``, ``index``
    and ``i`` are c's, ``base`` is c and ``comma_index`` is J.  Hashing,
    equality and order are the tuple's; the hash holds only ints, so it is
    the same in every process.  A coordinate equals the plain tuple of its
    key too; varjet never mixes the two.  Each kind has one constructor, a
    classmethod; pickling and copying rebuild a coordinate from its key,
    as they do any tuple subclass.
    """

    __slots__ = ()

    @classmethod
    def independent(cls, i: int) -> "CoordinateId":
        return tuple.__new__(cls, (0, i, 0, EMPTY, 0))

    @classmethod
    def jet(cls, alpha: int, index: MultiIndex = EMPTY) -> "CoordinateId":
        return tuple.__new__(cls, (1, alpha, len(index), index, -1))

    @classmethod
    def momentum(cls, alpha: int, index: MultiIndex, i: int) -> "CoordinateId":
        return tuple.__new__(cls, (2, alpha, len(index), index, i))

    @classmethod
    def comma(cls, c: "CoordinateId", i: int) -> "CoordinateId":
        """c,_i for a jet or a momentum c; for a comma-derivative c,_J, c,_{Ji}."""
        J = (c[6] if len(c) > 5 else EMPTY).with_index(i)
        return tuple.__new__(cls, c[:5] + (len(J), J))

    # the fields, read from the key
    kind = property(lambda self: _KINDS[self[0]] if len(self) == 5 else COMMA)
    alpha = property(lambda self: self[1] if self[0] else -1)
    index = property(itemgetter(3))
    i = property(lambda self: self[4] if self[0] else self[1])
    base = property(lambda self: tuple.__new__(CoordinateId, self[:5]))
    comma_index = property(itemgetter(6))

    def __repr__(self) -> str:
        if len(self) > 5:
            return f"CoordinateId(kind='comma', base={self.base!r}, index={self.comma_index!r})"
        return (f"CoordinateId(kind={self.kind!r}, alpha={self.alpha!r}, "
                f"index={self.index!r}, i={self.i!r})")


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


@dataclass(frozen=True)
class JetContext:
    """Declares the bundle: independent and dependent variable names.

    Jets and momenta of any order, and their comma-derivatives, are
    admitted: the density fixes which orders a construction reads, so the
    context bounds none.  The mixed first-order systems live in this same
    context, their comma-derivatives named c,_J after c and read back by
    that name.  No independent name is a prefix of another, so an index word
    (a run of independent names, as in u_xt) splits one way only.  Invalid,
    repeated or missing names are a ContextError that names the field, and so
    is a str given for either tuple of names.  ``spell`` keeps each factor's
    text in a table per format that is no field: ==, hash and repr read names.
    """

    independents: Tuple[str, ...]
    dependents: Tuple[str, ...]

    def __post_init__(self):
        for field in ("independents", "dependents"):
            names = getattr(self, field)
            if isinstance(names, str):  # tuple() would make it its letters
                raise ContextError(f"{field} must be a sequence of names, "
                                   f"not the string {names!r}", field)
            names = tuple(names)
            object.__setattr__(self, field, names)
            if not names:
                raise ContextError(f"{field} lists no names", field)
            for k, name in enumerate(names):
                if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
                    raise ContextError(f"invalid name {name!r}", field)
                if name in names[:k]:
                    raise ContextError(f"name {name!r} is declared twice", field)
        for name in self.dependents:
            if name in self.independents:
                raise ContextError(f"name {name!r} is declared both as an independent "
                                   "and as a dependent", "dependents")
        for short in self.independents:
            for name in self.independents:
                if name != short and name.startswith(short):
                    # an index word such as "xx" would read two ways
                    raise ContextError(f"independent name {short!r} is a prefix of {name!r}",
                                       "independents")
        object.__setattr__(self, "_spellings", {"plain": {}, "latex": {}, "json": {}})

    @property
    def n(self) -> int:
        return len(self.independents)

    @property
    def m(self) -> int:
        return len(self.dependents)

    def admits(self, c: CoordinateId) -> bool:
        """Whether c is a coordinate of this context: its independent and its
        index entries below n, its dependent below m.  Read from c's key,
        whose multiindices are sorted and nonnegative: (0, i, ...) for an
        independent, (1, alpha, |I|, I, -1) for a jet and (2, alpha, |I|, I, i)
        for a momentum, followed by (|J|, J), J not empty, for a
        comma-derivative."""
        n = len(self.independents)
        if not c[0]:
            return 0 <= c[1] < n
        index = c[3]
        return (0 <= c[1] < len(self.dependents) and (not index or index[-1] < n)
                and (c[0] == 1 or 0 <= c[4] < n) and (len(c) == 5 or c[6][-1] < n))

    def refuse(self, coords: Iterable[CoordinateId], reads: str, jet_side: bool = False) -> None:
        """The one domain check: refuse the least of coords, read by ``reads``
        ("the density reads"), that this context does not admit, named by its
        repr, or, when jet_side, that is a momentum or a comma-derivative."""
        for c in sorted(coords):
            if not self.admits(c):
                raise VarjetError(f"{reads} {c!r}, which is outside its context")
            if jet_side and c.kind in (MOMENTUM, COMMA):
                what = "momentum" if c.kind == MOMENTUM else "comma-derivative"
                raise WrongDomainError(f"{reads} {self.name(c)}, a {what}, which is not jet-side")

    # -- naming ---------------------------------------------------------

    def index_word(self, index: MultiIndex) -> str:
        return "".join(self.independents[i] for i in index)

    def name(self, c: CoordinateId) -> str:
        kind = c.kind
        if kind == INDEPENDENT:
            return self.independents[c.i]
        if kind == COMMA:
            return f"{self.name(c.base)},_{self.index_word(c.comma_index)}"
        if kind == JET:
            base = self.dependents[c.alpha]
            return f"{base}_{self.index_word(c.index)}" if len(c.index) else base
        tag = f"^{self.dependents[c.alpha]}" if self.m > 1 else ""
        return f"p{tag}_{self.index_word(c.index)}.{self.independents[c.i]}"

    def latex_name(self, c: CoordinateId) -> str:
        kind = c.kind
        if kind == INDEPENDENT:
            return self.independents[c.i]
        if kind == COMMA:
            return f"{self.latex_name(c.base)}{{}}_{{,{self.index_word(c.comma_index)}}}"
        word = self.index_word(c.index)
        if kind == JET:
            base = self.dependents[c.alpha]
            return f"{base}_{{{word}}}" if word else base
        tag = f"[{self.dependents[c.alpha]}]" if self.m > 1 else ""
        return f"p{tag}^{{{word}.{self.independents[c.i]}}}"

    def spell(self, c: CoordinateId, p: int, fmt: str) -> str:
        """The text of c^p in ``fmt``: plain ``u_x^2``, latex ``u_{x}^{2}`` or json
        ``["u_x", 2]``, built once per context; a c that ``refuse`` refuses is never stored."""
        table = self._spellings[fmt]
        text = table.get((c, p))
        if text is None:
            if p == 1 and fmt != "json":
                self.refuse((c,), "render reads")
                text = self.latex_name(c) if fmt == "latex" else self.name(c)
            else:  # on c's name, spelled first, so c is refused unless stored
                name = self.spell(c, 1, "latex" if fmt == "latex" else "plain")
                if fmt == "plain":
                    text = f"{name}^{p}"
                elif fmt == "json":
                    text = f'["{name}", {p}]'
                else:  # a powered momentum is grouped: p^{I.i}^{2} is a double superscript
                    text = f"{{{name}}}^{{{p}}}" if c.kind == MOMENTUM else f"{name}^{{{p}}}"
            table[(c, p)] = text
        return text

    # -- resolution -----------------------------------------------------

    def resolve(self, name: str) -> CoordinateId:
        """Resolve an identifier to a coordinate; raises UnknownCoordinateError."""
        coord = self._try_resolve(name)
        if coord is None:
            raise UnknownCoordinateError(f"unknown identifier {name!r}")
        return coord

    def _try_resolve(self, name: str) -> Optional[CoordinateId]:
        """The coordinate name() spells as ``name``, or None: no declared
        name holds "_", ".", "^" or ",", so each split below is exact."""
        if ",_" in name:  # a comma-derivative c,_J of a jet or a momentum c
            base, _, word = name.partition(",_")
            c, J = self._try_resolve(base), self._index(word)
            if c is None or J is None or c.kind == INDEPENDENT:
                return None
            return reduce(CoordinateId.comma, J, c)
        if name in self.independents:
            return CoordinateId.independent(self.independents.index(name))
        head, tail, word = name.partition("_")
        word, dot, i = word.partition(".")
        if dot:  # a momentum p_I.i, tagged p^dep_I.i when m > 1
            dep = head[2:] if self.m > 1 else self.dependents[0]
            I = self._index(word) if word else EMPTY
            if (head != ("p^" + dep if self.m > 1 else "p") or dep not in self.dependents
                    or I is None or i not in self.independents):
                return None
            return CoordinateId.momentum(self.dependents.index(dep), I, self.independents.index(i))
        I = self._index(word) if tail else EMPTY  # a jet dep or dep_I
        if head not in self.dependents or I is None:
            return None
        return CoordinateId.jet(self.dependents.index(head), I)

    def _index(self, word: str) -> Optional[MultiIndex]:
        """The multiindex a nonempty index word spells, or None."""
        entries = []
        while word:
            i = next((i for i, nm in enumerate(self.independents) if word.startswith(nm)), -1)
            if i < 0:
                return None
            entries.append(i)
            word = word[len(self.independents[i]):]
        return MultiIndex(entries) if entries else None

    # -- enumeration ----------------------------------------------------

    def jets_up_to(self, order: int):
        indices = multiindices_up_to(self.n, order)
        return [CoordinateId.jet(a, I) for a in range(self.m) for I in indices]

    def momenta_up_to(self, level: int):
        indices = multiindices_up_to(self.n, level)
        return [CoordinateId.momentum(a, I, i)
                for a in range(self.m) for I in indices for i in range(self.n)]


# -- coefficients ------------------------------------------------------------

_gcd = math.gcd
_new = object.__new__


class Q(Fraction):
    """The kernel's coefficient: a Fraction with fast arithmetic among its kind.

    It defines the operators the kernel calls: ``+`` and ``*`` by a Q or an
    int, unary ``-``, ``**`` by an int >= 0 and ``==``.  They work on the
    reduced numerators and denominators with at most two gcds and build the
    result, reduced with a positive denominator, without Fraction's
    validation.  Any other operand (a stdlib Fraction, a float, a negative
    exponent) and every other operator (``-`` between two values, ``/``, an
    int on the left) go to Fraction's own method, which answers as it does
    for a Fraction, with a Fraction of the same value.  Hashes, order,
    ``str``, ``float``, pickling and copying are Fraction's, so a Q hashes,
    sorts and prints as the Fraction of its value.
    The kernel makes a Q from two ints with ``_q``, the parser's terms and
    the multinomial's coefficients among them, so ``Fraction.__new__`` runs
    only for ``Q(value)`` on a value that is not yet a Q.  Kernel code reads
    ``_numerator`` and ``_denominator``, not Fraction's properties.
    """

    __slots__ = ()

    __hash__ = Fraction.__hash__

    def __add__(a, b):
        if b.__class__ is Q:
            return _sum(a._numerator, a._denominator, b._numerator, b._denominator)
        if b.__class__ is int:
            return _sum(a._numerator, a._denominator, b, 1)
        return Fraction.__add__(a, b)

    def __mul__(a, b):
        if b.__class__ is Q:
            return _product(a._numerator, a._denominator, b._numerator, b._denominator)
        if b.__class__ is int:
            return _product(a._numerator, a._denominator, b, 1)
        return Fraction.__mul__(a, b)

    def __neg__(a):
        q = _new(Q)
        q._numerator = -a._numerator
        q._denominator = a._denominator
        return q

    def __pow__(a, b):
        if b.__class__ is not int or b < 0:
            return Fraction.__pow__(a, b)
        q = _new(Q)
        q._numerator = a._numerator ** b
        q._denominator = a._denominator ** b
        return q

    def __eq__(a, b):
        if b.__class__ is Q:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if b.__class__ is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)


def _sum(na: int, da: int, nb: int, db: int) -> Q:
    """na/da + nb/db, each reduced with a positive denominator: with
    g = gcd(da, db), the numerator t over da*db/g shares with it only
    factors of g (Fraction's ``_add``)."""
    g = _gcd(da, db)
    q = _new(Q)
    if g == 1:
        q._numerator = na * db + da * nb
        q._denominator = da * db
        return q
    s = da // g
    t = na * (db // g) + nb * s
    g = _gcd(t, g)
    q._numerator = t // g
    q._denominator = s * (db // g)
    return q


def _product(na: int, da: int, nb: int, db: int) -> Q:
    """(na/da) * (nb/db), each reduced with a positive denominator: only
    na with db and nb with da can share factors (Fraction's ``_mul``)."""
    g = _gcd(na, db)
    if g > 1:
        na //= g
        db //= g
    g = _gcd(nb, da)
    if g > 1:
        nb //= g
        da //= g
    q = _new(Q)
    q._numerator = na * nb
    q._denominator = da * db
    return q


def _q(num: int, den: int) -> Q:
    """num/den (den nonzero) as a Q: one gcd, the sign on the numerator
    (Fraction's reduction of two ints, without its validation)."""
    g = _gcd(num, den)
    if den < 0:
        g = -g
    q = _new(Q)
    q._numerator = num // g
    q._denominator = den // g
    return q


def _as_q(value) -> Q:
    """value (an int, a Fraction, a float, a Q) as a Q; a NaN or an infinity is refused."""
    if value.__class__ is Q:
        return value
    try:
        return Q(value)
    except (ValueError, OverflowError):  # Fraction's refusal of a NaN and of an infinity
        raise UnsupportedExpressionError(
            f"coefficient {value!r} is not a finite rational number") from None


Monomial = Tuple[Tuple[CoordinateId, int], ...]
Term = Tuple[Monomial, Q]

# the key of the constant monomial, sorting after every other monomial
_CONSTANT_MONO_KEY = ((9, 0, 0, (), 0), 0)
_ONE_Q = Q(1)
_ZERO_Q = Q(0)


# the most terms a product or a power may have, by the size bound known
# before it is built: far above the expressions varjet derives from (the
# benchmark's largest has 812 terms, (u_x + u_t + u)^60 has 1891)
MAX_TERMS = 1_000_000


def _over_budget(what: str, bound: int) -> UnsupportedExpressionError:
    return UnsupportedExpressionError(
        f"{what} may have up to {bound} terms, over the budget of {MAX_TERMS}")


# Python's limit on int <-> text digits; 0 is none, as before Python 3.10.7
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _mono_key(mono: Monomial):
    """The monomial's place in the canonical sum order: leading (largest)
    coordinate ascending, then total degree descending, then exponents on
    the larger coordinates first.  One flat tuple (lead, -degree, -e_lead,
    c_2, -e_2, ...) over the factors from the largest down; factors are
    stored ascending, so the leading one is the last."""
    n = len(mono)
    if n == 1:
        c, e = mono[0]
        return (c, -e, -e)
    if n == 2:
        (c2, e2), (c1, e1) = mono
        return (c1, -e1 - e2, -e1, c2, -e2)
    if not n:
        return _CONSTANT_MONO_KEY
    degree = 0
    key = [mono[-1][0], 0]
    for c, e in reversed(mono):
        key += (c, -e)
        degree += e
    key[1] = -degree
    del key[2]  # the lead, already first
    return tuple(key)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product of two monomials, its factors ascending.  When every
    coordinate of one lies below every coordinate of the other, the product
    is the two factor tuples concatenated, the lower first; otherwise the
    exponents are merged in a dict and its items sorted."""
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    powers: Dict[CoordinateId, int] = dict(a)
    for c, e in b:
        powers[c] = powers.get(c, 0) + e
    return tuple(sorted(powers.items()))


def _normal_form(terms: Iterable[Term]) -> Tuple[Term, ...]:
    """The kernel's one normalisation path: merge like monomials in one dict,
    drop zero coefficients and sort the (key, monomial, coefficient) records
    of the merged terms once, by key.  A list or tuple of one term needs no
    merge and no sort.

    Terms that already are a normal form are returned as they are, as a
    tuple (the same tuple, when given one): one pass keys the terms in
    order and stops at the first whose coefficient is not a nonzero Q or
    whose key is not above the key before it.  Keys are injective, so
    strictly ascending keys also mean distinct monomials.  Any other
    iterable is made a list first, since the pass may have to be replayed.

    Coefficients that are not Q (an int, a stdlib Fraction or a float from a
    caller) are converted by ``_as_q``, so every merge runs on Q's fast
    paths; every factor tuple must already be ascending and free of repeats.
    """
    if terms.__class__ is not list and terms.__class__ is not tuple:
        terms = list(terms)
    if len(terms) == 1:
        mono, coeff = terms[0]
        if coeff.__class__ is not Q:
            coeff = _as_q(coeff)
        return ((mono, coeff),) if coeff._numerator else ()  # coeff != 0
    last = ()  # below every key
    for mono, coeff in terms:
        if coeff.__class__ is not Q or not coeff._numerator:
            break
        key = _mono_key(mono)
        if key <= last:
            break
        last = key
    else:
        return terms if terms.__class__ is tuple else tuple(terms)
    merged: Dict[Monomial, Q] = {}
    get = merged.get
    for mono, coeff in terms:
        if coeff.__class__ is not Q:
            coeff = _as_q(coeff)
        prev = get(mono)
        merged[mono] = coeff if prev is None else prev + coeff
    records = sorted([(_mono_key(m), m, c) for m, c in merged.items() if c._numerator],
                     key=itemgetter(0))  # c != 0
    return tuple([(m, c) for _, m, c in records])


def _canonical(terms: Tuple[Term, ...]) -> "Expr":
    """An Expr over terms already in normal form (no normalisation)."""
    out = Expr.__new__(Expr)
    out.terms = terms
    return out


class Expr:
    """A polynomial in canonical normal form.

    Stored as a sorted tuple of (monomial, coefficient) pairs with nonzero
    ``Q`` coefficients; a monomial is a tuple of (coordinate, positive
    exponent) pairs, ascending by coordinate.  Structural equality coincides
    with polynomial equality.

    ``Expr(terms)`` and ``Expr.sum(summands)`` are the builders: both feed
    ``_normal_form``, which merges and sorts once, or keeps terms that
    already are a normal form (``Expr(e.terms).terms is e.terms``).
    Products, powers, the gradient, substitution and parsing build their
    results through it too.
    Every first partial comes from one ``gradient`` pass over the terms.
    Negation, ``scale`` and powers of a single term keep the order and skip it.
    ``Expr(terms)``, ``number`` and ``scale`` convert an int, a Fraction or a
    float coefficient to Q.  It holds its terms alone and hashes as they do.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Term] = ()):
        self.terms: Tuple[Term, ...] = _normal_form(terms)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Expr":
        return _ZERO

    @classmethod
    def number(cls, value) -> "Expr":
        k = _as_q(value)
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
        # the merged monomials come in two ascending runs: kept as they are
        # when the second starts above the first, else merged by the sort in
        # linear time
        return Expr(self.terms + other.terms)

    def __sub__(self, other: "Expr") -> "Expr":
        return Expr(chain(self.terms, [(m, -c) for m, c in other.terms]))

    def __neg__(self) -> "Expr":
        return _canonical(tuple([(m, -c) for m, c in self.terms]))

    def __mul__(self, other) -> "Expr":
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        return Expr(_product_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def scale(self, k) -> "Expr":
        k = _as_q(k)
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
        s = len(self.terms)
        # over the coefficients' common denominator d, a coefficient of the
        # power is at most (s*max |num|*d/den)^e / d^e
        d = math.lcm(*[c.denominator for _, c in self.terms])
        log = math.log10(max(d, s * max([abs(c.numerator) * (d // c.denominator)
                                         for _, c in self.terms])))
        limit = _digit_limit()
        if limit and log and e >= limit / log:
            raise UnsupportedExpressionError(
                f"the power {e} of a {s}-term expression may have coefficients "
                f"over the limit of {limit} digits")
        if s == 1:
            # a power of one term multiplies its exponents and stays canonical
            mono, coeff = self.terms[0]
            return _canonical((((tuple([(c, k * e) for c, k in mono]), coeff ** e),)))
        bound = math.comb(e + s - 1, s - 1)
        if bound > MAX_TERMS:
            raise _over_budget(f"the power {e} of a {s}-term sum", bound)
        return Expr(_multinomial_terms(self.terms, e))

    # -- structure -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Expr) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coordinates(self) -> List[CoordinateId]:
        seen = {c for mono, _ in self.terms for c, _ in mono}
        return sorted(seen)

    def constant_value(self) -> Optional[Q]:
        """The value as a rational number, or None if not constant."""
        if not self.terms:
            return _ZERO_Q
        if len(self.terms) == 1 and self.terms[0][0] == ():
            return self.terms[0][1]
        return None

    def max_jet_order(self) -> int:
        orders = [len(c.index) for c in self.coordinates() if c.kind == JET]
        return max(orders, default=0)

    # -- calculus ---------------------------------------------------------

    def gradient(self) -> Dict[CoordinateId, "Expr"]:
        """Every first partial, from one pass over the terms: a map from each
        coordinate of the expression to its nonzero partial.  All distinct
        coordinates are independent symbols; an absent one has partial zero."""
        acc: Dict[CoordinateId, List[Term]] = {}
        for mono, coeff in self.terms:
            for k, (c, p) in enumerate(mono):
                if p > 1:
                    term = (mono[:k] + ((c, p - 1),) + mono[k + 1:], coeff * p)
                else:
                    term = (mono[:k] + mono[k + 1:], coeff)
                acc.setdefault(c, []).append(term)
        return {c: Expr(terms) for c, terms in acc.items()}

    def substitute(self, bindings: Mapping[CoordinateId, "Expr"]) -> "Expr":
        """Simultaneous substitution of each bound coordinate by its image.

        The terms whose largest bound coordinate is x, at the exponent k, are
        collected on it, x^k e_k, and their image is built as e_k' * X^k,
        with e_k' the recursively substituted e_k and X the image of x.  X
        is never substituted again, so images may hold bound coordinates.
        This makes one product per bound coordinate and exponent instead of
        one per monomial; each e_k' is one normalisation, and the images of
        all the groups and the terms free of bound coordinates are
        normalised together, once.  The bindings are read as given, an
        image's terms only where it is used, so one mapping applied to many
        expressions costs nothing per binding.
        """
        out = _substituted(self.terms, bindings)
        return self if out is None else Expr(out)

    def __repr__(self):
        return f"Expr<{len(self.terms)} terms>"


def _product_terms(a: Tuple[Term, ...], b: Tuple[Term, ...]) -> List[Term]:
    """The terms of a product, like monomials not yet merged; refused over MAX_TERMS."""
    if len(a) * len(b) > MAX_TERMS:
        raise _over_budget(f"the product of a {len(a)}-term and a {len(b)}-term expression",
                           len(a) * len(b))
    return [(_mono_mul(m1, m2), c1 * c2) for m1, c1 in a for m2, c2 in b]


def _substituted(terms, images: Mapping[CoordinateId, Expr]) -> Optional[List[Term]]:
    """The terms of ``terms`` (distinct monomials in any order) with every
    coordinate that ``images`` binds replaced by its image's terms, like
    monomials not yet merged; None when none occurs.

    The terms are grouped in one pass by the largest bound coordinate x each
    holds and its exponent k.  A group is x^k e_k, built as the product of
    e_k', the cofactors substituted recursively and normalised once, with
    the image of x to the k-th power.  The groups' terms and the terms free
    of bound coordinates are chained into one list, which the caller
    normalises once, so a sum linear in many bound coordinates is sorted
    once, not once per coordinate."""
    out: List[Term] = []
    groups: Dict[Tuple[CoordinateId, int], List[Term]] = {}  # (x, k) -> cofactor terms
    for mono, coeff in terms:
        for k in range(len(mono) - 1, -1, -1):  # factors ascend: the first bound one is the largest
            if mono[k][0] in images:
                groups.setdefault(mono[k], []).append((mono[:k] + mono[k + 1:], coeff))
                break
        else:
            out.append((mono, coeff))
    if not groups:
        return None
    for (x, k), part in groups.items():
        inner = _substituted(part, images)  # a group's cofactors are distinct monomials
        out += _product_terms(part if inner is None else _normal_form(inner),
                              (images[x] ** k).terms)
    return out


def _multinomial_terms(terms: Tuple[Term, ...], e: int) -> List[Term]:
    """The terms of (t_1 + ... + t_s)^e, one per composition k_1 + ... + k_s = e:
    the coefficient e!/(k_1!...k_s!) c_1^k_1...c_s^k_s on the monomial
    mono_1^k_1...mono_s^k_s, like monomials not yet merged.

    A composition is built by picking, in ascending i, the terms with k_i > 0
    and the binomial C(left, k_i) of each pick, so the recursion is at most
    min(s, e) deep and every branch ends in a term.  The picks multiply
    integer numerators and denominators; each term makes one Q, by ``_q``.
    """
    last = len(terms) - 1
    # powers[i][k]: the i-th monomial and its coefficient's numerator and
    # denominator to the k-th power
    powers = [[(tuple([(c, p * k) for c, p in mono]), coeff._numerator ** k,
                coeff._denominator ** k) for k in range(e + 1)]
              for mono, coeff in terms]
    comb = math.comb
    out: List[Term] = []

    def expand(start: int, left: int, mono: Monomial, num: int, den: int) -> None:
        for i in range(start, last):
            row = powers[i]
            for k in range(1, left):  # the later terms take the rest
                m, p, q = row[k]
                expand(i + 1, left - k, _mono_mul(mono, m), num * comb(left, k) * p, den * q)
            m, p, q = row[left]
            out.append((_mono_mul(mono, m), _q(num * p, den * q)))
        m, p, q = powers[last][left]
        out.append((_mono_mul(mono, m), _q(num * p, den * q)))

    expand(0, e, (), 1, 1)
    return out


_ZERO = Expr()
_ONE = Expr.number(1)


# -- exact linear algebra ------------------------------------------------------

def _rational(entry) -> Optional[Q]:
    """A Q entry itself, an Expr entry's value when it is a constant, else None."""
    return entry if entry.__class__ is Q else entry.constant_value()


def _is_zero(entry) -> bool:
    return not (entry._numerator if entry.__class__ is Q else entry.terms)


def _add_multiples(row: Dict, pairs: Iterable[Tuple[object, Mapping]]) -> None:
    """row += sum(b * other) over the pairs (b, other), each column summed once
    and dropped if it cancels; a rational b scales, a polynomial multiplies."""
    parts: Dict = {}
    for b, other in pairs:
        q = _rational(b)
        for col, e in other.items():
            parts.setdefault(col, [row[col]] if col in row else []).append(
                b * e if q is None else e * q)
    for col, es in parts.items():
        row[col] = es[0] if len(es) == 1 else \
            Expr.sum(es) if es[0].__class__ is Expr else sum(es, _ZERO_Q)
        if _is_zero(row[col]):
            del row[col]


def eliminate(rows: Mapping[Hashable, Mapping], order: Iterable,
              solved: Optional[Mapping] = None) -> Tuple[Dict, Dict]:
    """Exact Gaussian elimination, then one back-substitution: (solutions, rows left).

    A row {column: entry} reads sum(column * entry) = 0; its entries are numbers
    (made Qs by ``_as_q``) or Exprs that read no column, and zeros are dropped.
    A step solves the first row with a column of ``order`` whose entry is a
    nonzero rational a for the first such column c, as {column: -entry/a} over
    its other columns, substitutes that into the rows left and scans them again
    from the first; a column outside ``order`` (a constant's) is never solved
    for.  The solutions, after those of ``solved`` (columns the rows do not
    read), are then back-substituted once from the last to the first, so that
    none reads a solved column.  ``rows`` and ``solved`` are kept as given.
    """
    position = {c: k for k, c in enumerate(order)}
    pending = {}
    for label, row in rows.items():
        row = {c: e if e.__class__ is Expr else _as_q(e) for c, e in row.items()}
        pending[label] = {c: e for c, e in row.items() if not _is_zero(e)}
    solutions = {c: dict(solution) for c, solution in (solved or {}).items()}
    labels = list(pending)
    k = 0
    while k < len(labels):
        row = pending[labels[k]]
        c = min((c for c, e in row.items() if c in position and _rational(e)),
                key=position.__getitem__, default=None)
        if c is None:
            k += 1
            continue
        del pending[labels.pop(k)]
        a = _rational(row.pop(c))
        scale = _q(-a._denominator, a._numerator)  # -1/a
        solution = solutions[c] = {col: e * scale for col, e in row.items()}
        for other in pending.values():
            if c in other:
                _add_multiples(other, [(other.pop(c), solution)])
        k = 0
    for c in reversed(list(solutions)):  # no solution reads a column solved before it
        solution = solutions[c]
        later = [p for p in solution if p in solutions]
        _add_multiples(solution, [(solution.pop(p), solutions[p]) for p in later])
    return solutions, pending


# -- parsing ---------------------------------------------------------------

# The tokens: an integer, a name, a name to an integer power or an operator.
# "^" joins a name when followed by a letter (a momentum's dependent tag) and
# ends a name's token when followed by digits (name^k, read as one factor);
# any other "^" is the power operator.  A token's kind shows in the token
# itself: the operators are _OPS, a number is decimal digits and a name
# starts with a letter.  No token holds an operator character but "^".
_TOKEN = (r"\d+"
          r"|[A-Za-z][A-Za-z0-9_.]*(?:\^[A-Za-z][A-Za-z0-9_.]*)?(?:,_[A-Za-z][A-Za-z0-9]*)?"
          r"(?:\^\d+)?"
          r"|[-+*/^()]")
_TOKEN_RE = re.compile(_TOKEN)
# the tokens again, with any other non-space character "bad": the scan that
# places a token or a bad character, made only for an error message.  No
# alternative starts with a space, so neither scan backtracks over spaces.
_PLACED_RE = re.compile(rf"({_TOKEN})|(\S)")
_OPS = frozenset("-+*/^()")
_SIGNS = frozenset("+-")
_PRODUCT_OPS = frozenset("*/")


def _split_tokens(text: str) -> Optional[List[str]]:
    """The tokens of text by string operations alone, or None.

    The operator characters but "^" are padded with spaces and the text is
    split at whitespace.  No token holds whitespace or those characters, so
    when each distinct piece is one whole token, the pieces are the tokens
    ``_TOKEN_RE.findall`` would give; otherwise the answer is None.  A piece
    of decimal digits is a number token without the pattern: ``str.isdecimal``
    and the pattern's ``\\d`` both take exactly the Unicode Nd characters.
    """
    pieces = text.replace("+", " + ").replace("-", " - ").replace("*", " * ") \
        .replace("/", " / ").replace("(", " ( ").replace(")", " ) ").split()
    for piece in set(pieces):
        if not piece.isdecimal() and _TOKEN_RE.fullmatch(piece) is None:
            return None
    return pieces


def _tokenize(text: str) -> List[str]:
    """The tokens of text, then "" twice for its end: every token, the
    first "" too, has a next one.

    ``_split_tokens`` reads most texts.  Any other text (a bad character,
    "u_x^ 2", "2^3") is scanned by ``findall``, which skips any character
    that starts no token, so the tokens spell the text's non-space
    characters unless one is bad, and only then is the text scanned again
    for the first bad character.  Tokens hold no whitespace, so when their
    lengths and the text's ' ' count add up to its length they spell it,
    and the two joins are skipped.
    """
    tokens = _split_tokens(text)
    if tokens is None:
        tokens = _TOKEN_RE.findall(text)
        if sum(map(len, tokens)) + text.count(" ") != len(text) \
                and "".join(tokens) != "".join(text.split()):
            for m in _PLACED_RE.finditer(text):
                if m.lastindex == 2:
                    raise ParseError(f"unexpected character {m.group(2)!r}", text, m.start())
    tokens += ("", "")
    return tokens


def _power_at(tok: str) -> int:
    """Where the "^" of a name^k token is; 0 for any other token."""
    i = tok.rfind("^")
    return i if i > 0 and tok[i + 1:].isdecimal() else 0


def _token_start(text: str, k: int) -> int:
    """Where the k-th token of a text without bad characters starts; the
    text's length for the end."""
    for j, m in enumerate(_PLACED_RE.finditer(text)):
        if j == k:
            return m.start()
    return len(text)


class _Parser:
    """Recursive descent over: expr := [+-] term (('+'|'-') term)*;
    term := factor (('*'|'/') factor)*; factor := '-' factor | primary ['^' int];
    primary := int | name | '(' expr ')'.

    The reader works on the token strings of ``_tokenize`` and keeps only
    the index of the next token: positions are found by scanning the text
    again, and only for an error.  A name^k token is read as the name to the
    power k, and each name is resolved once per text: one map holds the
    factor of every name and name^k token read so far.  A term is read into
    one monomial and one integer numerator and denominator: numbers and
    powers of names are multiplied in directly, and only a parenthesised or
    negated factor is an Expr (folded in when it has one term).  The
    factors are appended in the order read and make the monomial as they
    are while each coordinate is above the one before; a repeat or a
    descent has them merged in a dict and sorted.  ``term``
    reads the plain factors in place from the token list (a name or a name^k
    token already read, an integer literal) when the next token is neither
    "(" nor "^"; ``factor`` reads every other factor, its primary and
    exponent with it (a unary minus, a parenthesis, the first sight of a
    name or a name^k token, with the name's resolution and the
    transcendental check, a power) and raises every error but a literal's,
    which ``integer`` raises for both paths, a name^k token's at its first
    digit.  The coefficient is made once per term, from its reduced ints,
    by ``_q``.  A term whose only non-constant factor is a sum is that
    sum's normal form, scaled unless its coefficient is 1.  An expression
    of one such term is returned as it is, and one of a single monomial is
    that term (or zero), without normalisation; any other expression
    collects its terms and builds one Expr.  Parentheses and unary minus
    signs nest at most MAX_DEPTH deep, which keeps the recursion well
    inside the interpreter's stack limit.
    """

    MAX_DEPTH = 100

    def __init__(self, text: str, ctx: JetContext):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.k = 0  # the index of the next token
        self.depth = 0
        # the factor of each name and name^k token read so far in this text:
        # (coordinate, 1), (coordinate, k), or 1 for k = 0
        self.read: Dict[str, object] = {}

    def error(self, message: str, k: int, cls=ParseError, shift: int = 0) -> VarjetError:
        """A ``cls`` error for ``message`` at the k-th token, or ``shift``
        characters into it."""
        pos = _token_start(self.text, k) + shift
        exc = ParseError(message, self.text, pos)
        if cls is not ParseError:  # the same message and position, as a cls
            exc = cls(str(exc))
            exc.message, exc.pos = message, pos
        return exc

    def nested(self, parse_inner, k: int):
        """parse_inner() one nesting level deeper, for the k-th token."""
        if self.depth == self.MAX_DEPTH:
            raise self.error(f"expression nested deeper than {self.MAX_DEPTH} levels", k)
        self.depth += 1
        e = parse_inner()
        self.depth -= 1
        return e

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.tokens[self.k]
        if tok:
            raise self.error(f"unexpected token {tok[:_power_at(tok) or None]!r}", self.k)
        return e

    def expr(self) -> Expr:
        tokens = self.tokens
        tok = tokens[self.k]
        sign = 1
        if tok in _SIGNS:
            self.k += 1
            sign = -1 if tok == "-" else 1
        parts = []
        while True:
            parts.append(self.term(sign))
            tok = tokens[self.k]
            if tok not in _SIGNS:
                break
            self.k += 1
            sign = -1 if tok == "-" else 1
        if len(parts) == 1:
            part = parts[0]
            if part.__class__ is Expr:
                return part
            if len(part) == 1:  # one monomial, its factors ascending and distinct
                return _canonical((part[0],)) if part[0][1] else _ZERO
        return Expr(chain.from_iterable([p.terms if p.__class__ is Expr else p
                                         for p in parts]))

    def term(self, sign: int):
        """One product times ``sign``: an Expr in normal form when its only
        non-constant factor is a sum, else its terms, one unless a factor is
        a sum.

        A name or a name^k token read before in the text and an integer
        literal are read here, from the tokens, when the next token is
        neither "(" nor "^"; ``factor`` reads every other factor, and so
        finds every error but a literal's, which ``integer`` finds for both."""
        tokens, read = self.tokens, self.read
        num, den = sign, 1
        factors: List[Tuple[CoordinateId, int]] = []  # (coordinate, exponent) as read
        last = ()  # the last coordinate read, or below every coordinate
        ascending = True  # whether each coordinate read is above the one before
        sums = None  # the product of the factors that are not single terms
        op = "*"  # the operator before the factor
        k = self.k
        while True:
            tok, after = tokens[k], tokens[k + 1]
            # a "(" after a name may call a function, a "^" raises it to a power
            f = read.get(tok) if after != "(" and after != "^" else None
            if f is not None:
                k += 1
            elif tok.isdecimal() and after != "^":
                f = self.integer(tok, k)
                k += 1
            else:
                self.k = k
                f = self.factor()
                k = self.k
            if op == "/":
                if f.__class__ is int:
                    q = f
                elif f.__class__ is tuple:
                    q = None
                else:
                    q = f.constant_value()
                if q is None:
                    raise self.error("division by a non-constant expression is not polynomial",
                                     at, UnsupportedExpressionError)
                if q == 0:
                    raise self.error("division by zero", at)
                num *= q.denominator
                den *= q.numerator
            elif f.__class__ is tuple:
                if f[0] <= last:
                    ascending = False
                last = f[0]
                factors.append(f)
            elif f.__class__ is int:
                num *= f
            elif len(f.terms) == 1:
                mono, q = f.terms[0]
                if mono:  # its factors ascend: only its first can break the order
                    if mono[0][0] <= last:
                        ascending = False
                    last = mono[-1][0]
                    factors += mono
                num *= q._numerator
                den *= q._denominator
            else:
                sums = f if sums is None else sums * f
            op = tokens[k]
            if op not in _PRODUCT_OPS:
                break
            at = k
            k += 1
        self.k = k
        if sums is not None and not factors:
            return sums if num == den else sums.scale(_q(num, den))
        if ascending:
            mono = tuple(factors)
        else:
            powers: Dict[CoordinateId, int] = {}
            for c, e in factors:
                powers[c] = powers.get(c, 0) + e
            mono = tuple(sorted(powers.items()))
        coeff = _q(num, den)
        if sums is None:
            return [(mono, coeff)]
        return [(_mono_mul(m, mono), c * coeff) for m, c in sums.terms]

    _TRANSCENDENTAL = {"sin", "cos", "tan", "exp", "log", "ln", "sqrt",
                       "sinh", "cosh", "tanh", "abs"}

    def factor(self):
        """One factor: an int for a number, (coordinate, exponent) or 1 for a
        power of a name, an Expr for a parenthesised or negated factor and for
        a power of a number or a parenthesis."""
        tokens = self.tokens
        k = self.k
        tok = tokens[k]
        self.k += 1
        if tok == "-":
            inner = self.nested(self.factor, k)
            if inner.__class__ is tuple:
                return _canonical((((inner,), -_ONE_Q),))
            return -inner
        if tok in self._TRANSCENDENTAL and tokens[self.k] == "(":
            raise self.error(f"transcendental function {tok!r} is not polynomial", k,
                             UnsupportedExpressionError)
        if tok.isdecimal():
            base = self.integer(tok, k)
        elif tok == "(":
            base = self.nested(self.expr, k)
            if tokens[self.k] != ")":
                raise self.error("expected ')'", self.k)
            self.k += 1
        elif tok and tok not in _OPS:
            i = _power_at(tok)
            name = tok[:i] if i else tok
            f = self.read.get(name)
            if f is None:
                coord = self.ctx._try_resolve(name)
                if coord is None:
                    raise self.error(f"unknown identifier {name!r}", k)
                f = self.read[name] = (coord, 1)
            if i:  # a name^k token; a "^" after it is no exponent
                e = self.integer(tok[i + 1:], k, i + 1)
                f = self.read[tok] = (f[0], e) if e else 1
                return f
            if tokens[self.k] != "^":
                return f
            e = self.exponent(self.k + 1)
            self.k += 2
            return (f[0], e) if e else 1
        else:
            raise self.error(f"unexpected token {tok!r}" if tok else "unexpected end of input", k)
        if tokens[self.k] != "^":
            return base
        e = self.exponent(self.k + 1)
        self.k += 2
        return (Expr.number(base) if base.__class__ is int else base) ** e

    def exponent(self, k: int) -> int:
        """The exponent after a "^": the k-th token, an integer literal."""
        tok = self.tokens[k]
        if tok == "-":
            raise self.error("negative exponents are not polynomial", k,
                             UnsupportedExpressionError)
        if not tok.isdecimal():
            raise self.error("expected integer exponent", k)
        return self.integer(tok, k)

    def integer(self, digits: str, k: int, shift: int = 0) -> int:
        """The integer literal ``digits``, ``shift`` characters into the k-th
        token; longer than the digit limit is an error there."""
        try:
            return int(digits)
        except ValueError:  # decimal digits: int() refuses only past the limit
            raise self.error(f"integer literal of {len(digits)} digits, over the limit of "
                             f"{_digit_limit()} digits", k, shift=shift) from None


def parse(text: str, ctx: JetContext) -> Expr:
    """Parse an expression in the context's coordinate names.

    The grammar is documented in docs/grammar.bnf; parse-print-parse is a
    fixed point of the plain format.
    """
    return _Parser(text, ctx).parse()


# -- rendering ---------------------------------------------------------------

def _coeff_plain(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def _coeff_latex(num: int, den: int) -> str:
    return str(num) if den == 1 else f"\\frac{{{num}}}{{{den}}}"


def render(e: Expr, ctx: JetContext, fmt: str = "plain") -> str:
    """Deterministic rendering; the plain format re-parses to the same Expr
    (see docs/grammar.bnf).  The JSON format is the compact text of
    schemas/expression.schema.json, which ``energy --format json`` prints
    indented.  ``ctx.spell`` spells each factor: a coordinate outside ctx is a VarjetError."""
    if fmt == "plain":
        return _render(e, ctx, fmt, _coeff_plain, "*")
    if fmt == "latex":
        return _render(e, ctx, fmt, _coeff_latex, " ")
    if fmt == "json":
        return _render_json(e, ctx)
    raise VarjetError(f"unknown format {fmt!r}")


def _render(e: Expr, ctx: JetContext, fmt: str, coeff_text, joiner: str) -> str:
    """The signed terms of e, each its coefficient (unless 1) and its factors
    joined by ``joiner``; ``coeff_text`` spells a coefficient's magnitude from
    its numerator and denominator.  A factor is its text in ctx's table for
    ``fmt``; ``ctx.spell`` is called only for a factor not yet in it."""
    if not e.terms:
        return "0"
    table = ctx._spellings[fmt]
    parts: List[str] = []
    try:
        for mono, coeff in e.terms:
            factors = []
            for factor in mono:  # a loop: a comprehension is a call per term before Python 3.12
                factors.append(table.get(factor) or ctx.spell(*factor, fmt))
            num, den = coeff._numerator, coeff._denominator
            negative = num < 0
            if negative:
                num = -num
            if num != 1 or den != 1 or not factors:
                factors.insert(0, coeff_text(num, den))
            body = joiner.join(factors)
            if parts:
                parts.append((" - " if negative else " + ") + body)
            else:
                parts.append("-" + body if negative else body)
    except ValueError:  # an int past Python's digit limit on int text
        raise _over_digit_limit() from None
    return "".join(parts)


def _over_digit_limit() -> UnsupportedExpressionError:
    return UnsupportedExpressionError(
        f"a coefficient or exponent of the result is over the limit of "
        f"{_digit_limit()} digits")


def _render_json(e: Expr, ctx: JetContext) -> str:
    """``{"monomials": [{"coeff": "p/q", "factors": [["name", exponent], ...]}, ...]}``,
    one entry per term in normal-form order, written in one pass.  The text
    is byte-equal to ``json.dumps`` of that value with ``sort_keys=True``: a
    coordinate's name is ASCII without '"' or '\\' (letters, digits and
    "_^.,"), so it needs no escape, and the keys are written in sorted order.
    Each factor is its text in ctx's json table, as in ``_render``."""
    table = ctx._spellings["json"]
    monomials: List[str] = []
    try:
        for mono, coeff in e.terms:
            factors = []
            for factor in mono:  # a loop: a comprehension is a call per term before Python 3.12
                factors.append(table.get(factor) or ctx.spell(*factor, "json"))
            coeff_text = _coeff_plain(coeff._numerator, coeff._denominator)
            monomials.append(f'{{"coeff": "{coeff_text}", "factors": [{", ".join(factors)}]}}')
    except ValueError:  # an int past Python's digit limit on int text
        raise _over_digit_limit() from None
    return '{"monomials": [' + ", ".join(monomials) + "]}"
