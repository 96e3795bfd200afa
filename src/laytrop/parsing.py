"""Text grammar for scalars, layers and polynomials.

Scalar: ``v:l`` with v a rational (``p/q`` or integer, in ASCII digits)
and l a rational or ``inf``, e.g. ``5:2``, ``3/2:inf``, ``-3:1/2``.

Polynomial: sum of ``v:l*x^e`` terms; ``*`` and ``^1`` are optional and
a bare ``x^e`` carries the unit coefficient ``0:1``.  Univariate
exponents are non-negative integers.  The multivariate grammar uses
``x1 .. xn`` and admits rational (also negative) exponents.  Parsing is
exact and ``parse(format(x)) == x`` bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import ParseError
from .polys import LayeredPoly
from .scalars import ONE, LayeredScalar, ls_add
from .sorts import INF, NAT, Sort, format_layer, format_value

if TYPE_CHECKING:
    from .multivar import MultiPoly

# A number literal (numerator or denominator) may have at most this many
# digits, below the interpreter's default limit of 4300 for converting
# decimal text to an integer.
MAX_LITERAL_DIGITS = 4000

# The largest variable index, so that a term's dense exponent vector stays
# small.
MAX_VARIABLES = 1024


def format_scalar(x: LayeredScalar) -> str:
    return f"{format_value(x.value)}:{format_layer(x.layer)}"


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] == " ":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char):
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def fail(self, message):
        raise ParseError(message, self.pos)

    def rational(self):
        self.skip_ws()
        start = self.pos
        self.take("-")
        num_start = self.pos
        self.digits()
        if self.pos == num_start:
            self.pos = start
            self.fail("expected a rational number")
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            den_start = self.pos
            self.digits()
            if self.pos == den_start:
                self.fail("expected a denominator")
            if int(self.text[den_start:self.pos]) == 0:
                self.pos = den_start
                self.fail("zero denominator")
        return Fraction(self.text[start:self.pos])

    def digits(self):
        start = self.pos
        # not str.isdigit, which also accepts digits such as "¹"
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos - start > MAX_LITERAL_DIGITS:
            self.pos = start
            self.fail(f"number literal longer than {MAX_LITERAL_DIGITS} digits")

    def layer(self):
        self.skip_ws()
        if self.text.startswith("inf", self.pos):
            self.pos += 3
            return INF
        return self.rational()


def _whole(text: str, read, what: str):
    """``read`` from a fresh scanner, which must consume all of ``text``."""
    sc = _Scanner(text)
    x = read(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        sc.fail(f"trailing input after {what}")
    return x


def parse_value(text: str) -> Fraction:
    """A rational ``p`` or ``p/q``, as the value of a scalar."""
    return _whole(text, _Scanner.rational, "number")


def parse_layer(text: str):
    return _whole(text, _Scanner.layer, "layer")


def parse_scalar(text: str) -> LayeredScalar:
    return _whole(text, _scalar, "scalar")


def _scalar(sc: _Scanner) -> LayeredScalar:
    value = sc.rational()
    if not sc.take(":"):
        sc.fail("expected ':' between value and layer")
    return LayeredScalar(value, sc.layer())


def _term(sc: _Scanner):
    """One term: (coefficient, [(index or None, exponent), ...])."""
    coeff = None
    ch = sc.peek()
    if "0" <= ch <= "9" or ch == "-":
        coeff = _scalar(sc)
        sc.take("*")
    factors = []
    while sc.peek() == "x":
        sc.pos += 1
        start = sc.pos
        sc.digits()
        index = int(sc.text[start:sc.pos]) if sc.pos > start else None
        if index == 0:
            sc.fail("variable indices start at 1")
        if index is not None and index > MAX_VARIABLES:
            sc.pos = start
            sc.fail(f"variable index above {MAX_VARIABLES}")
        exp = Fraction(1)
        if sc.take("^"):
            exp = sc.rational()
        factors.append((index, exp))
        if not sc.take("*"):
            break
    if coeff is None and not factors:
        sc.fail("expected a term")
    return (coeff if coeff is not None else ONE), factors


def parse_poly(text: str, sort: Sort = NAT):
    """Parse a polynomial; duplicate exponents merge by layered addition.

    Returns a LayeredPoly when only the bare variable ``x`` occurs (or
    no variable at all) and a MultiPoly when indexed variables
    ``x1 .. xn`` occur; mixing the two styles is an error.
    """
    sc = _Scanner(text)
    terms = [_term(sc)]
    while True:
        sc.skip_ws()
        if sc.pos == len(text):
            break
        if not sc.take("+"):
            sc.fail("expected '+' between terms")
        terms.append(_term(sc))

    indices = {i for _, factors in terms for i, _ in factors}
    if None in indices and len(indices) > 1:
        sc.fail("cannot mix 'x' with indexed variables")
    univariate = not indices or None in indices
    arity = 1 if univariate else max(indices)
    out = {}
    for coeff, factors in terms:
        exps = [Fraction(0)] * arity
        for i, e in factors:
            exps[(i or 1) - 1] += e  # the bare x is x1
        key = tuple(exps)
        if univariate:
            (exp,) = key
            if exp.denominator != 1 or exp < 0:
                sc.fail("univariate exponents must be non-negative integers")
            key = int(exp)
        out[key] = ls_add(out[key], coeff, sort) if key in out else coeff
    if univariate:
        return LayeredPoly(out)
    from .multivar import multipoly

    return multipoly(arity, out)


def _format_power(name: str, exp) -> str:
    exp = Fraction(exp)
    return name if exp == 1 else f"{name}^{format_value(exp)}"


def format_poly(f) -> str:
    """Canonical text of a polynomial, highest exponents first; ``0``, the
    formal zero polynomial, which is not part of the grammar, without terms."""
    if isinstance(f, LayeredPoly):
        terms, names = [((e,), c) for e, c in f.terms()], ["x"]
    else:
        terms, names = f.terms(), [f"x{i + 1}" for i in range(f.arity)]
    parts = []
    for exps, coeff in sorted(terms, key=lambda t: t[0], reverse=True):
        vars_part = "*".join(_format_power(name, e) for name, e in zip(names, exps) if e != 0)
        if not vars_part:
            parts.append(format_scalar(coeff))
        elif coeff == ONE:
            parts.append(vars_part)
        else:
            parts.append(f"{format_scalar(coeff)}*{vars_part}")
    return " + ".join(parts) or "0"


def to_multipoly(f, arity: int = 1) -> MultiPoly:
    """View a univariate polynomial as a MultiPoly in x1."""
    from .multivar import MultiPoly, multipoly

    if isinstance(f, MultiPoly):
        return f
    pad = (Fraction(0),) * (arity - 1)
    return multipoly(
        arity, {(Fraction(exp),) + pad: coeff for exp, coeff in f.terms()}
    )
