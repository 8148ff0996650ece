"""Small expression grammar for polynomial literals.

Accepts identifiers, integer and rational literals (``3/2``), ``+``,
``-`` (binary and unary), ``*``, ``^`` and parentheses -- exactly the
language emitted by GradedPolynomial.render(), so parse/render round-trip.
"""

import re
from fractions import Fraction

from .errors import ExpressionError, PreconditionError

# parentheses and unary minus signs nest at most this deep; the parser
# recurses once per level
MAX_NESTING = 100

# the constant term of a literal power may have at most this many bits
MAX_SCALAR_BITS = 1 << 20

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()/]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExpressionError(f"bad character in expression at {text[pos:]!r}")
        if m.lastgroup == "number":
            digits = m.group("number")
            try:
                tokens.append(("num", int(digits)))
            except ValueError:  # longer than sys.get_int_max_str_digits()
                raise ExpressionError(
                    f"integer literal at position {m.start('number')} is too long "
                    f"({len(digits)} digits)"
                ) from None
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident")))
        else:
            tokens.append((m.group("op"), None))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}, got {tok[0]!r}")
        return tok

    def parse_expression(self):
        if self.peek() in ("+", "-"):
            sign = -1 if self.next()[0] == "-" else 1
            value = self.parse_term() * sign
        else:
            value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek() == "*":
            self.next()
            value = value * self.parse_factor()
        return value

    def parse_factor(self):
        base = self.parse_atom()
        if self.peek() == "^":
            self.next()
            kind, v = self.next()
            if kind != "num":
                raise ExpressionError("exponent must be an integer literal")
            # the constant term of base**v is c**v; 0, 1 and -1 stay small
            c = base.constant_term()
            if c and abs(c) != 1:
                bits = v * max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > MAX_SCALAR_BITS:
                    raise PreconditionError(
                        f"a power's constant term would need more than {MAX_SCALAR_BITS} bits"
                    )
            base = base ** v
        return base

    def parse_atom(self):
        kind, value = self.next()
        if kind == "num":
            numerator = value
            if self.peek() == "/":
                self.next()
                k2, v2 = self.next()
                if k2 != "num":
                    raise ExpressionError("denominator must be an integer literal")
                if v2 == 0:
                    raise ExpressionError("zero denominator")
                return self.ring.constant(Fraction(numerator, v2))
            return self.ring.constant(numerator)
        if kind == "ident":
            return self.ring.gen(value)
        if kind not in ("(", "-"):
            raise ExpressionError(f"unexpected token {kind!r}")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionError(f"expression nests deeper than {MAX_NESTING} levels")
        if kind == "(":
            inner = self.parse_expression()
            self.expect(")")
        else:
            inner = -self.parse_factor()
        self.depth -= 1
        return inner


def parse_polynomial(text: str, ring):
    parser = _Parser(_tokenize(text), ring)
    value = parser.parse_expression()
    if parser.peek() != "end":
        raise ExpressionError(f"trailing input after expression: {text!r}")
    return value
