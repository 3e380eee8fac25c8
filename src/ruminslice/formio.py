"""Textual interfaces: form expressions, chain files, CSV emission.

Expression grammar (lowest to highest precedence):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('^' factor)*
    factor := atom (('*' atom) | ('/' atom))*
    atom   := INTEGER | IDENT | '(' expr ')'

'^' is the wedge, left-associative; '*' is scalar multiplication and
binds tighter; '/' divides by a nonzero constant.  Identifiers are the
variables x1..xn, y1..yn, t and the coframe atoms dx1.., dy1.., theta.
Sums require equal grades.  The printer emits a canonical spelling that
round-trips through the parser to an equal form.

Chain files are JSON tagged "rumin-slice/1" with exact rationals encoded
as strings "p/q".

Integer literals, in expressions and in chain files (each of p and q, and
JSON integers), may have at most ``MAX_LITERAL_DIGITS`` digits.  The
length is checked on the text before any conversion, so a longer literal
is a :class:`ParameterError` (:class:`ChainFormatError` in a chain file),
not the ValueError Python raises past its own 4300-digit limit.  Exact
arithmetic can still grow a computed coordinate past that limit (a cut
point of coordinates near the cap); writing such a chain raises
:class:`ParameterError`.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .currents import DEFAULT_QUADRATURE_DEGREE, Simplex, SimplicialCurrent
from .errors import ChainFormatError, FormSyntaxError, GradeMismatchError, ParameterError
from .forms import PolyForm
from .heis import HeisParams
from .polys import Poly
from .slicing import AffineFunction

CHAIN_VERSION = "rumin-slice/1"

MAX_LITERAL_DIGITS = 1000


def _check_digits(text: str, error, *args):
    """Raise ``error`` when the digit string ``text`` is longer than the cap."""
    digits = len(text.lstrip("+-"))
    if digits > MAX_LITERAL_DIGITS:
        raise error(f"integer literal of {digits} digits; the limit is {MAX_LITERAL_DIGITS}",
                    *args)

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            bad = text[pos:].lstrip()
            if not bad:
                break
            raise FormSyntaxError(f"unexpected character {bad[0]!r}", 1, pos + 1)
        number, ident, op = match.groups()
        column = match.start(1 if number else 2 if ident else 3) + 1
        if number is not None:
            _check_digits(number, FormSyntaxError, 1, column)
            tokens.append(("num", int(number), column))
        elif ident is not None:
            tokens.append(("ident", ident, column))
        else:
            tokens.append(("op", op, column))
        pos = match.end()
    tokens.append(("end", None, len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, params: HeisParams):
        self.tokens = _tokenize(text)
        self.index = 0
        self.params = params

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, op):
        kind, value, column = self.peek()
        if kind != "op" or value != op:
            raise FormSyntaxError(f"expected {op!r}", 1, column)
        return self.advance()

    # -- grammar ---------------------------------------------------------

    def parse(self) -> PolyForm:
        form = self.expr()
        kind, value, column = self.peek()
        if kind != "end":
            raise FormSyntaxError(f"trailing input at {value!r}", 1, column)
        return form

    def expr(self) -> PolyForm:
        kind, value, _ = self.peek()
        negate = kind == "op" and value == "-"
        if negate:
            self.advance()
        form = self.term()
        if negate:
            form = -form
        while True:
            kind, value, column = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.advance()
                right = self.term()
                if right.grade != form.grade:
                    raise GradeMismatchError(form.grade, right.grade, value)
                form = form + right if value == "+" else form - right
            else:
                return form

    def term(self) -> PolyForm:
        from .forms import wedge_forms

        form = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                form = wedge_forms(form, self.factor())
            else:
                return form

    def factor(self) -> PolyForm:
        form = self.atom()
        while True:
            kind, value, column = self.peek()
            if kind == "op" and value in ("*", "/"):
                self.advance()
                right = self.atom()
                if value == "*":
                    form = self._multiply(form, right, column)
                else:
                    form = self._divide(form, right, column)
            else:
                return form

    def _multiply(self, left: PolyForm, right: PolyForm, column: int) -> PolyForm:
        if left.grade == 0:
            return right.scale(left.coefficient(()))
        if right.grade == 0:
            return left.scale(right.coefficient(()))
        raise FormSyntaxError(
            f"'*' needs a scalar operand (grades {left.grade} and {right.grade}); use '^' to wedge",
            1, column)

    def _divide(self, left: PolyForm, right: PolyForm, column: int) -> PolyForm:
        if right.grade != 0:
            raise FormSyntaxError(f"'/' needs a scalar divisor, got grade {right.grade}", 1, column)
        divisor = right.coefficient(())
        if not divisor.is_constant() or divisor.is_zero():
            raise FormSyntaxError("'/' needs a nonzero constant divisor", 1, column)
        return left.scale(Fraction(1) / divisor.constant_value())

    def atom(self) -> PolyForm:
        kind, value, column = self.advance()
        params = self.params
        if kind == "num":
            return PolyForm.from_poly(params, Poly.const(params.dim, value))
        if kind == "ident":
            return self._identifier(value, column)
        if kind == "op" and value == "(":
            form = self.expr()
            self.expect_op(")")
            return form
        raise FormSyntaxError(f"expected a value, got {value!r}", 1, column)

    def _identifier(self, name: str, column: int) -> PolyForm:
        params = self.params
        n = params.n
        if name == "theta":
            return PolyForm.theta(params)
        if name == "t":
            return PolyForm.from_poly(params, Poly.var(params.dim, 2 * n))
        match = re.fullmatch(r"(d?)([xy])(\d+)", name)
        if match:
            differential, letter, index = match.groups()
            _check_digits(index, FormSyntaxError, 1, column)
            j = int(index)
            if 1 <= j <= n:
                offset = j - 1 if letter == "x" else n + j - 1
                if differential:
                    return PolyForm.single(params, (offset,), Poly.const(params.dim, 1))
                return PolyForm.from_poly(params, Poly.var(params.dim, offset))
        raise FormSyntaxError(f"unknown identifier {name!r} over H^{n}", 1, column)


def parse_form(text: str, params: HeisParams) -> PolyForm:
    """Parse a form expression; raises :class:`FormSyntaxError` with position."""
    return _Parser(text, params).parse()


def parse_affine(text: str, params: HeisParams) -> AffineFunction:
    """Parse a grade-0, degree <= 1 expression into an affine function."""
    form = parse_form(text, params)
    if form.grade != 0:
        raise ParameterError(f"affine function must have grade 0, got grade {form.grade}")
    poly = form.coefficient(())
    if poly.total_degree() > 1:
        raise ParameterError("slicing functions must be affine in the coordinates")
    coeffs = [Fraction(0)] * params.dim
    const = Fraction(0)
    for expo, coef in poly.terms.items():
        degree = sum(expo)
        if degree == 0:
            const = coef
        else:
            coeffs[expo.index(1)] = coef
    return AffineFunction(tuple(coeffs), const)


# -- printing ------------------------------------------------------------


def _rational_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"({value.numerator}/{value.denominator})"


def _var_name(params: HeisParams, index: int) -> str:
    n = params.n
    if index < n:
        return f"x{index + 1}"
    if index < 2 * n:
        return f"y{index - n + 1}"
    return "t"


def _blade_name(params: HeisParams, blade) -> str:
    n = params.n
    names = []
    for index in blade:
        if index < n:
            names.append(f"dx{index + 1}")
        elif index < 2 * n:
            names.append(f"dy{index - n + 1}")
        else:
            names.append("theta")
    return "^".join(names)


def _monomial_str(params: HeisParams, expo, coef: Fraction) -> str:
    factors = []
    magnitude = abs(coef)
    variables = []
    for index, power in enumerate(expo):
        variables.extend([_var_name(params, index)] * power)
    if magnitude != 1 or not variables:
        factors.append(_rational_str(magnitude))
    factors.extend(variables)
    return "*".join(factors)


def print_poly(params: HeisParams, poly: Poly) -> str:
    if poly.is_zero():
        return "0"
    pieces = []
    terms = poly.terms
    for expo in sorted(terms):
        coef = terms[expo]
        text = _monomial_str(params, expo, coef)
        if not pieces:
            pieces.append(text if coef > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if coef > 0 else f"- {text}")
    return " ".join(pieces)


def print_form(form: PolyForm) -> str:
    """Canonical textual spelling; parses back to an equal form.

    The zero form of any grade prints as the literal ``0``, which parses
    at grade 0; every nonzero form round-trips with its grade.
    """
    params = form.params
    if form.is_zero():
        return "0"
    if form.grade == 0:
        return print_poly(params, form.coefficient(()))
    pieces = []
    for blade in sorted(form.coeffs):
        poly = form.coeffs[blade]
        blade_text = _blade_name(params, blade)
        terms = poly.terms
        if len(terms) == 1:
            (expo, coef), = terms.items()
            mono = _monomial_str(params, expo, coef)
            term = blade_text if mono == "1" else f"{mono}*{blade_text}"
            sign = coef > 0
        else:
            term = f"({print_poly(params, poly)})*{blade_text}"
            sign = True
        if not pieces:
            pieces.append(term if sign else f"-{term}")
        else:
            pieces.append(f"+ {term}" if sign else f"- {term}")
    return " ".join(pieces)


# -- chain files -----------------------------------------------------------

_RATIONAL_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?\Z")


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_rational(text) -> Fraction:
    if _is_json_int(text):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text.strip()):
        raise ChainFormatError(f"non-rational literal {text!r}; use strings like \"p/q\"")
    for part in text.strip().split("/"):
        _check_digits(part, ChainFormatError)
    return Fraction(text.strip())


def _json_int(text: str) -> int:
    _check_digits(text, ChainFormatError)
    return int(text)


def _rational_text(value) -> str:
    try:
        return str(value)
    except ValueError as exc:  # past Python's int-string limit
        raise ParameterError(f"cannot write a chain coordinate: {exc}") from exc


def chain_to_dict(T: SimplicialCurrent) -> dict:
    vertex_index = {}
    vertices = []
    simplices = []
    for s in T.simplices:
        indices = []
        for v in s.vertices:
            key = tuple(v)
            if key not in vertex_index:
                vertex_index[key] = len(vertices)
                vertices.append([_rational_text(c) for c in key])
            indices.append(vertex_index[key])
        simplices.append({"vertices": indices, "multiplicity": _rational_text(s.multiplicity)})
    return {
        "version": CHAIN_VERSION,
        "n": T.params.n,
        "degree": T.degree,
        "vertices": vertices,
        "simplices": simplices,
        "quadrature_order": T.quadrature_degree,
    }


def chain_from_dict(data: dict) -> SimplicialCurrent:
    """The chain a parsed chain file describes.

    Anything that is not a well-formed "rumin-slice/1" object raises
    :class:`ChainFormatError`: wrong JSON types (a top-level list, a
    simplex entry or vertex row that is not an object or list, a boolean
    index, an ``n`` or ``degree`` that is not a JSON integer in range)
    included.
    """
    if not isinstance(data, dict):
        raise ChainFormatError(f"a chain file holds a JSON object, got {type(data).__name__}")
    version = data.get("version")
    if version != CHAIN_VERSION:
        raise ChainFormatError(
            f"unsupported chain version {version!r}; this build reads {CHAIN_VERSION!r}")
    try:
        n = data["n"]
        degree = data["degree"]
        raw_vertices = data["vertices"]
        raw_simplices = data["simplices"]
    except KeyError as exc:
        raise ChainFormatError(f"missing field: {exc}") from exc
    if not (_is_json_int(n) and n >= 1 and _is_json_int(degree) and 0 <= degree <= 2 * n + 1):
        raise ChainFormatError(
            f"'n' must be a JSON integer >= 1 and 'degree' one in 0..2n+1; got {n!r}, {degree!r}")
    if not isinstance(raw_vertices, list) or not isinstance(raw_simplices, list):
        raise ChainFormatError("'vertices' and 'simplices' must be lists")
    params = HeisParams(n)
    vertices = []
    for row in raw_vertices:
        if not isinstance(row, list):
            raise ChainFormatError(f"vertex {row!r} is not a list of coordinates")
        if len(row) != params.dim:
            raise ChainFormatError(
                f"vertex of length {len(row)}; expected {params.dim} coordinates")
        vertices.append(tuple(_parse_rational(c) for c in row))
    simplices = []
    for entry in raw_simplices:
        if not isinstance(entry, dict):
            raise ChainFormatError(f"simplex entry {entry!r} is not an object")
        indices = entry.get("vertices")
        if not isinstance(indices, list) or len(indices) != degree + 1:
            raise ChainFormatError(f"simplex needs {degree + 1} vertex indices")
        for i in indices:
            if not _is_json_int(i):
                raise ChainFormatError(f"vertex index {i!r} is not an integer")
            if not 0 <= i < len(vertices):
                raise ChainFormatError(
                    f"vertex index {i} out of range 0..{len(vertices) - 1}")
        multiplicity = _parse_rational(entry.get("multiplicity", "1"))
        if multiplicity == 0:
            raise ChainFormatError("zero multiplicity is not allowed in chain files")
        simplices.append(Simplex(tuple(vertices[i] for i in indices), multiplicity))
    order = data.get("quadrature_order", DEFAULT_QUADRATURE_DEGREE)
    if not _is_json_int(order) or order < 1:
        raise ChainFormatError(f"quadrature_order must be a positive integer, got {order!r}")
    return SimplicialCurrent(params, degree, simplices, quadrature_degree=order)


def load_chain(path) -> SimplicialCurrent:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle, parse_int=_json_int)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ChainFormatError(f"invalid JSON: {exc}") from exc
    return chain_from_dict(data)


def save_chain(T: SimplicialCurrent, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chain_to_dict(T), handle, indent=1)
        handle.write("\n")


# -- CSV -------------------------------------------------------------------


def format_sig(value) -> str:
    return f"{float(value):.12g}"


def coarea_csv_lines(result) -> list:
    lines = ["t,mass,band_bound,ratio"]
    for row in result.rows:
        lines.append(",".join(format_sig(v) for v in (row.t, row.mass, row.band_bound, row.ratio)))
    return lines
