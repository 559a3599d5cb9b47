"""Text formats: the .conemap expression language and the .game.json schema.

A map document looks like::

    format: 1
    dim: 4
    param a1 = 1.5
    coord 1: a1*x1 + theta(x1, x2)
    coord 2: mean(2, (0.5, 0.5), x1, x2)
    ...

Homogeneity is enforced syntactically: monomial exponents must sum to one,
and the combining forms (sum, +, min, max, mean, theta) preserve degree one,
so ill-posed inputs are rejected before any analysis runs.  Parameters are
bound to numbers at parse time; constant subexpressions allow full
arithmetic.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .core import ConeMap
from .errors import ParseError, SemanticError, ValidationError
from . import maps as _maps
from .maps import (Coord, Expr, Linear, Max, Min, Pole, PowerMean, Scale, Sum)
from .topical import GameAction, GameSpec

FORMAT_VERSION = 1

_CALLS = ("mean", "geo", "sum", "min", "max", "theta")


@dataclass(frozen=True)
class MapDocument:
    dimension: int
    parameters: Tuple[Tuple[str, float], ...]
    exprs: Tuple[Expr, ...]

    @property
    def cone_map(self) -> ConeMap:
        return _maps.from_exprs(self.exprs, self.dimension)


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(r"""
    (?P<number>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[(),+\-*/^:=])
  | (?P<space>[ \t]+)
""", re.VERBOSE)

_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")


@dataclass(frozen=True)
class Token:
    kind: str   # number | ident | punct | end
    text: str
    line: int
    column: int


def _tokenize(text: str, line_no: int, col_offset: int = 0) -> List[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line_no, col_offset + pos + 1)
        if m.lastgroup != "space":
            tokens.append(Token(m.lastgroup, m.group(),
                                line_no, col_offset + pos + 1))
        pos = m.end()
    tokens.append(Token("end", "", line_no, col_offset + len(text) + 1))
    return tokens


class _Parser:
    """Recursive-descent parser over one expression line."""

    def __init__(self, tokens: List[Token], params: Dict[str, float], n: int):
        self.tokens = tokens
        self.pos = 0
        self.params = params
        self.n = n

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == text:
            return self.advance()
        raise ParseError(f"found {tok.text!r}" if tok.kind != "end"
                         else "line ended early",
                         tok.line, tok.column, expected=(repr(text),))

    def fail(self, message: str, expected=()) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column, expected=expected)

    # -- constant expressions ---------------------------------------------

    def const_expr(self) -> float:
        value = self.const_term()
        while self.peek().kind == "punct" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.const_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def const_term(self) -> float:
        value = self.const_factor()
        while self.peek().kind == "punct" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.const_factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def const_factor(self) -> float:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "-":
            self.advance()
            return -self.const_factor()
        return self.const_power()

    def const_power(self) -> float:
        base = self.const_atom()
        if self.peek().kind == "punct" and self.peek().text == "^":
            self.advance()
            return base ** self.const_factor()
        return base

    def const_atom(self) -> float:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return float(tok.text)
        if tok.kind == "ident":
            if _VAR_RE.match(tok.text):
                raise self.fail(f"coordinate {tok.text} used where a constant "
                                "is required")
            if tok.text not in self.params:
                raise SemanticError(
                    f"line {tok.line}: unbound parameter {tok.text!r}")
            self.advance()
            return self.params[tok.text]
        if tok.kind == "punct" and tok.text == "(":
            self.advance()
            value = self.const_expr()
            self.expect(")")
            return value
        raise self.fail("expected a constant",
                        expected=("number", "parameter", "'('"))

    # -- map expressions ----------------------------------------------------

    def map_expr(self) -> Expr:
        terms = [self.map_product()]
        while self.peek().kind == "punct" and self.peek().text == "+":
            self.advance()
            terms.append(self.map_product())
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def map_product(self) -> Expr:
        scale = 1.0
        exponents: Dict[int, float] = {}
        composite: Optional[Expr] = None
        first = True
        while True:
            tok = self.peek()
            kind = self._factor_kind(tok)
            if kind is None:
                if first:
                    raise self.fail("expected a term",
                                    expected=("number", "x<i>", "parameter",
                                              *(c + "(...)" for c in _CALLS)))
                break
            first = False
            if kind == "const":
                scale *= self._const_in_product()
            elif kind == "var":
                j, p = self._var_power()
                exponents[j] = exponents.get(j, 0.0) + p
            else:
                if composite is not None:
                    raise SemanticError(
                        f"line {tok.line}: product of two degree-one "
                        "subexpressions is inhomogeneous")
                composite = self.call()
            if self.peek().kind == "punct" and self.peek().text == "*":
                self.advance()
                continue
            break
        return self._assemble_product(scale, exponents, composite,
                                      self.tokens[self.pos - 1].line)

    def _factor_kind(self, tok: Token) -> Optional[str]:
        if tok.kind == "number":
            return "const"
        if tok.kind == "punct" and tok.text == "(":
            return "const"
        if tok.kind == "ident":
            if tok.text in _CALLS:
                nxt = self.tokens[self.pos + 1]
                if nxt.kind == "punct" and nxt.text == "(":
                    return "call"
            if _VAR_RE.match(tok.text):
                return "var"
            return "const"  # parameter
        return None

    def _const_in_product(self) -> float:
        return self.const_power()

    def _var_power(self) -> Tuple[int, float]:
        tok = self.advance()
        index = int(_VAR_RE.match(tok.text).group(1)) - 1
        if index >= self.n:
            raise SemanticError(
                f"line {tok.line}: coordinate {tok.text} out of range for "
                f"dim {self.n}")
        power = 1.0
        if self.peek().kind == "punct" and self.peek().text == "^":
            self.advance()
            power = self.const_power()
        if power <= 0.0:
            raise SemanticError(
                f"line {tok.line}: exponent of {tok.text} must be positive")
        return index, power

    def _assemble_product(self, scale: float, exponents: Dict[int, float],
                          composite: Optional[Expr], line: int) -> Expr:
        if scale <= 0.0 or not math.isfinite(scale):
            raise SemanticError(
                f"line {line}: coefficients must be positive and finite")
        degree = sum(exponents.values()) + (1.0 if composite is not None else 0.0)
        if composite is not None and exponents:
            raise SemanticError(
                f"line {line}: mixing coordinates and a compound "
                "subexpression in one product is inhomogeneous")
        if composite is not None:
            return _maps._scale(scale, composite)
        if abs(degree - 1.0) > 1e-12:
            raise SemanticError(
                f"line {line}: monomial exponents sum to {degree}, not 1")
        return _maps.monomial(scale, exponents)

    def call(self) -> Expr:
        name = self.advance().text
        self.expect("(")
        if name == "mean":
            r = self.const_expr()
            self.expect(",")
            weights = self._weight_list()
            children = []
            while self.peek().kind == "punct" and self.peek().text == ",":
                self.advance()
                children.append(self.map_expr())
            close = self.expect(")")
            if len(weights) != len(children):
                raise SemanticError(
                    f"line {close.line}: mean has {len(weights)} weights but "
                    f"{len(children)} arguments")
            total = sum(weights)
            if any(w < 0.0 for w in weights) or abs(total - 1.0) > 1e-12:
                raise SemanticError(
                    f"line {close.line}: mean weights must be a probability "
                    f"vector (they sum to {total})")
            return _power_mean(r, weights, children, close.line)
        if name == "theta":
            a = self.map_expr()
            self.expect(",")
            b = self.map_expr()
            self.expect(")")
            return _maps.theta(a, b)
        children = [self.map_expr()]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.advance()
            children.append(self.map_expr())
        self.expect(")")
        if name == "geo":
            k = len(children)
            return _power_mean(0.0, [1.0 / k] * k, children, None)
        if name == "sum":
            return children[0] if len(children) == 1 else Sum(tuple(children))
        if name == "min":
            return children[0] if len(children) == 1 else Min(tuple(children))
        if name == "max":
            return children[0] if len(children) == 1 else Max(tuple(children))
        raise SemanticError(f"unknown form {name!r}")

    def _weight_list(self) -> List[float]:
        self.expect("(")
        weights = [self.const_expr()]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.advance()
            weights.append(self.const_expr())
        self.expect(")")
        return weights


def _power_mean(r: float, weights, children, line) -> Expr:
    kept = [(w, c) for w, c in zip(weights, children) if w > 0.0]
    if not kept:
        raise SemanticError(f"line {line}: mean weights have empty support")
    if len(kept) == 1:
        return kept[0][1]
    mass = sum(w for w, _ in kept)
    return PowerMean(float(r), tuple(w / mass for w, _ in kept),
                     tuple(c for _, c in kept))


# ---------------------------------------------------------------------------
# Documents

_HEADER_RE = re.compile(r"^(format|dim)\s*:\s*(\S+)\s*$")
_PARAM_RE = re.compile(r"^param\s+([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.+)$")
_COORD_RE = re.compile(r"^coord\s+([1-9][0-9]*)\s*:\s*(.*)$")


def parse_map(text: str) -> MapDocument:
    """Parse a .conemap document into a MapDocument."""
    fmt: Optional[int] = None
    dim: Optional[int] = None
    params: Dict[str, float] = {}
    coords: Dict[int, Expr] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _HEADER_RE.match(line)
        if m:
            key, value = m.groups()
            try:
                number = int(value)
            except ValueError:
                raise ParseError(f"{key} must be an integer", line_no, 1)
            if key == "format":
                if number != FORMAT_VERSION:
                    raise SemanticError(
                        f"line {line_no}: unsupported format {number}")
                fmt = number
            else:
                if number < 1:
                    raise SemanticError(f"line {line_no}: dim must be >= 1")
                dim = number
            continue
        m = _PARAM_RE.match(line)
        if m:
            name, value_text = m.groups()
            if _VAR_RE.match(name):
                raise SemanticError(
                    f"line {line_no}: parameter name {name!r} collides with "
                    "a coordinate")
            parser = _Parser(_tokenize(value_text, line_no,
                                       raw.index("=") + 1), params, dim or 0)
            value = parser.const_expr()
            if parser.peek().kind != "end":
                raise parser.fail("trailing input after parameter value")
            if not math.isfinite(value):
                raise SemanticError(
                    f"line {line_no}: parameter {name} must be finite, "
                    f"got {value}")
            params[name] = value
            continue
        m = _COORD_RE.match(line)
        if m:
            if fmt is None:
                raise SemanticError(
                    f"line {line_no}: missing 'format: 1' header")
            if dim is None:
                raise SemanticError(f"line {line_no}: missing 'dim:' header")
            index = int(m.group(1))
            if not 1 <= index <= dim:
                raise SemanticError(
                    f"line {line_no}: coord {index} out of range for dim {dim}")
            if index in coords:
                raise SemanticError(f"line {line_no}: coord {index} redefined")
            expr_text = m.group(2)
            offset = raw.index(":", raw.index("coord")) + 1
            parser = _Parser(_tokenize(expr_text, line_no, offset),
                             params, dim)
            expr = parser.map_expr()
            if parser.peek().kind != "end":
                raise parser.fail("trailing input after expression")
            coords[index] = expr
            continue
        raise ParseError("unrecognized line", line_no, 1,
                         expected=("format:", "dim:", "param", "coord"))

    if fmt is None:
        raise SemanticError("missing 'format: 1' header")
    if dim is None:
        raise SemanticError("missing 'dim:' header")
    missing = [str(i) for i in range(1, dim + 1) if i not in coords]
    if missing:
        raise SemanticError("missing coordinate definitions: " +
                            ", ".join(missing))
    exprs = tuple(coords[i] for i in range(1, dim + 1))
    return MapDocument(dim, tuple(sorted(params.items())), exprs)


def serialize_map(doc: MapDocument) -> str:
    lines = [f"format: {FORMAT_VERSION}", f"dim: {doc.dimension}"]
    for name, value in doc.parameters:
        lines.append(f"param {name} = {value!r}")
    for i, e in enumerate(doc.exprs, start=1):
        lines.append(f"coord {i}: {serialize_expr(e)}")
    return "\n".join(lines) + "\n"


def serialize_expr(e: Expr) -> str:
    if isinstance(e, Coord):
        return f"x{e.index + 1}"
    if isinstance(e, Pole):
        raise SemanticError("pinned expressions are not serializable")
    if isinstance(e, Scale):
        return f"{e.factor!r}*{_serialize_tight(e.child)}"
    if isinstance(e, Sum):
        return " + ".join(serialize_expr(t) for t in e.terms)
    if isinstance(e, Linear):
        return " + ".join(f"{w!r}*x{j + 1}" for j, w in e.nonzeros)
    if isinstance(e, Min):
        return "min(" + ", ".join(serialize_expr(t) for t in e.terms) + ")"
    if isinstance(e, Max):
        return "max(" + ", ".join(serialize_expr(t) for t in e.terms) + ")"
    if isinstance(e, PowerMean):
        weights = ", ".join(repr(w) for w in e.weights)
        terms = ", ".join(serialize_expr(t) for t in e.terms)
        return f"mean({e.r!r}, ({weights}), {terms})"
    raise TypeError(f"unknown node {type(e).__name__}")


def _serialize_tight(e: Expr) -> str:
    # a scaled Sum needs the sum() form to survive reparsing unambiguously
    if isinstance(e, (Sum, Linear)):
        return "sum(" + ", ".join(serialize_expr(t) for t in e.terms) + ")" \
            if isinstance(e, Sum) else \
            "sum(" + ", ".join(f"{w!r}*x{j + 1}" for j, w in e.nonzeros) + ")"
    return serialize_expr(e)


# ---------------------------------------------------------------------------
# Game documents

def parse_game(text: str) -> GameSpec:
    """Parse a .game.json document into a validated GameSpec."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    if doc.get("format") != FORMAT_VERSION:
        raise ValidationError(f"format must be {FORMAT_VERSION}", "/format")
    controllers = doc.get("controllers")
    if not isinstance(controllers, list) or not controllers:
        raise ValidationError("controllers must be a nonempty array",
                              "/controllers")
    n = len(controllers)
    if "states" in doc and doc["states"] != n:
        raise ValidationError(
            f"states = {doc['states']} disagrees with {n} controllers",
            "/states")
    actions_doc = doc.get("actions")
    if not isinstance(actions_doc, list) or len(actions_doc) != n:
        raise ValidationError("actions must be an array with one entry per "
                              "state", "/actions")
    actions: List[Tuple[GameAction, ...]] = []
    for i, acts in enumerate(actions_doc):
        if not isinstance(acts, list) or not acts:
            raise ValidationError("state needs a nonempty action array",
                                  f"/actions/{i}")
        row = []
        for k, act in enumerate(acts):
            if not isinstance(act, dict):
                raise ValidationError("action must be an object",
                                      f"/actions/{i}/{k}")
            if "payoff" not in act or not isinstance(act["payoff"], (int, float)):
                raise ValidationError("payoff must be a number",
                                      f"/actions/{i}/{k}/payoff")
            tr = act.get("transition")
            if not isinstance(tr, list) or len(tr) != n or \
                    not all(isinstance(p, (int, float)) for p in tr):
                raise ValidationError(
                    f"transition must be an array of {n} numbers",
                    f"/actions/{i}/{k}/transition")
            row.append(GameAction(float(act["payoff"]),
                                  tuple(float(p) for p in tr)))
        actions.append(tuple(row))
    return GameSpec(tuple(str(c) for c in controllers), tuple(actions))


def serialize_game(game: GameSpec) -> str:
    doc = {
        "format": FORMAT_VERSION,
        "states": game.n,
        "controllers": list(game.controllers),
        "actions": [[{"payoff": a.payoff, "transition": list(a.transition)}
                     for a in acts] for acts in game.actions],
    }
    return json.dumps(doc, indent=2) + "\n"
