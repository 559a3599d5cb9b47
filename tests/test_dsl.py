"""Map documents, game documents, round trips, positioned errors."""

import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import conespec as cs
from conespec import dsl
from conespec.errors import (ConespecError, ParseError, SemanticError,
                             ValidationError)

from conftest import (game_conjugate_text, make_game, make_schoen,
                      make_tensor_example, random_interior,
                      tensor_example_raw)


def schoen_text(a, b, c, d):
    lines = ["format: 1", "dim: 4"]
    for name, vals in zip("abcd", (a, b, c, d)):
        for i, v in enumerate(vals, start=1):
            lines.append(f"param {name}{i} = {v}")
    lines += [
        "coord 1: a1*x1 + b1*theta(x1, x2) + c1*theta(x1, x4) + d1*theta(x2, x3)",
        "coord 2: a2*x2 + b2*theta(x1, x2) + c2*theta(x1, x4) + d2*theta(x2, x3)",
        "coord 3: a3*x3 + b3*theta(x3, x4) + c3*theta(x1, x4) + d3*theta(x2, x3)",
        "coord 4: a4*x4 + b4*theta(x3, x4) + c4*theta(x1, x4) + d4*theta(x2, x3)",
    ]
    return "\n".join(lines) + "\n"


def tensor_text(a1, a2, b1, b2, b3, c1, c2, c3, d1, d2, d3):
    params = dict(a1=a1, a2=a2, b1=b1, b2=b2, b3=b3, c1=c1, c2=c2, c3=c3,
                  d1=d1, d2=d2, d3=d3)
    lines = ["format: 1", "dim: 4"]
    lines += [f"param {k} = {v}" for k, v in params.items()]
    lines += [
        "coord 1: (a1+a2)^0.5 * mean(2, (a1/(a1+a2), a2/(a1+a2)),"
        " geo(x1, x2), x2)",
        "coord 2: (b1+b2+b3)^0.5 * mean(2, (b1/(b1+b2+b3), b2/(b1+b2+b3),"
        " b3/(b1+b2+b3)), x1, geo(x1, x2), x2)",
        "coord 3: (c1+c2+c3)^0.5 * mean(2, (c1/(c1+c2+c3), c2/(c1+c2+c3),"
        " c3/(c1+c2+c3)), x1, geo(x1, x2), geo(x2, x3))",
        "coord 4: (d1+d2+d3)^0.5 * mean(2, (d1/(d1+d2+d3), d2/(d1+d2+d3),"
        " d3/(d1+d2+d3)), geo(x1, x4), x3, x4)",
    ]
    return "\n".join(lines) + "\n"


GAME_JSON = json.dumps({
    "format": 1,
    "states": 3,
    "controllers": ["max", "min", "min"],
    "actions": [
        [{"payoff": 0.0, "transition": [1, 0, 0]},
         {"payoff": 0.5, "transition": [0.5, 0.5, 0]}],
        [{"payoff": 1.0, "transition": [0, 1, 0]},
         {"payoff": 0.3, "transition": [0.5, 0, 0.5]}],
        [{"payoff": 2.0, "transition": [0, 0, 1]},
         {"payoff": -1.0, "transition": [1, 0, 0]}],
    ],
})


class TestGrammar:
    def test_max_of_monomials(self):
        doc = dsl.parse_map("format: 1\ndim: 2\n"
                            "coord 1: max(1.0*x1, 0.5*x1^0.5*x2^0.5)\n"
                            "coord 2: x2\n")
        f = doc.cone_map
        out = f.eval_interior((4.0, 1.0))
        assert out == pytest.approx((max(4.0, 0.5 * 2.0), 1.0))

    def test_constant_arithmetic_folds(self):
        doc = dsl.parse_map("format: 1\ndim: 1\nparam a = 3\n"
                            "coord 1: ((a+1)/2)^2*x1\n")
        assert doc.cone_map.eval_interior((1.0,)) == pytest.approx((4.0,))

    def test_comments_and_blank_lines(self):
        doc = dsl.parse_map("# heading\nformat: 1\n\ndim: 1\n"
                            "coord 1: x1  # identity\n")
        assert doc.dimension == 1

    def test_stdin_style_sum_call(self):
        doc = dsl.parse_map("format: 1\ndim: 2\n"
                            "coord 1: 2*sum(x1, x2)\ncoord 2: x2\n")
        assert doc.cone_map.eval_interior((1.0, 2.0)) == pytest.approx((6.0, 2.0))

    def test_index_out_of_range(self):
        with pytest.raises(SemanticError, match="out of range"):
            dsl.parse_map("format: 1\ndim: 2\ncoord 1: x1 + x3\ncoord 2: x2\n")

    def test_non_probability_weights(self):
        with pytest.raises(SemanticError, match="probability"):
            dsl.parse_map("format: 1\ndim: 1\n"
                          "coord 1: mean(1, (0.5, 0.4), x1, x1)\n")

    def test_inhomogeneous_exponents(self):
        with pytest.raises(SemanticError, match="sum to"):
            dsl.parse_map("format: 1\ndim: 2\n"
                          "coord 1: x1^0.5*x2^0.4\ncoord 2: x2\n")

    def test_unbound_parameter(self):
        with pytest.raises(SemanticError, match="unbound"):
            dsl.parse_map("format: 1\ndim: 1\ncoord 1: q*x1\n")

    def test_positioned_syntax_error(self):
        with pytest.raises(ParseError) as info:
            dsl.parse_map("format: 1\ndim: 2\ncoord 1: x1 +\ncoord 2: x2\n")
        assert info.value.line == 3
        assert info.value.column > 10

    def test_missing_headers(self):
        with pytest.raises(SemanticError, match="format"):
            dsl.parse_map("dim: 1\ncoord 1: x1\n")
        with pytest.raises(SemanticError, match="dim"):
            dsl.parse_map("format: 1\ncoord 1: x1\n")

    def test_missing_coordinate(self):
        with pytest.raises(SemanticError, match="missing coordinate"):
            dsl.parse_map("format: 1\ndim: 2\ncoord 1: x1\n")

    def test_degree_two_product_rejected(self):
        with pytest.raises(SemanticError, match="inhomogeneous"):
            dsl.parse_map("format: 1\ndim: 2\n"
                          "coord 1: theta(x1, x2)*geo(x1, x2)\ncoord 2: x2\n")


#: constant expressions over + - * / ^ whose operands reach the ends of
#: the float range, a negative base and a fractional exponent
CONSTANT_EXPRS = st.recursive(
    st.sampled_from(["0", "1e-320", "1e308", "(-8)", "(1/3)", "2", "0.5"]),
    lambda inner: st.tuples(inner, st.sampled_from("+-*/^"), inner).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"),
    max_leaves=8)


class TestConstantArithmetic:
    @settings(derandomize=True, deadline=None, database=None,
              max_examples=300)
    @given(CONSTANT_EXPRS)
    def test_parses_or_raises_a_conespec_error(self, text):
        for body in (f"param a = {text}\ncoord 1: x1",
                     f"coord 1: {text}*x1",
                     f"coord 1: x1^{text}",
                     f"coord 1: mean({text}, (1, 0), x1)"):
            try:
                doc = dsl.parse_map(f"format: 1\ndim: 1\n{body}\n")
            except ConespecError:
                continue
            assert all(math.isfinite(v) for _, v in doc.parameters)

    @pytest.mark.parametrize("text, message", [
        ("1e400", "1e400 is outside the float range"),
        ("1e308 * 10", "1e+308 * 10.0 is not a finite real number"),
        ("1e308 - (-1e308)", "1e+308 - -1e+308 is not a finite real"),
        ("(-8)^0.5", "-8.0 ^ 0.5 is not a finite real number"),
    ])
    def test_message_names_the_operation(self, text, message):
        with pytest.raises(SemanticError, match=re.escape(message)):
            dsl.parse_map(f"format: 1\ndim: 1\nparam a = {text}\n"
                          "coord 1: x1\n")


class TestExampleDocuments:
    def test_schoen_matches_constructor(self, rng):
        params = [tuple(float(v) for v in rng.uniform(0.3, 2.5, size=4))
                  for _ in range(4)]
        doc = dsl.parse_map(schoen_text(*params))
        f = doc.cone_map
        g = make_schoen(*params)
        for _ in range(400):
            x = random_interior(rng, 4)
            assert f(x).entries == pytest.approx(g(x).entries, rel=1e-12)

    def test_tensor_matches_constructor(self, rng):
        params = tuple(float(v) for v in rng.uniform(0.4, 3.0, size=11))
        doc = dsl.parse_map(tensor_text(*params))
        f = doc.cone_map
        g = make_tensor_example(*params)
        raw = tensor_example_raw(params)
        for _ in range(300):
            x = random_interior(rng, 4)
            assert f(x).entries == pytest.approx(g(x).entries, rel=1e-12)
            assert f(x).entries == pytest.approx(raw(x.entries), rel=1e-12)
        assert f.multiplicatively_convex and f.analytic

    def test_game_conjugate_matches_constructor(self, rng):
        r = (0.2, -0.4, 1.3, 0.6, 2.1, -0.9)
        p1, p2 = 0.35, 0.65
        doc = dsl.parse_map(game_conjugate_text(*r, p1, p2))
        f = doc.cone_map
        g = cs.build_shapley(make_game(*r, p1, p2)).conjugate
        for _ in range(300):
            x = random_interior(rng, 3)
            assert f(x).entries == pytest.approx(g(x).entries, rel=1e-11)


class TestRoundTrip:
    def corpus(self):
        docs = [
            "format: 1\ndim: 1\ncoord 1: x1\n",
            "format: 1\ndim: 1\ncoord 1: 2.5*x1\n",
            "format: 1\ndim: 2\ncoord 1: x1 + x2\ncoord 2: x2\n",
            "format: 1\ndim: 2\ncoord 1: min(x1, x2)\ncoord 2: max(x1, x2)\n",
            "format: 1\ndim: 2\ncoord 1: theta(x1, x2)\ncoord 2: x2\n",
            "format: 1\ndim: 2\ncoord 1: geo(x1, x2)\ncoord 2: x1^0.25*x2^0.75\n",
            "format: 1\ndim: 2\ncoord 1: mean(3, (0.25, 0.75), x1, x2)\n"
            "coord 2: mean(-2, (0.5, 0.5), x1, x2)\n",
            "format: 1\ndim: 2\ncoord 1: sum(x1, x2, geo(x1, x2))\ncoord 2: x2\n",
            "format: 1\ndim: 3\ncoord 1: max(x1, min(x2, x3))\n"
            "coord 2: x1 + 2*x3\ncoord 3: geo(x1, x2, x3)\n",
            "format: 1\ndim: 2\nparam w = 0.3\n"
            "coord 1: mean(0, (w, 1-w), x1, x2)\ncoord 2: x2\n",
            "format: 1\ndim: 2\ncoord 1: 0.5*theta(x1, x2) + 0.1*x1\ncoord 2: x2\n",
            "format: 1\ndim: 4\ncoord 1: x2\ncoord 2: x3\ncoord 3: x4\n"
            "coord 4: x1\n",
        ]
        docs.append(schoen_text((1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1),
                                (1, 1, 1, 1)))
        docs.append(schoen_text((1.5, 1, 2, 1), (2, 1, 1, 2), (0.5, 1, 1, 0.5),
                                (1, 2, 2, 1)))
        docs.append(tensor_text(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1))
        docs.append(tensor_text(2, 0.5, 1, 3, 1, 0.7, 1, 2, 1, 0.5, 4))
        docs.append(tensor_text(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11))
        docs.append(game_conjugate_text(0, 0.5, 1, 0.3, 2, -1, 0.5, 0.5))
        docs.append(game_conjugate_text(3, 0.5, 1, 0.3, 2, -1, 0.25, 0.75))
        docs.append(game_conjugate_text(-1, -2, 0.5, 4, 0.25, 1, 0.1, 0.9))
        return docs

    def test_corpus_round_trips(self):
        corpus = self.corpus()
        assert len(corpus) >= 20
        for text in corpus:
            doc = dsl.parse_map(text)
            again = dsl.parse_map(dsl.serialize_map(doc))
            assert again == doc

    @pytest.mark.parametrize("exprs", [
        cs.matrix_map([[1.0, 2.5, 0.0], [0.5, 0.0, 3.0], [1.0, 1.0, 1.0]]).exprs,
        (cs.maps.Scale(2.0, cs.maps.Sum((cs.maps.Coord(0), cs.maps.Min(
            (cs.maps.Coord(1), cs.maps.Coord(2)))))),
         cs.maps.Coord(0), cs.maps.Coord(1)),
        (cs.maps.Scale(3.0, cs.maps.Linear(((0, 1.5), (2, 0.25)))),
         cs.maps.Coord(2), cs.maps.Coord(0))],
        ids=["matrix", "scaled_sum", "scaled_linear"])
    def test_linear_and_scaled_sums_round_trip(self, exprs):
        f = cs.from_exprs(exprs, 3)
        text = dsl.serialize_map(dsl.MapDocument(3, (), exprs))
        g = dsl.parse_map(text).cone_map
        rng = random.Random(0)
        for _ in range(20):
            x = tuple(rng.uniform(0.2, 5.0) for _ in range(3))
            assert g.eval_interior(x) == f.eval_interior(x)
        assert cs.classify(g).kind is cs.classify(f).kind

    def test_serialized_is_parseable_twice(self):
        doc = dsl.parse_map(self.corpus()[8])
        once = dsl.serialize_map(doc)
        twice = dsl.serialize_map(dsl.parse_map(once))
        assert once == twice


class TestGameDocuments:
    def test_example_game(self):
        game = dsl.parse_game(GAME_JSON)
        assert game.n == 3
        assert game.controllers == ("max", "min", "min")
        assert len(game.actions[0]) == 2
        assert game.actions[2][1].payoff == -1.0

    def test_round_trip(self):
        game = dsl.parse_game(GAME_JSON)
        again = dsl.parse_game(dsl.serialize_game(game))
        assert again == game

    def test_bad_probability_row(self):
        doc = json.loads(GAME_JSON)
        doc["actions"][0][0]["transition"] = [0.5, 0.4, 0.0]
        with pytest.raises(ValidationError) as info:
            dsl.parse_game(json.dumps(doc))
        assert info.value.pointer == "/actions/0/0/transition"

    def test_empty_action_list(self):
        doc = json.loads(GAME_JSON)
        doc["actions"][1] = []
        with pytest.raises(ValidationError) as info:
            dsl.parse_game(json.dumps(doc))
        assert info.value.pointer == "/actions/1"

    def test_missing_format(self):
        doc = json.loads(GAME_JSON)
        del doc["format"]
        with pytest.raises(ValidationError):
            dsl.parse_game(json.dumps(doc))

    def test_states_mismatch(self):
        doc = json.loads(GAME_JSON)
        doc["states"] = 7
        with pytest.raises(ValidationError) as info:
            dsl.parse_game(json.dumps(doc))
        assert info.value.pointer == "/states"

    def test_invalid_json(self):
        with pytest.raises(ValidationError, match="invalid JSON"):
            dsl.parse_game("{not json")

    @pytest.mark.parametrize("field, value, pointer", [
        ("payoff", True, "/actions/0/0/payoff"),
        ("payoff", False, "/actions/0/0/payoff"),
        ("transition", [True, False, 0], "/actions/0/0/transition"),
    ])
    def test_booleans_are_not_numbers(self, field, value, pointer):
        # JSON true and false load as bool, a subclass of int
        doc = json.loads(GAME_JSON)
        doc["actions"][0][0][field] = value
        with pytest.raises(ValidationError) as info:
            dsl.parse_game(json.dumps(doc))
        assert info.value.pointer == pointer


    @pytest.mark.parametrize("field", ["format", "states"])
    def test_boolean_format_and_states(self, field):
        # true == 1 passes both equality checks on a one-state game
        doc = {"format": 1, "states": 1, "controllers": ["min"],
               "actions": [[{"payoff": 0.0, "transition": [1.0]}]]}
        dsl.parse_game(json.dumps(doc))
        doc[field] = True
        with pytest.raises(ValidationError) as info:
            dsl.parse_game(json.dumps(doc))
        assert info.value.pointer == f"/{field}"


class TestScalePlacement:
    def test_trailing_constant_factor(self):
        # "mean(...) * (a1+a2)^0.5" and the leading form parse identically
        head = ("format: 1\ndim: 2\nparam a1 = 2.0\nparam a2 = 1.0\n")
        trail = dsl.parse_map(head + "coord 1: mean(2, (a1/(a1+a2), "
                              "a2/(a1+a2)), geo(x1,x2), x2) * (a1+a2)^0.5\n"
                              "coord 2: x2\n")
        lead = dsl.parse_map(head + "coord 1: (a1+a2)^0.5 * mean(2, "
                             "(a1/(a1+a2), a2/(a1+a2)), geo(x1,x2), x2)\n"
                             "coord 2: x2\n")
        assert trail.exprs == lead.exprs
        x = (1.7, 0.6)
        expected = math.sqrt(2.0 * x[0] * x[1] + x[1] ** 2)
        assert trail.cone_map.eval_interior(x)[0] == pytest.approx(expected)
