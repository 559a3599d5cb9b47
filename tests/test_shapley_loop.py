"""The generated Shapley loop against the directly evaluated operator.

`TopicalMap` runs T^k through one function generated per game; these
property tests require it to give the same floats (compared by `repr`, so
NaN and the sign of zero count) as `conftest.reference_iterate`, over
random games, extreme start points and horizons.
"""

import math
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

import conespec as cs
from conespec import topical

from conftest import reference_additive, reference_iterate

# deterministic, so tier-1 stays reproducible, and a few seconds in all
PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60)

HORIZONS = st.sampled_from([0, 1, 2, 17, 1024])
SUBNORMALS = (5e-324, 1e-310, 2.2e-308)

# start coordinates: poles, NaN, signed zeros and magnitudes 1e-300..1e300
COORDINATES = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0]),
    st.floats(1e-300, 1e300),
    st.floats(-1e300, -1e-300))

PAYOFFS = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-700.0, 700.0))


@st.composite
def transitions(draw, n, integers=False):
    """A distribution over n states: single-entry, or a normalized mix of
    zero, subnormal and normal weights, with int entries where asked."""
    lead = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        one, zero = (1, 0) if integers else (1.0, 0.0)
        return tuple(one if j == lead else zero for j in range(n))
    raw = [draw(st.one_of(st.just(0.0), st.sampled_from(SUBNORMALS),
                          st.floats(1e-6, 1.0)))
           for _ in range(n)]
    raw[lead] = max(raw[lead], 1.0)
    total = sum(raw)
    row = tuple(w / total for w in raw)
    return tuple(0 if integers and w == 0.0 else w for w in row)


@st.composite
def games(draw, integers=False):
    n = draw(st.integers(1, 6))
    controllers = tuple(draw(st.sampled_from(["min", "max"]))
                        for _ in range(n))
    payoffs = st.integers(-700, 700) if integers else PAYOFFS
    actions = tuple(
        tuple(cs.GameAction(draw(payoffs), draw(transitions(n, integers)))
              for _ in range(draw(st.integers(1, 4))))
        for _ in range(n))
    return cs.GameSpec(controllers, actions)


@st.composite
def game_and_start(draw, integers=False):
    game = draw(games(integers))
    x = tuple(draw(st.lists(COORDINATES, min_size=game.n,
                            max_size=game.n)))
    return game, x


@PROPERTY
@given(game_and_start(), HORIZONS)
def test_iterate_matches_reference(case, k):
    game, x = case
    T = cs.build_shapley(game)
    assert repr(T.iterate_additive(x, k)) == \
        repr(reference_iterate(game, x, k))
    assert repr(T.additive(x)) == repr(reference_additive(game, x))


@PROPERTY
@given(game_and_start(integers=True), HORIZONS)
def test_integer_games_match_reference(case, k):
    game, x = case
    T = cs.build_shapley(game)
    assert repr(T.iterate_additive(x, k)) == \
        repr(reference_iterate(game, x, k))


@PROPERTY
@given(game_and_start(), st.lists(st.integers(0, 40), max_size=5))
def test_chunked_run_equals_one_run(case, chunks):
    game, x = case
    T = cs.build_shapley(game)
    y = x
    for k in chunks:
        y = T.iterate_additive(y, k)
    assert repr(y) == repr(T.iterate_additive(x, sum(chunks)))
    # the trajectory from 0, continued or restarted, is one run too
    for k in chunks:
        assert repr(T.iterate_from_zero(k)) == \
            repr(reference_iterate(game, (0.0,) * game.n, k))


def test_large_support_compiles_and_matches():
    # one action reads all 5000 states: emitted as statements, not as one
    # nested sum, so compiling it cannot exhaust the parser's recursion.
    # A GameSpec would hold 5000 rows of 5000 entries; the other states
    # move to state 0, and the zeros after it change nothing, so their
    # rows stop there.
    n = 5000
    weights = [1.0 + (j % 7) for j in range(n)]
    total = sum(weights)
    wide = cs.GameAction(0.25, tuple(w / total for w in weights))
    back = cs.GameAction(-1.0, (1.0,))
    game = SimpleNamespace(n=n, controllers=("max",) + ("min",) * (n - 1),
                           actions=((back, wide),) + ((back,),) * (n - 1))
    steps = topical._shapley_steps(game)
    x = tuple(math.sin(j) * 10.0 ** (j % 9) for j in range(n))
    for k in (1, 3):
        assert repr(steps(k, *x)) == repr(reference_iterate(game, x, k))


@PROPERTY
@given(game_and_start(), HORIZONS)
def test_games_of_one_shape_share_code(case, k):
    # other payoffs on the same controllers and supports
    game, x = case
    twin = cs.GameSpec(game.controllers, tuple(
        tuple(cs.GameAction(0.5 * act.payoff + 1.0, act.transition)
              for act in acts) for acts in game.actions))
    T, U = cs.build_shapley(game), cs.build_shapley(twin)
    for V in (T, U):
        assert repr(V.iterate_additive(x, k)) == \
            repr(reference_iterate(V.game, x, k))
    assert T._steps.__code__ is U._steps.__code__
