"""Additive world: topical maps, Shapley operators of turn-based games,
additive Collatz-Wielandt numbers, and the additive eigenvector checker.

A topical map T is order-preserving and additively homogeneous; its
multiplicative conjugate exp . T . log is order-preserving and homogeneous
on the open cone, so every multiplicative result transfers.  Additive
evaluation is native (never an exp/log round trip) so long horizons and
large payoffs do not overflow; the conjugate is used for structure queries
and spectral brackets.  Its coefficients are exp(payoff), so building it
raises NumericRangeError for a payoff whose exponential is 0 or inf in
floating point (|payoff| above about 709).
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from .core import INF, ConeMap, SubsetMask, is_finite
from .errors import NumericRangeError, ValidationError
from . import existence, maps as _maps
from .existence import Route, Verdict, VerdictKind
from .spectral import DEFAULT_BUDGET

MIN_PLAYER = "min"
MAX_PLAYER = "max"


@dataclass(frozen=True)
class GameAction:
    payoff: float
    transition: Tuple[float, ...]


@dataclass(frozen=True)
class GameSpec:
    """A turn-based zero-sum stochastic game on states 1..n.

    Each state is controlled by one player (the minimizer or the maximizer
    of the long-run payoff), and offers at least one action consisting of an
    immediate payoff and a transition distribution over states.
    """

    controllers: Tuple[str, ...]
    actions: Tuple[Tuple[GameAction, ...], ...]

    def __post_init__(self):
        n = len(self.controllers)
        if n < 1:
            raise ValidationError("game needs at least one state", "/controllers")
        if len(self.actions) != n:
            raise ValidationError("one action list per state required", "/actions")
        for i, c in enumerate(self.controllers):
            if c not in (MIN_PLAYER, MAX_PLAYER):
                raise ValidationError(f"controller must be '{MIN_PLAYER}' or "
                                      f"'{MAX_PLAYER}', got {c!r}",
                                      f"/controllers/{i}")
        for i, acts in enumerate(self.actions):
            if not acts:
                raise ValidationError("state needs at least one action",
                                      f"/actions/{i}")
            for k, act in enumerate(acts):
                row = act.transition
                if len(row) != n:
                    raise ValidationError("transition length must equal the "
                                          "number of states",
                                          f"/actions/{i}/{k}/transition")
                for j, p in enumerate(row):
                    # written so that NaN fails too; an int of any size
                    # compares exactly
                    if not 0.0 <= p <= 1.0:
                        raise ValidationError(
                            "transition probability is not in [0, 1]",
                            f"/actions/{i}/{k}/transition/{j}")
                if abs(sum(row) - 1.0) > _maps.WEIGHT_TOL:
                    raise ValidationError(
                        f"transition probabilities sum to {sum(row)!r}, not 1",
                        f"/actions/{i}/{k}/transition")
                if not is_finite(act.payoff):
                    raise ValidationError("payoff must be a finite number",
                                          f"/actions/{i}/{k}/payoff")

    @property
    def n(self) -> int:
        return len(self.controllers)


class TopicalMap:
    """A topical map with a native additive evaluator and its conjugate."""

    def __init__(self, game: GameSpec):
        self.game = game
        self.n = game.n
        self.conjugate = _conjugate_of_game(game)
        # the generated k-step loop of `_shapley_steps`, built on first use
        self._steps: Optional[Callable[..., Tuple[float, ...]]] = None
        # the last iterate T^k(0) computed, as (k, iterate)
        self._from_zero: Tuple[int, Tuple[float, ...]] = (0, (0.0,) * game.n)

    def _run(self, k: int, x: Sequence[float]) -> Tuple[float, ...]:
        if self._steps is None:
            self._steps = _shapley_steps(self.game)
        return self._steps(k, *x)

    def additive(self, x: Sequence[float]) -> Tuple[float, ...]:
        """Evaluate T(x); coordinates of x may be +-inf (one-sided)."""
        return self._run(1, x)

    def iterate_additive(self, x0: Sequence[float], k: int) -> Tuple[float, ...]:
        """T^k(x0), for k >= 0."""
        if k < 0:
            raise ValueError("number of steps must be nonnegative")
        return self._run(k, tuple(float(v) for v in x0))

    def iterate_from_zero(self, k: int) -> Tuple[float, ...]:
        """T^k(0), continuing the last such iterate when k is not below it."""
        if k < 0:
            raise ValueError("number of steps must be nonnegative")
        done, x = self._from_zero
        if k < done:
            done, x = 0, (0.0,) * self.n
        x = self._run(k - done, x)
        self._from_zero = (k, x)
        return x

    def additive_hyperarc_targets(self, upper: bool, tail: SubsetMask
                                  ) -> SubsetMask:
        """Heads forced to +-inf when the tail coordinates are pushed there."""
        pole = INF if upper else -INF
        x = tuple(pole if tail.contains(j) else 0.0 for j in range(self.n))
        out = self.additive(x)
        bits = sum(1 << j for j in range(self.n)
                   if not tail.contains(j) and out[j] == pole)
        return SubsetMask(bits, self.n)


def build_shapley(game: GameSpec) -> TopicalMap:
    """The one-stage dynamic-programming operator of a turn-based game."""
    return TopicalMap(game)


def _shapley_steps(game: GameSpec) -> Callable[..., Tuple[float, ...]]:
    """The Shapley operator of a game as one generated loop of k steps.

    The function takes k and the coordinates x0..x{n-1} and returns T^k(x).
    Each step takes, per state and action, `s = payoff` and then
    `s += p * xj` for every positive p in index order, and keeps the first
    action value unless a later one is strictly smaller (min) or larger
    (max), as the builtins do.  These are the operations of the direct
    evaluation in the same order, so results are bit-identical to it, with
    +-inf and NaN coordinates too.  Only statements are emitted, never a
    nested expression, so a support of any size compiles.

    Payoffs and probabilities are the trailing parameters c0, c1, ..., so
    every game with the same controllers, action counts and transition
    supports shares one code object (`maps.shape_code`); this game's
    values are bound as their defaults.  The function's globals are an
    empty dict of its own, so it forms no reference cycle and is freed by
    reference counting with its `TopicalMap`.
    """
    n = game.n
    names = ", ".join(f"x{j}" for j in range(n))
    constants = []

    def constant(v) -> str:
        constants.append(float(v))
        return f"c{len(constants) - 1}"

    lines = ["    for _ in range(k):"]
    for i, (controller, acts) in enumerate(zip(game.controllers,
                                               game.actions)):
        better = "<" if controller == MIN_PLAYER else ">"
        for a, act in enumerate(acts):
            lines.append(f"        s = {constant(act.payoff)}")
            lines.extend(f"        s += {constant(p)} * x{j}"
                         for j, p in enumerate(act.transition) if p > 0.0)
            lines.append(f"        y{i} = s" if a == 0 else
                         f"        y{i} = s if s {better} y{i} else y{i}")
    lines.append(f"        {names}, = {', '.join(f'y{i}' for i in range(n))},")
    lines.append(f"    return {names},")
    params = ", ".join(f"c{k}" for k in range(len(constants)))
    source = "\n".join([f"def _steps(k, {names}, {params}):", *lines])
    code = _maps.shape_code(source + "\n", f"<shapley operator n={n}>")
    return types.FunctionType(code, {}, None, tuple(constants))


def _conjugate_of_game(game: GameSpec) -> ConeMap:
    exprs = []
    for i, (controller, acts) in enumerate(zip(game.controllers, game.actions)):
        branches = []
        for k, act in enumerate(acts):
            support = [(j, p) for j, p in enumerate(act.transition) if p > 0.0]
            if len(support) == 1:
                node: _maps.Expr = _maps.Coord(support[0][0])
            else:
                node = _maps.PowerMean(0.0, tuple(p for _, p in support),
                                       tuple(_maps.Coord(j) for j, _ in support))
            try:
                scale = math.exp(act.payoff)
            except OverflowError:
                scale = INF
            if not 0.0 < scale < INF:
                raise NumericRangeError(
                    f"/actions/{i}/{k}/payoff: exp({act.payoff!r}) is outside "
                    "the float range, so the multiplicative conjugate cannot "
                    "be built")
            branches.append(_maps.Scale(scale, node) if scale != 1.0 else node)
        if len(branches) == 1:
            exprs.append(branches[0])
        elif controller == MIN_PLAYER:
            exprs.append(_maps.Min(tuple(branches)))
        else:
            exprs.append(_maps.Max(tuple(branches)))
    return _maps.from_exprs(exprs, game.n)


# ---------------------------------------------------------------------------
# Additive verdict

def _to_log(v: float) -> float:
    if v == 0.0:
        return -INF
    if v == INF:
        return INF
    return math.log(v)


@dataclass(frozen=True)
class AdditiveBracket:
    lower: float
    upper: float
    converged: bool


@dataclass(frozen=True)
class AdditiveCertificate:
    subset: SubsetMask
    route: Route
    r_bracket: Optional[AdditiveBracket]
    lambda_bracket: Optional[AdditiveBracket]
    pruned_by: Optional[SubsetMask]


@dataclass(frozen=True)
class AdditiveEigen:
    vector: Tuple[float, ...]
    eigenvalue: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class AdditiveVerdict:
    """The multiplicative verdict re-expressed in log-scale units."""

    kind: VerdictKind
    certificates: Tuple[AdditiveCertificate, ...]
    eigen: Optional[AdditiveEigen]
    uniqueness: existence.Uniqueness
    convergence: existence.Convergence
    detail: Optional[str]
    multiplicative: Verdict


def _convert_bracket(b) -> Optional[AdditiveBracket]:
    if b is None:
        return None
    return AdditiveBracket(_to_log(b.lower), _to_log(b.upper), b.converged)


def check_additive_eigenvector(T: TopicalMap, budget: int = DEFAULT_BUDGET,
                               tol: float = existence.STRICTNESS_TOL
                               ) -> AdditiveVerdict:
    """Classify the additive eigenspace of T through its conjugate."""
    verdict = existence.classify(T.conjugate, budget=budget, tol=tol)
    certs = tuple(AdditiveCertificate(c.subset, c.route,
                                      _convert_bracket(c.r_bracket),
                                      _convert_bracket(c.lambda_bracket),
                                      c.pruned_by)
                  for c in verdict.certificates)
    eigen = None
    if verdict.eigen is not None:
        vec = tuple(math.log(v) for v in verdict.eigen.vector.entries)
        eigen = AdditiveEigen(vec, math.log(verdict.eigen.eigenvalue),
                              verdict.eigen.residual, verdict.eigen.iterations)
    return AdditiveVerdict(verdict.kind, certs, eigen, verdict.uniqueness,
                           verdict.convergence, verdict.detail, verdict)


def mean_payoff(T: TopicalMap, state: int, k: int) -> float:
    """The k-stage average optimal payoff T^k(0)_state / k.

    Calls in order of nondecreasing k share one trajectory from 0
    (`TopicalMap.iterate_from_zero`), so every state at several horizons
    costs as many operator evaluations as the largest horizon.
    """
    if k < 1:
        raise ValueError("horizon must be at least 1")
    if not 0 <= state < T.n:
        raise ValueError("state index out of range")
    return T.iterate_from_zero(k)[state] / k


def variation_norm(x: Sequence[float]) -> float:
    return max(x) - min(x)
