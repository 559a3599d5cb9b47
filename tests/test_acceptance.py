"""Acceptance criteria: one pass/fail line per criterion (run with -s)."""

import json
import math
import time

import numpy as np
import pytest

import conespec as cs
import conespec.cli as cli
from conespec.core import ConeMap, ExtVec, Side, SubsetMask
from conespec.existence import Route, Uniqueness, VerdictKind
from conespec.graphs import HypergraphProbe
from conespec.spectral import NonconvergedError, ratios_at

from conftest import (SEEDS, game_conjugate_text, make_game, make_schoen,
                      make_tensor_example, perron_oracle, random_interior,
                      random_irreducible_matrix, random_mplus_map,
                      tensor_example_raw)


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def mask(ix, n):
    return SubsetMask.of([i - 1 for i in ix], n)


def test_criterion_1_game_condition(tmp_path, capsys):
    """Verdict tracks r1 < min(r3, r5) over 500 random game instances."""
    rng = np.random.default_rng(SEEDS[0])
    start = time.monotonic()
    checked = mismatches = 0
    path = tmp_path / "game.conemap"
    while checked < 500:
        r = [float(v) for v in rng.uniform(-5.0, 5.0, size=6)]
        p1, p2 = (float(v) for v in rng.uniform(0.02, 0.98, size=2))
        if abs(r[0] - min(r[2], r[4])) < 1e-3:
            continue
        path.write_text(game_conjugate_text(*r, p1, p2))
        code = cli.main(["analyze", str(path)])
        capsys.readouterr()
        expected = 0 if r[0] < min(r[2], r[4]) else 2
        if code != expected:
            mismatches += 1
        checked += 1
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report("criterion 1: game existence condition, 500 instances",
               mismatches == 0 and elapsed < 30.0,
               f"{mismatches} mismatches, {elapsed:.1f}s")


def _block_tensor(a1, a2, b1, b2, b3):
    A = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    A[0][0][1] = a1
    A[0][1][1] = a2
    A[1][0][0] = b1
    A[1][0][1] = b2
    A[1][1][1] = b3
    return cs.build_tensor_map(A)


def _block_oracle(a1, a2, b1, b2, b3):
    def balance(t):
        g1 = math.sqrt(a1 * t * (1 - t) + a2 * (1 - t) ** 2)
        g2 = math.sqrt(b1 * t ** 2 + b2 * t * (1 - t) + b3 * (1 - t) ** 2)
        return g1 * (1 - t) - g2 * t

    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if balance(mid) > 0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return math.sqrt(a1 * t * (1 - t) + a2 * (1 - t) ** 2) / t


def test_criterion_2_tensor_condition(capsys):
    """classify_convex tracks sqrt(d3) vs the top-block radius, 200 cases."""
    rng = np.random.default_rng(SEEDS[1])
    start = time.monotonic()
    checked = mismatches = cross_failures = 0
    while checked < 200:
        p = [float(v) for v in rng.uniform(0.3, 3.0, size=11)]
        a1, a2, b1, b2, b3 = p[:5]
        r_block = _block_oracle(a1, a2, b1, b2, b3)
        if abs(math.sqrt(p[10]) - r_block) < 1e-3:
            continue
        bracket = cs.cw_upper(_block_tensor(a1, a2, b1, b2, b3))
        if not (bracket.lower - 1e-8 <= r_block <= bracket.upper + 1e-8):
            cross_failures += 1
        verdict = cs.classify_convex(make_tensor_example(*p), solve=False)
        expected = (VerdictKind.NONEMPTY_BOUNDED
                    if math.sqrt(p[10]) < r_block
                    else VerdictKind.NO_INTERIOR_EIGENVECTOR)
        if verdict.kind is not expected:
            mismatches += 1
        checked += 1
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report("criterion 2: tensor existence condition, 200 instances",
               mismatches == 0 and cross_failures == 0 and elapsed < 60.0,
               f"{mismatches} mismatches, {cross_failures} oracle "
               f"disagreements, {elapsed:.1f}s")


def test_criterion_3_matrix_oracle(capsys):
    """Eigenvalues of 200 random irreducible matrices match the dense oracle."""
    rng = np.random.default_rng(SEEDS[2])
    start = time.monotonic()
    bad_value = bad_verdict = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        rows = random_irreducible_matrix(rng, n)
        f = cs.matrix_map(rows)
        res = cs.solve_eigenvector(f)
        rho = perron_oracle(rows)
        if abs(res.eigenvalue - rho) > 1e-8 * rho:
            bad_value += 1
        v = cs.classify(f, solve=True)
        if v.kind is not VerdictKind.NONEMPTY_BOUNDED or \
                v.uniqueness is not Uniqueness.UNIQUE:
            bad_verdict += 1
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report("criterion 3: 200 random irreducible matrices vs dense oracle",
               bad_value == 0 and bad_verdict == 0 and elapsed < 20.0,
               f"{bad_value} value / {bad_verdict} verdict failures, "
               f"{elapsed:.1f}s")


def test_criterion_4_degenerate_matrices(capsys):
    """The identity, the Jordan block, and diag(1,2) classify as known."""
    ok = True
    details = []

    v = cs.classify(cs.matrix_map([[1, 0], [0, 1]]))
    if v.kind is not VerdictKind.INDETERMINATE:
        ok, details = False, details + ["identity kind"]

    v = cs.Analyzer(cs.matrix_map([[1, 1], [0, 1]])).classify()
    cert = next((c for c in v.certificates
                 if c.subset.bits == mask([1], 2).bits), None)
    if v.kind is not VerdictKind.INDETERMINATE or cert is None or \
            cert.route is not Route.BOUNDARY:
        ok, details = False, details + ["jordan boundary route"]
    else:
        tol = 1e-9
        if not (cert.r_bracket.lower - tol <= 1.0 <= cert.r_bracket.upper + tol
                and cert.lambda_bracket.lower - tol <= 1.0
                <= cert.lambda_bracket.upper + tol):
            ok, details = False, details + ["jordan bracket"]

    v = cs.Analyzer(cs.matrix_map([[1, 0], [0, 2]])).classify()
    rev = next((c for c in v.certificates
                if c.route is Route.NUMERIC_REVERSE), None)
    # under the keep-J projection convention the reverse order shows at {2}
    if v.kind is not VerdictKind.NO_INTERIOR_EIGENVECTOR or rev is None or \
            rev.subset.bits != mask([2], 2).bits:
        ok, details = False, details + ["diag reverse certificate"]

    with capsys.disabled():
        report("criterion 4: degenerate matrix verdicts", ok,
               ", ".join(details) if details else "identity/jordan/diag")


def test_criterion_5_hypergraph_fixtures(capsys):
    """Hyperarc and invariant-set answers match the published structures."""
    ok = True
    details = []

    schoen = make_schoen()
    up = HypergraphProbe(schoen, Side.UPPER)
    lo = HypergraphProbe(schoen, Side.LOWER)
    invariant = {J.bits for J in
                 (SubsetMask(b, 4) for b in range(1, 15)) if up.is_invariant(J)}
    expected = {mask(ix, 4).bits for ix in
                ([1], [2], [3], [4], [1, 2], [1, 3], [2, 4], [3, 4])}
    if invariant != expected:
        ok, details = False, details + ["schoen invariant sets"]
    if any(not lo.hyperarc_targets(SubsetMask(b, 4)).is_empty()
           for b in range(1, 15)):
        ok, details = False, details + ["schoen lower hypergraph"]
    if up.minimal_tails() != {(frozenset({0, 3}), 1), (frozenset({0, 3}), 2),
                              (frozenset({1, 2}), 0), (frozenset({1, 2}), 3)}:
        ok, details = False, details + ["schoen minimal hyperarcs"]

    tensor = make_tensor_example()
    up = HypergraphProbe(tensor, Side.UPPER)
    lo = HypergraphProbe(tensor, Side.LOWER)
    invariant = {J.bits for J in
                 (SubsetMask(b, 4) for b in range(1, 15)) if up.is_invariant(J)}
    if invariant != {mask([4], 4).bits, mask([3, 4], 4).bits}:
        ok, details = False, details + ["tensor invariant sets"]
    if lo.minimal_tails() != {(frozenset({1}), 0), (frozenset({0, 1}), 2)}:
        ok, details = False, details + ["tensor lower hyperarcs"]
    if up.minimal_tails() != {(frozenset({0}), 1), (frozenset({0}), 2),
                              (frozenset({0}), 3), (frozenset({1}), 0),
                              (frozenset({1}), 2), (frozenset({2}), 3)}:
        ok, details = False, details + ["tensor upper hyperarcs"]
    if lo.reach(mask([1, 2, 3], 4)) != mask([1, 2, 3], 4):
        ok, details = False, details + ["tensor reach"]
    arcs = set(cs.digraph_of(tensor).arcs)
    if arcs != {(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
                (3, 0), (3, 2), (3, 3)}:
        ok, details = False, details + ["tensor growth digraph"]
    scc = cs.scc_decompose(cs.digraph_of(tensor))
    if scc.final_classes() != ((0, 1),):
        ok, details = False, details + ["tensor final class"]

    T = cs.build_shapley(make_game(0.0, 0.5, 1.0, 0.3, 2.0, -1.0, 0.5, 0.5))
    lo = HypergraphProbe(T.conjugate, Side.LOWER)
    up = HypergraphProbe(T.conjugate, Side.UPPER)
    if lo.minimal_tails() != {(frozenset({0}), 1), (frozenset({0}), 2),
                              (frozenset({2}), 1)}:
        ok, details = False, details + ["game lower hyperarcs"]
    if up.minimal_tails() != {(frozenset({1}), 0)}:
        ok, details = False, details + ["game upper hyperarcs"]

    with capsys.disabled():
        report("criterion 5: hypergraph fixtures for the worked examples", ok,
               ", ".join(details) if details else "all boolean structures")


def test_criterion_6_plus_identity_convergence(capsys):
    """The f+id solver converges where plain iteration may oscillate."""
    rng = np.random.default_rng(SEEDS[3])
    perm = cs.matrix_map([[0, 1], [1, 0]])
    traj = cs.iterate_normalized(perm, ExtVec.interior([1.0, 2.0]), 8)
    oscillates = traj[0].entries == pytest.approx(traj[2].entries) and \
        traj[0].entries != pytest.approx(traj[1].entries)
    solved = 0
    cases = [perm]
    while len(cases) < 21:
        f = random_mplus_map(rng, int(rng.integers(2, 5)))
        if cs.classify(f, solve=False).kind is VerdictKind.NONEMPTY_BOUNDED:
            cases.append(f)
    for f in cases:
        try:
            res = cs.solve_eigenvector(f)
            if res.residual <= 1e-10:
                solved += 1
        except NonconvergedError:
            pass
    with capsys.disabled():
        report("criterion 6: f+id convergence on 21 verified maps",
               oscillates and solved == 21,
               f"permutation oscillates={oscillates}, {solved}/21 solved")


def _theorem_41_check(f, tol=1e-6):
    """Component formulas vs the plain-iteration route (independent paths)."""
    scc = cs.scc_decompose(cs.digraph_of(f))
    n = f.dimension
    comp_brackets = []
    for comp in scc.order:
        m = SubsetMask.of(comp, n)
        sub = cs.restrict_lower(f, m) if not m.is_full() else f
        comp_brackets.append(cs.cw_upper(sub))
    r_formula = max(b.upper for b in comp_brackets)
    lam_formula = min(b.upper for i, b in enumerate(comp_brackets)
                      if scc.final[i])

    black = ConeMap(dimension=n, evaluator=f.eval_interior)
    rb = cs.cw_upper(black, budget=4000)
    lb = cs.cw_lower(black, budget=4000)
    ok = True
    if rb.converged:
        ok &= abs(r_formula - rb.upper) <= tol * max(1.0, rb.upper)
    else:
        ok &= rb.lower - tol <= r_formula <= rb.upper + tol
    if lb.converged:
        ok &= abs(lam_formula - lb.lower) <= tol * max(1.0, lb.lower)
    else:
        ok &= lb.lower - tol <= lam_formula <= lb.upper + tol
    return ok


def test_criterion_7_property_suites(capsys):
    """Zero violations across the property batteries under 5 fixed seeds."""
    violations = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        maps = [random_mplus_map(rng, int(rng.integers(2, 6)))
                for _ in range(4)] + [make_schoen(), make_tensor_example()]
        for f in maps:
            n = f.dimension
            x = random_interior(rng, n)
            y = ExtVec.interior([a + b for a, b in
                                 zip(x.entries, rng.uniform(0, 1, n))])
            fx, fy = f(x).entries, f(y).entries
            for t in (0.5, 2.0, 10.0):
                ftx = f(ExtVec.interior([t * v for v in x.entries])).entries
                if max(abs(a - t * b) for a, b in zip(ftx, fx)) > \
                        1e-12 * max(t * b for b in fx):
                    violations.append((seed, "homogeneity"))
            if not all(a <= b * (1 + 1e-12) for a, b in zip(fx, fy)):
                violations.append((seed, "monotonicity"))
            if cs.hilbert_distance(f(x), f(y)) > \
                    cs.hilbert_distance(x, y) + 1e-10:
                violations.append((seed, "nonexpansive"))
            J = SubsetMask(int(rng.integers(1, (1 << n) - 1)), n)
            low = cs.restrict_lower(f, J)(x).entries
            up = cs.restrict_upper(f, J)(x).entries
            if not all(a <= b * (1 + 1e-12) and
                       (b <= c * (1 + 1e-12) or c == math.inf)
                       for a, b, c in zip(low, fx, up)):
                violations.append((seed, "sandwich"))
            b = cs.cw_upper(f, budget=3000)
            if b.witness_upper is not None:
                _, hi = ratios_at(f, b.witness_upper)
                if abs(hi - b.upper) > 1e-10 * max(1.0, b.upper):
                    violations.append((seed, "bracket soundness"))
            conj = cs.reciprocal_conjugate(f)
            lb = cs.cw_lower(f, budget=3000)
            ub = cs.cw_upper(conj, budget=3000)
            if abs(lb.lower - 1.0 / ub.upper) > 1e-12 * max(1.0, lb.lower):
                violations.append((seed, "conjugation duality"))

        # Lemma 3.4 monotonicity over a sweep's recorded uppers
        f = random_mplus_map(rng, 4)
        v = cs.Analyzer(f, prune=False).classify(solve=False)
        uppers = {c.subset.bits: c.r_bracket.upper for c in v.certificates
                  if c.r_bracket is not None}
        for a, ua in uppers.items():
            for bb, ub in uppers.items():
                if a & ~bb == 0 and ua > ub + 1e-9 * max(1.0, abs(ub)):
                    violations.append((seed, "subset monotonicity"))

        # component formulas for the spectral radius and lambda
        for _ in range(3):
            f = random_mplus_map(rng, int(rng.integers(2, 6)))
            if not _theorem_41_check(f):
                violations.append((seed, "component formula"))

    with capsys.disabled():
        report("criterion 7: property suites under 5 seeds",
               not violations, f"{len(violations)} violations" if violations
               else "0 violations")


def test_criterion_8_sweep_vs_fast_path(capsys):
    """Generic sweep and convex route agree whenever both are decisive."""
    rng = np.random.default_rng(SEEDS[4])
    disagreements = decisive = 0
    for _ in range(100):
        f = random_mplus_map(rng, int(rng.integers(2, 6)))
        a = cs.Analyzer(f).classify(solve=False)
        b = cs.classify_convex(f, solve=False)
        if VerdictKind.INDETERMINATE in (a.kind, b.kind):
            continue
        decisive += 1
        if a.kind is not b.kind:
            disagreements += 1
    with capsys.disabled():
        report("criterion 8: sweep vs convex fast path on 100 random maps",
               disagreements == 0,
               f"{decisive} decisive cases, {disagreements} disagreements")
