"""Seeded input generators and oracles for the three benchmark workloads.

Every generator is a pure function of a seed or a catalog index, uses only
the standard library's ``random``, and returns plain data, so the same seed
gives byte-identical inputs on every machine and Python version.

- ``game_corpus``: the three-state turn-based game of acceptance criterion 1,
  written as ``.game.json`` documents; the oracle is the closed-form
  existence condition r1 < min(r3, r5).
- ``sweep_nonconvex``: the nonconvex family
  ``coord i: a_i*x_i + min(x_{i+1}, 2*x_{c_i})`` at n = 5.  It has no closed
  form, so the oracle is the verdict and per-subset route list recorded for
  every catalog entry (``catalog/sweep_nonconvex.json``).
- ``sparse_convex``: sparse nonnegative matrices with a full cycle at
  n in {100, 200, 300, 400}; the oracle is numpy's Perron root.

Game and sweep instances come from fixed catalogs whose per-instance cost
was recorded once; a run's seed draws one entry from every cost stratum per
round (``stratified_order``), and each measured time is read against the
instance's recorded cost.  Instance costs are heavy-tailed, so without that
a 30-second run would mostly measure which instances its seed drew.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CATALOG_DIR = os.path.join(HERE, "catalog")

GAME_SKIP_GAP = 1e-3
SWEEP_SIZE = 5
SPARSE_SIZES = (100, 200, 300, 400)
SPARSE_ENTRIES_PER_ROW = 4
PERRON_RTOL = 1e-8

#: catalog entries and cost strata per workload
CATALOG_SIZE = {"game_corpus": 3000, "sweep_nonconvex": 480}
STRATA = {"game_corpus": 20, "sweep_nonconvex": 16}


# ---------------------------------------------------------------------------
# game_corpus

def game_params(rng: random.Random) -> Tuple[List[float], float, float]:
    """Draw (r, p1, p2), skipping instances too close to the boundary."""
    while True:
        r = [rng.uniform(-5.0, 5.0) for _ in range(6)]
        p1, p2 = rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)
        if abs(r[0] - min(r[2], r[4])) >= GAME_SKIP_GAP:
            return r, p1, p2


def game_document(r: List[float], p1: float, p2: float) -> str:
    """The .game.json text: max controls state 1, min controls 2 and 3."""
    def act(payoff, transition):
        return {"payoff": payoff, "transition": list(transition)}

    doc = {
        "format": 1,
        "states": 3,
        "controllers": ["max", "min", "min"],
        "actions": [
            [act(r[0], (1.0, 0.0, 0.0)), act(r[1], (p1, 1.0 - p1, 0.0))],
            [act(r[2], (0.0, 1.0, 0.0)), act(r[3], (p2, 0.0, 1.0 - p2))],
            [act(r[4], (0.0, 0.0, 1.0)), act(r[5], (1.0, 0.0, 0.0))],
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def game_expected_exit(r: List[float]) -> int:
    """Exit 0 (eigenvector exists) iff r1 < min(r3, r5), else exit 2."""
    return 0 if r[0] < min(r[2], r[4]) else 2


def game_instance(index: int) -> Tuple[str, int]:
    """Catalog entry `index`: (document text, expected exit code)."""
    r, p1, p2 = game_params(random.Random(f"game_corpus/{index}"))
    return game_document(r, p1, p2), game_expected_exit(r)


# ---------------------------------------------------------------------------
# sweep_nonconvex

def sweep_instance(index: int) -> str:
    """Catalog entry `index` of the nonconvex family, as .conemap text."""
    rng = random.Random(f"sweep_nonconvex/{index}")
    n = SWEEP_SIZE
    a = [rng.uniform(0.5, 2.0) for _ in range(n)]
    c = [rng.randrange(n) for _ in range(n)]
    lines = ["format: 1", f"dim: {n}"]
    for i in range(n):
        lines.append(f"coord {i + 1}: {a[i]!r}*x{i + 1} + "
                     f"min(x{(i + 1) % n + 1}, 2*x{c[i] + 1})")
    return "\n".join(lines) + "\n"


def sweep_outcome(doc: dict) -> dict:
    """The part of `conespec analyze` output the oracle compares."""
    return {"kind": doc["kind"],
            "routes": [[s["subset"], s["route"]] for s in doc["subsets"]]}


# ---------------------------------------------------------------------------
# catalogs

def catalog_path(workload: str) -> str:
    return os.path.join(CATALOG_DIR, workload + ".json")


def load_catalog(workload: str) -> Dict[int, dict]:
    with open(catalog_path(workload), "r", encoding="utf-8") as handle:
        entries = json.load(handle)["entries"]
    return {e["index"]: e for e in entries}


def cost_strata(catalog: Dict[int, dict], k: int) -> List[List[int]]:
    """Catalog indices in `k` equal-count strata of recorded cost."""
    ranked = sorted(catalog, key=lambda i: (catalog[i]["seconds"], i))
    return [ranked[len(ranked) * s // k: len(ranked) * (s + 1) // k]
            for s in range(k)]


def stratum_of(catalog: Dict[int, dict], k: int) -> Dict[int, int]:
    """Per catalog index: the number of its cost stratum, 0 the cheapest."""
    return {i: s for s, members in enumerate(cost_strata(catalog, k))
            for i in members}


def stratified_order(seed: int, catalog: Dict[int, dict], k: int) -> List[int]:
    """Catalog indices in rounds of one entry per stratum.

    Within a round even strata come first, then odd ones, so the first half
    of any round also spans the whole cost range.  Each stratum is visited
    in a seeded random order.
    """
    strata = cost_strata(catalog, k)
    rng = random.Random(seed)
    pools = [rng.sample(s, len(s)) for s in strata]
    visit = list(range(0, k, 2)) + list(range(1, k, 2))
    rounds = min(len(p) for p in pools)
    return [pools[s][r] for r in range(rounds) for s in visit]


# ---------------------------------------------------------------------------
# sparse_convex

def sparse_rows(rng: random.Random, n: int) -> List[List[float]]:
    """Each row: 4 random entries ~ U(0.1, 3) plus a cycle entry (i, i+1)."""
    rows = []
    for i in range(n):
        row = [0.0] * n
        for j in rng.sample(range(n), SPARSE_ENTRIES_PER_ROW):
            row[j] = rng.uniform(0.1, 3.0)
        row[(i + 1) % n] = rng.uniform(0.2, 2.0)
        rows.append(row)
    return rows


def sparse_corpus(seed: int, count: int) -> List[List[List[float]]]:
    """`count` matrices visiting the sizes round-robin."""
    rng = random.Random(seed)
    return [sparse_rows(rng, SPARSE_SIZES[k % len(SPARSE_SIZES)])
            for k in range(count)]


def perron_root(rows: List[List[float]]) -> float:
    """Dense spectral radius by numpy, independent of conespec."""
    import numpy as np

    return float(max(abs(np.linalg.eigvals(np.asarray(rows, dtype=float)))))
