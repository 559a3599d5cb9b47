"""Print one SHA-256 per output corpus, so two checkouts can be compared.

    python3 tools/output_digest.py

Run from the root of a checkout: conespec is imported from its ``src/``,
and the inputs come from ``bench/workloads.py`` and ``bench/catalog``,
which are only read.  The script runs itself again under
``PYTHONHASHSEED=0``.  Two checkouts print the same lines exactly when
these outputs agree byte for byte:

- ``sweep``: stdout and exit code of JSON ``conespec analyze`` on the 480
  sweep catalog entries;
- ``sweep_no_prune``: the same with ``--no-prune``;
- ``game``: stdout and exit code of ``conespec game`` on catalog games
  0-599;
- ``sparse``: the verdict ``repr`` of ``classify`` on
  ``sparse_corpus(5, 8)``;
- ``library``: the verdict ``repr`` of ``classify``, or the error raised,
  on 400 seeded random expression maps at n = 2..5, every fifth one as a
  black-box twin at budget 300.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import conespec as cs  # noqa: E402
from conespec import cli  # noqa: E402
from conespec.maps import (Coord, Linear, Max, Min, PowerMean,  # noqa: E402
                           Scale, Sum, from_exprs)
from conespec.spectral import DEFAULT_BUDGET  # noqa: E402
import workloads  # noqa: E402

SWEEP_ENTRIES = 480
GAME_ENTRIES = 600
LIBRARY_MAPS = 400


def _cli_outputs(argvs, directory):
    """Per argv, its exit code and stdout, the input file written first."""
    for flags, text, suffix in argvs:
        path = os.path.join(directory, "input" + suffix)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(flags + [path])
        yield f"{code}\n{out.getvalue()}"


def _tree(rng: random.Random, n: int, depth: int):
    """A random output over every node type but poles."""
    kind = rng.randrange(7 if depth > 0 else 2)
    if kind == 0:
        return Coord(rng.randrange(n))
    if kind == 1:
        support = sorted(rng.sample(range(n), rng.randint(1, n)))
        return Linear(tuple((j, rng.uniform(0.1, 3.0)) for j in support))
    if kind == 2:
        return Scale(rng.uniform(0.1, 3.0), _tree(rng, n, depth - 1))
    terms = tuple(_tree(rng, n, depth - 1) for _ in range(rng.randint(1, 3)))
    if kind == 3:
        return Sum(terms)
    if kind == 4:
        return Min(terms)
    if kind == 5:
        return Max(terms)
    weights = [rng.uniform(0.2, 1.0) for _ in terms]
    return PowerMean(rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0]),
                     tuple(w / sum(weights) for w in weights), terms)


def _library_outputs():
    for k in range(LIBRARY_MAPS):
        rng = random.Random(f"output_digest/{k}")
        n = 2 + k % 4
        f = from_exprs([_tree(rng, n, 3) for _ in range(n)], n)
        budget = DEFAULT_BUDGET
        if k % 5 == 4:
            f, budget = cs.ConeMap(n, evaluator=f.eval_interior), 300
        try:
            yield repr(cs.classify(f, budget))
        except (cs.ConespecError, ValueError) as exc:
            yield f"{type(exc).__name__}: {exc}"


def corpora(directory):
    sweep = [workloads.sweep_instance(i) for i in range(SWEEP_ENTRIES)]
    yield "sweep", _cli_outputs(
        ((["analyze"], text, ".conemap") for text in sweep), directory)
    yield "sweep_no_prune", _cli_outputs(
        ((["analyze", "--no-prune"], text, ".conemap") for text in sweep),
        directory)
    yield "game", _cli_outputs(
        ((["game"], workloads.game_instance(i)[0], ".game.json")
         for i in range(GAME_ENTRIES)), directory)
    yield "sparse", (repr(cs.classify(cs.matrix_map(rows)))
                     for rows in workloads.sparse_corpus(5, 8))
    yield "library", _library_outputs()


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    with tempfile.TemporaryDirectory() as directory:
        for name, outputs in corpora(directory):
            digest = hashlib.sha256()
            for text in outputs:
                digest.update(text.encode("utf-8") + b"\0")
            print(f"{name} {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
