"""Print one SHA-256 per output corpus, so two checkouts can be compared.

    python3 tools/output_digest.py [--against REV]

Run from a checkout: conespec is imported from its ``src/``, and the
inputs come from its ``bench/workloads.py`` and ``bench/catalog``, which
are only read.  The script runs itself again under ``PYTHONHASHSEED=0``.
Two checkouts print the same lines exactly when these outputs agree byte
for byte:

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

``--against REV`` checks REV out in a temporary detached ``git worktree``,
digests the same inputs with the program from REV's ``src/``, and marks
each corpus of this checkout ``same`` or ``moved`` against REV.  It
removes the worktree and exits 0 whether or not an output moved, and 1
when REV cannot be checked out or digested.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# conespec and bench/workloads.py, imported by `digests` from its source
cs = workloads = None

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
            code = cs.cli.main(flags + [path])
        yield f"{code}\n{out.getvalue()}"


def _tree(rng: random.Random, n: int, depth: int):
    """A random output over every node type but poles."""
    m = cs.maps
    kind = rng.randrange(7 if depth > 0 else 2)
    if kind == 0:
        return m.Coord(rng.randrange(n))
    if kind == 1:
        support = sorted(rng.sample(range(n), rng.randint(1, n)))
        return m.Linear(tuple((j, rng.uniform(0.1, 3.0)) for j in support))
    if kind == 2:
        return m.Scale(rng.uniform(0.1, 3.0), _tree(rng, n, depth - 1))
    terms = tuple(_tree(rng, n, depth - 1) for _ in range(rng.randint(1, 3)))
    if kind == 3:
        return m.Sum(terms)
    if kind == 4:
        return m.Min(terms)
    if kind == 5:
        return m.Max(terms)
    weights = [rng.uniform(0.2, 1.0) for _ in terms]
    return m.PowerMean(rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0]),
                     tuple(w / sum(weights) for w in weights), terms)


def _library_outputs():
    for k in range(LIBRARY_MAPS):
        rng = random.Random(f"output_digest/{k}")
        n = 2 + k % 4
        f = cs.maps.from_exprs([_tree(rng, n, 3) for _ in range(n)], n)
        budget = cs.spectral.DEFAULT_BUDGET
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


def digests(src: str):
    """Per corpus, its name and SHA-256, with conespec imported from
    `src`."""
    global cs, workloads
    sys.path[:0] = [src, os.path.join(ROOT, "bench")]
    import conespec as cs
    import conespec.cli  # noqa: F401
    import workloads
    with tempfile.TemporaryDirectory() as directory:
        for name, outputs in corpora(directory):
            digest = hashlib.sha256()
            for text in outputs:
                digest.update(text.encode("utf-8") + b"\0")
            yield name, digest.hexdigest()


#: prints `digests` of the source directory given as its argument
_PRINT_DIGESTS = ("import sys, output_digest\n"
                  "for line in output_digest.digests(sys.argv[1]):\n"
                  "    print(*line)")


def _worktree_digests(rev: str, directory: str) -> dict:
    """Per corpus, the digest of the program at `rev`, checked out under
    `directory` and removed again."""
    tree = os.path.join(directory, "rev")
    subprocess.run(["git", "-C", ROOT, "worktree", "add", "--quiet",
                    "--detach", tree, rev], check=True)
    try:
        run = subprocess.run(
            [sys.executable, "-c", _PRINT_DIGESTS, os.path.join(tree, "src")],
            cwd=os.path.dirname(os.path.abspath(__file__)), check=True,
            stdout=subprocess.PIPE, text=True)
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        tree], check=True)
    return dict(line.split() for line in run.stdout.splitlines())


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    parser = argparse.ArgumentParser(
        description="One SHA-256 per output corpus.")
    parser.add_argument("--against", metavar="REV",
                        help="mark each digest same or moved against the "
                             "program at git revision REV")
    args = parser.parse_args()
    theirs = None
    if args.against:
        directory = tempfile.mkdtemp()
        try:
            theirs = _worktree_digests(args.against, directory)
        except subprocess.CalledProcessError as exc:
            print(f"cannot digest {args.against}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    for name, digest in digests(os.path.join(ROOT, "src")):
        mark = "" if theirs is None else (
            " same" if theirs.get(name) == digest else
            f" moved from {theirs.get(name)} at {args.against}")
        print(f"{name} {digest}{mark}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
