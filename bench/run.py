"""The conespec benchmark: one workload, one closed-loop caller, one result.

    python3 bench/run.py --workload game_corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; conespec is imported from ``src/`` there.
Every instance starts only after the previous one returned (one process,
one thread), and each output is checked against the workload's oracle
after the timed region.  The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it carries the sample counts, the p90 where at least
ten samples lie beyond it, failed_ratio and the environment.

``--trace 0`` makes one untimed warm-up call, measures for ``--seconds``
seconds and reports the end-to-end metrics.  Every measured time is divided
by the host's slowdown during the run, gauged by a fixed task that does not
call conespec (``reference.py``), and the timing figures are estimated from
the scaled times (``Workload.estimates``).  The line before the result also
gives them unscaled.

``--trace 1`` ignores ``--seconds``: it runs a fixed instance list
untraced, traced and untraced again, counts an instance as failed unless
all three outputs are byte-identical and correct, and reports the per-layer
metrics of ``tracer.py``, whose counters repeat exactly for a given seed.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402
import reference  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: setup_s is the median over this many set-ups, each in a fresh interpreter
SETUP_SAMPLES = 9


class Workload:
    """Inputs built at set-up, one timed call per instance, an oracle."""

    #: instances per round; a timed run always finishes whole rounds
    round = 1
    #: instance positions of the fixed --trace 1 list
    trace_positions = range(0)
    #: seconds of one gauge_task() on the host that set the bounds
    gauge_nominal_s = reference.NOMINAL_S

    def __init__(self, conespec):
        self.cs = conespec

    def call(self, k: int):
        """Run instance k; return its output in comparable form."""
        raise NotImplementedError

    def check(self, k: int, output) -> bool:
        raise NotImplementedError

    def gauge_task(self) -> float:
        """Run the reference task that gauges the host; its seconds."""
        return reference.task()

    def estimates(self, seconds):
        """(throughput_per_s, verdict_s.p50) from the per-call seconds.

        Throughput is the median over whole rounds of a round's size over
        its time; the p50 is the Harrell-Davis median of the per-call times.
        """
        size = self.round
        rates = [size / sum(seconds[i:i + size])
                 for i in range(0, len(seconds), size)]
        return stats.median(rates), stats.harrell_davis_median(seconds)

    def _run_cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cs.cli.main(argv)
        return code, out.getvalue()


class CatalogWorkload(Workload):
    """A CLI subcommand on catalog entries visited in stratified rounds.

    Each measured time is divided by the instance's recorded cost, and the
    figures rest on Harrell-Davis medians of these ratios, so they describe
    the catalog whichever entries a seed drew, and no single instance moves
    them much.  Throughput is one over the catalog's mean cost times the
    median ratio over the costlier half of the strata, which hold 84 % of
    the game catalog's time and 94 % of the sweep's; the p50 is the
    catalog's median cost times the median ratio over all instances.
    """

    name = command = suffix = ""
    POOL = 0

    def __init__(self, conespec, seed, directory):
        super().__init__(conespec)
        self.catalog = workloads.load_catalog(self.name)
        strata = workloads.STRATA[self.name]
        order = workloads.stratified_order(seed, self.catalog, strata)
        self.order = order[:self.POOL or len(order)]
        stratum = workloads.stratum_of(self.catalog, strata)
        self.costly = {i for i in self.order if 2 * stratum[i] >= strata}
        costs = [e["seconds"] for e in self.catalog.values()]
        self.mean_cost = sum(costs) / len(costs)
        self.median_cost = stats.median(costs)
        self.paths = []
        for index in self.order:
            path = os.path.join(directory, f"{index}{self.suffix}")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(self.document(index))
            self.paths.append(path)

    def document(self, index: int) -> str:
        raise NotImplementedError

    def call(self, k):
        return self._run_cli([self.command, self.paths[k % len(self.paths)]])

    def estimates(self, seconds):
        entries = [self.order[k % len(self.order)] for k in range(len(seconds))]
        ratios = [s / self.catalog[i]["seconds"]
                  for s, i in zip(seconds, entries)]
        costly = [r for r, i in zip(ratios, entries) if i in self.costly]
        return (1.0 / (self.mean_cost * stats.harrell_davis_median(costly)),
                self.median_cost * stats.harrell_davis_median(ratios))


class GameCorpus(CatalogWorkload):
    """`conespec game` on criterion 1's three-state game."""

    name, command, suffix = "game_corpus", "game", ".game.json"
    # files written at set-up; a 30 s run uses about 280 at the speed of
    # the commit that defined the benchmark, and a faster one cycles
    POOL = 600
    trace_positions = range(120)

    def document(self, index):
        return workloads.game_instance(index)[0]

    def check(self, k, output):
        code, text = output
        expected = workloads.game_instance(self.order[k % len(self.order)])[1]
        kind = {0: "nonempty_bounded", 2: "no_interior_eigenvector"}
        return code == expected and json.loads(text)["kind"] == kind[code]


class SweepNonconvex(CatalogWorkload):
    """`conespec analyze` (prune on, solve on) on the nonconvex catalog."""

    name, command, suffix = "sweep_nonconvex", "analyze", ".conemap"
    # files written at set-up (each costs about 0.5 ms to create on the
    # host that set the bounds); a 30 s run uses 32 to 48
    POOL = 8 * workloads.STRATA["sweep_nonconvex"]
    trace_positions = range(workloads.STRATA["sweep_nonconvex"])

    def document(self, index):
        return workloads.sweep_instance(index)

    def check(self, k, output):
        code, text = output
        ref = self.catalog[self.order[k % len(self.order)]]
        outcome = workloads.sweep_outcome(json.loads(text))
        return (code == ref["exit"] and outcome["kind"] == ref["kind"]
                and outcome["routes"] == ref["routes"])


class SparseConvex(Workload):
    """Library `classify(matrix_map(rows))` on sparse irreducible matrices."""

    round = len(workloads.SPARSE_SIZES)
    # maps built at set-up (the n = 400 ones hold 160,000 weights each); a
    # 30 s run uses about 16, and a faster one cycles
    POOL = 6 * len(workloads.SPARSE_SIZES)
    trace_positions = range(len(workloads.SPARSE_SIZES))
    gauge_nominal_s = reference.DENSE_NOMINAL_S

    def __init__(self, conespec, seed, directory):
        super().__init__(conespec)
        self.rows = workloads.sparse_corpus(seed, self.POOL)
        self.maps = [conespec.matrix_map(rows) for rows in self.rows]
        self._perron = {}

    def call(self, k):
        v = self.cs.classify(self.maps[k % self.POOL])
        eigen = v.eigen
        return (v.kind.value, v.uniqueness.value, v.convergence.value,
                None if eigen is None else
                (eigen.eigenvalue, eigen.vector.entries, eigen.residual,
                 eigen.iterations))

    def gauge_task(self):
        # rows[3] is an n = 400 matrix; the task reads it, never its map
        return reference.dense_task(self.rows[3])

    def check(self, k, output):
        kind, uniqueness, _, eigen = output
        k %= self.POOL
        if k not in self._perron:
            self._perron[k] = workloads.perron_root(self.rows[k])
        ref = self._perron[k]
        return (kind == "nonempty_bounded" and uniqueness == "unique"
                and eigen is not None
                and abs(eigen[0] - ref) <= workloads.PERRON_RTOL * ref)


WORKLOADS = {"game_corpus": GameCorpus, "sweep_nonconvex": SweepNonconvex,
             "sparse_convex": SparseConvex}


def run_instances(workload: Workload, positions, gauge=None):
    """Call each position in turn; (outputs, per-call seconds).

    With a `gauge` list, the workload's reference task runs after each
    call, outside its time, and the list of its seconds is appended to
    `gauge`.
    """
    outputs, seconds = [], []
    for k in positions:
        t0 = time.perf_counter()
        try:
            outputs.append(workload.call(k))
        except Exception as exc:  # an exception is a failed instance
            print(f"instance {k}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            outputs.append(exc)
        seconds.append(time.perf_counter() - t0)
        if gauge is not None:
            gauge.append(reference.gauge(workload.gauge_task, seconds[-1]))
    return outputs, seconds


def timed_rounds(workload: Workload, budget: float):
    """Whole rounds until `budget` seconds have passed.

    Returns per-call outputs and seconds, the reference task's seconds in
    batches (see ``reference.local_slowdowns``), and the elapsed time.
    """
    outputs, seconds = [], []
    gauge = [[workload.gauge_task() for _ in range(reference.WINDOW)]]
    start = time.perf_counter()
    k = 0
    while True:
        out, sec = run_instances(workload, range(k, k + workload.round), gauge)
        outputs += out
        seconds += sec
        k += workload.round
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            return outputs, seconds, gauge, elapsed


def passes(workload: Workload, k: int, output) -> bool:
    """The oracle's judgement; an exception or unreadable output fails."""
    if isinstance(output, Exception):
        return False
    try:
        return workload.check(k, output)
    except (ValueError, KeyError, TypeError):
        return False


def setup_samples(args, own: float) -> list:
    """Set-up times: this process's and SETUP_SAMPLES - 1 fresh ones."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: " + proc.stderr.strip())
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def measure(args, workload: Workload, setup_s: float):
    setups = setup_samples(args, setup_s)
    run_instances(workload, [0])  # warm-up, so no timed call pays first calls
    outputs, seconds, gauge, elapsed = timed_rounds(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(not passes(workload, k, out) for k, out in enumerate(outputs))
    attempted = len(outputs)
    slowdowns = reference.local_slowdowns(gauge, workload.gauge_nominal_s)
    scaled = [s / f for s, f in zip(seconds, slowdowns)]
    throughput, p50 = workload.estimates(scaled)
    unscaled = workload.estimates(seconds)
    p90 = stats.tail_quantile(scaled, 0.9)
    info = {"samples": attempted, "elapsed_s": elapsed,
            "host_slowdown": reference.slowdown(
                [t for batch in gauge for t in batch],
                workload.gauge_nominal_s),
            "gauge_samples": sum(map(len, gauge)),
            "unscaled_throughput_per_s": unscaled[0],
            "unscaled_verdict_s.p50": unscaled[1],
            "failed_ratio": failed / attempted,
            "verdict_s.p90": p90,
            "verdict_s.p90_note": None if p90 is not None else
            "withheld: fewer than 10 samples beyond it",
            "setup_samples_s": setups}
    metrics = {
        "throughput_per_s": (throughput, "1/s"),
        "verdict_s.p50": (p50, "s"),
        "setup_s": (stats.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return attempted, failed, metrics, info


def traced(workload: Workload):
    """Untraced, traced and untraced again over the same instance list."""
    positions = list(workload.trace_positions)
    run_instances(workload, [0])  # warm-up, so no pass pays first calls
    before, before_s = run_instances(workload, positions)
    with tracer.Tracer() as t:
        during, during_s = run_instances(workload, positions)
    after, after_s = run_instances(workload, positions)
    failed = sum(len({repr(x), repr(y), repr(z)}) > 1 or
                 not passes(workload, k, x)
                 for k, x, y, z in zip(positions, before, during, after))
    untraced_s = (sum(before_s) + sum(after_s)) / 2
    metrics = {name: (value, tracer.METRICS[name]) for name, value in
               t.metrics(sum(during_s) / untraced_s).items()}
    info = {"samples": len(positions), "untraced_s": untraced_s,
            "traced_s": sum(during_s),
            "deterministic": {n: t.counts[n] for n in tracer.DETERMINISTIC}}
    return len(positions), failed, metrics, info


def main() -> int:
    harness.pin_hash_seed()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    try:
        conespec = harness.import_conespec()
    except ImportError as exc:
        print(f"cannot import conespec from {harness.SRC}: {exc}",
              file=sys.stderr)
        return 2
    with harness.workdir() as directory:
        workload = WORKLOADS[args.workload](conespec, args.seed, directory)
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps(setup_s))
            return 0
        if args.trace:
            attempted, failed, metrics, info = traced(workload)
        else:
            attempted, failed, metrics, info = measure(args, workload, setup_s)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                environment=harness.environment())
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
