"""Record a workload's catalog: per-instance cost and, for the sweep, the
verdict and per-subset routes that serve as its oracle.

    python3 bench/record_catalog.py game_corpus [passes]
    python3 bench/record_catalog.py sweep_nonconvex [passes]

Run from the root of a checkout.  Each entry keeps the instance's wall time
on the recording machine divided by the host's slowdown around it, gauged
as in a benchmark run (``reference.py``), and takes the median over
`passes` (default 3) passes over the whole catalog, so a stall of a shared
host during one pass moves no entry.  The costs sort the catalog into cost
strata (``workloads.cost_strata``) and are what a run's scaled times are
read against (``CatalogWorkload.estimates`` in ``run.py``).  Re-recording
is needed only when the catalog generators change; the sweep routes must
then come from a commit whose verdicts are trusted.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference  # noqa: E402
import workloads  # noqa: E402
from harness import import_conespec, pin_hash_seed, workdir  # noqa: E402


def record(workload: str, passes: int):
    cli = import_conespec().cli
    size = workloads.CATALOG_SIZE[workload]
    entries = [None] * size
    seconds = [[] for _ in range(size)]
    with workdir() as tmp:
        path = os.path.join(tmp, "instance")
        for _ in range(passes):
            times = []
            gauge = [[reference.task() for _ in range(reference.WINDOW)]]
            for index in range(size):
                if workload == "game_corpus":
                    text, _ = workloads.game_instance(index)
                    argv = ["game", path]
                else:
                    text = workloads.sweep_instance(index)
                    argv = ["analyze", path]
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                out = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                times.append(time.perf_counter() - start)
                gauge.append(reference.gauge(reference.task, times[-1]))
                entry = {"index": index, "exit": code}
                if workload == "sweep_nonconvex":
                    entry.update(
                        workloads.sweep_outcome(json.loads(out.getvalue())))
                if entries[index] not in (None, entry):
                    raise RuntimeError(f"entry {index} differs between passes")
                entries[index] = entry
            slowdowns = reference.local_slowdowns(gauge, reference.NOMINAL_S)
            for index, (t, f) in enumerate(zip(times, slowdowns)):
                seconds[index].append(t / f)
    for entry, times in zip(entries, seconds):
        entry["seconds"] = round(statistics.median(times), 5)
    return entries


def main() -> int:
    pin_hash_seed()
    workload = sys.argv[1]
    passes = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    doc = {"note": f"seconds: median over {passes} passes of the wall time on "
                   "the recording machine over the host's slowdown around "
                   "it (reference.py)",
           "entries": record(workload, passes)}
    os.makedirs(workloads.CATALOG_DIR, exist_ok=True)
    with open(workloads.catalog_path(workload), "w", encoding="utf-8") as handle:
        json.dump(doc, handle, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
