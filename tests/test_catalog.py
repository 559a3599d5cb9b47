"""`conespec analyze` on the whole sweep catalog of the benchmark: every
entry keeps the exit code, kind and routes recorded for it."""

import importlib.util
import json
import os

import conespec.cli as cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def _workloads():
    """bench/workloads.py, the catalog's generator and oracle, read only."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_catalog_keeps_its_outcomes(tmp_path, capsys):
    workloads = _workloads()
    catalog = workloads.load_catalog("sweep_nonconvex")
    assert len(catalog) == workloads.CATALOG_SIZE["sweep_nonconvex"] == 480
    path = tmp_path / "m.conemap"
    moved = []
    for index, entry in sorted(catalog.items()):
        path.write_text(workloads.sweep_instance(index))
        code = cli.main(["analyze", str(path)])
        outcome = workloads.sweep_outcome(json.loads(capsys.readouterr().out))
        if (code, outcome["kind"], outcome["routes"]) != \
                (entry["exit"], entry["kind"], entry["routes"]):
            moved.append(index)
    assert moved == []
