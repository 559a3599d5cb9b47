"""Tests for the benchmark's generators, statistics and tracer.

    python3 -m pytest bench
"""

import contextlib
import io
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _sparse_bytes(seed):
    return repr(workloads.sparse_corpus(seed, 4)).encode()


def _order(workload, seed):
    return workloads.stratified_order(seed, workloads.load_catalog(workload),
                                      workloads.STRATA[workload])


def _sweep_bytes(seed):
    return "".join(workloads.sweep_instance(i)
                   for i in _order("sweep_nonconvex", seed)[:32]).encode()


def _game_bytes(seed):
    return "".join(workloads.game_instance(i)[0]
                   for i in _order("game_corpus", seed)[:60]).encode()


GENERATORS = [_game_bytes, _sweep_bytes, _sparse_bytes]


@pytest.mark.parametrize("generate", GENERATORS)
def test_same_seed_gives_identical_inputs(generate):
    assert generate(7) == generate(7)


@pytest.mark.parametrize("generate", GENERATORS)
def test_different_seed_gives_different_inputs(generate):
    assert generate(7) != generate(8)


def test_game_oracle_and_skip_gap():
    import random

    rng = random.Random(3)
    for _ in range(200):
        r, p1, p2 = workloads.game_params(rng)
        assert abs(r[0] - min(r[2], r[4])) >= workloads.GAME_SKIP_GAP
        assert 0.02 <= p1 <= 0.98 and 0.02 <= p2 <= 0.98
        assert workloads.game_expected_exit(r) == (0 if r[0] < min(r[2], r[4])
                                                   else 2)


@pytest.mark.parametrize("workload", sorted(workloads.CATALOG_SIZE))
def test_catalog_rounds_take_one_entry_per_stratum(workload):
    catalog = workloads.load_catalog(workload)
    assert sorted(catalog) == list(range(workloads.CATALOG_SIZE[workload]))
    k = workloads.STRATA[workload]
    stratum = {i: s for s, members in
               enumerate(workloads.cost_strata(catalog, k)) for i in members}
    order = _order(workload, 5)
    assert sorted(order) == sorted(catalog)
    for start in range(0, len(order), k):
        assert sorted(stratum[i] for i in order[start:start + k]) == \
            list(range(k))
    # the first half of a round already spans the cost range
    assert stratum[order[0]] == 0 and stratum[order[k // 2 - 1]] == k - 2


@pytest.mark.parametrize("workload", sorted(workloads.CATALOG_SIZE))
def test_stratum_of_numbers_strata_by_cost(workload):
    catalog = workloads.load_catalog(workload)
    k = workloads.STRATA[workload]
    stratum = workloads.stratum_of(catalog, k)
    assert sorted(set(stratum.values())) == list(range(k))
    for i in catalog:
        for j in catalog:
            if stratum[i] < stratum[j]:
                assert catalog[i]["seconds"] <= catalog[j]["seconds"]


def test_catalog_estimates_scale_recorded_costs(tmp_path):
    import run

    workload = run.SweepNonconvex(None, 5, str(tmp_path))
    costs = [workload.catalog[workload.order[k]]["seconds"] for k in range(40)]
    # every instance twice as slow as recorded: half the throughput of the
    # catalog's mean cost, twice its median cost
    throughput, p50 = workload.estimates([2.0 * c for c in costs])
    assert throughput == pytest.approx(0.5 / workload.mean_cost)
    assert p50 == pytest.approx(2.0 * workload.median_cost)
    # which entries a run drew does not matter, only how fast they ran
    assert workload.estimates([2.0 * c for c in costs[:20]]) == \
        pytest.approx((throughput, p50))
    # one instance stalling tenfold barely moves the figures
    stalled = [2.0 * c for c in costs]
    stalled[7] *= 10.0
    assert workload.estimates(stalled) == pytest.approx((throughput, p50),
                                                        rel=0.05)


def test_reference_gauge_and_slowdown():
    import reference

    assert len(reference.gauge(reference.task, 0.0)) == 1
    assert len(reference.gauge(reference.task,
                               2.5 * reference.GAUGE_EVERY_S)) == 3
    assert reference.task() > 0.0
    assert reference.dense_task(workloads.sparse_corpus(1, 1)[0]) > 0.0
    assert reference.slowdown([0.5] * 3, 0.5) == pytest.approx(1.0)
    # bimodal task times: the mean tracks the share of slow ones
    assert reference.slowdown([1.0, 1.0, 2.0, 2.0], 1.0) == pytest.approx(1.5)
    # each instance is gauged by the times on either side of it only
    batches = [[1.0, 1.0], [3.0], [3.0, 3.0, 1.0]]
    assert reference.local_slowdowns(batches, 1.0, window=1) == \
        pytest.approx([2.0, 3.0])
    assert reference.local_slowdowns(batches, 1.0, window=2) == \
        pytest.approx([2.0, 2.5])


def test_round_estimates_take_median_over_rounds():
    import run

    workload = run.Workload(None)
    workload.round = 2
    throughput, p50 = workload.estimates([1.0, 1.0, 1.0, 3.0, 0.5, 0.5])
    assert throughput == pytest.approx(1.0)
    assert p50 == pytest.approx(stats.harrell_davis_median(
        [1.0, 1.0, 1.0, 3.0, 0.5, 0.5]))


def test_sparse_rows_shape():
    import random

    rows = workloads.sparse_rows(random.Random(1), 50)
    for i, row in enumerate(rows):
        assert len(row) == 50
        assert row[(i + 1) % 50] > 0.0
        assert 1 <= sum(v > 0.0 for v in row) <= 5


def test_p90_withheld_with_fewer_than_ten_beyond():
    assert stats.tail_quantile([float(v) for v in range(91)], 0.9) is None
    assert stats.tail_quantile([], 0.9) is None
    assert stats.tail_quantile([1.0] * 500, 0.9) is None  # ties exceed nothing


def test_p90_reported_with_ten_beyond():
    values = [float(v) for v in range(1, 101)]
    p90 = stats.tail_quantile(values, 0.9)
    assert p90 == pytest.approx(90.1)
    assert sum(v > p90 for v in values) == 10


def test_quantile_matches_linear_interpolation():
    assert stats.quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert stats.quantile([0.0, 10.0], 0.25) == 2.5
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_harrell_davis_median():
    assert stats.harrell_davis_median([5.0]) == 5.0
    # symmetric samples: the estimate is their centre
    assert stats.harrell_davis_median([float(v) for v in range(1, 32)]) == \
        pytest.approx(16.0)
    assert stats.harrell_davis_median([float(v) for v in range(3000)]) == \
        pytest.approx(1499.5)
    # one slow sample moves it far less than it moves the sample median
    values = [1.0] * 8 + [2.0] * 8
    moved = values[:7] + [2.0] + values[8:]
    assert stats.median(moved) - stats.median(values) == 0.5
    assert 0 < stats.harrell_davis_median(moved) - \
        stats.harrell_davis_median(values) < 0.25


def test_relative_iqr():
    assert stats.relative_iqr([10.0] * 10) == 0.0
    assert stats.relative_iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0)


def _game_run(conespec, path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = conespec.cli.main(["game", path])
    return code, out.getvalue()


def test_tracer_wraps_every_binding_and_restores_them():
    import conespec
    import conespec.cli
    from conespec import existence, spectral

    original = spectral.cw_upper
    bindings = [(m, "cw_upper") for m in (spectral, existence, conespec.cli,
                                          conespec)]
    t = tracer.Tracer()
    with t:
        for module, name in bindings:
            assert getattr(module, name) is not original
            assert getattr(module, name).__wrapped__ is original
    for module, name in bindings:
        assert getattr(module, name) is original


def test_traced_output_identical_and_counters_repeat(tmp_path):
    import conespec.cli

    text, expected = workloads.game_instance(11)
    path = tmp_path / "g.game.json"
    path.write_text(text)
    plain = _game_run(conespec, str(path))
    assert plain[0] == expected
    counts = []
    for _ in range(2):
        with tracer.Tracer() as t:
            assert _game_run(conespec, str(path)) == plain
        metrics = t.metrics(1.0)
        assert set(metrics) == set(tracer.METRICS)
        assert metrics["existence.classify.calls"] == 1
        assert metrics["dsl.parse.calls"] == 1
        assert metrics["topical.mean_payoff.calls"] == 9
        counts.append({n: t.counts[n] for n in tracer.DETERMINISTIC})
    assert counts[0] == counts[1]
    assert counts[0]["maps.evals"] > 0
