"""The benchmark's own checks, at the ``tiny`` scale (seconds per run).

Run from the repository root::

    PYTHONPATH=src python -m pytest -q qbsbench/tests
"""

import multiprocessing
import os
from collections import Counter

import pytest

from repro.sql.plan.parallel import usable_cores

from qbsbench import bench, scan_mix, synth_corpus
from qbsbench.common import BENCHMARK, END_TO_END_UNITS, PER_LAYER_UNITS, \
    ROOT, SPEC, Run
from qbsbench.layers import EXPECTED_CALLS
from qbsbench.tracer import ENTRY_POINTS, Tracer, TracingError

WORKLOADS = sorted(bench.WORKLOADS)

#: scan_mix's traced run requires the pool, which parallel="auto" only
#: starts with at least two usable cores.
needs_pool = pytest.mark.skipif(usable_cores() < 2,
                                reason="the pool needs two usable cores")


def _tiny(workload, trace=False, seed=1):
    return bench.run_workload(workload, seed, 1, trace, ROOT, scale="tiny")


def test_every_gated_workload_runs_by_name():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == WORKLOADS
    for name in WORKLOADS:
        assert set(SPEC["workloads"][name]["aliases"]) <= \
            set(END_TO_END_UNITS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result, report = _tiny(workload)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        END_TO_END_UNITS
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert any(line.split()[0] == name for line in report)


@pytest.mark.parametrize("workload", [
    pytest.param(w, marks=needs_pool) if w == "scan_mix" else w
    for w in WORKLOADS])
def test_tiny_traced_run_emits_every_per_layer_metric(workload):
    result, _ = _tiny(workload, trace=True)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        PER_LAYER_UNITS
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.spans"] > 0
    assert metrics["trace.overhead_ratio"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_the_op_sequence_not_the_op_counts(workload):
    module = bench.WORKLOADS[workload]
    one, two = module.make_plan(1, 10), module.make_plan(2, 10)
    again = module.make_plan(1, 10)

    def shape(plan):
        if workload == "synth_corpus":
            return [len(order) for order in plan.orders]
        return Counter(op.kind for op in plan.ops)

    def sequence(plan):
        if workload == "synth_corpus":
            return plan.orders
        return [(op.kind, op.shape, repr(op.params), repr(op.rows))
                for op in plan.ops]

    assert shape(one) == shape(two)
    assert sequence(one) != sequence(two)
    assert sequence(one) == sequence(again)


def _corrupt_inferred_sql(monkeypatch):
    """w33's inferred SQL loses its first row."""
    from repro.core.transform import TransformedFragment

    original = TransformedFragment.execute

    def corrupted(self, db, params=None):
        value = original(self, db, params)
        if "w33_" in self.result.fragment_name:
            return value[1:]
        return value

    monkeypatch.setattr(TransformedFragment, "execute", corrupted)


def _corrupt_scans(monkeypatch):
    from repro.sql.database import Database

    original = Database.execute

    def corrupted(self, sql, params=None, **kwargs):
        result = original(self, sql, params, **kwargs)
        if "GROUP BY e.g" in sql:
            result.rows = result.rows[1:]
        return result

    monkeypatch.setattr(Database, "execute", corrupted)


@pytest.mark.parametrize("workload,corrupt", [
    ("synth_corpus", _corrupt_inferred_sql),
    ("scan_mix", _corrupt_scans),
])
def test_oracle_counts_a_corrupted_result(workload, corrupt, monkeypatch):
    clean, _ = _tiny(workload)
    corrupt(monkeypatch)
    result, report = _tiny(workload)
    assert not result["correct"]
    assert result["failed"] > 0
    # Mismatches are counted, never retried: the op count is unchanged.
    assert result["attempted"] == clean["attempted"]
    rate = next(line for line in report if line.split()[0] == "error_rate")
    assert float(rate.split()[1]) == pytest.approx(
        result["failed"] / result["attempted"], rel=1e-5)


def _children():
    """Live processes whose parent is this one (Linux /proc)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid() and fields[0] != "Z":
            pids.append(int(entry))
    return pids


@needs_pool
def test_no_pool_worker_outlives_a_scan_mix_run():
    before = set(_children())
    result, _ = _tiny("scan_mix", trace=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["pool.dispatches"] > 0      # the pool really ran
    assert multiprocessing.active_children() == []
    if os.path.isdir("/proc"):
        assert set(_children()) <= before


def test_tracer_fails_when_an_entry_point_is_gone(monkeypatch):
    monkeypatch.setitem(ENTRY_POINTS, "gone",
                        ("repro.sql.catalog", "Table.no_such_method"))
    tracer = Tracer()
    with pytest.raises(TracingError, match="no longer exists"):
        tracer.install()
    from repro.sql.catalog import Table
    assert not hasattr(Table.insert, "__wrapped__")


@needs_pool
def test_traced_run_fails_when_a_mapped_entry_point_is_never_called(
        monkeypatch):
    monkeypatch.setitem(EXPECTED_CALLS, "scan_mix",
                        EXPECTED_CALLS["scan_mix"] + ("prove",))
    with pytest.raises(TracingError, match="never called: prove"):
        _tiny("scan_mix", trace=True)


def test_traced_run_fails_when_outputs_differ():
    untraced = Run("synth_corpus", outputs=["a", "b"])
    traced = Run("synth_corpus", outputs=["a", "c"])
    tracer = Tracer()
    tracer.spans.extend((i, name, 0.0, 1.0, -1, 0, None)
                        for i, name in enumerate(
                            EXPECTED_CALLS["synth_corpus"]))
    with pytest.raises(TracingError, match="op 1 differs"):
        bench._check_trace("synth_corpus", tracer, [untraced], traced)


def test_plans_fix_their_length_from_seconds_alone():
    assert len(scan_mix.make_plan(3, 30).ops) == 21 * scan_mix.OPS_PER_CYCLE
    assert len(synth_corpus.make_plan(3, 30).orders) == 15
