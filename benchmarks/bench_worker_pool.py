"""Persistent worker pool vs. fork-per-query process backend.

The ``processes`` backend forks K children for *every* query: each
child pays process start-up, copy-on-write faults against the parent
heap, and a fresh result pipe, then exits.  The ``pool`` backend forks
its workers once, caches shipped tables by content digest, and ships
only plan fragments afterwards — so for a stream of repeated mid-size
parallel queries the per-query cost collapses to dispatch + execution.

Four claims:

* **outcome identity** (asserted unconditionally): the pool stream
  returns rows, columns and engine statistics identical to serial and
  to the fork backend — here and, exhaustively, in
  ``tests/sql/test_parallel_equivalence.py``;
* **throughput** (asserted unconditionally): the warm pool sustains
  >= 2x the fork-per-query backend's throughput on the repeated-query
  stream.  The floor is overhead-based — it compares two dispatch
  mechanisms driving identical partition work — so unlike the
  CPU-scaling floors it holds even on a single core and is asserted
  on any hardware;
* **zero re-ship** (asserted unconditionally): the measured stream
  ships no table rows after warm-up — repeated queries against an
  unchanged catalog are served entirely from the workers' digest-keyed
  caches;
* **append delta** (asserted unconditionally): after ``APPEND_ROWS``
  rows are appended to the warm stream's table, the next query ships
  exactly ``APPEND_ROWS`` rows to each worker holding the table
  (``min(pool size, PARTITIONS)`` of them) — not the whole grown
  table.  Like the zero re-ship claim it is a deterministic counter,
  so it holds on any hardware.

Run directly::

    PYTHONPATH=src python benchmarks/bench_worker_pool.py
    PYTHONPATH=src python benchmarks/bench_worker_pool.py --smoke

(``--smoke`` is the CI canary: fewer rounds and a shorter stream,
non-zero exit when a floor regresses.)
"""

import sys
import time

from repro.bench.harness import floor_entry, write_bench_artifact
from repro.service import pool as pool_mod
from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions

#: Acceptance floor (ISSUE 10): warm-pool throughput over the
#: fork-per-query process backend on the repeated-query stream.
MIN_POOL_SPEEDUP = 2.0
PARTITIONS = 4
N_ROWS = 1_500
#: rows appended after the timed stream for the append-delta floor.
APPEND_ROWS = 25

#: The repeated query: partial GROUP BY, per-partition results are a
#: handful of groups, so transport cost is negligible for both
#: backends and the comparison isolates dispatch overhead.
STREAM_SQL = ("SELECT t0.g, COUNT(*) AS n, SUM(t0.v) AS tot FROM ev t0 "
              "WHERE t0.a > 13 GROUP BY t0.g")


def build_database() -> Database:
    db = Database()
    db.create_table("ev", ("id", "a", "g", "v"))
    db.insert_many("ev", ({"id": i, "a": i % 97, "g": i % 7,
                           "v": i % 1013} for i in range(N_ROWS)))
    return db


def stream_seconds(view, queries: int, rounds: int) -> float:
    """Best per-round wall time for ``queries`` back-to-back queries."""
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(queries):
            view.execute(STREAM_SQL)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def run(smoke=False):
    queries = 10 if smoke else 15
    rounds = 2 if smoke else 3

    db = build_database()
    serial_result = db.execute(STREAM_SQL)
    pool_view = db.view(ExecutorOptions(parallel=PARTITIONS,
                                        parallel_backend="pool"))
    procs_view = db.view(ExecutorOptions(parallel=PARTITIONS,
                                         parallel_backend="processes"))

    plan = pool_view.explain(STREAM_SQL)
    print(plan)
    assert "PartialGroupBy(t0.g, partitions=%d)" % PARTITIONS in plan, \
        "expected a partial-group-by plan"
    print()

    pool_mod.reset_pool()
    # Warm-up: fork the pool workers and ship the table once; give the
    # fork backend one query too so neither side pays first-run costs
    # inside the timed stream.
    pool_result = pool_view.execute(STREAM_SQL)
    procs_result = procs_view.execute(STREAM_SQL)
    for label, result in (("pool", pool_result),
                          ("processes", procs_result)):
        assert list(result.rows) == list(serial_result.rows), label
        assert result.columns == serial_result.columns, label
        assert result.stats == serial_result.stats, label

    shipped_before = pool_mod._ROWS_SHIPPED.total()
    pool_time = stream_seconds(pool_view, queries, rounds)
    rows_reshipped = pool_mod._ROWS_SHIPPED.total() - shipped_before
    procs_time = stream_seconds(procs_view, queries, rounds)
    speedup = procs_time / pool_time if pool_time else float("inf")

    holders = min(pool_mod.get_pool().size, PARTITIONS)
    shipped_before = pool_mod._ROWS_SHIPPED.total()
    db.insert_many("ev", ({"id": N_ROWS + i, "a": i % 97, "g": i % 7,
                           "v": i % 1013} for i in range(APPEND_ROWS)))
    appended_result = pool_view.execute(STREAM_SQL)
    rows_after_append = pool_mod._ROWS_SHIPPED.total() - shipped_before
    assert list(appended_result.rows) == \
        list(db.execute(STREAM_SQL).rows), "pool after append"
    append_floor = APPEND_ROWS * holders

    print("%-34s %8.2fms  (%5.2fms/query)"
          % ("pool x%d, %d queries" % (PARTITIONS, queries),
             pool_time * 1e3, pool_time / queries * 1e3))
    print("%-34s %8.2fms  (%5.2fms/query)"
          % ("processes x%d, %d queries" % (PARTITIONS, queries),
             procs_time * 1e3, procs_time / queries * 1e3))
    print()
    print("pool throughput vs fork-per-query: %.2fx (floor %.1fx)"
          % (speedup, MIN_POOL_SPEEDUP))
    print("table rows re-shipped during warm stream: %d" % rows_reshipped)
    print("rows shipped after a %d-row append: %d (exact floor %d = %d x "
          "%d workers; a whole-table re-ship would be %d)"
          % (APPEND_ROWS, rows_after_append, append_floor, APPEND_ROWS,
             holders, (N_ROWS + APPEND_ROWS) * holders))

    ok = speedup >= MIN_POOL_SPEEDUP and rows_reshipped == 0 \
        and rows_after_append == append_floor
    write_bench_artifact(
        "worker_pool", ok, smoke=smoke,
        floors={"pool_throughput": floor_entry(speedup, MIN_POOL_SPEEDUP,
                                               asserted=True)},
        extra={"partitions": PARTITIONS, "rows": N_ROWS,
               "queries_per_round": queries, "rounds": rounds,
               "pool_seconds": pool_time,
               "processes_seconds": procs_time,
               "rows_reshipped": rows_reshipped,
               "append_rows": APPEND_ROWS,
               "rows_shipped_after_append": rows_after_append,
               "cache_hits": pool_mod._CACHE_HITS.total(),
               "cache_misses": pool_mod._CACHE_MISSES.total()})
    pool_mod.reset_pool()
    if rows_reshipped:
        print("FAIL: warm pool re-shipped %d table rows" % rows_reshipped)
        return 1
    if rows_after_append != append_floor:
        print("FAIL: %d rows shipped after a %d-row append, expected %d"
              % (rows_after_append, APPEND_ROWS, append_floor))
        return 1
    if speedup < MIN_POOL_SPEEDUP:
        print("FAIL: pool throughput %.2fx < %.1fx"
              % (speedup, MIN_POOL_SPEEDUP))
        return 1
    print("RESULT: PASS")
    return 0


def test_worker_pool_floor(benchmark):
    """pytest-benchmark flavor (part of ``make bench``)."""
    code = benchmark.pedantic(run, kwargs={"smoke": True}, rounds=1,
                              iterations=1)
    assert code == 0


if __name__ == "__main__":
    sys.exit(run(smoke="--smoke" in sys.argv[1:]))
