"""Partition-parallel execution is invisible: K-way plans are
row/column/stats-identical to the serial planner (and, transitively,
to the seed single-pass pipeline) for every K.

Three layers:

* the planner-equivalence query battery, re-run under
  ``ExecutorOptions(parallel=K)`` for K in {1, 2, 4} against both the
  serial planner and the seed pipeline;
* targeted shapes: grouped partial aggregation (threads, the
  fork-based process backend *and* the persistent worker pool),
  combinable whole-input aggregates — including AVG, whose
  ``(total, count)`` partials combine to a float-bitwise-identical
  mean — the AND-HAVING fallback to Gather + serial aggregation,
  empty tables, and K larger than the row count;
* every corpus-inferred SQL statement, executed at K=4 (and again
  through the worker pool at K=2);
* the pool's table cache: a warm pool re-ships zero rows for an
  unchanged catalog, an append ships only the appended rows, every
  other mutation re-ships the whole table, and a driver/worker cache
  desync heals inside the pool.
"""

import re
import struct

import pytest

from repro.corpus.schema import create_wilos_database, populate_wilos
from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions

from test_planner_equivalence import BATTERY

PARTITION_COUNTS = (1, 2, 4)


def _stats_tuple(stats):
    return (stats.rows_scanned, stats.index_probes, stats.hash_joins,
            stats.nested_loop_joins, stats.index_scans, stats.full_scans)


def _assert_parallel_identical(db, sql, params=None,
                               partitions=PARTITION_COUNTS,
                               backend="threads", legacy=True):
    serial = db.execute(sql, params)
    references = [("serial planner", serial)]
    if legacy:
        references.append(
            ("seed pipeline",
             db.view(ExecutorOptions(planner=False)).execute(sql, params)))
    for k in partitions:
        view = db.view(ExecutorOptions(parallel=k,
                                       parallel_backend=backend))
        result = view.execute(sql, params)
        for label, reference in references:
            assert list(result.rows) == list(reference.rows), \
                (sql, k, backend, label)
            assert result.columns == reference.columns, (sql, k, label)
            assert _stats_tuple(result.stats) == \
                _stats_tuple(reference.stats), (sql, k, backend, label)


@pytest.fixture(scope="module")
def wilos_db():
    db = create_wilos_database()
    populate_wilos(db, n_users=50, n_roles=8, unfinished_fraction=0.3)
    db.insert_many("process", (
        {"id": i, "process_name": "proc%d" % i, "manager_id": i % 4}
        for i in range(6)))
    db.insert_many("role_descriptor", (
        {"id": i, "role_id": i % 8, "process_id": i % 6,
         "descriptor_name": "rd%d" % i} for i in range(25)))
    return db


@pytest.mark.parametrize("case", range(len(BATTERY)))
def test_battery_parallel_equivalence(case, wilos_db):
    sql, params = BATTERY[case]
    _assert_parallel_identical(wilos_db, sql, params)


@pytest.mark.parametrize("case", range(len(BATTERY)))
def test_battery_pool_equivalence(case, wilos_db):
    """The whole battery again, dispatched to the persistent worker
    pool — same rows, columns, and stats as the serial planner."""
    sql, params = BATTERY[case]
    _assert_parallel_identical(wilos_db, sql, params, partitions=(2,),
                               backend="pool")


# -- targeted shapes -----------------------------------------------------------


@pytest.fixture(scope="module")
def small_db():
    db = Database()
    db.create_table("r", ("id", "a"))
    db.create_table("s", ("id", "b"))
    db.create_index("s", "b")
    db.insert_many("r", ({"id": i, "a": i % 5} for i in range(23)))
    db.insert_many("s", ({"id": i, "b": i % 5} for i in range(11)))
    db.create_table("empty", ("id", "v"))
    return db


GROUPED = ("SELECT t0.a, COUNT(*) AS n, SUM(t0.id) AS tot, "
           "MIN(t0.id) AS lo, MAX(t0.id) AS hi "
           "FROM r t0 GROUP BY t0.a HAVING COUNT(*) > 2 ORDER BY n DESC")
WHOLE = ("SELECT COUNT(*) AS n, SUM(t0.id) AS tot, MIN(t0.id) AS lo, "
         "MAX(t0.id) AS hi FROM r t0, s t1 "
         "WHERE t0.a = t1.b AND t0.id > 2")


@pytest.mark.parametrize("backend", ["threads", "processes", "pool"])
def test_partial_aggregation_backends(small_db, backend):
    # GROUP BY only exists in the planner, so compare against the
    # serial planner alone.
    _assert_parallel_identical(small_db, GROUPED, backend=backend,
                               legacy=False)
    _assert_parallel_identical(small_db, WHOLE, backend=backend)


def test_partial_aggregation_lowering(small_db):
    view = small_db.view(ExecutorOptions(parallel=3))
    grouped_plan = view.explain(GROUPED)
    assert "PartialGroupBy(t0.a, partitions=3)" in grouped_plan
    whole_plan = view.explain(WHOLE)
    assert "PartialAggregate(whole input, partitions=3)" in whole_plan
    assert "Gather" not in whole_plan


@pytest.mark.parametrize("sql", [
    # AND short-circuits in HAVING; serial fallback.
    "SELECT t0.a, COUNT(*) AS n FROM r t0 GROUP BY t0.a "
    "HAVING COUNT(*) > 1 AND COUNT(*) < 5",
])
def test_non_combinable_aggregates_fall_back(small_db, sql):
    view = small_db.view(ExecutorOptions(parallel=3))
    plan = view.explain(sql)
    assert "Gather(partitions=3)" in plan
    assert "Partial" not in plan.replace("Partitioned", "")
    _assert_parallel_identical(small_db, sql, legacy=False)


AVG_GROUPED = ("SELECT t0.a, AVG(t0.id) AS m, COUNT(*) AS n FROM r t0 "
               "GROUP BY t0.a ORDER BY t0.a")
AVG_WHOLE = "SELECT AVG(t0.id) AS m FROM r t0 WHERE t0.id > 2"


def test_avg_lowers_to_partials(small_db):
    """AVG no longer forces the Gather fallback: its partial state is
    an exact ``(total, count)`` pair, so it combines like SUM/COUNT."""
    view = small_db.view(ExecutorOptions(parallel=3))
    assert "PartialAggregate" in view.explain(AVG_WHOLE)
    assert "PartialGroupBy" in view.explain(AVG_GROUPED)


@pytest.mark.parametrize("backend", ["threads", "processes", "pool"])
def test_avg_combines_bitwise_identical(small_db, backend):
    """The combined mean is float-*bitwise* identical to the serial
    fold on every backend, not merely approximately equal."""
    for sql in (AVG_GROUPED, AVG_WHOLE):
        serial = list(small_db.execute(sql).rows)
        for k in (2, 4):
            view = small_db.view(
                ExecutorOptions(parallel=k, parallel_backend=backend))
            got = list(view.execute(sql).rows)
            assert len(got) == len(serial), (sql, k)
            for mine, reference in zip(got, serial):
                for value, expected in zip(mine, reference):
                    if isinstance(expected, float):
                        assert struct.pack("<d", value) == \
                            struct.pack("<d", expected), (sql, k, backend)
                    else:
                        assert value == expected, (sql, k, backend)


@pytest.mark.parametrize("backend", ["threads", "processes", "pool"])
def test_nested_subquery_inside_partition(small_db, backend):
    """Per-row IN subqueries evaluated inside partition workers must
    execute with a *serial* nested plan: re-planning them parallel
    would build a substrate per probed row — and fork from inside a
    daemonic fork child on the process backend, which multiprocessing
    forbids."""
    in_agg = ("SELECT COUNT(*) AS n FROM r t0 WHERE t0.a IN "
              "(SELECT t1.b FROM s t1 WHERE t1.id = 1)")
    _assert_parallel_identical(small_db, in_agg, backend=backend)
    in_plain = ("SELECT t0.id FROM r t0 WHERE t0.a IN "
                "(SELECT t1.b FROM s t1 WHERE t1.id = 1)")
    _assert_parallel_identical(small_db, in_plain, backend=backend)


ORDERED = ("SELECT t0.id, t0.a FROM r t0, s t1 WHERE t0.a = t1.b "
           "ORDER BY t0.a DESC, t0.id")


def test_parallel_order_by_merges(small_db):
    """ORDER BY above the partition boundary runs as per-partition
    sorts + a k-way heap merge (GatherMerge), pinned identical to the
    serial sort — including tie order (t0.a has heavy duplicates)."""
    view = small_db.view(ExecutorOptions(parallel=3))
    plan = view.explain(ORDERED)
    assert "GatherMerge(partitions=3, t0.a DESC, t0.id)" in plan
    assert "Gather(" not in plan
    _assert_parallel_identical(small_db, ORDERED)


def test_parallel_order_by_top_k(small_db):
    sql = ORDERED + " LIMIT 4"
    view = small_db.view(ExecutorOptions(parallel=3))
    assert "top_k=4" in view.explain(sql)
    _assert_parallel_identical(small_db, sql, partitions=(2, 3, 64))


def test_parallel_sort_toggle_falls_back_to_gather(small_db):
    view = small_db.view(ExecutorOptions(parallel=3,
                                         parallel_sort=False))
    plan = view.explain(ORDERED)
    assert "GatherMerge" not in plan
    assert "Gather(partitions=3)" in plan and "Sort(" in plan
    result = view.execute(ORDERED)
    assert list(result.rows) == list(small_db.execute(ORDERED).rows)


def test_more_partitions_than_rows(small_db):
    _assert_parallel_identical(
        small_db, "SELECT t0.id FROM r t0 WHERE t0.a = 1",
        partitions=(4, 64))


def test_empty_table(small_db):
    _assert_parallel_identical(small_db, "SELECT * FROM empty")
    _assert_parallel_identical(
        small_db,
        "SELECT COUNT(*), SUM(t0.v) FROM empty t0", partitions=(2, 4))


def test_parallel_requires_planner():
    with pytest.raises(ValueError):
        Database(ExecutorOptions(planner=False, parallel=2))
    with pytest.raises(ValueError):
        Database(ExecutorOptions(parallel=0))


def test_partition_counts_in_analyze(small_db):
    view = small_db.view(ExecutorOptions(parallel=2))
    text = view.explain(
        "SELECT t0.id, t1.id FROM r t0, s t1 WHERE t0.a = t1.b",
        analyze=True)
    assert "Gather(partitions=2)" in text
    assert "parts=" in text
    # Per-partition counts sum to the operator's rows_out.
    for line in text.splitlines():
        match = re.search(r"\[rows=(\d+), parts=([\d|]+)\]", line)
        if match:
            total, parts = match.groups()
            assert sum(int(p) for p in parts.split("|")) == int(total)


# -- full-corpus equivalence ---------------------------------------------------


def test_full_corpus_sql_parallel(corpus_sql, app_dbs):
    assert len(corpus_sql) >= 40
    for fragment_id, app, sql in corpus_sql:
        db = app_dbs[app]
        params = {name: 1
                  for name in set(re.findall(r":(\w+)", sql))}
        legacy = "GROUP BY" not in sql
        _assert_parallel_identical(db, sql, params, partitions=(4,),
                                   legacy=legacy)


def test_full_corpus_sql_pool(corpus_sql, app_dbs):
    """Every corpus statement again through the worker pool; the warm
    pool serves repeated catalogs from its table cache."""
    for fragment_id, app, sql in corpus_sql:
        db = app_dbs[app]
        params = {name: 1
                  for name in set(re.findall(r":(\w+)", sql))}
        legacy = "GROUP BY" not in sql
        _assert_parallel_identical(db, sql, params, partitions=(2,),
                                   backend="pool", legacy=legacy)


# -- pool table cache ----------------------------------------------------------


def test_pool_reships_nothing_when_catalog_unchanged(small_db):
    """A warm pool sends only plan fragments: repeated queries over an
    unchanged catalog ship zero table rows (the cache-hit metric grows,
    the rows-shipped metric does not)."""
    from repro.service import pool as pool_mod
    view = small_db.view(ExecutorOptions(parallel=2,
                                         parallel_backend="pool"))
    sql = "SELECT t0.id, t1.id FROM r t0, s t1 WHERE t0.a = t1.b"
    view.execute(sql)  # cold: ships whatever isn't cached yet
    shipped_cold = pool_mod._ROWS_SHIPPED.total()
    hits_cold = pool_mod._CACHE_HITS.total()
    for _ in range(3):
        view.execute(sql)
    assert pool_mod._ROWS_SHIPPED.total() == shipped_cold
    assert pool_mod._CACHE_HITS.total() > hits_cold


def _holders(pool, table):
    """Workers whose cache holds ``table``'s current content."""
    digest = table.content_digest()
    return sum(digest in worker.cached for worker in pool._workers)


def test_pool_reships_after_catalog_mutation(small_db):
    """An insert bumps the table's content digest, so the next pool
    query ships that table again — only the appended rows, to every
    worker holding the previous version."""
    from repro.service import pool as pool_mod
    db = Database()
    db.create_table("m", ("id", "v"))
    db.insert_many("m", ({"id": i, "v": i % 3} for i in range(10)))
    view = db.view(ExecutorOptions(parallel=2, parallel_backend="pool"))
    sql = "SELECT t0.v, COUNT(*) AS n FROM m t0 GROUP BY t0.v"
    view.execute(sql)
    warm = pool_mod._ROWS_SHIPPED.total()
    view.execute(sql)
    assert pool_mod._ROWS_SHIPPED.total() == warm  # cached
    holders = _holders(pool_mod.get_pool(), db.table("m"))
    assert holders >= 1
    db.insert_many("m", ({"id": 100 + i, "v": i} for i in range(2)))
    result = view.execute(sql)
    assert pool_mod._ROWS_SHIPPED.total() == warm + 2 * holders
    assert list(result.rows) == list(db.execute(sql).rows)


@pytest.fixture
def two_workers():
    """A fresh two-worker process-wide pool: with K=2 every query uses
    both workers, so per-worker ship counts are exact on any box."""
    from repro.service import pool as pool_mod
    pool_mod.reset_pool()
    pool = pool_mod._POOL = pool_mod.WorkerPool(size=2)
    yield pool
    pool_mod.reset_pool()


def _shipped():
    from repro.service import pool as pool_mod
    return {kind: pool_mod._ROWS_SHIPPED.value(kind=kind)
            for kind in ("full", "append")}


def _shipped_since(before):
    now = _shipped()
    return {kind: now[kind] - before[kind] for kind in now}


def _versions_held(pool, table):
    """Per worker, how many versions of ``table`` its cache holds."""
    return [sum(held is not None and held.uid == table.uid
                for held in worker.cached.values())
            for worker in pool._workers]


APPEND_SQL = ("SELECT t0.v, COUNT(*) AS n, SUM(t0.id) AS tot "
              "FROM m t0 GROUP BY t0.v")


def _append_db(rows=40):
    db = Database()
    db.create_table("m", ("id", "v"))
    db.create_index("m", "v")
    db.insert_many("m", ({"id": i, "v": i % 4} for i in range(rows)))
    return db


def _assert_pool_matches_serial(db, view, sql):
    serial = db.execute(sql)
    result = view.execute(sql)
    assert list(result.rows) == list(serial.rows)
    assert result.columns == serial.columns
    assert _stats_tuple(result.stats) == _stats_tuple(serial.stats)
    assert result.stats.degradations == 0


def test_pool_ships_only_appended_rows(two_workers):
    db = _append_db()
    table = db.table("m")
    view = db.view(ExecutorOptions(parallel=2, parallel_backend="pool"))
    _assert_pool_matches_serial(db, view, APPEND_SQL)
    assert _holders(two_workers, table) == 2
    next_id = len(table)
    for appended in (1, 3, 7):
        before = _shipped()
        if appended == 1:
            db.insert("m", {"id": next_id, "v": 9})
        else:
            db.insert_many("m", ({"id": next_id + i, "v": i}
                                 for i in range(appended)))
        next_id += appended
        _assert_pool_matches_serial(db, view, APPEND_SQL)
        assert _shipped_since(before) == {"full": 0, "append": appended * 2}
        assert _versions_held(two_workers, table) == [1, 1]


def _create_index(db, table):
    db.create_index("m", "id")


def _analyze(db, table):
    db.analyze("m")


def _behind_api(db, table):
    from repro.tor.values import Record
    table.rows.append(Record({"id": 1000, "v": 2}))


def _index_and_behind_api(db, table):
    # One data_version bump and one extra row: the version and row
    # count deltas agree, so only the epoch tells this from an append.
    _create_index(db, table)
    _behind_api(db, table)


@pytest.mark.parametrize("mutate", [_create_index, _analyze, _behind_api,
                                    _index_and_behind_api],
                         ids=lambda f: f.__name__.strip("_"))
def test_pool_non_append_change_ships_whole_table(two_workers, mutate):
    db = _append_db()
    table = db.table("m")
    view = db.view(ExecutorOptions(parallel=2, parallel_backend="pool"))
    _assert_pool_matches_serial(db, view, APPEND_SQL)
    old = table.content_digest()
    before = _shipped()
    mutate(db, table)
    assert table.content_digest() != old
    _assert_pool_matches_serial(db, view, APPEND_SQL)
    assert _shipped_since(before) == {"full": len(table) * 2, "append": 0}
    # The superseded version was dropped, not left for the LRU.
    assert _versions_held(two_workers, table) == [1, 1]
    # The fresh epoch appends normally again.
    before = _shipped()
    db.insert("m", {"id": 2000, "v": 1})
    _assert_pool_matches_serial(db, view, APPEND_SQL)
    assert _shipped_since(before) == {"full": 0, "append": 2}


def test_pool_holds_one_version_per_table_over_append_cycles(two_workers):
    db = _append_db()
    db.create_table("other", ("k",))
    db.insert("other", {"k": 1})
    view = db.view(ExecutorOptions(parallel=2, parallel_backend="pool"))
    before = _shipped()
    for cycle in range(50):
        db.insert("m", {"id": 100 + cycle, "v": cycle % 5})
        _assert_pool_matches_serial(db, view, APPEND_SQL)
    current = {db.table(name).content_digest() for name in ("m", "other")}
    for worker in two_workers._workers:
        assert set(worker.cached) == current
    # One cold full ship of both tables, then one row per cycle each.
    assert _shipped_since(before) == {"full": (41 + 1) * 2,
                                      "append": 49 * 2}


def _desync_counts(action):
    from repro.service import pool as pool_mod
    before = (pool_mod._RETRIES.value(kind="corrupt_payload"),
              pool_mod._RESPAWNS.total(), _shipped())
    action()
    return {"retries": pool_mod._RETRIES.value(kind="corrupt_payload")
            - before[0],
            "respawns": pool_mod._RESPAWNS.total() - before[1],
            "shipped": _shipped_since(before[2])}


def test_pool_cache_desync_heals_without_degrading(two_workers):
    """A worker that lost a table the driver thinks it holds answers
    ``missing``; the driver forgets it and retries inside the pool, so
    no query degrades and the table is re-shipped exactly once."""
    db = _append_db()
    table = db.table("m")
    view = db.view(ExecutorOptions(parallel=2, parallel_backend="pool"))
    _assert_pool_matches_serial(db, view, APPEND_SQL)
    two_workers._workers[0].send("drop", table.content_digest())

    def reads():
        for _ in range(3):
            _assert_pool_matches_serial(db, view, APPEND_SQL)

    assert _desync_counts(reads) == {
        "retries": 1, "respawns": 0,
        "shipped": {"full": len(table), "append": 0}}
    assert _versions_held(two_workers, table) == [1, 1]


def test_pool_lost_extend_heals_with_full_ship(two_workers):
    db = _append_db()
    table = db.table("m")
    view = db.view(ExecutorOptions(parallel=2, parallel_backend="pool"))
    _assert_pool_matches_serial(db, view, APPEND_SQL)
    two_workers._workers[0].send("drop", table.content_digest())

    def append_then_reads():
        db.insert_many("m", ({"id": 500 + i, "v": i} for i in range(3)))
        for _ in range(2):
            _assert_pool_matches_serial(db, view, APPEND_SQL)

    assert _desync_counts(append_then_reads) == {
        "retries": 1, "respawns": 0,
        "shipped": {"full": len(table), "append": 3 * 2}}
    assert _versions_held(two_workers, table) == [1, 1]


def test_pool_misapplied_extend_heals_with_full_ship(two_workers,
                                                     monkeypatch):
    """Rows a worker cannot insert discard its copy; the next run
    reports the table missing and the retry ships it whole."""
    from repro.sql.catalog import Table
    db = _append_db()
    table = db.table("m")
    view = db.view(ExecutorOptions(parallel=2, parallel_backend="pool"))
    _assert_pool_matches_serial(db, view, APPEND_SQL)

    def append_then_reads():
        db.insert("m", {"id": 700, "v": 1})
        with monkeypatch.context() as patch:
            patch.setattr(Table, "rows_appended_since",
                          lambda self, version, nrows: [{"bogus": 1}])
            _assert_pool_matches_serial(db, view, APPEND_SQL)
        _assert_pool_matches_serial(db, view, APPEND_SQL)

    assert _desync_counts(append_then_reads) == {
        "retries": 2, "respawns": 0,
        "shipped": {"full": len(table) * 2, "append": 1 * 2}}
    assert _versions_held(two_workers, table) == [1, 1]
