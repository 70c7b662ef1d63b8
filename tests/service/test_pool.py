"""Unit tests for the persistent worker pool's moving parts.

The SQL-level contracts (equivalence, chaos, cache metrics) live in
``tests/sql/``; this file pins the pool mechanics in isolation: the
length-prefixed frame protocol, the driver-owned LRU table cache and
its explicit ``drop`` frames, append-delta ``extend`` frames,
longest-estimate-first dispatch, and the process-wide singleton
lifecycle.
"""

import os

import pytest

from repro.service import pool as pool_mod
from repro.service.pool import WorkerPool, get_pool, reset_pool
from repro.sql.catalog import Table


# -- framing -------------------------------------------------------------------


def test_frame_roundtrip_over_a_pipe():
    read_fd, write_fd = os.pipe()
    try:
        # Stay under the 64 KiB pipe buffer: there is no concurrent
        # reader here, so a larger frame would block the writer.
        for payload in (b"x", b"a" * 30000, b""):
            pool_mod._write_frame(write_fd, payload)
            assert pool_mod._read_frame(read_fd) == payload
    finally:
        os.close(read_fd)
        os.close(write_fd)


def test_eof_at_frame_boundary_reads_as_none():
    read_fd, write_fd = os.pipe()
    pool_mod._write_frame(write_fd, b"last")
    os.close(write_fd)
    try:
        assert pool_mod._read_frame(read_fd) == b"last"
        assert pool_mod._read_frame(read_fd) is None  # clean close
    finally:
        os.close(read_fd)


def test_eof_mid_frame_is_corruption_not_a_clean_close():
    read_fd, write_fd = os.pipe()
    # A header promising 100 bytes, then only 3 before the close.
    os.write(write_fd, pool_mod._HEADER.pack(100) + b"abc")
    os.close(write_fd)
    try:
        with pytest.raises(EOFError):
            pool_mod._read_frame(read_fd)
    finally:
        os.close(read_fd)


# -- worker-visible jobs (picklable; children inherit this module) -------------


class FakeTable:
    """Just enough of a Table for shipping: rows with a length."""

    def __init__(self, n):
        self.rows = [None] * n


class CacheKeysJob:
    """Returns the digests the *worker* currently caches — the ground
    truth the driver's LRU bookkeeping must match."""

    def __init__(self, part=0, digests=(), est=0):
        self.part = part
        self.digest_map = {"t%d" % i: d for i, d in enumerate(digests)}
        self.est = est

    def run_in_worker(self, cache):
        return sorted(key for key in cache if not key.startswith("_"))


class SeqJob:
    """Returns its worker-side execution sequence number."""

    def __init__(self, part, est):
        self.part = part
        self.est = est
        self.digest_map = {}

    def run_in_worker(self, cache):
        seq = cache.get("_seq", 0)
        cache["_seq"] = seq + 1
        return seq


def fingerprint(table):
    """Everything a worker's copy must share with the driver's table:
    rows in storage order, every index's buckets, the optimizer
    statistics and the data version."""
    columns = table.columns
    return (
        columns,
        [tuple(record[c] for c in columns) for record in table.rows],
        {column: {key: list(positions)
                  for key, positions in index._buckets.items()}
         for column, index in sorted(table.indexes.items())},
        table.stats.row_count,
        {column: (table.stats.ndv(column), table.stats.bounds(column))
         for column in columns},
        table.data_version,
    )


class FingerprintJob:
    """Returns the :func:`fingerprint` of the worker's cached copy."""

    def __init__(self, part, digest):
        self.part = part
        self.digest_map = {"t": digest}
        self.est = 0

    def run_in_worker(self, cache):
        return fingerprint(cache[self.digest_map["t"]])


@pytest.fixture
def one_worker_pool():
    pool = WorkerPool(size=1, cache_tables_per_worker=2)
    yield pool
    pool.close()


def test_empty_job_list_is_a_noop(one_worker_pool):
    assert one_worker_pool.run_jobs([], {}) == []


def test_lru_eviction_sends_drop_frames(one_worker_pool):
    """With 2 cache slots, shipping a third table must evict the least
    recently used digest on *both* sides: the driver's bookkeeping and
    the worker's actual cache (via an explicit ``drop`` frame)."""
    pool = one_worker_pool
    tables = {"d1": FakeTable(3), "d2": FakeTable(4), "d3": FakeTable(5)}
    assert pool.run_jobs([CacheKeysJob(digests=("d1", "d2"))],
                         tables) == [["d1", "d2"]]
    worker = pool._workers[0]
    assert list(worker.cached) == ["d1", "d2"]
    # d3 arrives; d1 is oldest and must go — from the worker too.
    assert pool.run_jobs([CacheKeysJob(digests=("d2", "d3"))],
                         tables) == [["d2", "d3"]]
    assert list(worker.cached) == ["d2", "d3"]


def test_cache_hit_refreshes_lru_order(one_worker_pool):
    """Re-using a digest moves it to the young end, so the *other*
    table is the one evicted next."""
    pool = one_worker_pool
    tables = {"d1": FakeTable(1), "d2": FakeTable(1), "d3": FakeTable(1)}
    pool.run_jobs([CacheKeysJob(digests=("d1", "d2"))], tables)
    pool.run_jobs([CacheKeysJob(digests=("d1",))], tables)  # touch d1
    pool.run_jobs([CacheKeysJob(part=1, digests=("d3",))], tables)
    assert list(pool._workers[0].cached) == ["d1", "d3"]  # d2 evicted


def test_warm_pool_ships_each_table_once(one_worker_pool):
    pool = one_worker_pool
    tables = {"d1": FakeTable(7)}
    shipped_before = pool_mod._ROWS_SHIPPED.total()
    for part in range(4):
        pool.run_jobs([CacheKeysJob(part=part, digests=("d1",))], tables)
    assert pool_mod._ROWS_SHIPPED.total() == shipped_before + 7.0


def _shipped(kind):
    return pool_mod._ROWS_SHIPPED.value(kind=kind)


def test_extend_matches_the_driver_copy_exactly():
    """After an append, each worker replays only the new rows and ends
    with rows, index buckets and statistics equal to the driver's."""
    table = Table("t", ("id", "g", "v"))
    table.create_index("g")
    table.insert_many({"id": i, "g": i % 3, "v": i * 7} for i in range(30))
    pool = WorkerPool(size=2)
    try:
        def fingerprints():
            digest = table.content_digest()
            jobs = [FingerprintJob(part, digest) for part in range(2)]
            return pool.run_jobs(jobs, {digest: table})

        assert fingerprints() == [fingerprint(table)] * 2
        full, append = _shipped("full"), _shipped("append")
        # New groups, a new maximum and a repeated key all move the
        # index and the statistics.
        table.insert({"id": 30, "g": 5, "v": 10 ** 6})
        table.insert_many({"id": 31 + i, "g": i % 4, "v": -i}
                          for i in range(4))
        assert fingerprints() == [fingerprint(table)] * 2
        assert _shipped("append") == append + 5 * 2
        assert _shipped("full") == full
        for worker in pool._workers:
            assert list(worker.cached) == [table.content_digest()]
    finally:
        pool.close()


def test_non_append_change_stores_whole_and_drops_old_version():
    table = Table("t", ("id", "v"))
    table.insert_many({"id": i, "v": i} for i in range(10))
    pool = WorkerPool(size=1)
    try:
        old = table.content_digest()
        pool.run_jobs([CacheKeysJob(digests=(old,))], {old: table})
        full, append = _shipped("full"), _shipped("append")
        table.create_index("v")
        table.insert({"id": 10, "v": 10})
        new = table.content_digest()
        assert pool.run_jobs([CacheKeysJob(digests=(new,))],
                             {new: table}) == [[new]]
        assert _shipped("full") == full + 11
        assert _shipped("append") == append
        assert list(pool._workers[0].cached) == [new]
    finally:
        pool.close()


def test_store_frame_is_encoded_once_per_run(monkeypatch):
    """Two workers receiving the same table share one encoded frame."""
    pool = WorkerPool(size=2)
    tables = {"d1": FakeTable(5)}
    stores = []
    encode = pool_mod._encode

    def counting_encode(kind, payload):
        if kind == "store":
            stores.append(payload[0])
        return encode(kind, payload)

    monkeypatch.setattr(pool_mod, "_encode", counting_encode)
    try:
        jobs = [CacheKeysJob(part=part, digests=("d1",))
                for part in range(2)]
        assert pool.run_jobs(jobs, tables) == [["d1"], ["d1"]]
        assert stores == ["d1"]
        assert all(list(w.cached) == ["d1"] for w in pool._workers)
    finally:
        pool.close()


def test_dispatch_is_longest_estimate_first(one_worker_pool):
    """On a single worker the execution order is fully observable: the
    job with the largest ``est`` runs first, ties break on index, and
    results still come back slotted in job order."""
    jobs = [SeqJob(part=0, est=1), SeqJob(part=1, est=5),
            SeqJob(part=2, est=3), SeqJob(part=3, est=5)]
    sequence = one_worker_pool.run_jobs(jobs, {})
    # est=5 (index 1), est=5 (index 3), est=3, est=1 — in job order the
    # sequence numbers land as below.
    assert sequence == [3, 0, 2, 1]


# -- singleton lifecycle -------------------------------------------------------


def test_get_pool_is_a_singleton_until_reset():
    reset_pool()
    first = get_pool()
    try:
        assert get_pool() is first
        assert not first.closed
    finally:
        reset_pool()
    assert first.closed
    replacement = get_pool()
    try:
        assert replacement is not first
    finally:
        reset_pool()


def test_closed_pool_refuses_new_work():
    from repro.service import faults

    pool = WorkerPool(size=1)
    pool.close()
    with pytest.raises(faults.SubstrateUnavailable):
        pool.run_jobs([SeqJob(part=0, est=0)], {})


def test_workers_gauge_tracks_pool_size():
    reset_pool()
    pool = WorkerPool(size=2)
    try:
        pool.ensure_workers()
        assert pool_mod._WORKERS.value() == 2.0
    finally:
        pool.close()
    assert pool_mod._WORKERS.value() == 0.0
