"""Persistent worker pool: spawn once, dispatch many.

The ``processes`` parallel backend pays a fresh ``fork_map`` per query
— per-query child forks, whole-heap copy-on-write, one result pipe per
partition.  For a stream of repeated parallel queries that startup cost
dominates.  :class:`WorkerPool` amortizes it: a fixed set of long-lived
worker processes, forked once, each speaking a length-prefixed pickle
protocol over a dedicated pipe pair.

**Wire protocol.**  Every frame is a 4-byte big-endian length followed
by a pickle of ``(kind, payload)``:

* ``("store", (digest, table))`` — driver → worker: cache ``table``
  under its content ``digest``.  No reply.
* ``("extend", (old_digest, new_digest, rows))`` — driver → worker:
  replay ``rows`` through ``Table.insert`` on the copy cached under
  ``old_digest`` and re-key it as ``new_digest``.  No reply; a worker
  that lacks ``old_digest`` (or cannot apply the rows) caches nothing,
  and the next ``run`` reports ``new_digest`` missing.
* ``("run", (job, plan, key, attempt))`` — driver → worker: execute
  ``job.run_in_worker(cache)`` after applying the shipped fault
  ``plan`` for ``(key, attempt)``.  Exactly one reply frame:
  ``("ok", result)``, ``("exc", exception)``, ``("missing",
  digests)`` (the job needs tables the worker does not cache) or
  ``("error", payload)`` (:func:`repro.service.faults.error_payload`,
  when the real reply will not pickle).
* ``("drop", digest)`` — driver → worker: evict one cached table.
* ``("shutdown", None)`` — driver → worker: exit cleanly.

**Catalog caching.**  Jobs carry only plan fragments plus a
``digest_map`` naming the tables they need by content digest
(:meth:`repro.sql.catalog.Table.content_digest`, versioned by the
catalog's schema version — together the ``(catalog_version, content
hash)`` cache key).  The driver tracks which digests each worker
holds and ships a table at most once per worker per content version:
a warm pool re-ships **zero** rows for an unchanged catalog.  When a
worker holds an older version of a table and every change since was
an append (:meth:`repro.sql.catalog.Table.rows_appended_since`), only
the appended rows travel, in an ``extend`` frame; otherwise the whole
table is stored again and the superseded version dropped, so a worker
holds at most one version per table.  A ``store`` or ``extend`` frame
is encoded once per :meth:`WorkerPool.run_jobs` call, however many
workers receive it.  Cache slots are bounded
(:data:`CACHE_TABLES_PER_WORKER`); the driver owns the LRU decision
and sends explicit ``drop`` frames so both sides stay in sync.  If
the two views drift apart anyway, the worker's ``missing`` reply
names the tables it lacks; the driver forgets them for that worker
and retries the job as :data:`~repro.service.faults.CORRUPT_PAYLOAD`,
which ships them whole.

**Faults.**  The pool is a substrate, so it degrades instead of
failing: a worker that dies mid-job (pipe EOF) is respawned and the
job retried under the pool's :class:`~repro.service.faults.RetryPolicy`;
a reply that will not decode retries as :data:`~repro.service.faults.
CORRUPT_PAYLOAD` without a respawn (the worker finished the frame —
it is healthy).  Exhausted budgets raise the typed fault, which the
degradation ladder in :func:`repro.sql.plan.parallel.run_tasks`
catches to fall one rung down (``pool → processes``).  Application
exceptions and deadline expiry propagate immediately, exactly like
the other backends.  Because pool workers are forked *once*, they do
not inherit fault plans installed after pool creation — the plan
rides inside each ``run`` frame and is applied worker-side, keeping
the chaos suites' per-partition injection semantics identical to
``fork_map``.

Everything here is stdlib-only.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import struct
import time
from collections import OrderedDict
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, \
    Sequence, Tuple

from repro.obs import metrics as obs_metrics
from repro.service import faults

#: cached tables per worker before the driver starts evicting LRU —
#: bounds worker memory across long query streams over many databases.
CACHE_TABLES_PER_WORKER = 64

#: grace period for a clean worker shutdown before SIGKILL.
_JOIN_GRACE = 5.0

_HEADER = struct.Struct(">I")

_WORKERS = obs_metrics.gauge(
    "repro_pool_workers", "Live worker processes in the persistent pool.")
_DISPATCHES = obs_metrics.counter(
    "repro_pool_dispatches_total",
    "Partition jobs dispatched to pool workers.")
_CACHE_HITS = obs_metrics.counter(
    "repro_pool_cache_hits_total",
    "Table ships skipped because the worker already cached the digest.")
_CACHE_MISSES = obs_metrics.counter(
    "repro_pool_cache_misses_total",
    "Tables shipped to a worker that did not hold the digest.")
_ROWS_SHIPPED = obs_metrics.counter(
    "repro_pool_rows_shipped_total",
    "Table rows serialized to pool workers (0 on a warm pool), "
    "labelled kind=full (whole table) or kind=append (new rows only).")
_RESPAWNS = obs_metrics.counter(
    "repro_pool_respawns_total",
    "Pool workers respawned after dying mid-job.")
_RETRIES = obs_metrics.counter(
    "repro_pool_retries_total",
    "Pool job retries, labelled by failure kind.")

# The gauge must appear on /metrics before the first pool is built.
_WORKERS.set(0.0)


# -- framing -------------------------------------------------------------------


def _encode(kind: str, payload: Any) -> bytes:
    return pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL)


def _write_frame(fd: int, payload: bytes) -> None:
    data = _HEADER.pack(len(payload)) + payload
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_exactly(fd: int, count: int) -> Optional[bytes]:
    """``count`` bytes from ``fd``, or None on EOF at a frame boundary.
    EOF mid-frame raises — a truncated frame is corruption, not a
    clean close."""
    chunks = []
    remaining = count
    while remaining:
        chunk = os.read(fd, remaining)
        if not chunk:
            if remaining == count and not chunks:
                return None
            raise EOFError("pipe closed mid-frame (%d of %d bytes short)"
                           % (remaining, count))
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_frame(fd: int) -> Optional[bytes]:
    header = _read_exactly(fd, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length == 0:
        return b""
    body = _read_exactly(fd, length)
    if body is None:
        raise EOFError("pipe closed between frame header and body")
    return body


# -- worker side ---------------------------------------------------------------


def _worker_main(recv_fd: int, send_fd: int) -> None:
    """Long-lived worker loop: read frames until shutdown/EOF."""
    faults.mark_child_process()
    # The worker was forked from the driver and may have inherited an
    # ambient trace span; partition spans must be detached, never
    # children of a stale driver-side tree.
    from repro.obs import trace as obs_trace
    obs_trace._ACTIVE.set(None)

    cache: Dict[str, Any] = {}
    while True:
        try:
            frame = _read_frame(recv_fd)
        except EOFError:
            os._exit(0)
        if frame is None:
            os._exit(0)
        try:
            kind, payload = pickle.loads(frame)
        except Exception as exc:
            # A request that will not decode: reply with a classified
            # error so the driver sees a typed failure, not a hang.
            reply = ("error", faults.error_payload(
                faults.CORRUPT_PAYLOAD,
                "worker could not decode request frame: %s" % exc))
            _write_frame(send_fd, pickle.dumps(
                reply, protocol=pickle.HIGHEST_PROTOCOL))
            continue
        if kind == "shutdown":
            os._exit(0)
        if kind == "store":
            digest, table = payload
            cache[digest] = table
            continue
        if kind == "extend":
            old, new, rows = payload
            table = cache.pop(old, None)
            if table is None:
                continue
            try:
                table.insert_many(rows)
            except Exception:
                continue  # half-applied: discard, ``run`` reports it
            cache[new] = table
            continue
        if kind == "drop":
            cache.pop(payload, None)
            continue
        # kind == "run"
        job, plan, key, attempt = payload
        faults.set_current_attempt(attempt)
        try:
            poisoned = faults.perturb(plan, key, attempt)
            missing = sorted(digest for digest in job.digest_map.values()
                             if digest not in cache)
            if poisoned is not None:
                reply = ("ok", poisoned)
            elif missing:
                reply = ("missing", missing)
            else:
                reply = ("ok", job.run_in_worker(cache))
        except BaseException as exc:  # ship it home, never die silently
            reply = ("exc", exc)
        try:
            encoded = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            tag = reply[0]
            kind_code = faults.CORRUPT_PAYLOAD if tag == "ok" \
                else faults.PERMANENT
            encoded = pickle.dumps(
                ("error", faults.error_payload(
                    kind_code, "pool reply for %r will not pickle: %s"
                    % (key, exc))),
                protocol=pickle.HIGHEST_PROTOCOL)
        _write_frame(send_fd, encoded)


# -- driver side ---------------------------------------------------------------


class _Held(NamedTuple):
    """The version of a table a worker caches under one digest."""

    uid: int
    version: int
    nrows: int


#: encoded ``store``/``extend`` frames of one ``run_jobs`` call, keyed
#: ``(old_digest, digest)`` with ``old_digest`` None for a full ship.
_Frames = Dict[Tuple[Optional[str], str], bytes]


class _PoolWorker:
    """One live worker process plus the driver's view of its cache."""

    def __init__(self, context) -> None:
        job_read, job_write = os.pipe()
        result_read, result_write = os.pipe()
        try:
            self.process = context.Process(
                target=_worker_main, args=(job_read, result_write),
                daemon=True)
            self.process.start()
        except BaseException:
            for fd in (job_read, job_write, result_read, result_write):
                try:
                    os.close(fd)
                except OSError:
                    pass
            raise
        os.close(job_read)
        os.close(result_write)
        self.send_fd = job_write
        self.recv_fd = result_read
        #: digests this worker caches, in LRU order (oldest first), each
        #: with the table version it names (None for a table without a
        #: ``uid``, which can only ever be shipped whole).
        self.cached: "OrderedDict[str, Optional[_Held]]" = OrderedDict()

    def send(self, kind: str, payload: Any) -> None:
        _write_frame(self.send_fd, _encode(kind, payload))

    def held_digest(self, uid: int) -> Optional[str]:
        """The digest of the version of table ``uid`` this worker
        caches, if any (there is at most one)."""
        for digest, held in self.cached.items():
            if held is not None and held.uid == uid:
                return digest
        return None

    def close_fds(self) -> None:
        for fd in (self.send_fd, self.recv_fd):
            try:
                os.close(fd)
            except OSError:
                pass

    def kill(self) -> None:
        self.close_fds()
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(_JOIN_GRACE)
            if self.process.is_alive():  # pragma: no cover - stuck worker
                self.process.kill()
                self.process.join(_JOIN_GRACE)

    def shutdown(self) -> None:
        try:
            self.send("shutdown", None)
        except OSError:
            pass
        self.close_fds()
        self.process.join(_JOIN_GRACE)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(_JOIN_GRACE)


class WorkerPool:
    """A fixed-size pool of long-lived partition workers.

    ``run_jobs`` is the one execution entry point: picklable jobs in,
    results in job order out, with table shipping, retries, respawns
    and deadline handling inside.  Jobs are dispatched
    longest-estimate-first (``job.est``), so on a busy pool the heavy
    partitions start earliest; results are slotted back by job index,
    which is what keeps pool output order-pinned to serial.
    """

    def __init__(self, size: Optional[int] = None,
                 retry: Optional[faults.RetryPolicy] = None,
                 cache_tables_per_worker: int = CACHE_TABLES_PER_WORKER):
        if size is None:
            from repro.sql.plan.parallel import usable_cores
            size = max(1, usable_cores())
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self.retry = retry if retry is not None else faults.RetryPolicy()
        self.cache_tables_per_worker = cache_tables_per_worker
        self._context = multiprocessing.get_context("fork")
        self._workers: List[_PoolWorker] = []
        self.closed = False

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self) -> _PoolWorker:
        try:
            return _PoolWorker(self._context)
        except Exception as exc:
            raise faults.SubstrateUnavailable(
                "cannot spawn pool worker: %s" % exc)

    def ensure_workers(self) -> None:
        """Bring the pool up to ``size`` live workers."""
        if self.closed:
            raise faults.SubstrateUnavailable("worker pool is closed")
        while len(self._workers) < self.size:
            self._workers.append(self._spawn())
        _WORKERS.set(float(len(self._workers)))

    def _scrap(self, worker: _PoolWorker) -> Optional[_PoolWorker]:
        """Kill a worker whose pipe state is unknown and replace it.
        Returns the replacement (None when respawn itself failed)."""
        worker.kill()
        if worker in self._workers:
            self._workers.remove(worker)
        _RESPAWNS.inc()
        replacement = None
        try:
            replacement = self._spawn()
            self._workers.append(replacement)
        except faults.SubstrateUnavailable:
            pass  # pool runs degraded; ensure_workers retries next time
        _WORKERS.set(float(len(self._workers)))
        return replacement

    def close(self) -> None:
        for worker in self._workers:
            worker.shutdown()
        self._workers = []
        self.closed = True
        _WORKERS.set(0.0)

    # -- dispatch ----------------------------------------------------------

    def _ship_tables(self, worker: _PoolWorker, job: Any,
                     tables: Mapping[str, Any], frames: _Frames) -> None:
        """Bring ``worker``'s cache up to every digest ``job`` needs,
        encoding each ``store``/``extend`` frame at most once per
        ``frames`` memo."""
        for digest in job.digest_map.values():
            if digest in worker.cached:
                worker.cached.move_to_end(digest)
                _CACHE_HITS.inc()
                continue
            table = tables[digest]
            _CACHE_MISSES.inc()
            uid = getattr(table, "uid", None)
            old = delta = held = None
            if uid is not None:
                held = _Held(uid, table.data_version, len(table.rows))
                old = worker.held_digest(uid)
            if old is not None:
                prior = worker.cached.pop(old)
                delta = table.rows_appended_since(prior.version, prior.nrows)
            if delta is not None:
                _ROWS_SHIPPED.inc(float(len(delta)), kind="append")
                key = (old, digest)
                if key not in frames:
                    frames[key] = _encode("extend", (old, digest, delta))
            else:
                if old is not None:
                    worker.send("drop", old)  # superseded, not appendable
                _ROWS_SHIPPED.inc(float(len(table.rows)), kind="full")
                key = (None, digest)
                if key not in frames:
                    frames[key] = _encode("store", (digest, table))
            _write_frame(worker.send_fd, frames[key])
            worker.cached[digest] = held
            while len(worker.cached) > self.cache_tables_per_worker:
                evicted, _ = worker.cached.popitem(last=False)
                worker.send("drop", evicted)

    def _dispatch(self, worker: _PoolWorker, job: Any,
                  tables: Mapping[str, Any], plan, attempt: int,
                  frames: _Frames) -> None:
        self._ship_tables(worker, job, tables, frames)
        worker.send("run", (job, plan, "part:%d" % job.part, attempt))
        _DISPATCHES.inc()

    def _collect(self, worker: _PoolWorker):
        """One reply from ``worker``: ``(tag, value)`` with tag
        ``ok``/``exc``/``error``, or a :class:`~repro.service.faults.
        TaskFault` instance when the transport itself failed."""
        try:
            frame = _read_frame(worker.recv_fd)
        except (EOFError, OSError) as exc:
            return faults.WorkerCrash(
                "pool worker died mid-reply: %s" % exc)
        if frame is None:
            code = self._exit_detail(worker)
            return faults.WorkerCrash(
                "pool worker died before replying%s" % code)
        try:
            return pickle.loads(frame)
        except Exception as exc:
            return faults.CorruptPayload(
                "pool reply would not decode: %s" % exc)

    @staticmethod
    def _exit_detail(worker: _PoolWorker) -> str:
        worker.process.join(0.5)
        code = worker.process.exitcode
        return "" if code is None else " (exit code %s)" % code

    # -- the run loop ------------------------------------------------------

    def run_jobs(self, jobs: Sequence[Any], tables: Mapping[str, Any],
                 deadline=None, plan=None, attempt: int = 1) -> List[Any]:
        """Execute ``jobs`` on the pool; results in job order.

        ``tables`` maps content digest -> Table for everything any
        job's ``digest_map`` references.  ``plan``/``attempt`` carry
        the installed fault plan and the degradation-ladder attempt
        into the workers (forked workers do not see plans installed
        after pool creation).  Raises the typed substrate fault when
        the retry budget is exhausted, application exceptions
        unchanged, and :class:`~repro.service.faults.DeadlineExceeded`
        on expiry.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        try:
            self.ensure_workers()
        except OSError as exc:  # pragma: no cover - fd exhaustion
            raise faults.SubstrateUnavailable(
                "cannot spawn pool worker: %s" % exc)
        results: List[Any] = [None] * len(jobs)
        # Longest estimate first; ties break on job index so dispatch
        # order is deterministic.  ``pending`` is popped from the end.
        pending = sorted(range(len(jobs)),
                         key=lambda i: (-(jobs[i].est or 0), i),
                         reverse=True)
        attempts = {index: attempt for index in range(len(jobs))}
        frames: _Frames = {}
        idle = list(self._workers)
        busy: Dict[_PoolWorker, int] = {}

        def fail_dispatch(worker: _PoolWorker, index: int,
                          exc: Exception) -> None:
            # The pipe state after a partial send is unknown: scrap.
            self._scrap(worker)
            raise faults.SubstrateUnavailable(
                "pool dispatch for partition %d failed: %s"
                % (jobs[index].part, exc))

        def retry_or_raise(index: int, kind: str,
                           fault: Exception) -> None:
            consumed = attempts[index]
            if not self.retry.allows_retry(kind, consumed):
                raise fault
            _RETRIES.inc(kind=kind)
            attempts[index] = consumed + 1
            backoff = self.retry.backoff(consumed)
            if backoff > 0:
                if deadline is not None:
                    deadline.check("pool retry backoff")
                time.sleep(backoff)
            pending.append(index)

        try:
            while pending or busy:
                while pending and idle:
                    worker = idle.pop(0)
                    index = pending.pop()
                    try:
                        self._dispatch(worker, jobs[index], tables, plan,
                                       attempts[index], frames)
                    except (OSError, pickle.PicklingError,
                            AttributeError, TypeError) as exc:
                        fail_dispatch(worker, index, exc)
                    busy[worker] = index
                if not busy:
                    # Only reachable when jobs remain but every worker
                    # died and could not be respawned.
                    raise faults.SubstrateUnavailable(
                        "no live pool workers for %d pending partitions"
                        % len(pending))
                by_fd = {worker.recv_fd: worker for worker in busy}
                timeout = None if deadline is None \
                    else max(0.0, deadline.remaining())
                readable, _, _ = select.select(list(by_fd), [], [], timeout)
                if not readable:
                    raise faults.DeadlineExceeded(
                        "pool deadline expired with %d/%d partitions "
                        "unfinished" % (len(busy) + len(pending), len(jobs)))
                for fd in readable:
                    worker = by_fd[fd]
                    index = busy.pop(worker)
                    outcome = self._collect(worker)
                    if isinstance(outcome, faults.WorkerCrash):
                        replacement = self._scrap(worker)
                        if replacement is not None:
                            idle.append(replacement)
                        retry_or_raise(index, faults.CRASH, outcome)
                        continue
                    if isinstance(outcome, faults.CorruptPayload):
                        # Full frame read: the worker is healthy, only
                        # the payload was poison.  Reuse it.
                        idle.append(worker)
                        retry_or_raise(index, faults.CORRUPT_PAYLOAD,
                                       outcome)
                        continue
                    tag, value = outcome
                    if tag == "ok":
                        results[index] = value
                        idle.append(worker)
                        continue
                    if tag == "missing":
                        # The driver's view of this worker's cache was
                        # wrong (a lost or mis-applied store/extend):
                        # forget those tables so the retry ships them
                        # whole.  The worker itself is healthy.
                        for digest in value:
                            worker.cached.pop(digest, None)
                        idle.append(worker)
                        retry_or_raise(index, faults.CORRUPT_PAYLOAD,
                                       faults.CorruptPayload(
                                           "pool worker cache is missing "
                                           "tables: %s" % ", ".join(value)))
                        continue
                    if tag == "error":
                        fault = faults.fault_from_payload(value)
                        if isinstance(fault, faults.CorruptPayload):
                            idle.append(worker)
                            retry_or_raise(index, faults.CORRUPT_PAYLOAD,
                                           fault)
                            continue
                        raise fault
                    # tag == "exc": an application exception — the
                    # ladder must not absorb it.
                    raise value
                if deadline is not None:
                    deadline.check("pool fan-out")
            return results
        except BaseException:
            # Any exit with jobs still in flight leaves replies queued
            # on the busy workers' pipes; scrap them so the next query
            # starts frame-aligned.
            for worker in list(busy):
                self._scrap(worker)
            raise


# -- process-wide pool ---------------------------------------------------------

_POOL: Optional[WorkerPool] = None


def get_pool() -> WorkerPool:
    """The process-wide pool, created (sized to
    :func:`~repro.sql.plan.parallel.usable_cores`) on first use."""
    global _POOL
    if _POOL is None or _POOL.closed:
        _POOL = WorkerPool()
    return _POOL


def reset_pool() -> None:
    """Shut the process-wide pool down (tests; re-created on demand)."""
    global _POOL
    if _POOL is not None:
        _POOL.close()
        _POOL = None


def refresh_worker_gauge() -> None:
    """Re-pin ``repro_pool_workers`` to the live worker count.  The
    import-time 0.0 sample can be dropped by a registry reset, so
    surfaces that expose the registry (the ops endpoint) re-assert it:
    a scraper should read "no pool" rather than a missing series."""
    if _POOL is not None and not _POOL.closed:
        _WORKERS.set(float(len(_POOL._workers)))
    else:
        _WORKERS.set(0.0)
