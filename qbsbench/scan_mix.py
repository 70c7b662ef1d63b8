"""scan_mix: warm analytic reads beside appends, on the worker pool.

A seeded integer fact table ``ev(id, a, g, v)`` (~30,000 rows) and a
50-row ``dim(g, tier)``, served under ``ExecutorOptions(parallel=
"auto", parallel_backend="pool")`` — the documented serving tier.
Set-up loads the data, starts a fresh pool and runs one warm read of
each shape.  The op sequence is a fixed number of 5-op cycles: one
``insert_many`` of 200 rows, then four reads rotating through a
filtered 4-aggregate, a ``GROUP BY g`` and a ``dim`` join grouped by
``tier``.  One client, closed loop, zero think time.

Oracle: a stdlib ``sqlite3`` mirror that receives the same rows and
appends; every read must equal it as a multiset of rows.
"""

from __future__ import annotations

import random
import sqlite3
import time
from collections import Counter
from dataclasses import dataclass
from statistics import median
from typing import Any, Dict, List, Optional

from repro.obs import metrics as obs_metrics
from repro.service.pool import reset_pool
from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions

from qbsbench.common import SETUP_REPEATS, Metric, Run, digest, \
    percentile, stats_of
from qbsbench.tracer import Tracer, set_op

SHAPES = (
    "SELECT COUNT(*), SUM(e.v), MIN(e.v), MAX(e.v) FROM ev AS e "
    "WHERE e.a < :lim",
    "SELECT e.g, COUNT(*), SUM(e.v) FROM ev AS e GROUP BY e.g",
    "SELECT d.tier, COUNT(*), SUM(e.v) FROM ev AS e, dim AS d "
    "WHERE e.g = d.g GROUP BY d.tier",
)
SIZES = {"full": {"rows": 30000, "append": 200},
         "tiny": {"rows": 5000, "append": 20}}
GROUPS = 50
OPS_PER_CYCLE = 5
#: cycles per second of ``--seconds``; one cycle takes 1.2-1.6 s.
CYCLES_PER_SECOND = 0.7


@dataclass
class Op:
    kind: str                    # "append" | "read"
    shape: int = -1
    params: Optional[Dict[str, Any]] = None
    rows: Optional[List[Dict[str, int]]] = None


@dataclass
class Plan:
    seed: int
    scale: str
    fact: List[Dict[str, int]]
    dim: List[Dict[str, int]]
    warm: List[Op]
    ops: List[Op]


def _fact_row(i: int, rng: random.Random) -> Dict[str, int]:
    return {"id": i, "a": rng.randrange(1000), "g": rng.randrange(GROUPS),
            "v": rng.randrange(10000)}


def _read(shape: int, rng: random.Random) -> Op:
    return Op("read", shape=shape,
              params={"lim": rng.randrange(400, 600)} if shape == 0
              else None)


def make_plan(seed: int, seconds: int, scale: str = "full") -> Plan:
    # The tables and the shape rotation are fixed, so every seed reads
    # each shape equally often; ``seed`` draws the appended rows and the
    # :lim values only.
    data = random.Random("scan_mix-data")
    sizes = SIZES[scale]
    fact = [_fact_row(i, data) for i in range(sizes["rows"])]
    dim = [{"g": g, "tier": data.randrange(5)} for g in range(GROUPS)]
    rng = random.Random("scan_mix:%d" % seed)
    cycles = 2 if scale == "tiny" else \
        max(3, round(seconds * CYCLES_PER_SECOND))
    next_id = len(fact)
    ops: List[Op] = []
    for cycle in range(cycles):
        rows = [_fact_row(next_id + j, rng) for j in range(sizes["append"])]
        next_id += len(rows)
        ops.append(Op("append", rows=rows))
        for j in range(OPS_PER_CYCLE - 1):
            read_index = cycle * (OPS_PER_CYCLE - 1) + j
            ops.append(_read(read_index % len(SHAPES), rng))
    warm = [_read(shape, rng) for shape in range(len(SHAPES))]
    return Plan(seed, scale, fact, dim, warm, ops)


def _setup(plan: Plan):
    """Fresh pool, load both tables, one warm read of each shape."""
    reset_pool()
    start = time.perf_counter()
    db = Database(ExecutorOptions(parallel="auto", parallel_backend="pool"))
    db.create_table("ev", ["id", "a", "g", "v"])
    db.create_table("dim", ["g", "tier"])
    db.insert_many("ev", plan.fact)
    db.insert_many("dim", plan.dim)
    for op in plan.warm:
        db.execute(SHAPES[op.shape], op.params)
    return time.perf_counter() - start, db


def _mirror(plan: Plan) -> sqlite3.Connection:
    mirror = sqlite3.connect(":memory:")
    mirror.execute("CREATE TABLE ev (id INTEGER, a INTEGER, g INTEGER, "
                   "v INTEGER)")
    mirror.execute("CREATE TABLE dim (g INTEGER, tier INTEGER)")
    _append(mirror, "ev", plan.fact)
    _append(mirror, "dim", plan.dim)
    return mirror


def _append(mirror: sqlite3.Connection, table: str, rows) -> None:
    columns = list(rows[0])
    mirror.executemany(
        "INSERT INTO %s (%s) VALUES (%s)" % (
            table, ", ".join(columns), ", ".join("?" * len(columns))),
        [tuple(row[c] for c in columns) for row in rows])


def _pool_counter(name: str) -> float:
    return obs_metrics.REGISTRY.get(name).total()


def run(plan: Plan, tracer: Optional[Tracer] = None) -> Run:
    out = Run("scan_mix")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            elapsed, db = _setup(plan)
            setups.append(elapsed)
        mirror = _mirror(plan)
        out.extra["counters_before"] = _counters()
        out.extra["stats_before"] = stats_of([db])
        _timed(out, plan, db, mirror, tracer)
        out.extra["stats_after"] = stats_of([db])
        out.extra["counters_after"] = _counters()
    finally:
        reset_pool()
    out.put("setup_s", median(setups), len(setups))
    return out


def _counters() -> Dict[str, float]:
    return {name: _pool_counter("repro_pool_%s_total" % name)
            for name in ("dispatches", "cache_hits", "cache_misses",
                         "rows_shipped", "respawns", "retries")}


def _timed(out: Run, plan: Plan, db: Database, mirror, tracer) -> None:
    warm: Dict[int, List[float]] = {s: [] for s in range(len(SHAPES))}
    after_write, appends = [], []
    cycles = [0.0] * (len(plan.ops) // OPS_PER_CYCLE)
    rows_covered = rows_appended = 0
    shipped_after_append = 0.0
    for op_id, op in enumerate(plan.ops):
        set_op(tracer, op_id)
        out.attempted += 1
        if op.kind == "append":
            start = time.perf_counter()
            try:
                db.insert_many("ev", op.rows)
            except Exception as exc:  # counted, never retried
                out.fail("append raised %s: %s" % (type(exc).__name__, exc))
                out.outputs.append("raised")
                continue
            elapsed = time.perf_counter() - start
            appends.append(elapsed)
            rows_appended += len(op.rows)
            _append(mirror, "ev", op.rows)
            out.outputs.append("a")
        else:
            sql = SHAPES[op.shape]
            shipped = _pool_counter("repro_pool_rows_shipped_total")
            start = time.perf_counter()
            try:
                result = db.execute(sql, op.params)
            except Exception as exc:  # counted, never retried
                out.fail("read %d raised %s: %s"
                         % (op.shape, type(exc).__name__, exc))
                out.outputs.append("raised")
                continue
            elapsed = time.perf_counter() - start
            got = Counter(tuple(row[c] for c in result.columns)
                          for row in result.rows)
            want = Counter(mirror.execute(sql, op.params or {}).fetchall())
            if got != want:
                out.fail("read %d differs from sqlite3" % op.shape)
            out.outputs.append(digest(sorted(got.items())))
            # Each cycle opens with its append, so its first read is the
            # first read after a write.
            if op_id % OPS_PER_CYCLE == 1:
                after_write.append(elapsed)
                shipped_after_append += \
                    _pool_counter("repro_pool_rows_shipped_total") - shipped
            else:
                warm[op.shape].append(elapsed)
                rows_covered += len(db.table("ev"))
        cycles[op_id // OPS_PER_CYCLE] += elapsed

    warm_reads = sum(len(times) for times in warm.values())
    busy = sum(sum(times) for times in warm.values())
    all_reads = after_write + [t for times in warm.values() for t in times]
    out.put("work_per_s", rows_covered / busy, warm_reads)
    # The first read after each append re-ships the grown table, so the
    # tail of all reads is set by those reads.
    out.put("op_tail_ms", percentile(all_reads, 90) * 1e3, len(all_reads))
    out.put("pass_s", median(cycles), len(cycles))
    # Each shape's warm reads fall into a fast and a slow cluster, so a
    # median jumps between them from run to run: report only.  The
    # shapes differ in cost, so take each shape's median and average.
    out.report_only["scan_p50_ms"] = Metric(
        sum(median(times) for times in warm.values()) / len(warm) * 1e3,
        "ms", warm_reads)
    out.report_only["scan_after_write_p50_ms"] = Metric(
        median(after_write) * 1e3, "ms", len(after_write))
    out.report_only["append_p50_ms"] = Metric(
        median(appends) * 1e3, "ms", len(appends))
    out.extra.update(
        reads=len(all_reads), writes=len(appends),
        rows_appended=rows_appended,
        shipped_after_append=shipped_after_append)
