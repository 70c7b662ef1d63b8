"""The per-layer table: spans, engine counters and job outcomes.

Every number here comes from the traced run except ``ops.*`` and
``sched.*``, which come from the untraced run.  Where the program
already counts something, the number is the delta of its
``repro.obs.metrics`` counter or of ``Database.total_stats`` over the
timed ops.  Each ratio is reported beside its base.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs import metrics as obs_metrics

from qbsbench.common import Run
from qbsbench.tracer import SpanTable, Span

#: the entry points each workload must call; one never called means
#: the traced run measured nothing there, so the run fails instead.
EXPECTED_CALLS: Dict[str, Tuple[str, ...]] = {
    "synth_corpus": ("frontend", "synth.prepare", "synth.search", "prove",
                     "sqlgen"),
    "scan_mix": ("parse", "plan", "exec", "insert", "insert_many", "pool"),
}

#: synthesis-side engine counters read around the traced run.
ENGINE_COUNTERS = {
    "combinations": "repro_synthesis_combinations_total",
    "eval_requests": "repro_synthesis_eval_requests_total",
    "eval_executed": "repro_synthesis_eval_executed_total",
    "memo_hits": "repro_synthesis_eval_memo_hits_total",
    "nf_hits": "repro_prover_nf_cache_hits_total",
    "nf_misses": "repro_prover_nf_cache_misses_total",
}


def engine_counters() -> Dict[str, float]:
    return {key: obs_metrics.REGISTRY.get(name).total()
            for key, name in ENGINE_COUNTERS.items()}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(untraced: Run, baseline: Run, traced: Run,
                  spans: List[Span],
                  counters: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json for one workload.

    ``baseline`` is an untraced run under the traced run's settings;
    ``counters`` the engine counter deltas over the traced run.
    """
    t = SpanTable(spans)
    out: Dict[str, float] = {}
    out["ops.attempted"] = untraced.attempted
    out["ops.failed"] = untraced.failed
    out["ops.error_rate"] = untraced.error_rate

    # Synthesis side: every span of the run, per fragment job.
    jobs = traced.extra.get("jobs", 0)
    frontend = t.select("frontend")
    out["frontend.compile_ms"] = _ratio(t.inclusive(frontend) * 1e3, jobs)
    out["frontend.calls"] = len(frontend)
    out["frontend.rejected"] = sum(
        1 for span in frontend if span[6] == "raised:FrontendRejection")
    out["synth.jobs"] = jobs
    out["synth.prepare_ms"] = _ratio(
        t.inclusive(t.select("synth.prepare")) * 1e3, jobs)
    out["synth.search_ms"] = _ratio(
        t.own(t.select("synth.search")) * 1e3, jobs)
    for key in ("combinations", "eval_requests", "eval_executed",
                "memo_hits"):
        out["synth." + key] = counters[key]
    out["synth.memo_hit_ratio"] = _ratio(counters["memo_hits"],
                                         counters["eval_requests"])
    prove = t.select("prove")
    out["prove.validate_ms"] = _ratio(t.inclusive(prove) * 1e3, jobs)
    out["prove.calls"] = len(prove)
    out["prove.proved"] = sum(1 for span in prove if span[6] is True)
    out["prove.proved_ratio"] = _ratio(out["prove.proved"], len(prove))
    out["prove.nf_hits"] = counters["nf_hits"]
    out["prove.nf_misses"] = counters["nf_misses"]
    out["prove.nf_hit_ratio"] = _ratio(
        counters["nf_hits"], counters["nf_hits"] + counters["nf_misses"])
    sqlgen = t.select("sqlgen")
    out["sqlgen.translate_ms"] = _ratio(t.inclusive(sqlgen) * 1e3, jobs)
    out["sqlgen.calls"] = len(sqlgen)

    # Scheduler: the untraced run's job outcomes, per scheduler run.
    reports = untraced.extra.get("scheduler", [])
    workers = untraced.extra.get("workers", 1)
    idle = [workers * r.wall_seconds
            - sum(o.elapsed_seconds for o in r.outcomes) for r in reports]
    out["sched.idle_ms"] = _ratio(sum(idle) * 1e3, len(idle))
    out["sched.retries"] = sum(max(0, o.attempts - 1)
                               for r in reports for o in r.outcomes)
    out["sched.failed"] = sum(r.failed for r in reports)

    # SQL side: timed ops only, per read query.
    reads = traced.extra.get("reads", 0)
    out["sql.reads"] = reads
    parse = t.select("parse", timed_only=True)
    out["parse.calls"] = len(parse)
    out["parse.us"] = t.inclusive(parse) * 1e6
    plan = t.select("plan", timed_only=True)
    out["plan.calls"] = len(plan)
    out["plan.us_per_query"] = _ratio(t.inclusive(plan) * 1e6, reads)
    out["plan.calls_per_query"] = _ratio(len(plan), reads)
    execs = t.select("exec", timed_only=True)
    out["exec.calls"] = len(execs)
    out["exec.us_per_query"] = _ratio(t.own(execs) * 1e6, reads)
    before = traced.extra.get("stats_before", {})
    after = traced.extra.get("stats_after", {})
    stats = {key: after[key] - before[key] for key in after}
    out["exec.rows_scanned"] = stats.get("rows_scanned", 0)
    out["exec.rows_out"] = sum(
        span[6] for span in t.select("exec", True, not_under=("exec",)))
    out["exec.rows_scanned_per_row_out"] = _ratio(out["exec.rows_scanned"],
                                                  out["exec.rows_out"])
    for key in ("full_scans", "index_probes", "hash_joins",
                "nested_loop_joins", "degradations"):
        out["exec." + key] = stats.get(key, 0)

    writes = t.select("insert", True, not_under=("insert_many",)) \
        + t.select("insert_many", True, not_under=("insert",))
    out["catalog.write_ops"] = len(writes)
    out["catalog.rows_inserted"] = len(t.select("insert", True))
    out["catalog.insert_us"] = _ratio(t.inclusive(writes) * 1e6,
                                      len(writes))

    pool = t.select("pool", timed_only=True)
    out["pool.run_jobs_calls"] = len(pool)
    out["pool.run_jobs_ms_per_read"] = _ratio(t.inclusive(pool) * 1e3,
                                              reads)
    p_before = traced.extra.get("counters_before", {})
    p_after = traced.extra.get("counters_after", {})
    shipped = {key: p_after[key] - p_before[key] for key in p_after}
    for key in ("dispatches", "cache_hits", "cache_misses", "rows_shipped",
                "respawns", "retries"):
        out["pool." + key] = shipped.get(key, 0.0)
    out["pool.dispatches_per_read"] = _ratio(out["pool.dispatches"], reads)
    out["pool.cache_hit_ratio"] = _ratio(
        out["pool.cache_hits"],
        out["pool.cache_hits"] + out["pool.cache_misses"])
    out["pool.rows_shipped_per_read"] = _ratio(out["pool.rows_shipped"],
                                               reads)
    out["pool.rows_shipped_after_append"] = traced.extra.get(
        "shipped_after_append", 0.0)
    out["pool.rows_appended"] = traced.extra.get("rows_appended", 0)
    out["pool.reship_amplification"] = _ratio(
        out["pool.rows_shipped_after_append"], out["pool.rows_appended"])

    untraced_pass = baseline.metrics["pass_s"].value
    traced_pass = traced.metrics["pass_s"].value
    out["trace.pass_s_untraced"] = untraced_pass
    out["trace.pass_s_traced"] = traced_pass
    out["trace.overhead_ratio"] = _ratio(traced_pass, untraced_pass)
    out["trace.spans"] = len(spans)
    return out
