"""synth_corpus: the whole corpus through the QBS scheduler.

All 58 corpus fragments go through ``Scheduler(workers=usable_cores(),
cache=None)`` for a fixed number of passes, each pass in a seeded
order.  This is what a developer running ``repro-qbs run`` waits for:
frontend, synthesizer, prover, SQL generation and the scheduler do all
the work; the SQL engine and the worker pool do none.

Oracle: every job's status must equal the paper's Appendix-A outcome
and every pass must emit the same SQL; once per run, untimed, each
emitted SQL must return what the original ORM loop returns on a fixed
small database.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional

from repro.corpus.registry import ALL_FRAGMENTS, CorpusFragment
from repro.service.jobs import jobs_for
from repro.service.scheduler import Scheduler
from repro.sql.plan.parallel import usable_cores

from qbsbench.common import SETUP_REPEATS, Metric, Run, digest, \
    percentile
from qbsbench.loop_oracle import wrong_sql
from qbsbench.tracer import Tracer, maybe_paused, set_op

#: passes per second of ``--seconds``; a pass takes 0.9-1.5 s on 2 cores,
#: and the traced run repeats the sequence three times within 180 s.
PASSES_PER_SECOND = 0.5

#: what a ``repro-qbs run`` pays before its first job, in a fresh
#: interpreter: imports, job hashing (a frontend compile of every
#: fragment) and the scheduler.
COLD_START = (
    "from repro.corpus.registry import ALL_FRAGMENTS\n"
    "from repro.service.jobs import jobs_for\n"
    "from repro.service.scheduler import Scheduler\n"
    "from repro.sql.plan.parallel import usable_cores\n"
    "jobs_for(ALL_FRAGMENTS)\n"
    "Scheduler(workers=usable_cores(), cache=None)\n"
)


@dataclass
class Plan:
    seed: int
    scale: str
    fragments: List[CorpusFragment]
    orders: List[List[int]]


def make_plan(seed: int, seconds: int, scale: str = "full") -> Plan:
    rng = random.Random("synth_corpus:%d" % seed)
    fragments = list(ALL_FRAGMENTS)
    if scale == "tiny":
        fragments = [cf for cf in fragments
                     if cf.fragment_id in ("i5", "w17", "w20", "w33", "w40",
                                           "adv_sumsel")]
    passes = 2 if scale == "tiny" else \
        max(3, round(seconds * PASSES_PER_SECOND))
    orders = [rng.sample(range(len(fragments)), len(fragments))
              for _ in range(passes)]
    return Plan(seed, scale, fragments, orders)


def cold_start_seconds(root: str) -> float:
    """Wall time of one cold start in a child interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # No timeout: with one, the wait polls in steps of up to 50 ms, which
    # would quantize the measurement.
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_START], env=env, cwd=root,
                   check=True)
    return time.perf_counter() - start


def run(plan: Plan, tracer: Optional[Tracer] = None,
        workers: Optional[int] = None, root: Optional[str] = None) -> Run:
    """``root`` (the checkout) turns on the cold-start set-up timing."""
    out = Run("synth_corpus")
    workers = workers or usable_cores()
    # A cold start lasts well under a second and the host's speed drifts
    # over seconds, so the cold starts are spread between the passes
    # instead of run back to back.
    step = max(1, len(plan.orders) // SETUP_REPEATS)
    cold_before = set(range(0, len(plan.orders), step)[:SETUP_REPEATS]) \
        if root is not None else set()
    setups: List[float] = []
    jobs_for(plan.fragments)
    scheduler = Scheduler(workers=workers, cache=None)

    walls: List[float] = []
    jobs: List[float] = []
    reports = []
    first_sql: Dict[str, Optional[str]] = {}
    for pass_index, order in enumerate(plan.orders):
        if pass_index in cold_before:
            setups.append(cold_start_seconds(root))
        set_op(tracer, pass_index)
        report = scheduler.run([plan.fragments[i] for i in order])
        reports.append(report)
        walls.append(report.wall_seconds)
        for index, outcome in zip(order, report.outcomes):
            cf = plan.fragments[index]
            out.attempted += 1
            jobs.append(outcome.elapsed_seconds)
            result = outcome.result
            sql = result.sql.sql if result is not None and result.sql \
                else None
            out.outputs.append(digest((cf.fragment_id, outcome.state,
                                       result and result.status.value,
                                       sql)))
            if not outcome.ok:
                out.fail("%s: job failed (%s) %s" % (
                    cf.fragment_id, outcome.failure_kind, outcome.error))
            elif result.status is not cf.expected:
                out.fail("%s: %s, the paper says %s" % (
                    cf.fragment_id, result.status.value, cf.expected.value))
            elif first_sql.setdefault(cf.fragment_id, sql) != sql:
                out.fail("%s: SQL differs from the first pass"
                         % cf.fragment_id)
    set_op(tracer, "oracle")
    first = [(plan.fragments[i], outcome) for i, outcome
             in zip(plan.orders[0], reports[0].outcomes)]
    translated = [(cf, o.result) for cf, o in first
                  if o.ok and o.result.translated
                  and o.result.status is cf.expected]
    with maybe_paused(tracer):
        wrong = wrong_sql(translated)
    for fragment_id in sorted(wrong):
        for _ in plan.orders:
            out.fail("%s: SQL result differs from the original loop"
                     % fragment_id)

    jobs_done = len(jobs)
    out.put("work_per_s", jobs_done / sum(walls), jobs_done)
    out.put("op_tail_ms", percentile(jobs, 90) * 1e3, jobs_done)
    out.put("pass_s", median(walls), len(walls))
    if setups:
        out.put("setup_s", median(setups), len(setups))
    out.report_only["job_p50_ms"] = Metric(median(jobs) * 1e3, "ms",
                                           jobs_done)
    out.extra.update(scheduler=reports, jobs=jobs_done, workers=workers)
    return out

