"""Run one workload, untraced or traced, and build its result."""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from qbsbench import scan_mix, synth_corpus
from qbsbench.common import END_TO_END_UNITS, PER_LAYER_UNITS, SPEC, Run, \
    rss_peak_mb
from qbsbench.layers import EXPECTED_CALLS, engine_counters, layer_metrics
from qbsbench.tracer import Tracer, TracingError

WORKLOADS = {"synth_corpus": synth_corpus, "scan_mix": scan_mix}


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 root: str, scale: str = "full",
                 out_dir: Optional[str] = None
                 ) -> Tuple[Dict[str, Any], List[str]]:
    """The result object and the human-readable report lines."""
    module = WORKLOADS[name]
    plan = module.make_plan(seed, seconds, scale)
    if not trace:
        run = module.run(plan, **({"root": root}
                                  if name == "synth_corpus" else {}))
        run.put("rss_peak_mb", rss_peak_mb(), 1)
        metrics = {key: (run.metrics[key].value, run.metrics[key].unit)
                   for key in END_TO_END_UNITS}
        return _result(run, [run], metrics), _report(run, metrics)

    # The overhead is measured against an untraced run under the traced
    # run's settings (synth_corpus traces with one worker, so every call
    # runs where the wrappers see it).
    settings = {"workers": 1} if name == "synth_corpus" else {}
    untraced = module.run(plan)
    baseline = module.run(plan, **settings) if settings else untraced
    tracer = Tracer()
    tracer.install()
    before = engine_counters()
    try:
        traced = module.run(plan, tracer=tracer, **settings)
    finally:
        tracer.uninstall()
    after = engine_counters()
    _check_trace(name, tracer, [untraced, baseline], traced)
    values = layer_metrics(untraced, baseline, traced, tracer.spans,
                           {k: after[k] - before[k] for k in after})
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "spans-%s-seed%d.jsonl"
                                  % (name, seed)))
    metrics = {key: (values[key], unit)
               for key, unit in PER_LAYER_UNITS.items()}
    return (_result(untraced, [untraced, baseline, traced], metrics),
            _report(untraced, metrics, traced=True))


def _check_trace(name: str, tracer: Tracer, untraced: List[Run],
                 traced: Run) -> None:
    called = {span[1] for span in tracer.spans}
    missing = [entry for entry in EXPECTED_CALLS[name] if entry not in called]
    if missing:
        raise TracingError("%s: wrapped entry points never called: %s"
                           % (name, ", ".join(missing)))
    for run in untraced:
        if run.outputs != traced.outputs:
            first = next((i for i, (a, b) in enumerate(
                zip(run.outputs, traced.outputs)) if a != b),
                min(len(run.outputs), len(traced.outputs)))
            raise TracingError("%s: traced output of op %d differs from "
                               "the untraced run" % (name, first))


def _result(run: Run, runs: List[Run],
            metrics: Dict[str, Tuple[float, str]]) -> Dict[str, Any]:
    return {
        "correct": all(r.failed == 0 for r in runs),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }


def _report(run: Run, metrics: Dict[str, Tuple[float, str]],
            traced: bool = False) -> List[str]:
    lines = ["workload %s (%s)" % (run.workload,
                                   "per-layer, traced run" if traced
                                   else "end to end, untraced")]
    aliases = {} if traced else SPEC["workloads"][run.workload]["aliases"]
    for key, (value, unit) in metrics.items():
        name = "%s (%s)" % (key, aliases[key]) if key in aliases else key
        samples = "" if traced else "n=%d" % run.metrics[key].samples
        lines.append("  %-32s %14.6g %-6s %s" % (name, value, unit, samples))
    if run.report_only:
        lines.append("  report only, not gated:")
        for key, metric in run.report_only.items():
            lines.append("  %-32s %14.6g %-6s n=%d"
                         % (key, metric.value, metric.unit, metric.samples))
    lines.append("  %-32s %14.6g %-6s %d failed of %d attempted"
                 % ("error_rate", run.error_rate, "ratio", run.failed,
                    run.attempted))
    lines.append("  oracle: %s" % ("every op matched" if not run.failures
                                   else "MISMATCH"))
    lines.extend("    " + failure for failure in run.failures)
    return lines
