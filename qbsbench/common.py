"""Shared pieces: the metric lists, the run record, percentiles,
memory, digests."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
with open(os.path.join(HERE, "spec.json")) as _handle:
    SPEC = json.load(_handle)

#: metric name -> unit, in BENCHMARK.json order: the end-to-end metrics
#: every workload reports untraced, the per-layer ones it reports traced.
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

#: how many times each run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 5


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def rss_peak_mb() -> float:
    """Peak resident set of this process and of every reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def stats_of(dbs) -> Dict[str, int]:
    """Summed ``Database.total_stats`` counters of ``dbs``."""
    total: Dict[str, int] = {}
    for db in dbs:
        for name, value in vars(db.total_stats).items():
            total[name] = total.get(name, 0) + value
    return total


def digest(value: Any) -> str:
    """A short, stable fingerprint of one op's output."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Run:
    """Everything one execution of a workload's op sequence produced."""

    workload: str
    #: end-to-end metrics (END_TO_END_UNITS keys).
    metrics: Dict[str, Metric] = field(default_factory=dict)
    #: figures printed in the report but not gated.
    report_only: Dict[str, Metric] = field(default_factory=dict)
    #: per-op output fingerprints, in op order (traced == untraced).
    outputs: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: workload-specific raw figures the per-layer table is built from.
    extra: Dict[str, Any] = field(default_factory=dict)

    def put(self, name: str, value: float, samples: int) -> None:
        """Record generic end-to-end metric ``name``."""
        self.metrics[name] = Metric(value, END_TO_END_UNITS[name], samples)


    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
