"""Fold a cProfile run's self time into the repository's layers.

A function's layer is the ``src/repro/<layer>/`` package its file lives
in, or ``bench`` for this benchmark's own files.  Functions with no such
file — C builtins such as ``heapq.heappush`` and stdlib Python code —
are charged to the layers that called them, in proportion to the self
time each caller edge recorded, following callers upward until a layer
is reached.  What still has no layer (a cycle or a top-level frame)
lands in ``other``, as do repro packages outside :data:`LAYERS`.

The fold conserves time: the values of :func:`fold` sum to the
profile's total self time.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Optional, Tuple

#: the src/repro packages the workloads reach, plus the bookkeeping
#: buckets; every one is reported, at zero when a workload misses it
LAYERS = ("sim", "ssd", "core", "engine", "node", "net", "workload", "obs")
BUCKETS = LAYERS + ("bench", "other")

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep

#: functions whose profiler call counts feed per-layer counts:
#: (file suffix, function name) -> count name
CALL_COUNTS = {
    (os.path.join("sim", "core.py"), "_resume"): "sim.resumes",
    (os.path.join("ssd", "device.py"), "_finish_fast_read"): "ssd.fast_finishes",
    (os.path.join("ssd", "device.py"), "_finish_fast_write"): "ssd.fast_finishes",
    (os.path.join("ssd", "device.py"), "epoch_read"): "ssd.epoch_ops",
    (os.path.join("ssd", "device.py"), "epoch_write"): "ssd.epoch_ops",
    (os.path.join("engine", "sstable.py"), "read_index_block"): "engine.table_reads",
    (os.path.join("engine", "sstable.py"), "read_value"): "engine.table_reads",
}

Func = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The bucket a source file belongs to, or None for builtins/stdlib."""
    if filename.startswith(_BENCH_DIR + os.sep):
        return "bench"
    idx = filename.rfind(_REPRO_MARK)
    if idx < 0:
        return None
    package = filename[idx + len(_REPRO_MARK):].split(os.sep, 1)[0]
    return package if package in LAYERS else "other"


def fold(stats: pstats.Stats) -> Dict[str, float]:
    """Self seconds per bucket; sums to the profile's total self time."""
    table = stats.stats
    memo: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, visiting: frozenset) -> Dict[str, float]:
        """Fractions of ``func``'s self time owed to each bucket."""
        own = layer_of(func[0])
        if own is not None:
            return {own: 1.0}
        if func in memo:
            return memo[func]
        callers = table[func][4] if func in table else {}
        weights = {
            caller: edge[2] for caller, edge in callers.items() if caller not in visiting
        }
        total = sum(weights.values())
        if total <= 0.0:
            # No self time on any edge: split by call counts instead.
            weights = {
                caller: edge[0] for caller, edge in callers.items() if caller not in visiting
            }
            total = sum(weights.values())
        result: Dict[str, float] = {}
        if total <= 0:
            result["other"] = 1.0
        else:
            inner = visiting | {func}
            for caller, weight in weights.items():
                for bucket, frac in shares(caller, inner).items():
                    result[bucket] = result.get(bucket, 0.0) + frac * weight / total
        if not visiting:
            memo[func] = result
        return result

    folded = {bucket: 0.0 for bucket in BUCKETS}
    for func, (_cc, _nc, tt, _ct, _callers) in table.items():
        if tt == 0.0:
            continue
        for bucket, frac in shares(func, frozenset()).items():
            folded[bucket] += tt * frac
    return folded


def call_counts(stats: pstats.Stats) -> Dict[str, int]:
    """Exact call counts of the functions named in :data:`CALL_COUNTS`."""
    counts = {name: 0 for name in set(CALL_COUNTS.values())}
    for (filename, _line, funcname), (_cc, nc, _tt, _ct, _callers) in stats.stats.items():
        if layer_of(filename) is None:
            continue
        for (suffix, name), count in CALL_COUNTS.items():
            if funcname == name and filename.endswith(suffix):
                counts[count] += nc
    return counts


def total_self(stats: pstats.Stats) -> float:
    return sum(entry[2] for entry in stats.stats.values())
