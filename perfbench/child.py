"""Run one workload once, in this fresh interpreter, and print its result.

``run.py`` starts one of these per repetition, so every run pays its own
imports and device construction and reports its own peak RSS (a
process high-water mark).  The last line of standard output is one JSON
object: the :class:`workloads.RunResult` fields, or with ``--role des``
epoch-loaded's reference runs (DES replay plus an audited run).

    python3 perfbench/child.py --workload node-mixed --seed 1 [--trace]
"""

import time

_ENTRY = time.monotonic()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("run", "des"), default="run")
    parser.add_argument("--trace", action="store_true", help="profile the timed run")
    parser.add_argument(
        "--t0", type=float, default=_ENTRY,
        help="monotonic start of the run (the parent's spawn time)",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, _SRC)
    import layers
    import workloads

    imported = time.monotonic()
    if args.role == "des":
        out = workloads.des_check(args.seed)
    else:
        profiler = cProfile.Profile() if args.trace else None
        result = workloads.run(args.workload, args.seed, args.t0, imported, profiler)
        if profiler is not None:
            stats = pstats.Stats(profiler)
            result.profile = {
                "fold": layers.fold(stats),
                "calls": layers.call_counts(stats),
                "total_self_s": layers.total_self(stats),
            }
        out = asdict(result)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
