"""One workload in a fresh interpreter: set up, run the timed passes, judge.

Run by ``run.py``; prints one JSON line.  With ``--setup-only`` it stops
at the point where the first timed operation would start and reports that
instant, so the caller can time the set-up a CLI user pays.  The
process-wide caches of the library start cold because the interpreter is
new, and later passes reuse them as a library session would.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _timed_passes(ops: list, seconds: float, tracer) -> dict:
    """Whole passes over ``ops`` until ``seconds`` of pass time have been
    spent.  One closed-loop client: each call starts when the previous one
    returned.  Keeps each operation's fastest repetition and each pass's
    wall time."""
    from ops import Raised
    from tracing import clock

    best = [math.inf] * len(ops)
    pass_times = []
    op_id = 0
    while sum(pass_times) < seconds:
        start = clock()
        for i, op in enumerate(ops):
            args = op.prepare() if op.prepare else op.args
            if tracer is not None:
                root = tracer.begin("op", None, op_id)
                child = tracer.begin(op.name, root, op_id)
            t0 = clock()
            try:
                out = op.fn(*args)
            except Exception as exc:  # the answer is judged after the timed phase
                out = Raised(type(exc), str(exc))
            best[i] = min(best[i], clock() - t0)
            if tracer is not None:
                tracer.end(child)
                tracer.end(root)
            op.record(out)
            op_id += 1
        pass_times.append(clock() - start)
    return {"best": best, "pass_times": pass_times}


def _nearest_rank(sorted_values: list, q: float) -> float:
    """The q-quantile as the value at rank ceil(q * n): always one
    operation's time, never a blend of two."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _judge(ops: list) -> dict:
    from garnorm.core import BudgetExhausted
    from ops import Raised

    failed = known = budget = 0
    by_layer = defaultdict(int)
    counts = defaultdict(int)
    reasons = []
    defects = set()
    exhausted = lambda o: isinstance(o, Raised) and issubclass(o.type, BudgetExhausted)
    for op in ops:
        n = op.judge()
        failed += n
        by_layer[op.layer] += n
        if op.known_defect is not None:
            known += n
            if n:
                defects.add(op.known_defect)
        elif n:
            reasons.append(f"{op.name}: {next(v for v in op.verdicts if v)}")
        if op.layer == "greedy":
            budget += (op.runs - len(op.others)) * exhausted(op.first)
            budget += sum(exhausted(o) for o in op.others)
        for key, value in op.counts.items():
            counts[f"{op.name}.{key}"] += value * op.runs
    return {"failed": failed, "known_defect_failed": known, "failed_by_layer": dict(by_layer),
            "budget_exhausted": budget, "counts": dict(counts), "reasons": reasons[:10],
            "known_defects": sorted(defects)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import garnorm
    import workloads
    from tracing import Tracer

    if Path(garnorm.__file__).resolve().parent != ROOT / "src" / "garnorm":
        print(f"garnorm imported from {garnorm.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    if tracer is None:
        call = lambda name, fn, *a: fn(*a)
        ops = workloads.build(args.workload, args.seed, call)
    else:
        setup = tracer.begin("setup")
        call = lambda name, fn, *a: tracer.call(name, fn, *a, parent=setup)
        ops = workloads.build(args.workload, args.seed, call)
        tracer.end(setup)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    run = _timed_passes(ops, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    best = sorted(run["best"])
    passes = len(run["pass_times"])
    result = {
        "ready": ready,
        "operations": len(ops),
        "attempted": len(ops) * passes,
        "passes": passes,
        "best_sum_s": sum(best),
        "first_pass_s": run["pass_times"][0],
        "median_pass_s": statistics.median(run["pass_times"]),
        "op_p50_ms": _nearest_rank(best, 0.50) * 1e3,
        "op_p90_ms": _nearest_rank(best, 0.90) * 1e3,
        "op_p99_ms": _nearest_rank(best, 0.99) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    result.update(_judge(ops))
    if tracer is not None:
        result["layers"] = tracer.layer_times()
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
