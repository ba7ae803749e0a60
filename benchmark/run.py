"""garnorm benchmark: one workload, one seed, one closed-loop client.

    python3 benchmark/run.py --workload words --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``words`` (per-word rewriting and
sweeps), ``exhaustive`` (whole-table verdicts), ``actions`` (bisimulation
and growth of Mealy machines) and ``greedy`` (the word problem behind
greedy tables, through the shell's file formats).

Each workload runs in a fresh interpreter (``worker.py``) that builds its
operations from the seed, runs whole passes over them until ``--seconds``
of pass time are spent, and then checks every answer against the
benchmark's own oracles.  Every pass runs the same operations.  On a
virtual machine that shares its cores, a loop's speed can swing by a third
within a second, and interference only ever slows a call.  So each
operation is timed by its fastest repetition in the run, as ``timeit``
does: ``op_p50_ms``, ``op_p90_ms`` and ``op_p99_ms`` are nearest-rank
percentiles of these times over the operations, and ``ops_per_s`` is the
number of operations over their sum, the rate of one pass at full speed.
In ``greedy`` the first pass fills the session's memo, so these describe
a warm session; the first pass's wall time is a per-layer metric.  Set-up
is timed in further fresh interpreters, from process start to the instant
the first timed operation would begin, and reported as the median of
several.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then with a span around every library call,
and reports the per-layer metrics: set-up calls per run, timed-phase
calls, times and work counts per pass, the first and median pass times,
and the tracing overhead.  Spans are written to ``.bench_out/``.  Both
modes print a readable report with the environment, then one JSON line
with the metrics the mode reports.

The run is correct when every answer passes its oracle, except answers of
operations that probe a documented library defect: those count as failed
and are named in the report.  Exit status is 0 on a completed run,
whatever its verdicts, and non-zero when the run itself could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("words", "exhaustive", "actions", "greedy")
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0

#: Library calls the timed phase makes; each reports .calls, .busy_s, .self_s.
TIMED_CALLS = (
    "core.normalize", "machines.thurston_normalize", "machines.padding_normal_form",
    "core.verify_normalisation", "core.breadth", "core.condition_home",
    "core.unit_condition_failures", "machines.distinguishing_word", "machines.action_equal",
    "machines.growth", "machines.minimize", "greedy.greedy_table", "greedy.bounded_equal",
    "greedy.check_family_closure", "shell.parse_presentation", "shell.emit_table",
    "shell.parse_table",
)
#: Library calls made once at set-up.
SETUP_CALLS = ("gallery.gallery", "machines.build_mealy", "machines.build_thurston")
#: Work counts summed over the timed operations' inputs.
WORK_COUNTS = (
    "core.normalize.letters", "machines.thurston_normalize.letters",
    "machines.padding_normal_form.letters", "core.verify_normalisation.words",
    "machines.distinguishing_word.state_letters", "machines.action_equal.state_letters",
    "machines.growth.tuples",
)
LAYERS = ("core", "machines", "greedy", "shell")


def _commit() -> str:
    """The checked-out commit, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args, deadline: float, *extra: str) -> tuple[dict, float]:
    """Run worker.py in a fresh interpreter; return its JSON line and the
    monotonic instant just before it was started."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def _rate(res: dict) -> float:
    return res["operations"] / res["best_sum_s"]


def _end_to_end(res: dict, setups: list[float]) -> dict:
    return {
        "ops_per_s": (_rate(res), "1/s"),
        "op_p50_ms": (res["op_p50_ms"], "ms"),
        "op_p90_ms": (res["op_p90_ms"], "ms"),
        "op_p99_ms": (res["op_p99_ms"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_ratio": (1.0 - res["failed"] / res["attempted"], "ratio"),
    }


def _per_layer(res: dict, untraced: dict) -> dict:
    passes = res["passes"]
    timed, setup = res["layers"]["timed"], res["layers"]["setup"]
    out = {}
    for name in TIMED_CALLS:
        calls, busy, self_ = timed.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls / passes, "count")
        out[f"{name}.busy_s"] = (busy / passes, "s")
        out[f"{name}.self_s"] = (self_ / passes, "s")
    for name in SETUP_CALLS:
        calls, busy, self_ = setup.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.busy_s"] = (busy, "s")
        out[f"{name}.self_s"] = (self_, "s")
    for name in WORK_COUNTS:
        out[name] = (res["counts"].get(name, 0) / passes, "count")
    out["greedy.budget_exhausted"] = (res["budget_exhausted"] / passes, "count")
    for layer in LAYERS:
        out[f"{layer}.failed"] = (res["failed_by_layer"].get(layer, 0) / passes, "count")
    out["run.first_pass_s"] = (res["first_pass_s"], "s")
    out["run.median_pass_s"] = (res["median_pass_s"], "s")
    traced, plain = _rate(res), _rate(untraced)
    out["trace.ops_per_s"] = (traced, "1/s")
    out["trace.untraced_ops_per_s"] = (plain, "1/s")
    out["trace.overhead_pct"] = (100.0 * (plain - traced) / plain, "%")
    return out


def _report(args, res: dict, sections: list[tuple[str, dict]], samples: dict) -> None:
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, 1 client, no rate",
    }
    for key, value in env.items():
        print(f"env.{key} = {value}")
    print(f"run.operations = {res['operations']}")
    print(f"run.passes = {res['passes']}")
    print(f"run.attempted = {res['attempted']}")
    print(f"run.failed = {res['failed']} (known defect: {res['known_defect_failed']})")
    print(f"run.failed_ratio = {res['failed'] / res['attempted']:.6f}")
    for text in res["known_defects"]:
        print(f"run.known_defect = {text}")
    for text in res["reasons"]:
        print(f"run.failure = {text}")
    for title, metrics in sections:
        for name, (value, unit) in metrics.items():
            n = f" (n={samples[name]})" if name in samples else ""
            print(f"{title}.{name} = {value:.6g} {unit}{n}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one garnorm benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "garnorm" / "__init__.py").is_file():
        print(f"no garnorm source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            untraced, spawned = _worker(args, deadline)
            res, _ = _worker(args, deadline, "--trace", "1")
            metrics = _per_layer(res, untraced)
            plain = _end_to_end(untraced, [untraced["ready"] - spawned])
            sections = [("end_to_end", plain), ("per_layer", metrics)]
        else:
            setups = []
            for _ in range(SETUP_PROBES):
                probe, spawned = _worker(args, deadline, "--setup-only")
                setups.append(probe["ready"] - spawned)
            res, spawned = _worker(args, deadline)
            setups.append(res["ready"] - spawned)
            metrics = _end_to_end(res, setups)
            sections = [("end_to_end", metrics)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    n = res["operations"]
    samples = {"op_p50_ms": n, "op_p90_ms": n, "op_p99_ms": n,
               "setup_s": 1 if args.trace else SETUP_PROBES + 1}
    _report(args, res, sections, samples)
    print(json.dumps({
        "correct": res["failed"] == res["known_defect_failed"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
