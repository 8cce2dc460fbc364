"""Run one QRIO job-service benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm-steady --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Each measured run happens in a fresh interpreter started by this script, so
the process-global caches of ``repro.core.cache`` never carry over between
runs.  ``--trace 0`` prints the end-to-end metrics named in
``BENCHMARK.json``.  ``--trace 1`` makes one untraced run, then repeats the
same work with every layer's entry points wrapped (``tracing.py``), checks
that both runs routed and computed identically, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every result is also
appended, stamped with its environment, to ``perfbench/results/results.jsonl``
for ``compare.py``.

Exit codes: 0 for a result (check ``correct``), 2 when the program or the
benchmark definition is missing or a run crashed, 3 when the run was invalid
because the load generator fell behind its schedule.
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
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
#: Every run, both children included, must end within this many seconds.
RUN_BUDGET_S = 170.0
#: ``--workload all`` runs these; BENCHMARK.json lists the ones the
#: regression gate uses.
ALL_WORKLOADS = ("cold-mix", "warm-steady", "overload-burst", "trace-replay")


class BenchmarkError(RuntimeError):
    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def load_definition() -> Dict[str, object]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchmarkError(f"no BENCHMARK.json at {path}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def environment(versions: Dict[str, str]) -> Dict[str, object]:
    """The stamp every result carries; compare.py only compares equal stamps."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha: Optional[str] = None
    dirty: Optional[bool] = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
            ).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            sha = dirty = None
    return {
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "networkx": versions.get("networkx"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": sha,
        "git_dirty": dirty,
    }


# --------------------------------------------------------------------------- #
# Child side: one measured run in this (fresh) interpreter
# --------------------------------------------------------------------------- #
def child_main(args: argparse.Namespace) -> int:
    import networkx
    import numpy

    import workloads

    try:
        payload = workloads.run(args.workload, args.seed, args.seconds, args.jobs, bool(args.trace))
    except workloads.WorkloadError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    tracer = payload.pop("spans", None)
    if tracer is not None:
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write(os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    payload["versions"] = {"numpy": numpy.__version__, "networkx": networkx.__version__}
    print(json.dumps(payload))
    return 0


# --------------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------------- #
def spawn(workload: str, seed: int, seconds: float, trace: int, jobs: Optional[int], deadline: float) -> Dict:
    """Run one workload in a fresh interpreter and return its payload."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
    ]
    if jobs is not None:
        command += ["--jobs", str(jobs)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("no time left for the run")
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"{workload} run exceeded its {remaining:.0f} s budget") from error
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} run failed with exit code {completed.returncode}")
    return json.loads(lines[-1])


def end_to_end(payload: Dict) -> Dict[str, object]:
    """End-to-end metrics of an untraced payload, plus their side notes."""
    from stats import percentile, slo_met_fraction, tail_summary

    latencies = payload["latencies_ms"]
    attempted = payload["attempted"]
    tail, tail_pct, beyond = tail_summary(latencies) if latencies else (0.0, 0.0, 0)
    metrics = {
        "setup_s": statistics.median(payload["setup_s"]),
        "jobs_per_s": payload["done"] / payload["wall_s"],
        "latency_p50_ms": percentile(latencies, 50) if latencies else 0.0,
        "latency_tail_ms": tail,
        "slo_met_frac": slo_met_fraction(latencies, payload["slo_limit_ms"], attempted),
        "mean_fidelity": payload["mean_fidelity"],
        "peak_rss_mb": payload["peak_rss_mb"],
    }
    notes = {
        "latency_tail_ms": f"p{tail_pct:g}, {beyond} of {len(latencies)} samples beyond",
        "slo_met_frac": f"limit {payload['slo_limit_ms']:g} ms",
        "setup_s": f"median of {len(payload['setup_s'])} set-ups",
        "jobs_per_s": f"{payload['done']} done in {payload['wall_s']:.3f} s",
    }
    # Printed beside the gated metrics but not listed in BENCHMARK.json: its
    # spread over seeds exceeds any bound a gated metric may have.
    ungated = {"latency_tail_ms": "ms"}
    return {"metrics": metrics, "notes": notes, "ungated": ungated}


def signature_problems(workload: str, untraced: Dict, traced: Dict) -> List[str]:
    """Tracing must not change routing or results."""
    if workload == "overload-burst":
        # The capacity defect makes which jobs fail depend on timing, so
        # only jobs that ran on the same device in both runs are compared.
        problems = []
        for job, (device, digest) in untraced["per_job"].items():
            other = traced["per_job"].get(job)
            if other is not None and other[0] == device and other[1] != digest:
                problems.append(f"{job}: traced counts differ from untraced counts on {device}")
        return problems
    if untraced["signatures"] != traced["signatures"]:
        return [f"traced run's signatures {traced['signatures']} differ from untraced {untraced['signatures']}"]
    return []


def run_workload(workload: str, seed: int, seconds: float, trace: int, definition: Dict, deadline: float) -> Dict:
    """Run one workload (and its traced twin) and build the result record."""
    untraced = spawn(workload, seed, seconds, 0, None, deadline)
    if not untraced["valid"]:
        raise BenchmarkError(
            f"invalid run: load generator p99 lateness {untraced['late_p99_ms']:.1f} ms exceeds the limit", code=3
        )
    problems = list(untraced["checks"])
    e2e = end_to_end(untraced)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": bool(trace),
        "env": environment(untraced["versions"]),
        "attempted": untraced["attempted"],
        "failed": untraced["failed"] + untraced["refused"],
        "failures": untraced["failures"],
        "failed_frac": (untraced["failed"] + untraced["refused"]) / untraced["attempted"],
        "known_defects": untraced["known_defects"],
        "extras": untraced["extras"],
        "notes": e2e["notes"],
        "ungated": e2e["ungated"],
        # End-to-end values of the untraced run, the gated ones included.
        "end_to_end": e2e["metrics"],
    }
    if not trace:
        metrics = e2e["metrics"]
        names = [(metric["name"], metric["unit"]) for metric in definition["end_to_end"]]
    else:
        # Same work as the untraced run: its cold-mix jobs, one replay per trace.
        jobs = 2 if workload == "trace-replay" else untraced["attempted"]
        traced = spawn(workload, seed, seconds, 1, jobs, deadline)
        problems += traced["checks"] + signature_problems(workload, untraced, traced)
        metrics = {**untraced["event_metrics"], **traced["span_metrics"]}
        # Both runs did the same jobs; process CPU time per job does not
        # depend on how much queueing the extra cost caused.
        per_job = lambda payload: payload["cpu_s"] / payload["attempted"]  # noqa: E731
        metrics["trace.overhead_frac"] = per_job(traced) / per_job(untraced) - 1.0
        names = [(metric["name"], metric["unit"]) for metric in definition["per_layer"]]
    missing = [name for name, _ in names if name not in metrics]
    if missing:
        problems.append(f"metrics not produced: {missing}")
    record["metrics"] = {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in names}
    record["problems"] = problems
    record["correct"] = not problems
    return record


def render(record: Dict) -> str:
    lines = [
        f"== {record['workload']} seed={record['seed']} seconds={record['seconds']:g} "
        f"traced={int(record['traced'])}: {record['attempted']} attempted, {record['failed']} failed "
        f"(failed_frac {record['failed_frac']:.4f}) {record['failures'] or ''}"
    ]
    for name, metric in record["metrics"].items():
        note = record["notes"].get(name, "")
        lines.append(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']:<10} {note}")
    for name, unit in record["ungated"].items():
        value = record["end_to_end"][name]
        lines.append(f"  {name:<42} {value:>14.6g} {unit:<10} {record['notes'].get(name, '')} (untraced, not gated)")
    for key, value in sorted(record["extras"].items()):
        lines.append(f"  ({key} = {value})")
    for defect, jobs in sorted(record["known_defects"].items()):
        lines.append(f"  KNOWN DEFECT {defect}: {jobs} jobs (see perfbench/NOTES.md)")
    for problem in record["problems"]:
        lines.append(f"  CHECK FAILED: {problem}")
    return "\n".join(lines)


def save(record: Dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "results.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--jobs", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise BenchmarkError(f"the QRIO sources are missing (no {os.path.join(ROOT, 'src', 'repro')})")
        definition = load_definition()
        if args.workload == "all":
            correct = True
            for workload in ALL_WORKLOADS:
                try:
                    record = run_workload(
                        workload, args.seed, args.seconds, args.trace, definition,
                        time.monotonic() + RUN_BUDGET_S,
                    )
                except BenchmarkError as error:
                    print(f"== {workload}: {error}", flush=True)
                    correct = False
                    continue
                save(record)
                print(render(record), flush=True)
                correct = correct and record["correct"]
            return 0 if correct else 1
        if args.workload not in ALL_WORKLOADS:
            raise BenchmarkError(f"unknown workload {args.workload!r}; expected one of {list(ALL_WORKLOADS)}")
        record = run_workload(args.workload, args.seed, args.seconds, args.trace, definition, deadline)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return error.code
    save(record)
    print(render(record))
    for problem in record["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
