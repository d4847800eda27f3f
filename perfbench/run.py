"""latrot benchmark: run one workload with one seed and print its metrics.

    python3 perfbench/run.py --workload scan --seed 0 --seconds 30 --trace 0

Run from the root of a latrot checkout; the program is imported from
src/.  The run:

1. builds the workload's job list from the seed (workloads.py) and looks
   up each job's reference answer, recounting it once if it is new
   (answers.py, recount.py) -- all before any timing;
2. starts one fresh worker process that runs the job list in passes for
   --seconds (worker.py); untraced, the worker starts fresh processes
   that only set up between its passes, for setup_s; with --trace 1 a
   warm-up pass and one untraced pass are followed by traced ones;
3. checks every answer and prints the metrics, each with the unit that
   BENCHMARK.json gives it: `name value unit` lines, then one JSON line
   with correct/attempted/failed/metrics.

A job fails when it raises, exits non-zero, or answers differently from
its reference.  `correct` is false when a job fails in a way not listed
in known_failures.json, the baseline findings recorded with the
benchmark.
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
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170
KNOWN_FAILURES = HERE / "known_failures.json"
SPEC = HERE.parent / "BENCHMARK.json"


def units() -> dict:
    """Unit of every metric, end-to-end and per-layer, as BENCHMARK.json names it."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _env() -> dict:
    """Environment of the measured processes: program from src/, pinned
    precision default, one thread."""
    env = {k: v for k, v in os.environ.items() if k != "LATTICE_ROT_PRECISION_BITS"}
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py with args; (monotonic start, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_env(), text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return started, json.loads(out.strip().splitlines()[-1])


def _machine(seed: int) -> dict:
    def version(mod):
        try:
            return __import__(mod).__version__
        except ImportError:
            return None

    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    # the ceiling keeps git from taking the commit of a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(Path.cwd().parent)}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                env=env, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath"), "seed": seed,
            "commit": commit}


def _check(jobs, refs, records, known):
    """(attempted, failed, failures not in known_failures.json, report lines)."""
    attempted = failed = 0
    lines, unexpected = [], 0
    for job, ref, rec in zip(jobs, refs, records):
        key = workloads.key(job)
        attempted += len(rec["warmup"]) + len(rec["times"]) + len(rec["traced_times"])
        for err in sorted(set(rec["errors"])):
            lines.append(f"FAILED {key}: {err}")
        failed += len(rec["errors"])
        unexpected += len(rec["errors"])
        for digest, payload, n in rec["payloads"]:
            reason = answers.check(job, ref, payload)
            if reason is None:
                continue
            failed += n
            if known.get(key, {}).get("digest") == digest:
                lines.append(f"FAILED {key}: {reason} (known baseline finding)")
            else:
                unexpected += n
                lines.append(f"FAILED {key}: {reason}")
        if len(rec["payloads"]) > 1:
            lines.append(f"FAILED {key}: {len(rec['payloads'])} different answers across passes")
            unexpected += 1
    return attempted, failed, unexpected, lines


def _layer_metrics(trace_passes, records) -> dict:
    per_pass = []
    for tp in trace_passes:
        m = dict(tp)
        m["trace.self_sum_frac"] = m.pop("trace.self_sum_s") / m["wall_s"]
        m["trace.wall_s"] = m.pop("wall_s")
        per_pass.append(m)
    out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    out["trace.untraced_wall_s"] = sum(statistics.median(rec["times"]) for rec in records)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (Path.cwd() / "src" / "latrot" / "cli.py").is_file():
        print("perfbench: run from the root of a latrot checkout (no src/latrot here)",
              file=sys.stderr)
        return 2

    unit = units()
    jobs = workloads.jobs(args.workload, args.seed)
    committed = answers.load_committed()

    def run_once(job):
        res = _spawn(["--job", json.dumps(job)], deadline)[1]
        return res["payload"], res["error"]

    refs = [answers.with_cross_answer(job, answers.reference(job, committed), run_once)
            for job in jobs]
    known = json.loads(KNOWN_FAILURES.read_text())

    _, res = _spawn(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    records = res["jobs"]

    attempted, failed, unexpected, lines = _check(jobs, refs, records, known)
    machine = _machine(args.seed)
    print("machine " + json.dumps(machine))
    for line in lines:
        print(line)
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} job runs)")

    if args.trace:
        metrics = _layer_metrics(res["trace"], records)
    else:
        wall = sum(statistics.median(rec["times"]) for rec in records)
        points = sum(workloads.lattice_points(job) for job in jobs)
        metrics = {
            "wall_s": wall,
            "lattice_pts_per_s": points / wall,
            "setup_s": statistics.median(res["setups"]),
            "peak_rss_mb": res["maxrss_kb"] / 1024,
        }
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit[name]}")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
