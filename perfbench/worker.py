"""One measured process: set up, then run a workload's job list in passes.

    python3 perfbench/worker.py --workload scan --seed 0 --seconds 30 --trace 0
    python3 perfbench/worker.py --workload scan --seed 0 --setup-only
    python3 perfbench/worker.py --job '{"cmd": "period8", "amax": 1000}'

run.py starts it from the root of a checkout with PYTHONPATH=src and
reads the one JSON line it prints.  Set-up is the latrot import plus
parsing every job (which resolves its angle); `ready` is the monotonic
clock when set-up ends.  Each job goes through `latrot.cli.main`, one
after another on one thread, in passes until --seconds have passed and
at least MIN_PASSES passes ran; run.py takes each job's median time over
the passes, which also sets aside the slower first pass.  After each
untraced pass the worker waits for PROBES_PER_PASS fresh --setup-only
processes, one at a time, so the set-up probes are spread over the run
as the passes are.  With --trace 1 a warm-up pass and one untraced pass
are followed by passes under the tracer, so the tracing overhead is
measured against the same run.  --job runs one job once and prints its
payload.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import subprocess
import sys
import time

import workloads

MIN_PASSES = 4
PROBES_PER_PASS = 2


def _digest(payload) -> str:
    return hashlib.sha1(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv, out=out, err=err)
    except Exception as exc:  # a crash is a failed job, not a failed run
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    dt = time.perf_counter() - t0
    payload = None
    if rc == 0:
        try:
            payload = json.loads(out.getvalue())
            payload.pop("meta", None)
        except ValueError:
            rc = None
            err.write("output is not one JSON object")
    return dt, rc, payload, err.getvalue().strip()


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--job", help="run this one job (JSON fields) once and print its payload")
    args = p.parse_args()
    if args.job is None and (args.workload is None or args.seed is None):
        p.error("--workload and --seed are required without --job")

    from latrot import cli

    if args.job is not None:
        _, rc, payload, err = _run_job(cli, workloads.argv(json.loads(args.job)))
        print(json.dumps({"payload": payload if rc == 0 else None, "error": err}))
        return

    jobs = workloads.jobs(args.workload, args.seed)
    argvs = [workloads.argv(j) for j in jobs]
    for argv in argvs:
        cli.parse_args(argv)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    records = [{"warmup": [], "times": [], "traced_times": [], "errors": [], "payloads": {}}
               for _ in jobs]
    trace_passes = []
    setups = []

    def probe_setup():
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
        started = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True).stdout
        setups.append(json.loads(out.strip().splitlines()[-1])["ready"] - started)

    def one_pass(slot_name):
        for rec, argv in zip(records, argvs):
            dt, rc, payload, err = _run_job(cli, argv)
            rec[slot_name].append(dt)
            if rc != 0:
                rec["errors"].append(err or f"exit code {rc}")
                continue
            slot = rec["payloads"].setdefault(_digest(payload), {"payload": payload, "n": 0})
            slot["n"] += 1

    start = time.perf_counter()
    if not args.trace:
        while len(records[0]["times"]) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            one_pass("times")
            for _ in range(PROBES_PER_PASS):
                probe_setup()
    else:
        from tracer import Tracer

        tracer = Tracer()
        one_pass("warmup")
        one_pass("times")
        while not trace_passes or time.perf_counter() - start < args.seconds:
            with tracer:
                tracer.reset()
                t0 = time.perf_counter()
                one_pass("traced_times")
                trace_passes.append({"wall_s": time.perf_counter() - t0, **tracer.metrics()})

    for rec in records:
        rec["payloads"] = [[d, s["payload"], s["n"]] for d, s in rec["payloads"].items()]
    print(json.dumps({
        "ready": ready,
        "setups": setups,
        "jobs": records,
        "trace": trace_passes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))


if __name__ == "__main__":
    main()
