"""Reference answers per job, and the check of a job's payload against them.

References for the default seed are committed in references.json; any
other job is recounted once and kept in .refcache/ (ignored by git).  A
job whose recount cannot decide a point is checked by the program's own
invariants instead, and its reference says so; a census or udist job is
then also compared with the program's other route (`cross_route`).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import recount
import workloads

HERE = Path(__file__).resolve().parent
REFS_FILE = HERE / "references.json"
CACHE_DIR = HERE / ".refcache"


def recount_job(job: dict) -> dict:
    if job["cmd"] == "period8":
        return recount.period8(job["amax"])
    ang = recount.parse_angle(job["angle"])
    if job["cmd"] == "census":
        return recount.census(ang, job["M"], job["kind"], job["mode"], job["points"])
    if job["cmd"] == "udist":
        return recount.udist(ang, job["M"], Fraction(job["t1"]), Fraction(job["t2"]))
    return recount.sweep(ang, job["M"], job["mode"], job["max_steps"] or 10**6)


def _reference_uncached(job: dict) -> dict:
    try:
        return recount_job(job)
    except recount.RecountUndecided as exc:
        return {"invariants_only": str(exc)}


def reference(job: dict, committed: dict) -> dict:
    k = workloads.key(job)
    if k in committed:
        return committed[k]
    path = CACHE_DIR / (hashlib.sha1(k.encode()).hexdigest() + ".json")
    if path.is_file():
        return json.loads(path.read_text())["ref"]
    ref = _reference_uncached(job)
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"key": k, "ref": ref}))
    tmp.replace(path)
    return ref


def load_committed() -> dict:
    return json.loads(REFS_FILE.read_text()) if REFS_FILE.is_file() else {}


def cross_route(job: dict) -> dict | None:
    """The program's independent route to the same answer, for a census or
    udist job: the brute-force histogram (--oracle) for a characterization
    census and back, the residue counter for a direct udist count and back."""
    if job["cmd"] == "census":
        return {**job, "oracle": not job["oracle"]}
    if job["cmd"] == "udist":
        return {**job, "residue": not job["residue"]}
    return None


def with_cross_answer(job: dict, ref: dict, run_job) -> dict:
    """ref, plus the other route's answer when the recount could not decide.

    run_job(job) -> (payload or None, error text) runs the program once;
    it is called outside timed runs, once per benchmark run."""
    alt = cross_route(job) if "invariants_only" in ref else None
    if alt is None:
        return ref
    payload, err = run_job(alt)
    cross = {"route": workloads.key(alt)}
    if payload is None:
        cross["error"] = err or "failed"
    else:
        cross["answer"] = {"count": payload["count"]}
        if job["cmd"] == "census" and job["points"]:
            cross["answer"]["points"] = sorted(payload["points"])
    return {**ref, "cross": cross}


def _invariant_error(job: dict, payload: dict) -> str | None:
    cmd = job["cmd"]
    if cmd == "census" and "points" in payload and len(payload["points"]) != payload["count"]:
        return f"count {payload['count']} != {len(payload['points'])} points"
    if cmd == "sweep":
        total = sum(c for _, c in payload["histogram"]) + payload["undetermined"] + payload["escaped"]
        if total != (2 * job["M"] + 1) ** 2:
            return f"sweep covers {total} starts, not (2M+1)^2"
    if cmd == "period8" and payload["verified"] != payload["candidates"]:
        return "verified != candidates"
    return None


def _compare(want: dict, payload: dict, source: str) -> str | None:
    for name, value in want.items():
        if name == "points":
            got = sorted(payload.get("points", []))
        elif name == "violators":
            got = len(payload["violators"])
        else:
            got = payload.get(name)
        if got != value:
            if name == "points":
                diff = len({tuple(p) for p in got} ^ {tuple(p) for p in value})
                return f"point sets differ in {diff} points from {source}"
            return f"{name} {got!r} != {source} {value!r}"
    return None


def check(job: dict, ref: dict, payload: dict) -> str | None:
    """None when the payload answers the job correctly, else the reason."""
    err = _invariant_error(job, payload)
    if err or "invariants_only" not in ref:
        return err or _compare(ref, payload, "reference")
    if cross_route(job) is None:  # sweep or period8: the invariants are the check
        return None
    cross = ref.get("cross")
    if cross is None or "answer" not in cross:
        why = f"`{cross['route']}` failed: {cross['error']}" if cross else "no other route was run"
        return f"unchecked: the recount cannot decide ({ref['invariants_only']}) and {why}"
    return _compare(cross["answer"], payload, f"the route `{cross['route']}`")


def write_defaults() -> None:
    """Recount every job of the default seed into references.json."""
    refs = {}
    for name in workloads.WORKLOADS:
        for job in workloads.jobs(name, workloads.DEFAULT_SEED):
            refs[workloads.key(job)] = _reference_uncached(job)
    REFS_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_defaults()
