"""Tests of the benchmark itself: tracer, recount and run entry point.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import answers
import run
import workloads
from tracer import Tracer
from worker import _run_job

import latrot
from latrot import census, cli

FLOAT_PI4 = "rad:~" + repr(math.pi / 4)
BIG_Q = "pyth:39999,400,40001"


def _payload(job):
    dt, rc, payload, err = _run_job(cli, workloads.argv(job))
    assert rc == 0, err
    return payload


def _traced(job):
    with Tracer() as tracer:
        payload = _payload(job)
        return payload, tracer.metrics()


SMALL_JOBS = [
    workloads._census("pi/4", 12, "collisions", points=True),
    workloads._census("pi/6", 12, "holes", points=True),
    workloads._census(FLOAT_PI4, 8, "collisions", points=True),
    workloads._census("pyth:3,4,5", 12, "holes", mode="trunc"),
    workloads._census(BIG_Q, 4, "collisions", points=True),
    workloads._udist("rad:~1.0", 40, ("1/2", "1/3")),
    workloads._udist("pyth:3,4,5", 40, ("2/7", "5/9"), residue=True),
    workloads._sweep("pyth:3,4,5", 8),
    workloads._sweep("rad:~1.0", 8, mode="trunc", max_steps=10000),
    {"cmd": "period8", "amax": 3000},
]


@pytest.mark.parametrize("job", SMALL_JOBS, ids=workloads.key)
def test_traced_and_untraced_payloads_identical(job):
    plain = _payload(job)
    traced, metrics = _traced(job)
    assert traced == plain
    assert metrics["cli.self_s"] > 0


def test_tracer_restores_every_name():
    before = (cli.main, census.floor_exact, census.discrete_rotate, latrot.compare,
              latrot.kernels.QuadForm.floor, latrot.exactnum.HighPrec.eval)
    with Tracer():
        assert census.floor_exact is not before[1]
    after = (cli.main, census.floor_exact, census.discrete_rotate, latrot.compare,
             latrot.kernels.QuadForm.floor, latrot.exactnum.HighPrec.eval)
    assert after == before


def test_redecided_zero_on_exact_pi4_positive_on_float_pi4():
    _, exact = _traced(workloads._census("pi/4", 16, "collisions"))
    _, floated = _traced(workloads._census(FLOAT_PI4, 16, "collisions"))
    assert exact["census.redecided"] == 0
    assert exact["kernels.quad.pts"] > 0
    assert floated["census.redecided"] > 0
    assert 0 < floated["census.redecided_frac"] <= 1


def test_fallback_points_only_on_the_large_q_job():
    jobs = [
        workloads._census(FLOAT_PI4, 8, "collisions", points=True),
        workloads._census(FLOAT_PI4, 8, "holes", points=True),
        workloads._census("rad:~" + repr(math.atan2(3, 4)), 4, "collisions", points=True),
        workloads._census(BIG_Q, 4, "collisions", points=True),
    ]
    fallback = {job["angle"] + job["kind"]: _traced(job)[1]["kernels.fallback_pts"] for job in jobs}
    assert {k for k, v in fallback.items() if v > 0} == {BIG_Q + "collisions"}


def test_step_spans_count_orbit_steps():
    _, m = _traced(workloads._sweep("pi/4", 6))
    assert m["kernels.steps"] > 0 and m["orbits.starts"] == 13 * 13
    assert m["kernels.quad.pts"] == m["kernels.float.pts"] == 0


EXACT_ANGLES = ["pi/2", "pi/4", "pi/6", "pyth:3,4,5", "pyth:20,21,29", BIG_Q,
                "quad:sin=sqrt(3)/3,cos=sqrt(6)/3"]


@pytest.mark.parametrize("angle", EXACT_ANGLES)
def test_recount_agrees_with_program_on_exact_angles(angle):
    jobs = [workloads._census(angle, 10, kind, mode, points=True)
            for kind in ("collisions", "holes") for mode in ("floor", "round", "trunc")]
    jobs.append(workloads._udist(angle, 30, ("1/2", "1/3")))
    jobs.append(workloads._sweep(angle, 6, mode="trunc", max_steps=10000))
    for job in jobs:
        ref = answers.recount_job(job)
        assert answers.check(job, ref, _payload(job)) is None, workloads.key(job)


def test_recount_agrees_on_sweeps_and_period8():
    for job in (workloads._sweep("pi/4", 20), workloads._sweep("pyth:3,4,5", 12),
                {"cmd": "period8", "amax": 5000}):
        ref = answers.recount_job(job)
        assert answers.check(job, ref, _payload(job)) is None, workloads.key(job)


def test_check_reports_a_wrong_count_and_a_wrong_point_set():
    job = workloads._census("pi/4", 4, "holes", points=True)
    ref = answers.recount_job(job)
    good = _payload(job)
    assert answers.check(job, ref, good) is None
    assert "count" in answers.check(job, ref, {**good, "count": good["count"] + 1})
    moved = {**good, "points": [[99, 99]] + good["points"][1:]}
    assert "point sets differ" in answers.check(job, ref, moved)


def test_seeded_jobs_are_deterministic_and_default_seed_is_named():
    for name in workloads.WORKLOADS:
        assert workloads.jobs(name, 7) == workloads.jobs(name, 7)
    keys = {workloads.key(j) for j in workloads.jobs("scan", workloads.DEFAULT_SEED)}
    assert "census --angle pyth:20,21,29 --M 256 --kind holes --mode floor" in keys
    assert "udist --angle rad:~1.0 --M 1000 --t1 1/2 --t2 1/3" in keys


def test_committed_references_cover_the_default_seed():
    committed = answers.load_committed()
    for name in workloads.WORKLOADS:
        for job in workloads.jobs(name, workloads.DEFAULT_SEED):
            assert workloads.key(job) in committed


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(answers.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("tests", ".refcache", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def _run_once(job):
    dt, rc, payload, err = _run_job(cli, workloads.argv(job))
    return (payload if rc == 0 else None), err


def test_undecided_census_and_udist_are_checked_by_the_other_route():
    for job in (workloads._census("pi/6", 10, "collisions", points=True),
                workloads._census("pi/6", 10, "holes", oracle=True),
                workloads._udist("pyth:3,4,5", 30, ("1/2", "1/3"))):
        ref = answers.with_cross_answer(job, {"invariants_only": "undecided"}, _run_once)
        assert ref["cross"]["route"] == workloads.key(answers.cross_route(job))
        good = _payload(job)
        assert answers.check(job, ref, good) is None
        assert "count" in answers.check(job, ref, {**good, "count": good["count"] + 1})


def test_undecided_job_without_a_working_route_is_unchecked():
    job = workloads._udist("rad:~1.0", 20, ("1/2", "1/3"))
    payload = _payload(job)
    ref = answers.with_cross_answer(job, {"invariants_only": "undecided"},
                                    lambda alt: (None, "no residue route"))
    assert answers.check(job, ref, payload).startswith("unchecked")
    assert answers.check(job, {"invariants_only": "undecided"}, payload).startswith("unchecked")
    sweep = workloads._sweep("pi/4", 4)
    assert answers.with_cross_answer(sweep, {"invariants_only": "x"}, None) == {"invariants_only": "x"}
    assert answers.check(sweep, {"invariants_only": "x"}, _payload(sweep)) is None


def test_every_printed_metric_has_its_unit_in_benchmark_json():
    unit = run.units()
    _, m = _traced(workloads._census("pi/4", 8, "collisions"))
    layer = run._layer_metrics([{"wall_s": 1.0, **m}], [{"times": [0.5]}])
    spec = json.loads(run.SPEC.read_text())
    assert set(layer) == {e["name"] for e in spec["per_layer"]}
    assert {e["name"] for e in spec["end_to_end"]} == {
        "wall_s", "lattice_pts_per_s", "setup_s", "peak_rss_mb"}
    assert set(unit) >= set(layer)


def test_machine_records_the_commit_or_unknown(tmp_path, monkeypatch):
    repo = answers.HERE.parent
    if (repo / ".git").exists() and shutil.which("git"):
        monkeypatch.chdir(repo)
        commit = run._machine(0)["commit"]
        assert len(commit) == 40 and int(commit, 16) >= 0
    monkeypatch.chdir(tmp_path)
    assert run._machine(0)["commit"].startswith("unknown")
