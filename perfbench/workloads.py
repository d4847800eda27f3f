"""The benchmark's workloads: fixed job lists, a few inputs drawn from the seed.

A job is a dict of CLI fields; `argv` turns it into the arguments of
`latrot.cli.main`, and the recount reads the same fields.  Seed 0 gives
the default inputs; any other seed draws the inputs marked "seeded".
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

DEFAULT_SEED = 0
WORKLOADS = ("scan", "redecide", "orbits")

# The float angles are not seeded.  Their exact re-decision cost differs
# several-fold between neighbours: at M=8 float atan2(3,4) costs about 3 s
# per pass, atan2(4,3) 0.6 s more, pi/6, pi/3 and other small triples
# 0.3-1.4 s; at M=64 float atan2(20,21) costs 24 s against 4.5 s for pi/4.
_FLOAT_ATAN_3_4 = "rad:~" + repr(math.atan2(3, 4))
_FLOAT_PI4 = "rad:~" + repr(math.pi / 4)
_CROSS_FIELD = "quad:sin=sqrt(3)/3,cos=sqrt(6)/3"


def _primitive_triples(q_max):
    out = []
    for u in range(2, math.isqrt(q_max) + 1):
        for v in range(1, u):
            q = u * u + v * v
            if q <= q_max and (u - v) % 2 and math.gcd(u, v) == 1:
                out.append((u * u - v * v, 2 * u * v, q))
    return sorted(out, key=lambda t: (t[2], t[0]))


def _seeded(seed):
    """Inputs the seed picks; seed 0 gives the defaults named in the docs."""
    if seed == DEFAULT_SEED:
        return {
            "triple": "pyth:20,21,29",
            "rad": "rad:~1.0",
            "box": (Fraction(1, 2), Fraction(1, 3)),
            "big_triple": "pyth:39999,400,40001",
        }
    rng = random.Random(seed)
    triples = [t for t in _primitive_triples(100) if t[2] != 5]
    a, b, q = rng.choice(triples)
    if rng.random() < 0.5:
        a, b = b, a
    # generic angles well inside the first quadrant, 4 decimals
    rad = f"rad:~{rng.uniform(0.2, 1.35):.4f}"
    box = tuple(Fraction(rng.randint(1, d - 1), d) for d in (rng.randint(2, 9), rng.randint(2, 9)))
    # q = u^2 + 1 > 32768 trips the int64 guard; for 196 <= u <= 208 the
    # job costs 0.96-1.18 s, while from u = 216 on it costs up to 2.7 s
    u = rng.randrange(196, 210, 2)
    return {
        "triple": f"pyth:{a},{b},{q}",
        "rad": rad,
        "box": box,
        "big_triple": f"pyth:{u * u - 1},{2 * u},{u * u + 1}",
    }


def _census(angle, M, kind, mode="floor", oracle=False, points=False):
    return {"cmd": "census", "angle": angle, "M": M, "kind": kind, "mode": mode,
            "oracle": oracle, "points": points}


def _udist(angle, M, box, residue=False):
    return {"cmd": "udist", "angle": angle, "M": M, "t1": str(box[0]), "t2": str(box[1]),
            "residue": residue}


def _sweep(angle, M, mode="floor", max_steps=None):
    return {"cmd": "sweep", "angle": angle, "M": M, "mode": mode, "max_steps": max_steps}


def jobs(workload: str, seed: int) -> list[dict]:
    s = _seeded(seed)
    if workload == "scan":
        out = []
        for angle in ("pi/2", "pi/4", "pi/6", "pyth:3,4,5", s["triple"], _CROSS_FIELD, s["rad"]):
            out += [_census(angle, 256, "collisions"), _census(angle, 256, "holes")]
        out += [
            _census("pyth:3,4,5", 512, "holes"),
            _census(s["rad"], 512, "collisions"),
            _census("pi/6", 256, "collisions", mode="round"),
            _census("pyth:3,4,5", 256, "holes", mode="trunc"),
            _census("pi/4", 256, "collisions", oracle=True),
        ]
        out += [_udist(a, 1000, s["box"]) for a in ("pi/6", "pyth:3,4,5", s["rad"])]
        out.append(_udist("pyth:3,4,5", 1000, s["box"], residue=True))
        return out
    if workload == "redecide":
        return [
            _census(_FLOAT_PI4, 64, "collisions", points=True),
            _census(_FLOAT_PI4, 64, "holes", points=True),
            _census(_FLOAT_ATAN_3_4, 8, "collisions", points=True),
            _census(_FLOAT_ATAN_3_4, 8, "holes", points=True),
            _census(s["big_triple"], 32, "collisions", points=True),
            _census(_FLOAT_PI4, 64, "collisions", oracle=True, points=True),
        ]
    if workload == "orbits":
        return [
            _sweep("pi/4", 300),
            _sweep("pyth:3,4,5", 200),
            _sweep("pi/4", 200, mode="trunc", max_steps=10000),
            _sweep(s["rad"], 200, mode="trunc", max_steps=10000),
            {"cmd": "period8", "amax": 1_000_000},
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def argv(job: dict) -> list[str]:
    """CLI arguments for one job, pinned to JSON output on one thread."""
    if job["cmd"] == "period8":
        args = ["period8", "--amax", str(job["amax"])]
    else:
        args = [job["cmd"], "--angle", job["angle"], "--M", str(job["M"])]
    if job["cmd"] == "census":
        args += ["--kind", job["kind"], "--mode", job["mode"]]
        args += ["--oracle"] * job["oracle"] + ["--emit-points"] * job["points"]
    elif job["cmd"] == "udist":
        args += ["--t1", job["t1"], "--t2", job["t2"]] + ["--residue"] * job["residue"]
    elif job["cmd"] == "sweep":
        args += ["--mode", job["mode"]]
        if job["max_steps"] is not None:
            args += ["--max-steps", str(job["max_steps"])]
    return args + ["--format", "json", "--threads", "1"]


def key(job: dict) -> str:
    return " ".join(argv(job)[:-4])


def lattice_points(job: dict) -> int:
    """Window lattice points the job answers: (2M+1)^2, or amax for period8."""
    return job["amax"] if job["cmd"] == "period8" else (2 * job["M"] + 1) ** 2
