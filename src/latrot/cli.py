"""Command-line front end.

Subcommands map one-to-one onto the library: classify, census, growth,
udist, pyth, orbit, sweep, period8.  Output is a single CSV (default)
or JSON report on stdout; diagnostics go to stderr.  Exit codes:
0 success, 1 computational error (undecidable precision, caps, ...),
2 usage error.

Each handler builds its JSON payload and its CSV rows and hands both to
_write, the one place that picks the format and builds the JSON "meta"
block.  Output is byte-identical across runs for identical inputs,
except the timing: JSON isolates elapsed_ms, with the scan counters, in
"meta", CSV carries it as the spec'd trailing column of census.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from contextlib import contextmanager

from . import census as census_mod
from . import orbits as orbits_mod
from . import udist as udist_mod
from .angle import context_from_text, context_to_dict
from .census import CensusKind
from .errors import LatrotError
from .exactnum import _ENV_BITS, format_scalar, parse_scalar
from .rotation import RoundingMode
from .udist import InequalityBox, Parity


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


_MODES = {m.value: m for m in RoundingMode}
_KINDS = {k.value: k for k in CensusKind}

_CONFIG_KEYS = {"threads", "format", "oracle_cap", "max_steps", "max_radius",
                "precision_bits"}


@functools.cache  # one parser per process: parsing leaves it unchanged
def build_parser() -> _Parser:
    p = _Parser(prog="latrot", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument("--threads", type=int, default=None)
    common.add_argument("--config", default=None)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_parser(name):
        return sub.add_parser(name, parents=[common])

    def angle_arg(sp):
        sp.add_argument("--angle", required=True,
                        help="pi/4 | pi*3/4 | 0 | pyth:3,4,5 | "
                             "quad:sin=...,cos=... | rad:~1.0")

    sp = add_parser("classify")
    angle_arg(sp)

    sp = add_parser("census")
    angle_arg(sp)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--kind", choices=sorted(_KINDS), required=True)
    sp.add_argument("--mode", choices=sorted(_MODES), default="floor")
    sp.add_argument("--oracle", action="store_true",
                    help="force the brute-force method")
    sp.add_argument("--emit-points", action="store_true")
    sp.add_argument("--points-file", default=None)
    sp.add_argument("--oracle-cap", type=int, default=None)
    sp.add_argument("--pairs", action="store_true",
                    help="also report the colliding-pair count")

    sp = add_parser("growth")
    angle_arg(sp)
    sp.add_argument("--Ms", required=True, help="comma-separated, increasing")
    sp.add_argument("--kind", choices=sorted(_KINDS), required=True)
    sp.add_argument("--mode", choices=sorted(_MODES), default="floor")
    sp.add_argument("--oracle", action="store_true",
                    help="force the brute-force method")
    sp.add_argument("--oracle-cap", type=int, default=None)

    sp = add_parser("udist")
    angle_arg(sp)
    sp.add_argument("--t1", required=True)
    sp.add_argument("--t2", required=True)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--parity", choices=("all", "oddodd"), default="all")
    sp.add_argument("--residue", action="store_true",
                    help="use the residue-class counter (rational angles)")

    sp = add_parser("pyth")
    sp.add_argument("--qmax", type=int, required=True)

    sp = add_parser("orbit")
    angle_arg(sp)
    sp.add_argument("--start", required=True, help="x,y")
    sp.add_argument("--mode", choices=sorted(_MODES), default="floor")
    sp.add_argument("--max-steps", type=int, default=None)
    sp.add_argument("--max-radius", type=int, default=None)

    sp = add_parser("sweep")
    angle_arg(sp)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--mode", choices=sorted(_MODES), default="floor")
    sp.add_argument("--max-steps", type=int, default=None)
    sp.add_argument("--max-radius", type=int, default=None)

    sp = add_parser("period8")
    sp.add_argument("--amax", type=int, required=True)
    sp.add_argument("--strict-boundary", action="store_true")
    sp.add_argument("--open-endpoints", action="store_true")
    return p


def _read_config(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in _CONFIG_KEYS:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                out[key] = value
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return out


def _config_int(config: dict, key: str) -> int:
    try:
        return int(config[key])
    except ValueError as exc:
        raise UsageError(f"config {key}={config[key]!r}: expected an integer") from exc


@contextmanager
def _config_precision(ns):
    """A config file's precision_bits as LATTICE_ROT_PRECISION_BITS for
    one call; a value set in the environment wins."""
    scoped = ns.precision_bits is not None and _ENV_BITS not in os.environ
    if scoped:
        os.environ[_ENV_BITS] = str(ns.precision_bits)
    try:
        yield
    finally:
        if scoped:
            del os.environ[_ENV_BITS]


def parse_args(argv) -> argparse.Namespace:
    """Validated command; raises UsageError with the offending flag named."""
    ns = build_parser().parse_args(argv)
    config = _read_config(ns.config) if ns.config else {}
    if ns.format is None:
        ns.format = config.get("format", "csv")
        if ns.format not in ("csv", "json"):
            raise UsageError(f"config format={ns.format!r} not in csv/json")
    for key in ("threads", "oracle_cap", "max_steps", "max_radius"):
        if getattr(ns, key, None) is None and key in config:
            setattr(ns, key, _config_int(config, key))
    if ns.threads is None:
        ns.threads = os.cpu_count() or 1
    if ns.threads < 1:
        raise UsageError("--threads must be positive")
    if getattr(ns, "max_steps", None) is not None and ns.max_steps < 1:
        raise UsageError("--max-steps must be positive")
    if getattr(ns, "max_radius", None) is not None and ns.max_radius < 0:
        raise UsageError("--max-radius must be nonnegative")
    if getattr(ns, "oracle_cap", None) is not None and ns.oracle_cap < 0:
        raise UsageError("--oracle-cap must be nonnegative")
    ns.precision_bits = (_config_int(config, "precision_bits")
                         if "precision_bits" in config else None)

    with _config_precision(ns):
        try:
            if hasattr(ns, "angle"):
                ns.ctx = context_from_text(ns.angle)
        except LatrotError as exc:
            raise UsageError(f"--angle {ns.angle!r}: {exc}") from exc
    if getattr(ns, "M", None) is not None and ns.M < 0:
        raise UsageError("--M must be nonnegative")
    if ns.command == "growth":
        try:
            ns.Ms_list = [int(x) for x in ns.Ms.split(",")]
        except ValueError as exc:
            raise UsageError(f"--Ms {ns.Ms!r}: {exc}") from exc
        if len(ns.Ms_list) < 3 or sorted(set(ns.Ms_list)) != ns.Ms_list:
            raise UsageError("--Ms needs at least 3 strictly increasing values")
        if ns.Ms_list[0] < 1:
            raise UsageError("--Ms values must be positive")
    if ns.command == "udist":
        try:
            with _config_precision(ns):
                ns.box = InequalityBox(parse_scalar(ns.t1), parse_scalar(ns.t2))
        except LatrotError as exc:
            raise UsageError(f"--t1/--t2: {exc}") from exc
    if ns.command == "pyth" and ns.qmax < 5:
        raise UsageError("--qmax must be at least 5")
    if ns.command == "orbit":
        try:
            x, y = (int(v) for v in ns.start.split(","))
        except ValueError as exc:
            raise UsageError(f"--start {ns.start!r}: expected x,y") from exc
        ns.start_point = (x, y)
    if ns.command == "census" and ns.pairs and ns.kind == CensusKind.HOLES.value:
        raise UsageError("--pairs counts colliding pairs; it needs --kind collisions")
    if ns.command == "census" and ns.emit_points and ns.format == "csv" \
            and not ns.points_file:
        raise UsageError("--emit-points with csv output needs --points-file")
    if getattr(ns, "amax", None) is not None and ns.amax < 1:
        raise UsageError("--amax must be positive")
    if getattr(ns, "amax", None) is not None and ns.amax > orbits_mod.PERIOD8_AMAX_LIMIT:
        raise UsageError(f"--amax must be at most {orbits_mod.PERIOD8_AMAX_LIMIT}")
    return ns


def _caps(ns) -> orbits_mod.OrbitCaps:
    kwargs = {}
    if getattr(ns, "max_steps", None) is not None:
        kwargs["max_steps"] = ns.max_steps
    if getattr(ns, "max_radius", None) is not None:
        kwargs["max_radius"] = ns.max_radius
    return orbits_mod.OrbitCaps(**kwargs)


def _columns(payload: dict) -> tuple[list, list]:
    """Header and row of a flat payload, its lists joined with ';'."""
    return list(payload), [
        ";".join(map(str, v)) if isinstance(v, list) else v for v in payload.values()
    ]


def _write(ns, out, payload: dict, rows, elapsed_ms: float, **meta) -> None:
    """Write the one report: `payload` with a meta block (elapsed_ms, then
    `meta`) as one JSON line, or `rows` as CSV lines.  `rows` may be
    lazy: it is walked only for CSV."""
    if ns.format == "json":
        meta = {"elapsed_ms": round(elapsed_ms, 3), **meta}
        out.write(json.dumps({**payload, "meta": meta}) + "\n")
    else:
        csv.writer(out, lineterminator="\n").writerows(rows)


def _elapsed_ms(started: float) -> float:
    return (time.perf_counter() - started) * 1000


def run(ns: argparse.Namespace, out) -> int:
    """Execute a parsed command, writing exactly one report to `out`."""
    started = time.perf_counter()
    handler = _HANDLERS[ns.command]
    handler(ns, out, started)
    return 0


def _handle_classify(ns, out, started):
    payload = context_to_dict(ns.ctx)
    cls = payload["class"]
    detail = ";".join(f"{k}={v}" for k, v in cls.items() if k != "type")
    label = cls["type"] + (f"[{detail}]" if detail else "")
    rows = [
        ["angle", "sin", "cos", "class"],
        [payload["angle"], payload["sin"], payload["cos"], label],
    ]
    _write(ns, out, payload, rows, _elapsed_ms(started))


def _census_report(ns):
    kind = _KINDS[ns.kind]
    kwargs = dict(
        oracle=ns.oracle,
        keep_points=bool(ns.emit_points or ns.points_file),
        threads=ns.threads,
    )
    if ns.oracle_cap is not None:
        kwargs["oracle_cap"] = ns.oracle_cap
    if kind is CensusKind.COLLISIONS:
        return census_mod.collision_census(
            ns.ctx, ns.M, _MODES[ns.mode], count_pairs=ns.pairs, **kwargs
        )
    return census_mod.hole_census(ns.ctx, ns.M, _MODES[ns.mode], **kwargs)


def _handle_census(ns, out, started):
    rep = _census_report(ns)
    if ns.points_file:
        try:
            with open(ns.points_file, "w") as fh:
                csv.writer(fh, lineterminator="\n").writerows([("x", "y"), *(rep.points or [])])
        except OSError as exc:
            raise UsageError(f"cannot write --points-file {ns.points_file}: {exc}") from exc
    payload = {
        "angle": rep.angle,
        "mode": rep.mode.value,
        "kind": rep.kind.value,
        "M": rep.M,
        "count": rep.count,
        "method": rep.method.value,
    }
    if rep.pair_count is not None:
        payload["pair_count"] = rep.pair_count
    # CSV keeps the point list for --points-file
    rows = _columns({**payload, "elapsed_ms": round(rep.elapsed_ms, 3)})
    if ns.emit_points:
        payload["points"] = [[x, y] for x, y in rep.points or []]
    _write(ns, out, payload, rows, rep.elapsed_ms,
           scanned_pts=rep.scanned_pts, redecided_pts=rep.redecided_pts)


def _handle_growth(ns, out, started):
    fit = census_mod.growth_fit(
        ns.ctx,
        ns.Ms_list,
        _MODES[ns.mode],
        _KINDS[ns.kind],
        oracle=ns.oracle,
        threads=ns.threads,
        oracle_cap=ns.oracle_cap,
    )
    payload = {
        "angle": ns.ctx.canonical_text(),
        "mode": ns.mode,
        "kind": ns.kind,
        "Ms": fit.Ms,
        "counts": fit.counts,
        "exponent": round(fit.exponent, 6),
        "r_squared": round(fit.r_squared, 6),
    }
    _write(ns, out, payload, _columns(payload), _elapsed_ms(started))


def _handle_udist(ns, out, started):
    parity = Parity.ALL if ns.parity == "all" else Parity.ODD_ODD
    # the residue counter box-tests and flags nothing
    counters = {"method": "residue", "scanned_pts": 0, "redecided_pts": 0, "scalar_pts": 0}
    if ns.residue:
        count = udist_mod.count_solutions_residue(ns.ctx, ns.box, ns.M, parity)
    else:
        count = udist_mod.count_solutions(ns.ctx, ns.box, ns.M, parity, counters)
    side = 2 * ns.M + 1 if parity is Parity.ALL else 2 * ((ns.M + 1) // 2)
    total = side * side
    ratio = count / total if total else 0.0
    payload = {
        "angle": ns.ctx.canonical_text(),
        "t1": format_scalar(ns.box.t1),
        "t2": format_scalar(ns.box.t2),
        "M": ns.M,
        "parity": parity.value,
        "count": count,
        "ratio": round(ratio, 9),
    }
    _write(ns, out, payload, _columns(payload), _elapsed_ms(started), **counters)


_TRIPLE_FIELDS = ("q", "u", "v", "p1", "p2", "h")


def _handle_pyth(ns, out, started):
    triples = [
        {k: getattr(t, k) for k in _TRIPLE_FIELDS}
        for t in udist_mod.gen_primitive_triples(ns.qmax)
    ]
    payload = {"q_max": ns.qmax, "triples": triples}
    rows = [_TRIPLE_FIELDS, *(t.values() for t in triples)]
    _write(ns, out, payload, rows, _elapsed_ms(started))


def _orbit_rows(ns, rec):
    """The CSV dump: one row per step of the orbit's path."""
    n_steps = (
        rec.preperiod + rec.period
        if rec.status is orbits_mod.OrbitStatus.PERIODIC
        else min(rec.steps_used, 10_000)
    )
    yield ["step", "x", "y"]
    path = orbits_mod.orbit_path(ns.ctx, ns.start_point, _MODES[ns.mode], n_steps)
    for i, (x, y) in enumerate(path):
        yield [i, x, y]


def _handle_orbit(ns, out, started):
    rec = orbits_mod.detect_cycle(ns.ctx, ns.start_point, _MODES[ns.mode], _caps(ns))
    payload = {
        "angle": ns.ctx.canonical_text(),
        "mode": ns.mode,
        "start": list(rec.start),
        "status": rec.status.value,
        "preperiod": rec.preperiod,
        "period": rec.period,
        "max_norm": rec.max_norm,
        "steps_used": rec.steps_used,
    }
    _write(ns, out, payload, _orbit_rows(ns, rec), _elapsed_ms(started))


def _handle_sweep(ns, out, started):
    summary = orbits_mod.orbit_sweep(ns.ctx, ns.M, _MODES[ns.mode], _caps(ns))
    payload = {
        "angle": ns.ctx.canonical_text(),
        "mode": ns.mode,
        "M": summary.M,
        "histogram": [[p, c] for p, c in sorted(summary.histogram.items())],
        "undetermined": summary.undetermined,
        "escaped": summary.escaped,
    }
    if summary.absorbed_all is not None:
        payload["absorbed_all"] = summary.absorbed_all
    tail = [[k, payload[k]] for k in ("undetermined", "escaped", "absorbed_all") if k in payload]
    rows = [["period", "count"], *payload["histogram"], *tail]
    _write(ns, out, payload, rows, _elapsed_ms(started),
           scalar_starts=summary.scalar_starts, redecided_pts=summary.redecided_pts)


def _handle_period8(ns, out, started):
    rep = orbits_mod.verify_period8(
        ns.amax,
        strict_boundary=ns.strict_boundary,
        open_endpoints=ns.open_endpoints,
    )
    # CSV lists every violator; JSON the first 16, with their chains
    head = {
        "a_max": rep.a_max,
        "candidates": len(rep.candidates),
        "verified": rep.verified,
        "boundary": rep.boundary,
        "violators": [a for a, _ in rep.violators],
    }
    payload = {
        **head,
        "violators": [
            {"a": a, "chain": [list(p) for p in chain]}
            for a, chain in rep.violators[:16]
        ],
        "strict_boundary": ns.strict_boundary,
        "open_endpoints": ns.open_endpoints,
    }
    _write(ns, out, payload, _columns(head), _elapsed_ms(started))


_HANDLERS = {
    "classify": _handle_classify,
    "census": _handle_census,
    "growth": _handle_growth,
    "udist": _handle_udist,
    "pyth": _handle_pyth,
    "orbit": _handle_orbit,
    "sweep": _handle_sweep,
    "period8": _handle_period8,
}


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        ns = parse_args(argv if argv is not None else sys.argv[1:])
        with _config_precision(ns):
            return run(ns, out)
    except UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return 2
    except LatrotError as exc:
        err.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
