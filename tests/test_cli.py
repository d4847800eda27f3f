import csv
import io
import json
import os
import shlex
from pathlib import Path

import pytest

from latrot.cli import main, parse_args, UsageError
from latrot.kernels import _domain_radius


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def strip_timing(text, fmt):
    if fmt == "json":
        data = json.loads(text)
        data.pop("meta", None)
        return json.dumps(data)
    lines = text.splitlines()
    if lines and lines[0].endswith(",elapsed_ms"):
        return "\n".join(",".join(line.split(",")[:-1]) for line in lines)
    return text


def test_census_json_cardinal_zero():
    code, out, err = run_cli(
        "census", "--angle", "pi/2", "--M", "10", "--kind", "holes",
        "--format", "json",
    )
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["count"] == 0
    assert data["angle"] == "pi/2"
    assert "elapsed_ms" in data["meta"]


def test_census_meta_reports_scanned_points():
    # a count of the work, in meta only: the payload and CSV rows keep their bytes
    args = ("census", "--angle", "pi/4", "--M", "20", "--kind", "holes")
    full = (2 * _domain_radius(20) + 1) ** 2
    _, out, _ = run_cli(*args, "--format", "json")
    data = json.loads(out)
    assert 0 < data["meta"]["scanned_pts"] < full
    assert "scanned_pts" not in data
    _, out, _ = run_cli(*args, "--oracle", "--format", "json")
    assert json.loads(out)["meta"]["scanned_pts"] == full
    _, out, _ = run_cli(*args)
    assert "scanned" not in out


def test_meta_reports_redecided_points():
    # float pi/4 flags its diagonals; the counters stay out of the
    # payload and the CSV row
    float_pi4 = "rad:~0.7853981633974483"
    for argv in (("census", "--angle", float_pi4, "--M", "16", "--kind", "collisions"),
                 ("udist", "--angle", float_pi4, "--M", "30", "--t1", "1/2", "--t2", "1/3")):
        _, out, _ = run_cli(*argv, "--format", "json")
        data = json.loads(out)
        assert data["meta"]["redecided_pts"] > 0
        # census flagged points are all settled by the enclosure batch;
        # udist still counts its ties {L} = t
        assert data["meta"].get("scalar_pts", 0) == 0
        assert ("scalar_pts" in data["meta"]) == (argv[0] == "udist")
        assert "redecided_pts" not in data and "scalar_pts" not in data
        _, out, _ = run_cli(*argv)
        assert "redecided" not in out and "scalar" not in out
    _, out, _ = run_cli("udist", "--angle", "pyth:3,4,5", "--M", "30", "--t1", "1/2",
                        "--t2", "1/3", "--residue", "--format", "json")
    meta = json.loads(out)["meta"]
    assert meta["redecided_pts"] == meta["scalar_pts"] == 0


def test_udist_meta_reports_its_route():
    # meta names the route and its work; the payload and CSV row keep their bytes
    base = ("udist", "--M", "30", "--t1", "1/2", "--t2", "1/3")
    for angle, extra, method, scanned in (
        ("pyth:3,4,5", (), "separable", 25),  # 5 column by 5 row classes
        ("pi/4", (), "arcs", 121),  # the strips: L1 = 0 on x = y, L2 = 0 on x = -y
        ("pyth:3,4,5", ("--residue",), "residue", 0),
    ):
        _, out, _ = run_cli(*base, "--angle", angle, *extra, "--format", "json")
        data = json.loads(out)
        assert (data["meta"]["method"], data["meta"]["scanned_pts"]) == (method, scanned), angle
        assert "method" not in data and "scanned_pts" not in data
        _, out, _ = run_cli(*base, "--angle", angle, *extra)
        assert out.splitlines()[0] == "angle,t1,t2,M,parity,count,ratio"


def test_udist_odd_odd_ratio_counts_odd_pairs():
    # 30 odd values in [-30, 30]: the full box holds all 900 odd-odd pairs
    base = ("udist", "--angle", "pyth:3,4,5", "--t1", "1", "--t2", "1", "--parity", "oddodd")
    for M, count, ratio in (("30", 900, 1.0), ("0", 0, 0.0)):
        _, out, _ = run_cli(*base, "--M", M, "--format", "json")
        data = json.loads(out)
        assert (data["count"], data["ratio"]) == (count, ratio)
        _, out, _ = run_cli(*base, "--M", M)
        assert out.splitlines()[1] == f'"pyth:3,4,5",1,1,{M},odd_odd,{count},{ratio}'
    _, out, _ = run_cli("udist", "--angle", "pyth:3,4,5", "--t1", "1/2", "--t2", "1/3",
                        "--M", "7", "--parity", "oddodd")
    assert out.splitlines()[1] == '"pyth:3,4,5",1/2,1/3,7,odd_odd,12,0.1875'  # 12 of 8 * 8


def test_undecidable_census_exits_1():
    for extra in ((), ("--oracle",)):
        code, _, err = run_cli("census", "--angle", "rad:~0", "--M", "2",
                               "--kind", "collisions", *extra)
        assert code == 1 and "UndecidableAtPrecision" in err, extra
    # an orbit step on the same boundary
    code, _, err = run_cli("orbit", "--angle", "rad:~0", "--start", "1,0")
    assert code == 1 and "UndecidableAtPrecision" in err


def test_census_csv_header():
    import csv as csvmod

    code, out, _ = run_cli("census", "--angle", "pyth:3,4,5", "--M", "8",
                           "--kind", "collisions")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "angle,mode,kind,M,count,method,elapsed_ms"
    fields = next(csvmod.reader([lines[1]]))
    assert fields[:4] == ["pyth:3,4,5", "floor", "collisions", "8"]


def test_census_pairs_in_csv_and_json():
    # --pairs adds pair_count before the trailing elapsed_ms; rows without
    # it keep their bytes
    base = ("census", "--angle", "pi/6", "--M", "12", "--kind", "collisions")
    _, plain, _ = run_cli(*base)
    code, out, err = run_cli(*base, "--pairs")
    assert code == 0 and err == ""
    head, row = out.splitlines()
    assert head == "angle,mode,kind,M,count,method,pair_count,elapsed_ms"
    fields = row.split(",")
    _, js, _ = run_cli(*base, "--pairs", "--format", "json")
    data = json.loads(js)
    assert int(fields[-2]) == data["pair_count"] == data["count"] == int(fields[4]) > 0
    assert [len(line.split(",")) for line in plain.splitlines()] == [7, 7]
    assert [line.split(",")[:6] for line in plain.splitlines()] == [
        line.split(",")[:6] for line in out.splitlines()]


def test_census_pairs_with_holes_is_a_usage_error():
    for fmt in ("csv", "json"):
        code, out, err = run_cli("census", "--angle", "pi/4", "--M", "5", "--kind", "holes",
                                 "--pairs", "--format", fmt)
        assert code == 2 and out == "" and "--pairs" in err


def test_pyth_csv_rows():
    code, out, _ = run_cli("pyth", "--qmax", "13")
    assert code == 0
    assert out.splitlines() == ["q,u,v,p1,p2,h", "5,2,1,3,4,2", "13,3,2,5,12,8"]


def test_orbit_json_period8():
    code, out, _ = run_cli("orbit", "--angle", "pi/4", "--start", "9,0",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["period"] == 8 and data["preperiod"] == 0
    assert data["start"] == [9, 0]


def test_orbit_csv_dump():
    code, out, _ = run_cli("orbit", "--angle", "pi/4", "--start", "9,0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "step,x,y"
    assert lines[1] == "0,9,0"
    assert lines[-1] == "8,9,0"


def test_usage_errors_exit_2():
    for argv in (
        ["census", "--angle", "pyth:3,4,6", "--M", "5", "--kind", "holes"],
        ["census", "--angle", "pi/4", "--M", "-3", "--kind", "holes"],
        ["census", "--angle", "pi/4", "--kind", "holes"],
        ["census", "--angle", "pi/4", "--M", "5", "--kind", "holes", "--method", "brute-force"],
        ["growth", "--angle", "pi/4", "--Ms", "8,16,32", "--kind", "holes", "--method", "auto"],
        ["growth", "--angle", "pi/4", "--Ms", "16,8", "--kind", "holes"],
        ["udist", "--angle", "pi/4", "--t1", "0", "--t2", "1/2", "--M", "5"],
        ["orbit", "--angle", "pi/4", "--start", "nine,zero"],
        ["classify", "--angle", "quad:sin=(1+sqrt(2))/3,cos=(1+sqrt(3))/3"],  # off the circle
        ["classify", "--angle", "pyth:3,4"],
        ["classify", "--angle", "quad:sin=1/2"],
        ["classify", "--angle", "rad:1/2"],
        ["classify", "--angle", "pyth:0,5,5"],
        ["census", "--angle", "pi/4", "--M", "5", "--kind", "holes", "--threads", "0"],
        ["period8", "--amax", "0"],
        ["growth", "--angle", "pi/4", "--Ms", "1,2,x", "--kind", "holes"],
        ["pyth", "--qmax", "3"],
        ["nonsense"],
    ):
        code, out, err = run_cli(*argv)
        assert code == 2, argv
        assert "usage error" in err
    # residue counting needs a rational Pythagorean angle
    for angle in ("pi/4", "pi/2", "rad:~1.0"):
        code, out, err = run_cli("udist", "--angle", angle, "--t1", "1/2", "--t2", "1/2",
                                 "--M", "5", "--residue")
        assert code == 2 and out == "" and "usage error: --residue" in err, angle


def test_orbit_caps_validated(tmp_path):
    for command in (["sweep", "--angle", "pi/4", "--M", "5"],
                    ["orbit", "--angle", "pi/4", "--start", "9,0"]):
        for flag, value in (("--max-steps", "-1"), ("--max-steps", "0"), ("--max-radius", "-5")):
            code, out, err = run_cli(*command, flag, value)
            assert code == 2 and out == "" and flag in err, (command, flag, value)
    for key in ("threads", "oracle_cap", "max_steps", "max_radius", "precision_bits"):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key}=abc\n")
        code, out, err = run_cli("sweep", "--angle", "pi/4", "--M", "5", "--config", str(cfg))
        assert code == 2 and out == "" and f"{key}='abc'" in err, key
    cfg.write_text("max_steps=-1\n")
    code, _, err = run_cli("sweep", "--angle", "pi/4", "--M", "5", "--config", str(cfg))
    assert code == 2 and "--max-steps" in err
    for text, message in (("format\n", "expected key=value"), ("format=xml\n", "format='xml'")):
        cfg.write_text(text)
        code, out, err = run_cli("sweep", "--angle", "pi/4", "--M", "5", "--config", str(cfg))
        assert code == 2 and out == "" and message in err, text
    code, out, err = run_cli("sweep", "--angle", "pi/4", "--M", "5",
                             "--config", str(tmp_path / "missing.cfg"))
    assert code == 2 and out == "" and "cannot read config" in err
    # a cap above every period of the window changes nothing
    base = ("sweep", "--angle", "pi/4", "--M", "5", "--format", "json")
    code, capped, _ = run_cli(*base, "--max-steps", "50")
    assert code == 0
    assert strip_timing(capped, "json") == strip_timing(run_cli(*base)[1], "json")


def test_nonpositive_windows_and_negative_caps_are_usage_errors():
    # log 0 would reach the growth fit; a negative cap is no window at all
    for argv in (
        ["growth", "--angle", "pi/6", "--Ms", "0,2,3", "--kind", "holes"],
        ["growth", "--angle", "pi/6", "--Ms", "-2,2,3", "--kind", "collisions"],
        ["census", "--angle", "pi/6", "--M", "4", "--kind", "holes", "--oracle",
         "--oracle-cap", "-1"],
        ["growth", "--angle", "pi/6", "--Ms", "2,3,4", "--kind", "holes", "--oracle",
         "--oracle-cap", "-1"],
    ):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == "" and "usage error" in err, argv
        assert "Traceback" not in err and "LinAlgError" not in err, argv


def test_computational_errors_exit_1():
    code, out, err = run_cli("growth", "--angle", "pi/2", "--Ms", "16,32,64",
                             "--kind", "holes")
    assert code == 1
    assert "DegenerateCounts" in err
    code, _, err = run_cli("census", "--angle", "pi/4", "--M", "600",
                           "--kind", "holes", "--oracle")
    assert code == 1 and "CapExceeded" in err


def test_oracle_flag_forces_brute_force():
    code, out, _ = run_cli("census", "--angle", "pi/4", "--M", "8",
                           "--kind", "collisions", "--oracle", "--format", "json")
    assert code == 0
    assert json.loads(out)["method"] == "brute_force"
    # without it a rational slope counts residue classes, others read the grid
    for angle, method in (("pi/4", "separable"), ("pi/6", "characterization")):
        _, out, _ = run_cli("census", "--angle", angle, "--M", "8", "--kind", "collisions",
                            "--format", "json")
        data = json.loads(out)
        assert data["method"] == method
        assert data["meta"]["redecided_pts"] == 0 and "scalar_pts" not in data["meta"]
    # growth takes the same flag; round fits count residue classes without it
    argv = ["growth", "--angle", "pi/4", "--mode", "round", "--kind", "holes",
            "--Ms", "16,32,64", "--format", "json"]
    code, grid, _ = run_cli(*argv)
    code_o, oracle, _ = run_cli(*argv, "--oracle")
    assert code == code_o == 0
    assert strip_timing(grid, "json") == strip_timing(oracle, "json")


def test_deterministic_output():
    argv = ["census", "--angle", "pyth:3,4,5", "--M", "12", "--kind", "holes",
            "--format", "json", "--emit-points"]
    _, out1, _ = run_cli(*argv)
    _, out2, _ = run_cli(*argv)
    assert strip_timing(out1, "json") == strip_timing(out2, "json")
    argv_csv = ["sweep", "--angle", "pi/4", "--M", "4"]
    _, o1, _ = run_cli(*argv_csv)
    _, o2, _ = run_cli(*argv_csv)
    assert o1 == o2


def test_threads_flag_keeps_output():
    base = ["census", "--angle", "pi/4", "--M", "20", "--kind", "collisions",
            "--format", "json", "--emit-points"]
    _, a, _ = run_cli(*base, "--threads", "1")
    _, b, _ = run_cli(*base, "--threads", "3")
    assert strip_timing(a, "json") == strip_timing(b, "json")


def test_emit_points_and_points_file(tmp_path):
    target = tmp_path / "pts.csv"
    code, out, _ = run_cli("census", "--angle", "pi/4", "--M", "4",
                           "--kind", "holes", "--points-file", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) > 1
    # csv + emit-points without a file is a usage error
    code, _, err = run_cli("census", "--angle", "pi/4", "--M", "4",
                           "--kind", "holes", "--emit-points")
    assert code == 2
    # a points file that cannot be written is a usage error, with nothing
    # on stdout: a missing directory, and a directory
    for bad in (tmp_path / "missing" / "pts.csv", tmp_path):
        code, out, err = run_cli("census", "--angle", "pi/6", "--M", "3",
                                 "--kind", "holes", "--points-file", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: cannot write --points-file {bad}: ")
        assert err.count("\n") == 1
    # json embeds points
    code, out, _ = run_cli("census", "--angle", "pi/4", "--M", "4",
                           "--kind", "holes", "--format", "json", "--emit-points")
    data = json.loads(out)
    assert data["count"] == len(data["points"])
    ys = [p[1] for p in data["points"]]
    assert ys == sorted(ys)


def test_classify_csv():
    code, out, _ = run_cli("classify", "--angle", "pi/4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "angle,sin,cos,class"
    assert lines[1].startswith("pi/4,sqrt(2)/2,sqrt(2)/2,linear_relation")
    assert "exceptional=True" in lines[1]


def test_sweep_json_histogram_sorted():
    code, out, _ = run_cli("sweep", "--angle", "pi/2", "--M", "2",
                           "--format", "json")
    data = json.loads(out)
    assert data["histogram"] == [[1, 1], [4, 24]]
    assert data["undetermined"] == 0 and data["escaped"] == 0
    assert data["meta"]["scalar_starts"] == 0
    # a quarter turn permutes the successor array's window |x|,|y| <= 10,
    # so its 441 points and the sink are all cycle nodes
    assert list(data["meta"]) == ["elapsed_ms", "scalar_starts", "redecided_pts",
                                  "doubling_rounds", "cycle_nodes"]
    assert data["meta"]["cycle_nodes"] == 442
    # a max_radius inside the window is read off the same successor array
    code, out, _ = run_cli("sweep", "--angle", "pi/2", "--M", "2", "--max-radius", "3",
                           "--format", "json")
    data = json.loads(out)
    assert data["histogram"] == [[1, 1], [4, 24]]
    assert data["meta"]["scalar_starts"] == 0


def test_sweep_meta_reports_redecided_points():
    # float pi/4 flags points near the diagonals that exact pi/4 decides
    # in integers; both sweeps give the same payload apart from the angle
    base = ("sweep", "--M", "37", "--format", "json")
    runs = {}
    for angle in ("pi/4", "rad:~0.7853981633974483"):
        _, out, _ = run_cli(*base, "--angle", angle)
        data = json.loads(out)
        runs[angle] = data["meta"]["redecided_pts"]
        assert "redecided_pts" not in data
        data.pop("angle")
        runs[angle, "payload"] = strip_timing(json.dumps(data), "json")
    assert runs["pi/4"] == 0 and runs["rad:~0.7853981633974483"] > 0
    assert runs["pi/4", "payload"] == runs["rad:~0.7853981633974483", "payload"]


def test_period8_cli():
    code, out, _ = run_cli("period8", "--amax", "200", "--format", "json")
    data = json.loads(out)
    assert data["violators"] == [] and data["boundary"] == [1]
    code, out, _ = run_cli("period8", "--amax", "200", "--strict-boundary",
                           "--format", "json")
    data = json.loads(out)
    assert [v["a"] for v in data["violators"]] == [1]
    code, _, err = run_cli("period8", "--amax", str(10**9))
    assert code == 2 and "--amax must be at most" in err


def test_growth_cli_csv():
    import csv as csvmod

    code, out, _ = run_cli("growth", "--angle", "pyth:3,4,5",
                           "--Ms", "16,32,64", "--kind", "holes")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "angle,mode,kind,Ms,counts,exponent,r_squared"
    fields = next(csvmod.reader([lines[1]]))
    assert fields[3] == "16;32;64"
    assert 1.5 <= float(fields[5]) <= 2.3


def test_udist_cli_residue():
    base = ["udist", "--angle", "pyth:3,4,5", "--t1", "1/2", "--t2", "1/2",
            "--M", "30", "--format", "json"]
    _, direct, _ = run_cli(*base)
    _, residue, _ = run_cli(*base, "--residue")
    assert json.loads(direct)["count"] == json.loads(residue)["count"]


def test_config_file(tmp_path):
    cfg = tmp_path / "latrot.cfg"
    cfg.write_text("format=json\nthreads=2\n# comment\noracle_cap=700\n")
    code, out, _ = run_cli("census", "--angle", "pi/2", "--M", "4",
                           "--kind", "holes", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["count"] == 0  # json format came from the config
    # flag overrides config
    code, out, _ = run_cli("census", "--angle", "pi/2", "--M", "4",
                           "--kind", "holes", "--config", str(cfg),
                           "--format", "csv")
    assert out.startswith("angle,")
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense=1\n")
    code, _, err = run_cli("census", "--angle", "pi/2", "--M", "4",
                           "--kind", "holes", "--config", str(bad))
    assert code == 2


def test_env_var_precision(monkeypatch):
    monkeypatch.setenv("LATTICE_ROT_PRECISION_BITS", "192")
    code, out, _ = run_cli("classify", "--angle", "rad:~1.0", "--format", "json")
    assert code == 0
    assert json.loads(out)["angle"].endswith("@192")


def test_config_precision_stays_in_its_own_call(tmp_path, monkeypatch):
    monkeypatch.delenv("LATTICE_ROT_PRECISION_BITS", raising=False)
    cfg = tmp_path / "bits.cfg"
    cfg.write_text("precision_bits=64\n")
    argv = ("classify", "--angle", "rad:~1.0", "--format", "json")
    angles = [json.loads(run_cli(*args)[1])["angle"]
              for args in (argv, argv + ("--config", str(cfg)), argv)]
    assert angles == ["rad:~1@128", "rad:~1@64", "rad:~1@128"]
    assert "LATTICE_ROT_PRECISION_BITS" not in os.environ
    # a value set in the environment still wins over the config's
    monkeypatch.setenv("LATTICE_ROT_PRECISION_BITS", "192")
    assert json.loads(run_cli(*argv, "--config", str(cfg))[1])["angle"].endswith("@192")
    assert os.environ["LATTICE_ROT_PRECISION_BITS"] == "192"


def test_env_var_precision_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("LATTICE_ROT_PRECISION_BITS", "abc")
    code, out, err = run_cli("classify", "--angle", "rad:~1.0")
    assert code == 2 and out == ""
    assert "usage error" in err and "LATTICE_ROT_PRECISION_BITS='abc'" in err


def test_parse_args_surface():
    ns = parse_args(["census", "--angle", "pi/4", "--M", "16",
                     "--kind", "holes", "--format", "json"])
    assert ns.command == "census" and ns.M == 16
    with pytest.raises(UsageError):
        parse_args(["census", "--angle", "pi/4", "--M", "16"])


def _readme_cli_lines():
    """Each `latrot ...` line of README's CLI block, as argv."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("latrot ")]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_readme_cli_block_runs_as_written(fmt):
    lines = _readme_cli_lines()
    assert {argv[0] for argv in lines} == {"classify", "census", "growth", "udist", "pyth",
                                          "orbit", "sweep", "period8"}
    for argv in lines:
        if "--format" in argv:
            i = argv.index("--format")
            argv = argv[:i] + argv[i + 2:]
        code, out, err = run_cli(*argv, "--format", fmt)
        assert code == 0 and err == "", argv
        if fmt == "json":
            assert "elapsed_ms" in json.loads(out)["meta"], argv
        else:
            header, *rows = csv.reader(io.StringIO(out))
            assert rows and all(name.isidentifier() for name in header), argv
            assert all(len(row) == len(header) for row in rows), argv
