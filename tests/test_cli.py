import hashlib
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import kzero
from kzero import bratteli, cli, contfrac, elliptic, groupalg, lfunction, primes, quadfield
from kzero.cli import CommandResult, main, run
from kzero.elliptic import hecke_ap_cm
from kzero.primes import is_prime, sieve
from test_golden import readme_commands


def invoke(*argv):
    buf = io.StringIO()
    result, code = run(list(argv), stdout=buf)
    return result, code, buf.getvalue()


# -- output contract ----------------------------------------------------------------


def test_unit_tsv_golden(tmp_path):
    result, code, out = invoke("unit", "--D", "2", "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    assert out == (
        "# kzero unit v1\n"
        "# D=2\n"
        "D\tepsilon\tnorm\tstable\n"
        "2\t1 + sqrt(2)\t-1\ttrue\n"
        "# status pass\n"
    )
    assert result.status == "pass"
    assert result.payload["epsilon"] == "1 + sqrt(2)"


def test_contfrac_tsv_golden(tmp_path):
    _, code, out = invoke("contfrac", "--D", "7", "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# kzero contfrac v1"
    assert lines[2] == "D\tpreperiod\tperiod"
    assert lines[3] == "7\t2\t1,1,1,4"
    assert lines[-1] == "# status pass"


def test_json_format(tmp_path):
    result, code, out = invoke(
        "dimgroup", "--D", "5", "--format", "json", "--cache", str(tmp_path / "c.tsv")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "dimgroup"
    assert doc["status"] == "pass"
    assert doc["payload"]["matrix"] == [[1, 1], [1, 0]]
    assert doc["payload"]["lambda"] == "1/2 + 1/2*sqrt(5)"
    assert isinstance(result, CommandResult)
    # canonical key order makes JSON output reproducible
    assert out == json.dumps(doc, sort_keys=True) + "\n"


def test_omega_and_sl2(tmp_path):
    _, code, out = invoke("omega", "--D", "13", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["omega"] == "1/2 + 1/2*sqrt(13)"
    assert doc["payload"]["trace"] == "1"
    assert doc["payload"]["norm"] == "-3"

    _, code, out = invoke("sl2", "--p", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["order"] == 120
    assert sorted(doc["payload"]["degrees"]) == [1, 2, 2, 3, 3, 4, 4, 5, 6]


def test_dimgroup_uhf(tmp_path):
    _, code, out = invoke("dimgroup", "--uhf-p", "3", "--depth", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["payload"]["sizes"] == [1, 3, 9, 27, 81]
    _, code, out = invoke("dimgroup", "--uhf-p", "3")  # --depth defaults to 3
    assert code == 0
    assert out == invoke("dimgroup", "--uhf-p", "3", "--depth", "3")[2]
    assert "# depth=3 uhf_p=3\n" in out


def test_tower_and_coherence(tmp_path):
    _, code, out = invoke("tower", "--p", "3", "--depth", "2")
    assert code == 0
    assert out.splitlines()[2:] == ["p\tdepth\tlevel_orders", "3\t2\t1,3,9", "# status pass"]

    _, code, out = invoke("coherence", "--D", "3", "--format", "json",
                          "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"] == {"D": 3, "effros_shen": True, "unit_stable": True}


def test_count_ap_zeta_local(tmp_path):
    cache = str(tmp_path / "c.tsv")
    _, code, out = invoke("count", "--D", "1", "--p", "5", "--cache", cache)
    assert code == 0 and "5\t1\t8" in out.replace("-1\t0\t", "")

    _, code, out = invoke("count", "--a4", "-1", "--a6", "0", "--p", "5", "--r", "2",
                          "--cache", cache, "--format", "json")
    assert code == 0
    assert json.loads(out)["payload"]["count"] == 32

    _, code, out = invoke("ap", "--D", "1", "--p", "13", "--cache", cache, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["ap"] == 6 and doc["payload"]["match"] is True

    _, code, out = invoke("zeta-local", "--D", "1", "--p", "5", "--cache", cache)
    assert code == 0
    assert "(1+2t+5t^2)/((1-t)(1-5t))" in out


def test_lfun_and_match(tmp_path):
    cache = str(tmp_path / "c.tsv")
    _, code, out = invoke("lfun", "--which", "zeta", "--s", "2", "--bound", "100",
                          "--format", "json", "--cache", cache)
    assert code == 0
    val = json.loads(out)["payload"]["value_re"]
    assert abs(val - 1.6449) < 1e-2  # truncated at 100: tail is about 3e-3

    result, code, out = invoke("match", "--D", "3", "--bound", "60", "--cache", cache)
    assert code == 0
    assert result.payload["mismatches"] == []
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "p\tap_motivic\tap_automorphic\tmatch"
    assert lines[1] == "5\t0\t0\ttrue"

    _, code, out = invoke("prop3", "--D", "1", "--s", "3", "--bound", "100",
                          "--cache", cache, "--format", "json")
    assert code == 0
    assert json.loads(out)["payload"]["residual"] < 1e-10


def test_adelic_records(tmp_path):
    _, code, out = invoke("adelic", "--ramified", "2,3", "--bound", "7", "--D", "5")
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body == [
        "ramified\t2,3",
        "factor\t5\tlevels\t1,5,25",
        "factor\t7\tlevels\t1,7,49",
        "infinite\tseed\t1,1\tmatrix\t1,1;1,0\tperiod\t1",
    ]


def _primes_by_trial_division(bound):
    return [p for p in range(2, bound + 1) if all(p % q for q in range(2, p))]


@pytest.mark.parametrize("ramified, bound, depth, d", (
    ("", 7, 2, 5),
    ("2,3", 7, 2, 5),
    ("7,3,3", 30, 1, 2),
    ("5,97", 50, 2, 7),
    ("2", 10, 4, 13),
    ("2", 2, 3, 3),  # every prime up to the bound is ramified: no factor rows
))
def test_adelic_records_match_a_recomputation(ramified, bound, depth, d):
    argv = ("adelic", "--ramified", ramified, "--bound", str(bound), "--depth", str(depth), "--D", str(d))
    _, code, tsv = invoke(*argv)
    _, json_code, text = invoke(*argv, "--format", "json")
    assert code == json_code == 0
    ram = sorted({int(x) for x in ramified.split(",") if x})
    body = [line.split("\t") for line in tsv.splitlines() if not line.startswith("#")]
    assert body[0] == ["ramified", ",".join(map(str, ram)) or "-"]
    factors, infinite = body[1:-1], body[-1]
    # one factor row per prime up to the bound that is not ramified, in order
    assert [row[:3] for row in factors] == [
        ["factor", str(p), "levels"] for p in _primes_by_trial_division(bound) if p not in ram
    ]
    # each factor's levels are p^0, ..., p^depth
    for row in factors:
        assert row[3].split(",") == [str(int(row[1]) ** i) for i in range(depth + 1)]
    # the TSV rows and the JSON payload agree
    doc = json.loads(text)
    assert doc["parameters"]["ramified"] == body[0][1]
    payload = doc["payload"]
    assert payload["ramified"] == ram
    assert payload["factors"] == [
        {"p": int(row[1]), "levels": [int(x) for x in row[3].split(",")]} for row in factors
    ]
    inf = payload["infinite"]
    assert infinite == [
        "infinite",
        "seed", ",".join(map(str, inf["seed"])),
        "matrix", ";".join(",".join(map(str, r)) for r in inf["matrix"]),
        "period", str(inf["period"]),
    ]


# -- exit codes ----------------------------------------------------------------------


def test_domain_error_exits_2(tmp_path):
    result, code, out = invoke("omega", "--D", "4", "--format", "json")
    assert code == 2
    assert result.status == "error"
    assert "message" in json.loads(out)["payload"]


def test_failed_check_exits_1(tmp_path):
    # tolerance zero cannot be met: the command runs but the check fails
    result, code, out = invoke(
        "prop3", "--D", "1", "--s", "3", "--bound", "30",
        "--tol", "0", "--cache", str(tmp_path / "c.tsv"),
    )
    assert code == 1
    assert result.status == "fail"
    assert out.strip().endswith("# status fail")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["lfun", "--which", "nonsense", "--s", "2", "--bound", "10"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run([])


@pytest.mark.parametrize("argv", (
    ("lfun", "--which", "zeta", "--s", "nan", "--bound", "10"),
    ("lfun", "--which", "zeta", "--s", "inf", "--bound", "10"),
    ("lfun", "--which", "zeta", "--s", "3,nan", "--bound", "10"),
    ("prop3", "--D", "1", "--s", "nan", "--bound", "10"),
    ("lfun", "--which", "auto", "--D", "1", "--s", "inf", "--bound", "10"),
    # a tolerance that no residual meets, or that every finite residual meets
    ("prop3", "--D", "1", "--s", "3", "--bound", "10", "--tol", "nan"),
    ("prop3", "--D", "1", "--s", "3", "--bound", "10", "--tol", "-1"),
    ("prop3", "--D", "1", "--s", "3", "--bound", "10", "--tol", "inf"),
))
def test_a_value_that_defeats_the_check_is_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--cache", str(tmp_path / "c.tsv")])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "c.tsv").exists()


def test_main_returns_exit_code(tmp_path, capsys):
    assert main(["omega", "--D", "5"]) == 0
    capsys.readouterr()


SUBCOMMANDS = ("contfrac", "unit", "omega", "dimgroup", "tower", "sl2", "count", "ap", "zeta-local",
               "lfun", "match", "prop3", "coherence", "adelic")
CURVE = ("--a4", "--a6", "--D", "--p")
# each subcommand's own flags, in the order its --help lists them after -h, --format, --cache
FLAGS = {
    "contfrac": ("--D",),
    "unit": ("--D",),
    "omega": ("--D",),
    "dimgroup": ("--D", "--uhf-p", "--depth"),
    "tower": ("--p", "--depth"),
    "sl2": ("--p",),
    "count": (*CURVE, "--r"),
    "ap": CURVE,
    "zeta-local": CURVE,
    "lfun": ("--which", "--s", "--bound", "--D", "--a4", "--a6"),
    "match": ("--D", "--bound"),
    "prop3": ("--D", "--s", "--bound", "--tol"),
    "coherence": ("--D",),
    "adelic": ("--ramified", "--bound", "--depth", "--D"),
}
# a small argv that each subcommand runs with exit 0
SMALL = {
    "contfrac": ("--D", "7"),
    "unit": ("--D", "2"),
    "omega": ("--D", "13"),
    "dimgroup": ("--D", "7"),
    "tower": ("--p", "3"),
    "sl2": ("--p", "5"),
    "count": ("--D", "1", "--p", "5"),
    "ap": ("--D", "1", "--p", "13"),
    "zeta-local": ("--D", "1", "--p", "5"),
    "lfun": ("--which", "zeta", "--s", "2", "--bound", "30"),
    "match": ("--D", "1", "--bound", "50"),
    "prop3": ("--D", "1", "--s", "3", "--bound", "50"),
    "coherence": ("--D", "3"),
    "adelic": ("--bound", "7"),
}


def _help(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_top_level_help_lists_every_subcommand(capsys):
    assert len(SUBCOMMANDS) == 14
    assert tuple(FLAGS) == tuple(SMALL) == SUBCOMMANDS
    text = _help(capsys)
    assert text.startswith("usage: kzero ")
    listed = text[text.index("{") + 1 : text.index("}")].split(",")
    assert listed == list(SUBCOMMANDS)
    # each subcommand heads one line of the list that describes them
    described = {line.split()[0] for line in text.splitlines() if line.startswith("    ")}
    assert set(SUBCOMMANDS) <= described


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_help(capsys, command):
    text = _help(capsys, command)
    assert text.startswith(f"usage: kzero {command} ")
    assert "--format {json,tsv}" in text
    # an option line starts with two spaces; a wrapped help line starts further in
    listed = re.findall(r"^  (-[^\s,]+)", text, re.MULTILINE)
    assert listed == ["-h", "--format", "--cache", *FLAGS[command]]


def test_only_the_named_subcommand_is_built_with_its_flags():
    parser = cli._build_parser("ap")
    subparsers = next(a for a in parser._actions if a.dest == "command")
    built = {name: [s for a in p._actions for s in a.option_strings] for name, p in subparsers.choices.items()}
    assert list(built) == list(SUBCOMMANDS)
    assert built.pop("ap") == ["-h", "--help", "--format", "--cache", *FLAGS["ap"]]
    assert all(flags == [] for flags in built.values())


def test_no_arguments_is_a_usage_error_listing_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
    err = " ".join(capsys.readouterr().err.split())  # undo the usage line's wrapping
    assert err.startswith("usage: kzero ")
    assert "{" + ",".join(SUBCOMMANDS) + "}" in err
    assert "required: command" in err


def test_an_unknown_subcommand_is_an_invalid_choice_naming_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["bogus", "--D", "5"])
    assert exc.value.code == 2
    err = " ".join(capsys.readouterr().err.split())
    assert re.search(r"invalid choice: '?bogus'?", err)
    choices = err[err.index("choose from") :]
    assert re.findall(r"[a-z][a-z0-9-]*", choices)[2:] == list(SUBCOMMANDS)


@pytest.mark.parametrize("argv", (
    ("omega", "--D", "5", "--p", "3"),
    ("ap", "--D", "1", "--p", "5", "--which", "zeta"),
    *((command, *SMALL[command], "--ramified", "3") for command in SUBCOMMANDS if command != "adelic"),
    ("tower", *SMALL["tower"], "--which", "zeta"),
    # no subcommand has an order flag: lfun --which zeta gives the zeta factors at s and s - 1
    ("lfun", "--which", "auto", "--D", "1", "--i", "1", "--s", "3", "--bound", "30"),
))
def test_a_flag_of_another_subcommand_is_unrecognized(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--cache", str(tmp_path / "c.tsv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: " in capsys.readouterr().err
    assert not (tmp_path / "c.tsv").exists()


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_takes_a_cache_path_and_json(tmp_path, command):
    result, code, out = invoke(command, *SMALL[command], "--cache", str(tmp_path / "c.tsv"),
                               "--format", "json")
    assert code == 0
    assert json.loads(out)["command"] == command == result.command


# -- cache handling ------------------------------------------------------------------


def test_cache_flag_creates_file(tmp_path):
    path = tmp_path / "mine.tsv"
    invoke("lfun", "--which", "motivic", "--D", "1", "--s", "3", "--bound", "5", "--cache", str(path))
    assert path.read_text().startswith("a4\ta6\tp\tap\n")
    assert "-1\t0\t5\t-2" in path.read_text()


def test_commands_without_counting_do_not_touch_cache(tmp_path):
    from test_refusals import BASE  # one argv per mode of each command; imported here, as it imports this module

    bad = tmp_path / "bad.tsv"
    bad.write_text("a4\ta6\tp\tap\n-1\t0\tx\t3\n")
    argvs = [(command, *base) for command, bases in BASE.items() for base in bases]
    readers = [argv for argv in argvs if argv[0] in ("match", "prop3") or "motivic" in argv]
    assert len(readers) == 4  # lfun --which motivic has two modes
    for argv in (argv for argv in argvs if argv not in readers):
        for path in (tmp_path, bad):  # a directory at the path, and a file with a bad row
            assert invoke(*argv, "--cache", str(path))[1] == 0, (argv, path)
    assert sorted(os.listdir(tmp_path)) == ["bad.tsv"]
    assert bad.read_text() == "a4\ta6\tp\tap\n-1\t0\tx\t3\n"


def test_warm_cache_rerun_is_byte_identical(tmp_path):
    cache = str(tmp_path / "c.tsv")
    args = ("match", "--D", "1", "--bound", "80", "--cache", cache)
    _, _, cold = invoke(*args)
    _, _, warm = invoke(*args)
    assert cold == warm
    args_json = args + ("--format", "json")
    _, _, cold_json = invoke(*args_json)
    _, _, warm_json = invoke(*args_json)
    assert cold_json == warm_json


def test_sequential_runs_leave_the_rewritten_file(tmp_path):
    # appending flushes leave the bytes the whole-file rewrite used to leave:
    # header, then each key once in first-seen order
    cache = tmp_path / "c.tsv"
    match = ("match", "--D", "1", "--bound", "1000", "--cache", str(cache))
    rows = "".join(f"-1\t0\t{p}\t{hecke_ap_cm(1, p)}\n" for p in sieve(1000) if p > 2)
    expected = "a4\ta6\tp\tap\n" + rows
    assert invoke(*match)[1] == 0
    assert cache.read_text() == expected
    assert invoke("match", "--D", "1", "--bound", "1010", "--cache", str(cache))[1] == 0
    expected += f"-1\t0\t1009\t{hecke_ap_cm(1, 1009)}\n"
    assert cache.read_text() == expected
    assert invoke(*match)[1] == 0
    assert cache.read_text() == expected
    # the SHA-256 of the file the rewriting cache wrote after these three runs
    digest = "18ca61da4ed029f82cd766c8e325e15dc572499d722e1badc500672bbcc2ef8e"
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == digest


# three curves in one file, then a larger bound for the first, and the bytes the runs
# leave: the file format is fixed, so caches written by any version read back alike
_SEQUENCE = (
    ("match", "--D", "1", "--bound", "20"),
    ("prop3", "--D", "3", "--s", "3", "--bound", "20"),
    ("lfun", "--which", "motivic", "--a4", "2", "--a6", "3", "--s", "3", "--bound", "20"),
    ("match", "--D", "1", "--bound", "40"),
)
_SEQUENCE_FILE = (
    b"a4\ta6\tp\tap\n"
    b"-1\t0\t3\t0\n-1\t0\t5\t-2\n-1\t0\t7\t0\n-1\t0\t11\t0\n-1\t0\t13\t6\n-1\t0\t17\t2\n-1\t0\t19\t0\n"
    b"0\t1\t5\t0\n0\t1\t7\t-4\n0\t1\t11\t0\n0\t1\t13\t2\n0\t1\t17\t0\n0\t1\t19\t8\n"
    b"2\t3\t3\t0\n2\t3\t7\t2\n2\t3\t13\t-4\n2\t3\t17\t-4\n2\t3\t19\t0\n"
    b"-1\t0\t23\t0\n-1\t0\t29\t-10\n-1\t0\t31\t0\n-1\t0\t37\t-2\n"
)


def test_a_fixed_sequence_of_runs_writes_the_same_bytes_and_reads_them_back(tmp_path):
    cache = tmp_path / "c.tsv"
    cold = [invoke(*argv, "--cache", str(cache))[1:] for argv in _SEQUENCE]
    assert all(code == 0 for code, _ in cold)
    assert cache.read_bytes() == _SEQUENCE_FILE
    written = tmp_path / "written.tsv"  # the same bytes, read back from a file no run of this code wrote
    written.write_bytes(_SEQUENCE_FILE)
    assert [invoke(*argv, "--cache", str(written))[1:] for argv in _SEQUENCE] == cold
    assert written.read_bytes() == _SEQUENCE_FILE


@pytest.mark.parametrize("curve", (("--D", "1"), ("--a4", "-1", "--a6", "0")))
def test_cache_hit_outside_hasse_bound_exits_1(tmp_path, capsys, curve):
    cache = tmp_path / "c.tsv"
    cache.write_text("a4\ta6\tp\tap\n-1\t0\t97\t1000\n")
    argv = ("lfun", "--which", "motivic", *curve, "--s", "3", "--bound", "100")
    _, code, out = invoke(*argv, "--cache", str(cache))
    assert code == 1
    assert out.endswith("# status fail\n")
    assert "Hasse bound violated at p=97" in capsys.readouterr().err


@pytest.mark.parametrize("argv", (
    ("lfun", "--which", "motivic", "--D", "1", "--s", "3", "--bound", "50"),
    ("lfun", "--which", "motivic", "--a4", "2", "--a6", "3", "--s", "3", "--bound", "50"),
    ("match", "--D", "1", "--bound", "50"),
    ("prop3", "--D", "1", "--s", "3", "--bound", "50"),
))
def test_bad_cache_row_exits_2_naming_its_line(tmp_path, capsys, argv):
    cache = tmp_path / "c.tsv"
    cache.write_text("a4\ta6\tp\tap\n-1\t0\tx\t3\n")
    _, code, out = invoke(*argv, "--cache", str(cache))
    assert code == 2
    assert out.endswith("# status error\n")
    assert f"{cache}:2: bad a_p cache row" in capsys.readouterr().err
    assert cache.read_text() == "a4\ta6\tp\tap\n-1\t0\tx\t3\n"


def test_rows_counted_before_a_failed_check_are_flushed(tmp_path, capsys):
    cache = tmp_path / "c.tsv"
    cache.write_text("a4\ta6\tp\tap\n-1\t0\t97\t1000\n")  # a hit outside the Hasse bound
    _, code, _ = invoke("match", "--D", "1", "--bound", "200", "--cache", str(cache))
    assert code == 1
    assert "Hasse bound violated at p=97" in capsys.readouterr().err
    counted = "".join(f"-1\t0\t{p}\t{hecke_ap_cm(1, p)}\n" for p in sieve(96) if p > 2)
    assert cache.read_text() == "a4\ta6\tp\tap\n-1\t0\t97\t1000\n" + counted


def test_unreadable_cache_exits_2(tmp_path, capsys):
    # a directory where the cache file should be
    _, code, _ = invoke("match", "--D", "1", "--bound", "50", "--cache", str(tmp_path))
    assert code == 2
    assert str(tmp_path) in capsys.readouterr().err


# each single-prime command on y^2 = x^3 + 2x + 3, with the value it must print
@pytest.mark.parametrize("argv, cell, value", (
    (("ap", "--p", "100003"), "ap", -290),
    (("count", "--p", "100003"), "count", 100294),
    (("count", "--p", "101", "--r", "2"), "count", 10368),
    (("count", "--p", "100003", "--r", "3"), "count", 1000089940086418),
    (("zeta-local", "--p", "101"), "ap", 6),
))
def test_single_prime_commands_never_open_the_cache(tmp_path, argv, cell, value):
    argv = (*argv[:1], "--a4", "2", "--a6", "3", *argv[1:])
    absent = tmp_path / "absent.tsv"
    fresh, code, out = invoke(*argv, "--cache", str(absent))
    assert code == 0 and fresh.payload[cell] == value
    assert not absent.exists()
    p = int(argv[argv.index("--p") + 1])
    a_p = p + 1 - elliptic.count_points_extension(elliptic.CurveQ(2, 3), p, 1)
    edited = tmp_path / "edited.tsv"  # a wrong a_p inside the Hasse bound
    edited.write_text(f"a4\ta6\tp\tap\n2\t3\t{p}\t{a_p + 2}\n")
    bad = tmp_path / "bad.tsv"
    bad.write_text("a4\ta6\tp\tap\n-1\t0\tx\t3\n")
    for path in (edited, bad, tmp_path):  # tmp_path: a directory at the path
        before = path.read_bytes() if path.is_file() else None
        assert invoke(*argv, "--cache", str(path))[1:] == (0, out), path
        assert before is None or path.read_bytes() == before


# -- console entry -------------------------------------------------------------------


def child_env():
    # The child runs in tmp_path, where a relative PYTHONPATH entry (such as
    # "src") resolves to nothing; put the directory holding the imported
    # package first so the child runs exactly the code under test.
    package_root = str(Path(kzero.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def run_child(tmp_path, *argv, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "kzero", *argv],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=child_env(),
        timeout=timeout,
    )


def test_module_execution(tmp_path):
    proc = run_child(tmp_path, "unit", "--D", "5")
    assert proc.returncode == 0
    assert "1/2 + 1/2*sqrt(5)" in proc.stdout
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", (
    ("dimgroup", "--D", "10007"),
    ("coherence", "--D", "433"),
    ("unit", "--D", "9999991"),
    ("contfrac", "--D", "9999991"),
    # the longest period (8952) of the 10^5 D below the field limit: a unit of 4556 digits
    ("unit", "--D", "9931639"),
    ("dimgroup", "--D", "9931639"),
))
def test_large_discriminant_returns(tmp_path, argv):
    # the fundamental unit of these fields is huge; the Perron eigenvalue must
    # not be found by factoring the diagram's discriminant, and the continued
    # fraction (period 8096 at 9999991) must not be walked in field elements
    proc = run_child(tmp_path, *argv, timeout=20)
    assert proc.returncode == 0
    assert proc.stdout.endswith("# status pass\n")


def _count_calls(monkeypatch, module, *names):
    calls = {name: 0 for name in names}
    for name in names:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_dimgroup_computes_pf_data_once_per_group(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, bratteli, "pf_data", "_is_primitive")
    _, code, _ = invoke("dimgroup", "--D", "7", "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    # one group serves both the payload and the shift-action check
    assert calls == {"pf_data": 1, "_is_primitive": 1}


def test_adelic_does_not_revalidate_the_towers_it_builds(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, groupalg, "validate_tower")
    argv = ("adelic", "--ramified", "2,3", "--bound", "7", "--cache", str(tmp_path / "c.tsv"))
    _, code, _ = invoke(*argv)
    assert code == 0
    # `cyclic_tower` builds column sums p, so the towers at 5 and 7 are not checked again
    assert calls == {"validate_tower": 0}


def test_adelic_walks_the_sieve_not_every_integer(tmp_path, monkeypatch):
    in_cli = _count_calls(monkeypatch, primes, "is_prime")
    in_groupalg = _count_calls(monkeypatch, groupalg, "is_prime")
    argv = ("adelic", "--ramified", "2,3", "--bound", "7", "--D", "5", "--cache", str(tmp_path / "c.tsv"))
    _, code, _ = invoke(*argv)
    assert code == 0
    # 4 in all: the ramified 2 and 3 once each in the handler, the towers at 5 and 7
    # once each in `cyclic_tower`; none for 4 or 6
    assert (in_cli, in_groupalg) == ({"is_prime": 2}, {"is_prime": 2})


@pytest.mark.parametrize("d", (2, 3, 7))
def test_coherence_expands_omega_once(tmp_path, monkeypatch, d):
    expansions = _count_calls(monkeypatch, contfrac, "expand")
    _, code, _ = invoke("coherence", "--D", str(d), "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    assert expansions == {"expand": 1}


def test_unit_computes_the_fundamental_unit_once(tmp_path, monkeypatch):
    units = _count_calls(monkeypatch, quadfield, "fundamental_unit")
    expansions = _count_calls(monkeypatch, contfrac, "expand")
    _, code, _ = invoke("unit", "--D", "2", "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    assert (units, expansions) == ({"fundamental_unit": 1}, {"expand": 1})


def _count_primality_tests(monkeypatch):
    # lfunction takes its primes from the sieve and has no primality test to count
    assert not hasattr(lfunction, "is_prime")
    counts = _count_calls(monkeypatch, elliptic, "is_prime")
    return lambda: counts["is_prime"]


@pytest.mark.parametrize("argv", (
    ("match", "--D", "1", "--bound", "20000"),
    ("prop3", "--D", "2", "--s", "3", "--bound", "20000"),
    ("lfun", "--which", "zeta", "--s", "3", "--bound", "20000"),
    ("lfun", "--which", "motivic", "--D", "1", "--s", "3", "--bound", "20000"),
    ("lfun", "--which", "auto", "--D", "3", "--s", "3", "--bound", "20000"),
))
def test_sieved_primes_are_not_tested_again(tmp_path, monkeypatch, argv):
    primality_tests = _count_primality_tests(monkeypatch)
    _, code, _ = invoke(*argv, "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    assert primality_tests() == 0


def test_ap_checks_its_prime_once(tmp_path, monkeypatch, capsys):
    primality_tests = _count_primality_tests(monkeypatch)
    checks = _count_calls(monkeypatch, elliptic, "_require_good")
    _, code, _ = invoke("ap", "--D", "1", "--p", "13", "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    # the point count checks p; the norm form reads the same table curve at the same p
    assert (checks, primality_tests()) == ({"_require_good": 1}, 1)
    _, code, _ = invoke("ap", "--D", "2", "--p", "3", "--cache", str(tmp_path / "c.tsv"))
    assert code == 2
    assert "p = 3 is a prime of bad reduction" in capsys.readouterr().err


@pytest.mark.parametrize("argv", (
    ("zeta-local", "--D", "1", "--p", "101"),
    ("count", "--D", "1", "--p", "101", "--r", "2"),
))
def test_fp2_commands_test_their_prime_once(tmp_path, monkeypatch, argv):
    primality_tests = _count_primality_tests(monkeypatch)
    _, code, _ = invoke(*argv, "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    assert primality_tests() == 1


def test_a_composite_ramified_prime_within_the_limit_is_refused(tmp_path, capsys, monkeypatch):
    built = _count_calls(monkeypatch, bratteli, "effros_shen")
    err = _refused_before_any_work(tmp_path, capsys, monkeypatch, ("adelic", "--ramified", "15", "--bound", "7"))
    assert err == "kzero adelic: ramified set contains non-prime 15\n"
    assert built == {"effros_shen": 0}


def test_a_ramified_prime_that_is_not_an_integer_is_refused(tmp_path, capsys):
    _, code, out = invoke("adelic", "--ramified", "2,x", "--bound", "7", "--cache", str(tmp_path / "c.tsv"))
    assert code == 2
    assert out.endswith("# status error\n")
    assert capsys.readouterr().err == "kzero adelic: ramified prime 'x' is not an integer\n"


@pytest.mark.parametrize("depth", ("0", "-1"))
def test_adelic_refuses_a_depth_below_1_when_every_prime_is_ramified(tmp_path, capsys, depth):
    # no tower is built when every prime up to the bound is ramified, so the depth is refused up front
    _, code, out = invoke("adelic", "--ramified", "2", "--bound", "2", "--depth", depth,
                          "--cache", str(tmp_path / "c.tsv"))
    assert code == 2
    assert out == "# kzero adelic v1\n# status error\n"
    assert capsys.readouterr().err == "kzero adelic: depth must be >= 1\n"


@pytest.mark.parametrize("command", (("lfun", "--which", "zeta"), ("prop3", "--D", "1")))
def test_a_complex_s_is_printed_with_its_imaginary_part(tmp_path, command):
    cache = str(tmp_path / "c.tsv")
    _, code, out = invoke(*command, "--s", "2.5,7", "--bound", "50", "--cache", cache)
    assert code == 0
    lines = out.splitlines()
    assert "s=2.5 s_im=7" in lines[1]
    assert lines[3].split("\t")[1] == "2.5,7"
    _, code, real = invoke(*command, "--s", "2.5", "--bound", "50", "--cache", cache)
    assert code == 0
    assert "s_im" not in real.splitlines()[1] and real.splitlines()[3].split("\t")[1] == "2.5"


def test_prop3_builds_each_zeta_product_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, lfunction, "zeta_partial")
    _, code, _ = invoke("prop3", "--D", "1", "--s", "3", "--bound", "500", "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    assert calls == {"zeta_partial": 2}


@pytest.mark.parametrize("p", ("15", "1003"))  # 1003 = 17 * 59, above the crossover
@pytest.mark.parametrize("argv", (
    ("ap", "--D", "1"),
    ("count", "--D", "1"),
    ("count", "--D", "1", "--r", "2"),
    ("zeta-local", "--D", "1"),
))
def test_a_composite_p_from_argv_is_refused(tmp_path, capsys, argv, p):
    _, code, out = invoke(*argv, "--p", p, "--cache", str(tmp_path / "c.tsv"))
    assert code == 2
    assert out.endswith("# status error\n")
    assert f"{p} is not prime" in capsys.readouterr().err


@pytest.mark.parametrize("given", (("--a4", "5"), ("--a6", "7"), ("--a4", "5", "--a6", "7")))
@pytest.mark.parametrize("argv", (
    ("ap", "--D", "1", "--p", "13"),
    ("count", "--D", "1", "--p", "13"),
    ("zeta-local", "--D", "1", "--p", "13"),
    ("lfun", "--which", "motivic", "--D", "2", "--s", "3", "--bound", "50"),
))
def test_a_table_curve_and_coefficients_together_are_refused(tmp_path, capsys, argv, given):
    cache = tmp_path / "c.tsv"
    _, code, out = invoke(*argv, *given, "--cache", str(cache))
    assert code == 2
    assert out.endswith("# status error\n")
    named = "/".join(g for g in given if g.startswith("--"))
    assert f"give either --D or {named}, not both" in capsys.readouterr().err
    assert not cache.exists()


def test_lfun_motivic_names_a_curve_given_by_its_coefficients(tmp_path):
    def parameters(fmt, a4, a6):
        argv = ("lfun", "--which", "motivic", "--a4", a4, "--a6", a6, "--s", "3", "--bound", "10")
        _, code, out = invoke(*argv, "--format", fmt, "--cache", str(tmp_path / "c.tsv"))
        assert code == 0
        return out.splitlines()[1] if fmt == "tsv" else json.loads(out)["parameters"]

    for a4, a6 in (("1", "1"), ("2", "3")):
        assert parameters("tsv", a4, a6) == f"# a4={a4} a6={a6} bound=10 s=3 which=motivic"
        named = {"a4": int(a4), "a6": int(a6), "bound": 10, "s": "3", "which": "motivic"}
        assert parameters("json", a4, a6) == named


@pytest.mark.parametrize("s", ("3", "2.5,7"))
@pytest.mark.parametrize("D", ("1", "2", "3"))
def test_lfun_auto_and_motivic_print_the_same_product(tmp_path, D, s):
    # the norm-form product is the point-count product, factor for factor
    printed = {}
    for which in ("auto", "motivic"):
        argv = ("lfun", "--which", which, "--D", D, "--s", s, "--bound", "200")
        _, code, out = invoke(*argv, "--cache", str(tmp_path / "c.tsv"))
        assert code == 0
        header, row = (line.split("\t") for line in out.splitlines()[2:4])
        printed[which] = dict(zip(header, row))
        assert printed[which].pop("which") == which
    assert printed["auto"] == printed["motivic"]
    assert int(printed["auto"]["factors"]) > 40


def test_dimgroup_refuses_a_field_and_a_uhf_prime_together(tmp_path, capsys, monkeypatch):
    argv = ("dimgroup", "--D", "5", "--uhf-p", "3", "--depth", "2")
    err = _refused_before_any_work(tmp_path, capsys, monkeypatch, argv)
    assert err == "kzero dimgroup: give either --D or --uhf-p, not both\n"


@pytest.mark.parametrize("which, given, named", (
    ("zeta", ("--D", "2"), "--D"),
    ("zeta", ("--a4", "5"), "--a4"),
    ("zeta", ("--a6", "7"), "--a6"),
    ("zeta", ("--D", "1", "--a4", "5", "--a6", "7"), "--D/--a4/--a6"),
    ("auto", ("--D", "1", "--a4", "5"), "--a4"),
    ("auto", ("--D", "1", "--a6", "7"), "--a6"),
    ("auto", ("--D", "1", "--a4", "5", "--a6", "7"), "--a4/--a6"),
))
def test_lfun_refuses_a_curve_flag_it_does_not_use(tmp_path, capsys, monkeypatch, which, given, named):
    argv = ("lfun", "--which", which, *given, "--s", "3", "--bound", "50")
    err = _refused_before_any_work(tmp_path, capsys, monkeypatch, argv)
    assert err == f"kzero lfun: --which {which} does not use {named}\n"


@pytest.mark.parametrize("given", (("--D", "7"), ("--D", "-5")))
def test_lfun_auto_refuses_a_d_outside_the_table(tmp_path, capsys, monkeypatch, given):
    argv = ("lfun", "--which", "auto", *given, "--s", "3", "--bound", "10")
    err = _refused_before_any_work(tmp_path, capsys, monkeypatch, argv)
    assert err.startswith(f"kzero lfun: unsupported discriminant {given[1]};")


@pytest.mark.parametrize("depth", ("9", "3"))
def test_dimgroup_refuses_a_depth_without_a_uhf_prime(tmp_path, capsys, monkeypatch, depth):
    built = _count_calls(monkeypatch, bratteli, "effros_shen")
    err = _refused_before_any_work(tmp_path, capsys, monkeypatch, ("dimgroup", "--D", "7", "--depth", depth))
    assert err == "kzero dimgroup: --D does not use --depth\n"
    assert built == {"effros_shen": 0}


@pytest.mark.parametrize("command", ("ap", "count"))
def test_a_bad_prime_is_refused_naming_the_curve(capsys, command):
    # 3 divides the discriminant -432 of y^2 = x^3 + 1
    _, code, out = invoke(command, "--a4", "0", "--a6", "1", "--p", "3")
    assert code == 2
    assert out == f"# kzero {command} v1\n# status error\n"
    assert capsys.readouterr().err == f"kzero {command}: p = 3 is a prime of bad reduction for (0, 1)\n"


NUMPY_PROBE = """
import io, json, sys
sys.modules["numpy"] = None  # an import of numpy now raises ImportError
from kzero.cli import run

def kzero(argv):
    return run([*argv, "--cache", "c.tsv"], stdout=io.StringIO())[1]

failed = [argv for argv in json.loads(sys.argv[1]) if kzero(argv) != 0]
assert failed == [], f"failed without numpy: {failed}"
del sys.modules["numpy"]
assert kzero(["count", "--D", "1", "--p", "101", "--r", "2"]) == 0
assert "numpy" in sys.modules, "not loaded by the F_(p^2) enumeration at p = 101"
"""


def test_readme_commands_run_without_numpy(tmp_path):
    commands = [shlex.split(command) for command in readme_commands()]
    assert len(commands) == 16
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, json.dumps(commands)],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr


BLAS_PROBE = """
import io, json, os, sys
from kzero import cli

code = cli.run(["count", "--D", "1", "--p", "101", "--r", "2"], stdout=io.StringIO())[1]
print(json.dumps([code, "numpy" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS"),
                  len(os.listdir("/proc/self/task"))]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task to count threads")
@pytest.mark.parametrize("threads", (None, "3"))
def test_numpy_loads_without_a_blas_thread_pool(tmp_path, threads):
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True, text=True,
                          cwd=str(tmp_path), env=env)
    assert proc.returncode == 0, proc.stderr
    code, loaded, after, tasks = json.loads(proc.stdout)
    assert (code, loaded, after) == (0, True, threads)  # the caller's setting, or none, is left as found
    if threads is None:
        assert tasks == 1  # OpenBLAS started no worker thread


# -- modules loaded on first use --------------------------------------------------

LIBRARY = {"primes", "quadfield", "contfrac", "coherence", "bratteli", "groupalg", "elliptic",
           "lfunction"}
_TRACES = {"elliptic", "primes"}
# the library modules each README command executes, by subcommand; the rest stay unrun
EXECUTED = {
    "omega": {"quadfield"},
    "contfrac": {"quadfield", "contfrac"},
    "unit": {"quadfield", "contfrac"},
    "ap": _TRACES,
    "count": _TRACES,
    "zeta-local": _TRACES,
    "lfun": _TRACES | {"lfunction"},
    "match": _TRACES | {"lfunction"},
    "prop3": _TRACES | {"lfunction"},
    "tower": {"groupalg", "primes"},
    "sl2": {"groupalg", "primes"},
    "dimgroup": {"bratteli", "primes", "quadfield"},  # and contfrac with --D
    "coherence": LIBRARY - {"elliptic", "groupalg", "lfunction"},
    "adelic": LIBRARY - {"coherence", "elliptic", "lfunction"},
}

# prints the kzero modules whose code has run; a registered, unrun module is a
# subclass of ModuleType until its first attribute read
EXECUTED_PROBE = """
import io, sys, types
{code}
print(" ".join(sorted(name[len("kzero."):] for name, m in sys.modules.items()
                      if name.startswith("kzero.") and type(m) is types.ModuleType)))
"""


def executed_in_child(tmp_path, code, *args):
    proc = subprocess.run(
        [sys.executable, "-c", EXECUTED_PROBE.format(code=code), *args],
        capture_output=True, text=True, cwd=str(tmp_path), env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("command", readme_commands())
def test_a_readme_command_executes_only_the_modules_it_uses(tmp_path, command):
    argv = shlex.split(command)
    code = "from kzero.cli import run\nrun(sys.argv[1:], stdout=io.StringIO())"
    expected = EXECUTED[argv[0]] | {"cli"} | ({"contfrac"} if argv[:2] == ["dimgroup", "--D"] else set())
    assert executed_in_child(tmp_path, code, *argv, "--cache", "c.tsv") == expected


# the commands that make no Fraction, and so never load fractions or what it imports
NO_FRACTIONS = {"ap", "coherence", "contfrac", "count", "dimgroup", "lfun", "match", "prop3", "sl2", "tower",
                "unit"}

# prints the modules a command loads beyond those of a bare interpreter, which a
# site may have extended, so only what kzero loads is counted
LOADED_PROBE = """
import io, sys
bare = set(sys.modules)
from kzero.cli import run
code = run(sys.argv[1:], stdout=io.StringIO())[1]
print(code, *sorted(set(sys.modules) - bare))
"""


@pytest.mark.parametrize("command", readme_commands())
def test_a_readme_command_loads_neither_dataclasses_nor_fractions_it_does_not_use(tmp_path, command):
    argv = shlex.split(command)
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE, *argv, "--cache", "c.tsv"],
        capture_output=True, text=True, cwd=str(tmp_path), env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0" and "kzero.cli" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)
    if argv[0] in NO_FRACTIONS:
        assert not {"fractions", "decimal", "numbers"} & set(loaded)


def test_import_kzero_executes_no_submodule(tmp_path):
    assert executed_in_child(tmp_path, "import kzero") == set()


def test_every_library_module_is_registered_by_import_kzero_cli(tmp_path):
    # perfbench/tracer.py imports kzero.cli and then reads sys.modules["kzero.<name>"]
    # for every library module, so each must be registered even though none has run
    code = "import kzero.cli\nassert all(f'kzero.{n}' in sys.modules for n in sys.argv[1:])"
    assert executed_in_child(tmp_path, code, *sorted(LIBRARY)) == {"cli"}


def test_json_output_of_a_fresh_process(tmp_path):
    # json is imported only when JSON is written, so this runs with it unloaded
    proc = run_child(tmp_path, "omega", "--D", "13", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (Path(__file__).parent / "golden" / "omega_D_13.json").read_text(encoding="utf-8")


# -- large primes and the input limits ---------------------------------------------


def test_ap_near_a_billion_matches_the_norm_form(tmp_path):
    p = 1000000009  # split for D = 2
    result, code, _ = invoke("ap", "--D", "2", "--p", str(p), "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    assert result.payload["ap"] == hecke_ap_cm(2, p) != 0
    assert result.payload["match"] is True


# the library entry points behind the limited inputs; none may run past a limit
WORK = (
    (elliptic, ("trace_of_frobenius", "count_points_extension", "_fp2_count")),
    (lfunction, ("zeta_partial", "local_factor_match", "proposition3_check")),
    (groupalg, ("cyclic_tower", "sl2_degree_profile")),
    (bratteli, ("uhf_diagram",)),
    (quadfield, ("omega_of", "fundamental_unit")),
    (contfrac, ("expand",)),
)


def _refused_before_any_work(tmp_path, capsys, monkeypatch, argv):
    counts = [_count_calls(monkeypatch, module, *names) for module, names in WORK]
    cache = tmp_path / "c.tsv"
    _, code, out = invoke(*argv, "--cache", str(cache))
    assert code == 2
    assert out.endswith("# status error\n")
    assert all(c == dict.fromkeys(c, 0) for c in counts), counts
    assert not cache.exists()
    return capsys.readouterr().err


# a power's exponent (depth) is set so the limited value is the option given last
@pytest.mark.parametrize("argv, count, limit", (
    (("count", "--D", "1", "--r", "2", "--p"), "F_(p^2) enumeration", 10 ** 4),
    (("zeta-local", "--D", "1", "--p"), "F_(p^2) enumeration", 10 ** 4),
    (("count", "--D", "1", "--p"), "point count", 10 ** 18),
    (("ap", "--D", "1", "--p"), "point count", 10 ** 18),
    (("lfun", "--which", "zeta", "--s", "2", "--bound"), "prime sieve", 10 ** 6),
    (("match", "--D", "1", "--bound"), "prime sieve", 10 ** 6),
    (("prop3", "--D", "1", "--s", "3", "--bound"), "prime sieve", 10 ** 6),
    (("tower", "--depth", "1", "--p"), "tower", 10 ** 6),
    pytest.param(("dimgroup", "--depth", "1", "--uhf-p"), "UHF chain", 10 ** 100, id="UHF chain-10^100"),
    (("sl2", "--p"), "SL2 degree list", 10 ** 6),
    (("dimgroup", "--depth", "1", "--uhf-p"), "UHF prime", 10 ** 18),
    (("adelic", "--bound", "7", "--ramified"), "ramified prime", 10 ** 18),
    *((argv, "quadratic field", 10 ** 7) for argv in (
        ("contfrac", "--D"), ("unit", "--D"), ("omega", "--D"), ("dimgroup", "--D"),
        ("coherence", "--D"), ("adelic", "--bound", "7", "--D"))),
    (("adelic", "--bound", "7", "--ramified"), "ramified list", 1000),
))
def test_p_above_its_limit_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, count, limit):
    name, table_limit = cli._LIMITS[count]
    assert table_limit == limit
    p = next(q for q in range(limit + 1, 2 * limit) if is_prime(q))  # the first prime past it
    value = ",".join(["2"] * p) if count == "ramified list" else str(p)  # a list of p primes
    err = _refused_before_any_work(tmp_path, capsys, monkeypatch, (*argv, value))
    assert f"{name} = {p} is above the {count} limit {name} <= {limit}" in err


@pytest.mark.parametrize("argv, message", (
    (("tower", "--p", "13", "--depth", "8"), "p^depth = 13^8 is above the tower limit"),
    (("tower", "--p", "3", "--depth", str(10 ** 9)), f"p^depth = 3^{10 ** 9} is above the tower limit"),
    (("adelic", "--bound", "101"), "bound^(depth+1) = 101^3 is above the restricted product limit"),
    (("dimgroup", "--uhf-p", "2", "--depth", "333"), "p^depth = 2^333 is above the UHF chain limit"),
    (("tower", "--p", "2", "--depth", "20"), "p^depth = 2^20 is above the tower limit"),
    (("adelic", "--bound", "11", "--depth", "5"), "bound^(depth+1) = 11^6 is above the restricted product limit"),
    # 399165290221 * 798330580441, which passes all twelve Miller-Rabin witnesses
    (("dimgroup", "--uhf-p", "318665857834031151167461", "--depth", "1"),
     "p = 318665857834031151167461 is above the UHF prime limit p <= 1000000000000000000"),
    (("adelic", "--ramified", "318665857834031151167461", "--bound", "7"),
     "p = 318665857834031151167461 is above the ramified prime limit p <= 1000000000000000000"),
    # past the limit: at 1e16 the next double of Im s moves the value by 0.7, and at 1e308 the power fails
    (("lfun", "--which", "zeta", "--s", "1.5,1e16", "--bound", "20"),
     "|Im s| = 1e+16 is above the Euler factor phase limit |Im s| <= 100000"),
    (("lfun", "--which", "zeta", "--s", "3,1e308", "--bound", "100"),
     "|Im s| = 1e+308 is above the Euler factor phase limit |Im s| <= 100000"),
    (("prop3", "--D", "1", "--s", "3,1e308", "--bound", "10"),
     "|Im s| = 1e+308 is above the Euler factor phase limit |Im s| <= 100000"),
    # depth 1, the least: 1001 is the first bound past the limit, and 1000 is at it (test_refusals.DERIVED)
    (("adelic", "--bound", "1001", "--depth", "1"),
     "bound^(depth+1) = 1001^2 is above the restricted product limit bound^(depth+1) <= 1000000"),
))
def test_a_power_above_its_limit_is_refused_unevaluated(tmp_path, capsys, monkeypatch, argv, message):
    assert message in _refused_before_any_work(tmp_path, capsys, monkeypatch, argv)


# a bound below the first prime the command would visit: its products would be
# empty, and match and prop3 would pass having compared nothing
@pytest.mark.parametrize("argv, first, which", (
    (("match", "--D", "2", "--bound", "4"), 5, "the first good prime of the curve for D = 2"),
    (("match", "--D", "1", "--bound", "2"), 3, "the first good prime of the curve for D = 1"),
    (("prop3", "--D", "3", "--s", "3", "--bound", "4"), 5, "the first good prime of the curve for D = 3"),
    (("prop3", "--D", "1", "--s", "3", "--bound", "0"), 3, "the first good prime of the curve for D = 1"),
    (("lfun", "--which", "zeta", "--s", "3", "--bound", "-3"), 2, "the first prime"),
    (("lfun", "--which", "auto", "--D", "1", "--s", "3", "--bound", "1"), 2, "the first prime"),
    (("adelic", "--bound", "-5"), 2, "the first prime"),
    (("adelic", "--ramified", "2", "--depth", "3", "--bound", "1"), 2, "the first prime"),
    (("lfun", "--which", "motivic", "--D", "2", "--s", "3", "--bound", "3"), 5,
     "the first good prime of the curve for D = 2"),
    (("lfun", "--which", "motivic", "--a4", "-270", "--a6", "1512", "--s", "3", "--bound", "4"), 5,
     "the first good prime of the curve (-270, 1512)"),
    (("lfun", "--which", "auto", "--D", "3", "--s", "3", "--bound", "4"), 5,
     "the first good prime of the curve for D = 3"),
))
def test_a_bound_below_the_first_prime_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv,
                                                                   first, which):
    err = _refused_before_any_work(tmp_path, capsys, monkeypatch, argv)
    assert err == f"kzero {argv[0]}: bound = {argv[-1]} is below {first}, {which}, so no prime would be visited\n"


@pytest.mark.parametrize("argv", (
    ("match", "--D", "1", "--bound", "3"),
    ("match", "--D", "2", "--bound", "5"),
    ("prop3", "--D", "3", "--s", "3", "--bound", "5"),
    ("lfun", "--which", "zeta", "--s", "3", "--bound", "2"),
    ("adelic", "--bound", "2"),
))
def test_a_bound_at_the_first_prime_runs(tmp_path, argv):
    result, code, _ = invoke(*argv, "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    if argv[0] == "match":
        assert result.payload["primes"] == 1  # the first good prime alone


FIELD_COMMANDS = ("contfrac", "unit", "omega", "dimgroup", "coherence", "adelic")


@pytest.mark.parametrize("command", FIELD_COMMANDS)
def test_a_field_at_or_past_its_limit_never_shows_pythons_digit_limit(tmp_path, capsys, command):
    name, limit = cli._LIMITS["quadratic field"]
    at = next(d for d in range(limit, 1, -1) if quadfield.is_squarefree(d))
    for d in (9931639, at, limit + 1, 1000000007):  # 9931639: a unit of 4556 digits
        argv = (command, "--D", str(d), *(("--bound", "7") if command == "adelic" else ()))
        _, code, out = invoke(*argv, "--cache", str(tmp_path / "c.tsv"))
        err = capsys.readouterr().err
        assert "integer string conversion" not in out + err
        if d <= limit:
            assert code in (0, 1), err
        else:
            assert code == 2 and f"{name} = {d} is above the quadratic field limit" in err


def test_the_digit_allowance_covers_the_regulator_bound_at_the_field_limit():
    delta = 4 * cli._LIMITS["quadratic field"][1]  # the largest discriminant of a D within it
    regulator = math.sqrt(delta) * (math.log(delta) / 2 + 1)
    assert cli._FIELD_DIGITS >= 2 * regulator / math.log(10) + 1  # epsilon^2 at most


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit to raise")
def test_run_restores_pythons_digit_limit(tmp_path):
    before = sys.get_int_max_str_digits()
    try:
        for limit in (0, 640, 4300, 10 ** 6):  # 0: no limit
            sys.set_int_max_str_digits(limit)
            assert invoke("dimgroup", "--D", "9931639")[1] == 0
            assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(before)


def test_ap_runs_at_the_largest_prime_within_the_limit(tmp_path):
    p = next(q for q in range(cli._LIMITS["point count"][1], 0, -1) if is_prime(q) and q % 4 == 1)
    result, code, _ = invoke("ap", "--D", "1", "--p", str(p), "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    assert result.payload["match"] is True


def test_fp2_count_runs_at_the_largest_prime_within_the_limit(tmp_path):
    p = max(sieve(cli._LIMITS["F_(p^2) enumeration"][1]))
    result, code, _ = invoke("count", "--D", "1", "--p", str(p), "--r", "2", "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    a = p + 1 - elliptic.count_points_extension(elliptic.cm_curve_for(1), p, 1)
    assert result.payload["count"] == p * p + 1 - (a * a - 2 * p)


# the checks of results are raised, not asserted, so they hold under python -O
BROKEN = {
    "fp2": "elliptic._fp2_count = lambda c, p: 0",
    "exp-log": "elliptic.LocalZeta.log_series = lambda self, order: [0] * (order + 1)",
    "hasse": "elliptic._point_count = lambda c, p: 0",
}


@pytest.mark.parametrize("broken, argv", (
    ("fp2", ("count", "--D", "1", "--p", "5", "--r", "2")),
    ("fp2", ("zeta-local", "--D", "1", "--p", "5")),
    ("exp-log", ("zeta-local", "--D", "1", "--p", "5")),
    ("hasse", ("lfun", "--which", "motivic", "--D", "1", "--s", "3", "--bound", "50")),
))
def test_invariants_survive_python_O(tmp_path, broken, argv):
    code = (
        "import sys\n"
        "from kzero import cli, elliptic, lfunction\n"
        "if __debug__: sys.exit('asserts are on: run this under python -O')\n"
        f"{BROKEN[broken]}\n"
        f"sys.exit(cli.run({[*argv, '--cache', 'c.tsv']!r})[1])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, cwd=str(tmp_path), env=child_env(),
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.endswith("# status fail\n")
    assert "invariant failed" in proc.stderr


def test_an_invariant_failure_names_the_line_that_raised_it(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(elliptic, "_fp2_count", lambda c, p: 0)
    _, code, out = invoke("count", "--D", "1", "--p", "5", "--r", "2", "--cache", str(tmp_path / "c.tsv"))
    assert code == 1
    assert out.endswith("# status fail\n")
    lines, first = inspect.getsourcelines(elliptic._extension_count)
    line = first + next(i for i, text in enumerate(lines) if "raise AssertionError" in text)
    assert capsys.readouterr().err == (
        "kzero count: invariant failed: recursion says 32 but F_5^2 enumeration says 0"
        f" (elliptic.py:{line})\n"
    )
