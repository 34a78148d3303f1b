import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kzero
from kzero import bratteli, cli, contfrac, elliptic, groupalg, lfunction, quadfield
from kzero.cli import CommandResult, main, run
from kzero.elliptic import hecke_ap_cm
from kzero.primes import is_prime, sieve


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


def test_tower_and_coherence(tmp_path):
    _, code, out = invoke("tower", "--p", "3", "--depth", "4", "--window", "2")
    assert code == 0
    assert "# status pass" in out

    _, code, out = invoke("coherence", "--D", "3", "--format", "json",
                          "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"] == {
        "D": 3,
        "effros_shen": True,
        "unit_stable": True,
        "g_coherence": True,
    }

    # D outside the curve table: the g-coherence column is not applicable
    _, code, out = invoke("coherence", "--D", "7", "--format", "json")
    assert code == 0
    assert json.loads(out)["payload"]["g_coherence"] is None


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


def test_main_returns_exit_code(tmp_path, capsys):
    assert main(["omega", "--D", "5"]) == 0
    capsys.readouterr()


# -- cache handling ------------------------------------------------------------------


def test_cache_flag_creates_file(tmp_path):
    path = tmp_path / "mine.tsv"
    invoke("ap", "--D", "1", "--p", "5", "--cache", str(path))
    assert path.read_text().startswith("a4\ta6\tp\tap\n")
    assert "-1\t0\t5\t-2" in path.read_text()


def test_cache_env_var_and_flag_precedence(tmp_path, monkeypatch):
    env_path = tmp_path / "env.tsv"
    flag_path = tmp_path / "flag.tsv"
    monkeypatch.setenv("KZERO_AP_CACHE", str(env_path))

    invoke("ap", "--D", "1", "--p", "5")
    assert env_path.exists()

    invoke("ap", "--D", "1", "--p", "13", "--cache", str(flag_path))
    assert "13" in flag_path.read_text()
    assert "13" not in env_path.read_text()


def test_commands_without_counting_do_not_touch_cache(tmp_path, monkeypatch):
    path = tmp_path / "untouched.tsv"
    monkeypatch.setenv("KZERO_AP_CACHE", str(path))
    invoke("contfrac", "--D", "7")
    invoke("sl2", "--p", "7")
    invoke("tower", "--p", "2", "--depth", "3", "--window", "1")
    assert not path.exists()


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
    assert invoke("ap", "--D", "1", "--p", "1009", "--cache", str(cache))[1] == 0
    expected += f"-1\t0\t1009\t{hecke_ap_cm(1, 1009)}\n"
    assert cache.read_text() == expected
    assert invoke(*match)[1] == 0
    assert cache.read_text() == expected
    # the SHA-256 of the file the rewriting cache wrote after these three runs
    digest = "18ca61da4ed029f82cd766c8e325e15dc572499d722e1badc500672bbcc2ef8e"
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("curve", (("--D", "1"), ("--a4", "-1", "--a6", "0")))
def test_cache_hit_outside_hasse_bound_exits_1(tmp_path, capsys, curve):
    cache = tmp_path / "c.tsv"
    cache.write_text("a4\ta6\tp\tap\n-1\t0\t97\t1000\n")
    _, code, out = invoke("ap", *curve, "--p", "97", "--cache", str(cache))
    assert code == 1
    assert out.endswith("# status fail\n")
    assert "Hasse bound violated at p=97" in capsys.readouterr().err


@pytest.mark.parametrize("argv", (
    ("count", "--D", "1", "--p", "5"),
    ("ap", "--D", "1", "--p", "13"),
    ("lfun", "--which", "motivic", "--D", "1", "--s", "3", "--bound", "50"),
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


def test_unreadable_cache_exits_2(tmp_path, capsys):
    # a directory where the cache file should be
    _, code, _ = invoke("ap", "--D", "1", "--p", "13", "--cache", str(tmp_path))
    assert code == 2
    assert str(tmp_path) in capsys.readouterr().err


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
    calls = _count_calls(monkeypatch, bratteli, "_pf_exact_2x2", "_is_primitive")
    _, code, _ = invoke("dimgroup", "--D", "7", "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    # one group for the payload and one inside the shift-action check
    assert calls == {"_pf_exact_2x2": 2, "_is_primitive": 2}


def test_adelic_validates_each_tower_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, groupalg, "validate_tower")
    argv = ("adelic", "--ramified", "2,3", "--bound", "7", "--cache", str(tmp_path / "c.tsv"))
    _, code, _ = invoke(*argv)
    assert code == 0
    # the unramified primes 5 and 7 get one tower each
    assert calls == {"validate_tower": 2}


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


NUMPY_PROBE = """
import io, sys
from kzero.cli import run

def kzero(*argv):
    assert run([*argv, "--cache", "c.tsv"], stdout=io.StringIO())[1] == 0

kzero("coherence", "--D", "3")
kzero("adelic", "--ramified", "2,3", "--bound", "7", "--D", "5")
kzero("ap", "--D", "1", "--p", "10009")
assert "numpy" not in sys.modules, "loaded without a character sum"
kzero("ap", "--D", "1", "--p", "13")
assert "numpy" in sys.modules, "not loaded by a point count"
"""


def test_numpy_is_loaded_only_to_count_points(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr


# -- large primes and the input limits ---------------------------------------------


def test_ap_near_a_billion_matches_the_norm_form(tmp_path):
    p = 1000000009  # split for D = 2
    result, code, _ = invoke("ap", "--D", "2", "--p", str(p), "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    assert result.payload["ap"] == hecke_ap_cm(2, p) != 0
    assert result.payload["match"] is True


# the library entry points behind the limited inputs; none may run past a limit
WORK = (
    (elliptic, ("count_points_fp", "count_points_fp2_enumeration")),
    (lfunction, ("zeta_partial", "local_factor_match", "proposition3_check")),
    (groupalg, ("cyclic_tower", "sl2_degree_profile", "assemble_restricted_product")),
    (bratteli, ("uhf_diagram",)),
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
    (("adelic", "--depth", "0", "--bound"), "restricted product", 10 ** 6),
    pytest.param(("dimgroup", "--depth", "1", "--uhf-p"), "UHF chain", 10 ** 100, id="argv9-UHF chain-10^100"),
    (("sl2", "--p"), "SL2 degree list", 10 ** 6),
))
def test_p_above_its_limit_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, count, limit):
    name, table_limit = cli._LIMITS[count]
    assert table_limit == limit
    p = next(q for q in range(limit + 1, 2 * limit) if is_prime(q))  # the first prime past it
    err = _refused_before_any_work(tmp_path, capsys, monkeypatch, (*argv, str(p)))
    assert f"{name} = {p} is above the {count} limit {name} <= {limit}" in err


@pytest.mark.parametrize("argv, message", (
    (("tower", "--p", "13", "--depth", "8"), "p^depth = 13^8 is above the tower limit"),
    (("tower", "--p", "3", "--depth", str(10 ** 9)), f"p^depth = 3^{10 ** 9} is above the tower limit"),
    (("adelic", "--bound", "101"), "bound^(depth+1) = 101^3 is above the restricted product limit"),
    (("dimgroup", "--uhf-p", "2", "--depth", "333"), "p^depth = 2^333 is above the UHF chain limit"),
))
def test_a_power_above_its_limit_is_refused_unevaluated(tmp_path, capsys, monkeypatch, argv, message):
    assert message in _refused_before_any_work(tmp_path, capsys, monkeypatch, argv)


def test_ap_runs_at_the_largest_prime_within_the_limit(tmp_path):
    p = next(q for q in range(cli._LIMITS["point count"][1], 0, -1) if is_prime(q) and q % 4 == 1)
    result, code, _ = invoke("ap", "--D", "1", "--p", str(p), "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    assert result.payload["match"] is True


def test_fp2_count_runs_at_the_largest_prime_within_the_limit(tmp_path):
    p = max(sieve(cli._LIMITS["F_(p^2) enumeration"][1]))
    result, code, _ = invoke("count", "--D", "1", "--p", str(p), "--r", "2", "--cache", str(tmp_path / "c.tsv"))
    assert code == 0
    a = p + 1 - elliptic.count_points_fp(elliptic.cm_curve_for(1), p)
    assert result.payload["count"] == p * p + 1 - (a * a - 2 * p)


# the checks of results are raised, not asserted, so they hold under python -O
BROKEN = {
    "fp2": "elliptic.count_points_fp2_enumeration = lambda c, p: 0",
    "exp-log": "elliptic.LocalZeta.log_series = lambda self, order: [0] * (order + 1)",
    "hasse": "lfunction.hecke_ap_cm = lambda D, p: 2 * p",
}


@pytest.mark.parametrize("broken, argv", (
    ("fp2", ("count", "--D", "1", "--p", "5", "--r", "2")),
    ("fp2", ("zeta-local", "--D", "1", "--p", "5")),
    ("exp-log", ("zeta-local", "--D", "1", "--p", "5")),
    ("hasse", ("lfun", "--which", "auto", "--D", "1", "--s", "3", "--bound", "50")),
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
