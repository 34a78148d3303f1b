"""Refusals generated from the command table: every `_LIMITS` row a flag falls under, every
flag's least value, and every flag that a mode does not read, checked for each subcommand in
`cli._COMMANDS`.

Each case runs in-process through `cli.run` and must exit 2 before any library work.
`refusal_children.py` runs a subset of the same cases as `python -O` children.
"""

import inspect
import re

import pytest

from kzero import cli
from test_cli import FIELD_COMMANDS, _refused_before_any_work, invoke

# a cheap argv for each mode of each subcommand; each runs with exit 0
BASE = {
    "contfrac": (("--D", "7"),),
    "unit": (("--D", "2"),),
    "omega": (("--D", "13"),),
    "dimgroup": (("--D", "7"), ("--uhf-p", "3", "--depth", "2")),
    "tower": (("--p", "3", "--depth", "2"),),
    "sl2": (("--p", "5"),),
    "count": (("--D", "1", "--p", "5"), ("--a4", "2", "--a6", "3", "--p", "13"), ("--D", "1", "--p", "5", "--r", "2")),
    "ap": (("--D", "1", "--p", "13"), ("--a4", "2", "--a6", "3", "--p", "13")),
    "zeta-local": (("--D", "1", "--p", "5"), ("--a4", "2", "--a6", "3", "--p", "13")),
    "lfun": (
        ("--which", "zeta", "--s", "3", "--bound", "30"),
        ("--which", "motivic", "--D", "1", "--s", "3", "--bound", "30"),
        ("--which", "motivic", "--a4", "2", "--a6", "3", "--s", "3", "--bound", "30"),
        ("--which", "auto", "--D", "1", "--s", "3", "--bound", "30"),
    ),
    "match": (("--D", "1", "--bound", "50"),),
    "prop3": (("--D", "1", "--s", "3", "--bound", "50"),),
    "coherence": (("--D", "3"),),
    "adelic": (("--bound", "7"),),
}
# a value within every limit for each flag that only some modes read
SAMPLE = {"--D": "1", "--a4": "2", "--a6": "3", "--uhf-p": "3", "--depth": "2"}
# for each row that a handler checks on a value derived from several flags: an argv
# with the first value past the row, and one with the last value at it
DERIVED = {
    "Euler factor phase": (("lfun", "--which", "zeta", "--s", "3,100001", "--bound", "30"),
                           ("lfun", "--which", "zeta", "--s", "3,100000", "--bound", "30")),
    "restricted product": (("adelic", "--bound", "1001", "--depth", "1"),
                           ("adelic", "--bound", "1000", "--depth", "1")),
    "ramified list": (("adelic", "--bound", "7", "--ramified", ",".join(["2"] * 1001)),
                      ("adelic", "--bound", "7", "--ramified", ",".join(["2"] * 1000))),
    "ramified prime": (("adelic", "--bound", "7", "--ramified", str(10 ** 18 + 1)),
                       ("adelic", "--bound", "7", "--ramified", str(10 ** 18))),
}


def _is_which(mode):
    return mode.startswith("--which ")


def _namespace(command, argv):
    return cli._build_parser(command).parse_args([command, *argv])


def _selected(command, base):
    """The modes the base argv selects: its --which value, and each mode whose flags it gives."""
    modes = {m for _, _, _, ms, *_ in cli._COMMANDS[command][2] for m in ms if not _is_which(m)}
    given = set(base[::2])
    which = {f"--which {base[base.index('--which') + 1]}"} if "--which" in base else set()
    return which | {m for m in modes if set(m.split("/")) <= given}


def _with(argv, flag, value):
    """`argv` with `flag` set to `value`, in its place when given."""
    if flag in argv:
        i = argv.index(flag)
        return (*argv[: i + 1], value, *argv[i + 2 :])
    return (*argv, flag, value)


def _first_past(limit, exp):
    """The least v >= 1 with v^exp above the limit, by bisection in integers."""
    low, high = 0, limit + 1  # low^exp <= limit < high^exp
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if mid ** exp <= limit else (low, mid)
    return high


def row_cases():
    """(argv, flag, row, value) for each row of each flag that a base argv's modes read:
    the first value past that row's limit.  A flag whose modes are of both kinds, such as
    lfun's --a4 (--which motivic, --a4/--a6), is read only when one of each kind is chosen."""
    for command, bases in BASE.items():
        for base in bases:
            chosen, args = _selected(command, base), _namespace(command, base)
            for flag, _, rows, modes, *_ in cli._COMMANDS[command][2]:
                kinds = ({m for m in modes if _is_which(m) == which} for which in (True, False))
                if not all(chosen & kind for kind in kinds if kind):
                    continue
                for row in rows(args) if callable(rows) else rows:
                    name, limit = cli._LIMITS[row]
                    value = _first_past(limit, args.depth if name.endswith("^depth") else 1)
                    yield (command, *_with(base, flag, str(value))), flag, row, value


def least_cases():
    """(argv, flag, least) for each flag with a least value that a base argv's modes read:
    the value one below it."""
    for command, bases in BASE.items():
        for base in bases:
            chosen = _selected(command, base)
            for flag, _, _, modes, *least in cli._COMMANDS[command][2]:
                if least and (not modes or chosen & set(modes)):
                    yield (command, *_with(base, flag, str(least[0] - 1))), flag, least[0]


def unread_cases():
    """(argv, mode) for each flag that a mode of a base argv does not read."""
    for command, bases in BASE.items():
        for base in bases:
            chosen = sorted(_selected(command, base), key=lambda m: (not _is_which(m), m))  # --which first
            for flag, _, _, modes, *_ in cli._COMMANDS[command][2]:
                if flag in base or not modes:
                    continue
                # a mode that does not read the flag, among modes of its own kind that do
                mode = next((m for m in chosen if m not in modes
                             and any(_is_which(x) == _is_which(m) for x in modes)), None)
                if mode is not None:
                    yield (command, *base, flag, SAMPLE[flag]), mode


def _table_rows():
    """Every row a flag names; a function of the flags, at each base argv of its command."""
    rows = set()
    for command, (_, _, flags) in cli._COMMANDS.items():
        for _, _, spec, *_ in flags:
            specs = [spec(_namespace(command, base)) for base in BASE[command]] if callable(spec) else [spec]
            rows.update(*specs)
    return rows


def _case_id(case):
    return " ".join(a if len(a) < 30 else a[:12] + "..." for a in case[0])


def test_every_mode_has_a_base_argv_that_runs(tmp_path):
    for command, (_, _, flags) in cli._COMMANDS.items():
        modes = {m for _, _, _, ms, *_ in flags for m in ms}
        which = next((kw["choices"] for flag, kw, *_ in flags if flag == "--which"), ())
        modes |= {f"--which {w}" for w in which}
        assert set().union(*(_selected(command, base) for base in BASE[command])) == modes, command
    assert tuple(BASE) == tuple(cli._COMMANDS)
    for command, bases in BASE.items():
        for base in bases:
            assert invoke(command, *base, "--cache", str(tmp_path / "c.tsv"))[1] == 0, (command, base)


@pytest.mark.parametrize("case", list(row_cases()), ids=_case_id)
def test_the_first_value_past_a_flags_row_is_refused_before_any_work(tmp_path, capsys, monkeypatch, case):
    argv, flag, row, value = case
    err = _refused_before_any_work(tmp_path, capsys, monkeypatch, argv)
    assert f"is above the {row} limit" in err
    # one less passes this row's check, which does no work
    try:
        cli._refuse(_namespace(argv[0], _with(argv[1:], flag, str(value - 1))))
    except ValueError as exc:
        assert f"the {row} limit" not in str(exc)


@pytest.mark.parametrize("case", list(least_cases()), ids=_case_id)
def test_the_value_below_a_flags_least_is_refused_before_any_work(tmp_path, capsys, monkeypatch, case):
    argv, flag, least = case
    err = _refused_before_any_work(tmp_path, capsys, monkeypatch, argv)
    assert err == f"kzero {argv[0]}: {flag[2:]} must be >= {least}\n"
    cli._refuse(_namespace(argv[0], _with(argv[1:], flag, str(least))))  # the least itself passes


def test_every_least_value_is_reached_from_a_base_argv():
    table = {(command, flag) for command, (_, _, flags) in cli._COMMANDS.items()
             for flag, _, _, _, *least in flags if least}
    assert {(argv[0], flag) for argv, flag, _ in least_cases()} == table


@pytest.mark.parametrize("case", list(unread_cases()), ids=_case_id)
def test_a_flag_the_mode_does_not_read_is_refused_naming_the_mode(tmp_path, capsys, monkeypatch, case):
    argv, mode = case
    err = _refused_before_any_work(tmp_path, capsys, monkeypatch, argv)
    assert mode in err and "above" not in err


def missing_cases():
    """(argv, flag) for each base argv without one flag of a mode it selects by its flags."""
    for command, bases in BASE.items():
        for base in bases:
            for mode in sorted(_selected(command, base)):
                for flag in [] if _is_which(mode) else mode.split("/"):
                    i = base.index(flag)
                    yield (command, *base[:i], *base[i + 2 :]), flag


@pytest.mark.parametrize("case", list(missing_cases()), ids=_case_id)
def test_an_argv_without_a_mode_is_refused_naming_its_flags(tmp_path, capsys, monkeypatch, case):
    argv, flag = case
    err = _refused_before_any_work(tmp_path, capsys, monkeypatch, argv)
    assert flag in err and ("give either" in err or "needs" in err)


def test_every_flag_read_by_some_mode_is_refused_by_another():
    refused = {(argv[0], argv[-2]) for argv, _ in unread_cases()}
    for command, (_, _, flags) in cli._COMMANDS.items():
        assert {(command, flag) for flag, _, _, modes, *_ in flags if modes} <= refused


def test_a_field_past_its_limit_is_refused_by_every_field_command(tmp_path, capsys, monkeypatch):
    fields = [c for c, (_, _, flags) in cli._COMMANDS.items()
              if any(f[0] == "--D" and "quadratic field" in f[2] for f in flags)]
    assert tuple(fields) == FIELD_COMMANDS
    for command in fields:
        argv = (command, *_with(BASE[command][0], "--D", "1000000007"))
        err = _refused_before_any_work(tmp_path, capsys, monkeypatch, argv)
        assert err == f"kzero {command}: D = 1000000007 is above the quadratic field limit D <= 10000000\n"


@pytest.mark.parametrize("sign", ("", "-"))
def test_a_curve_coefficient_past_its_limit_is_refused_whatever_its_sign(tmp_path, capsys, monkeypatch, sign):
    name, limit = cli._LIMITS["curve coefficient"]
    message = f"{name} = {limit + 1} is above the curve coefficient limit {name} <= {limit}"
    for command, base in (("count", BASE["count"][1]), ("lfun", BASE["lfun"][2])):
        for flag in ("--a4", "--a6"):
            argv = (command, *_with(base, flag, f"{sign}{limit + 1}"))
            assert _refused_before_any_work(tmp_path, capsys, monkeypatch, argv) == f"kzero {command}: {message}\n"
        # both coefficients at the limit pass
        cli._refuse(_namespace(command, _with(_with(base, "--a4", f"{sign}{limit}"), "--a6", f"{sign}{limit}")))


def test_every_limit_is_reached_by_a_flag_or_by_a_check_its_handler_keeps():
    kept = set(re.findall(r'_check_limit\("([^"]+)"', inspect.getsource(cli)))
    assert kept == set(DERIVED)
    table = _table_rows()
    assert not table & kept  # no row is checked in both places
    assert table | kept == set(cli._LIMITS)
    assert {row for _, _, row, _ in row_cases()} == table


class _Passed(Exception):
    """Raised once a handler's check of one row has passed, so no work follows."""


@pytest.mark.parametrize("row", DERIVED)
def test_a_derived_value_past_its_row_is_refused_before_any_work(tmp_path, capsys, monkeypatch, row):
    past, at = DERIVED[row]
    err = _refused_before_any_work(tmp_path, capsys, monkeypatch, past)
    assert f"is above the {row} limit" in err
    # the last value at the limit passes `_refuse` and the handler's check of this row
    check = cli._check_limit

    def stop_once_passed(what, *value):
        check(what, *value)
        if what == row:
            raise _Passed

    monkeypatch.setattr(cli, "_check_limit", stop_once_passed)
    with pytest.raises(_Passed):
        invoke(*at, "--cache", str(tmp_path / "c.tsv"))
