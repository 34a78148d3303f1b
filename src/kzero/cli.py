"""Command-line surface: one subcommand per verifiable artifact.

Every subcommand runs a library operation, prints a machine-readable result
on stdout in the requested format (TSV by default, JSON with --format json),
and exits 0 when the operation's invariants held, 1 when a checked property
failed, and 2 on usage or domain errors.  Diagnostics go to stderr only.

TSV output is versioned: the first line is a `# kzero <command> v1` comment,
followed by a sorted `# key=value` parameter comment, a fixed column header,
the data rows, and a final `# status <pass|fail|error>` comment.  Output is
deterministic for fixed arguments, so re-running a command with a warm a_p
cache is byte-identical.

The multi-prime trace commands (lfun --which motivic, match, prop3) keep the
Frobenius traces they compute in an append-only TSV cache (default
./apcache.tsv, overridable with --cache).  Only their three handlers open it,
for the run's one curve, in a `with` block after their bound checks; leaving
the block flushes it, so the traces counted before a failed check are kept
too.  No other command reads or creates the file.  Every row of every curve
is checked on load, and a bad one is a usage error naming path:line.  A flush
appends only the rows the run added, so runs sharing a cache keep each
other's rows, and a sequence of runs leaves a file that lists each
(a4, a6, p) once, in first-seen order.  A failed invariant exits 1 and
names, on stderr, the file:line that raised it.

The command table `_COMMANDS` names each flag's `_LIMITS` row, least value and the modes that
read it; from it one pass refuses an unread flag, two modes or none, and a value out of range.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import NamedTuple, Optional, Sequence, TextIO

from kzero import bratteli, coherence, contfrac, elliptic, groupalg, lfunction, primes, quadfield

__all__ = ["CommandResult", "run", "main"]

# What each sized input bounds: (the input, its largest value).  A larger
# value is refused with exit 2 before any work.  Timed at the limit on 2 vCPUs (CI runs
# the tower, adelic, sl2, UHF and curve coefficient rows there and times each whole run):
_LIMITS = {
    "quadratic field": ("D", 10 ** 7),  # 0.3 s at 9931639, the longest period (8952) of the 10^5 D below it
    "point count": ("p", 10 ** 18),  # ap, count: 0.8 s, growing as p^(1/4)
    # --a4, --a6 of count, ap, zeta-local, lfun: good_primes reduces the discriminant once per prime, so
    # lfun --which motivic --bound 10^6 at a4 = a6 = -10^7 takes 8.4-11.1 s and 44.8 MB (40.3 MB for --D 1)
    "curve coefficient": ("|a|", 10 ** 7),
    "F_(p^2) enumeration": ("p", 10 ** 4),  # count --r 2, zeta-local: 0.6 s, as p^2
    "prime sieve": ("bound", 10 ** 6),  # lfun, match, prop3: 13 s at most, 56 MB
    # lfun, prop3: float t ln p errs by |t| ln(10^6) 2^-52 = 3e-10 rad here; a product at t and at the next double
    # of t agrees to 1e-11 (at 10^16, to 0.7)
    "Euler factor phase": ("|Im s|", 10 ** 5),
    "tower": ("p^depth", 10 ** 6),  # tower: 0.6 s and 40 MB at 999983, 0.8 s and 71 MB at 2^19
    "restricted product": ("bound^(depth+1)", 10 ** 6),  # adelic: 0.2 s at 1000^2
    "UHF chain": ("p^depth", 10 ** 100),  # dimgroup --uhf-p: 0.1 s at 2^332
    # dimgroup --uhf-p: 0.01 s; Miller-Rabin is proven below 3.2 * 10^23 only (see primes)
    "UHF prime": ("p", 10 ** 18),
    "ramified prime": ("p", 10 ** 18),  # adelic --ramified: 0.01 s, for the same reason
    "ramified list": ("length", 1000),  # adelic --ramified: 0.3 s for 1000 primes near 10^18
    "SL2 degree list": ("p", 10 ** 6),  # sl2: 0.5 s
}
# The regulator of Q(sqrt(D)) is below sqrt(Delta)(ln(Delta)/2 + 1) with Delta <= 4D, so
# within the quadratic field limit no printed integer, at most epsilon^2, has more digits
# than this.  `run` lets Python convert that many; its default limit is 4300.
_FIELD_DIGITS = 53600


class CommandResult(NamedTuple):
    """What a subcommand computed: parameters, pass/fail/error, and payload."""

    command: str
    parameters: dict
    status: str
    payload: dict


def _parse_s(text: str) -> complex:
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        values = []
    if len(values) in (1, 2) and all(map(math.isfinite, values)):
        return complex(*values)
    raise argparse.ArgumentTypeError(f"expected finite re or re,im, got {text!r}")


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if math.isfinite(tol) and tol >= 0:
        return tol
    raise argparse.ArgumentTypeError(f"expected a finite tolerance >= 0, got {text!r}")


def _fmt(x: object) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.15g}"
    if isinstance(x, list):
        # a list is one comma-separated cell; a list of lists joins its rows with ';'
        return (";" if any(isinstance(v, list) for v in x) else ",").join(map(_fmt, x))
    return str(x)


def _rows(payload: dict, *columns: str, **cells: object) -> list[tuple]:
    """TSV header plus one row read from the payload by column name.

    `cells` gives the value of a column whose TSV form is not its payload entry.
    """
    return [columns, tuple(cells[c] if c in cells else payload[c] for c in columns)]


def _check_limit(what: str, value: int, exp: int = 1) -> None:
    """Refuse value^exp (exp >= 1) past the limit of `what`, without computing a larger power.
    A row on an absolute value |x| compares |value|, so -10^k is refused as 10^k is."""
    name, limit = _LIMITS[what]
    value = abs(value) if name.startswith("|") else value
    if (abs(value) > 1 and exp > limit.bit_length()) or value ** exp > limit:
        shown = value if exp == 1 else f"{value}^{exp}"
        raise ValueError(f"{name} = {shown} is above the {what} limit {name} <= {limit}")


def _s_parameters(s: complex) -> tuple[dict, str]:
    """Refuse |Im s| past its limit; the parameters s and, for Im s != 0, s_im,
    and the TSV cell "re" or "re,im" of s."""
    _check_limit("Euler factor phase", s.imag)
    params = {"s": _fmt(s.real), **({"s_im": _fmt(s.imag)} if s.imag else {})}
    return params, ",".join(params.values())


def _check_bound_reaches(bound: int, curve: Optional[elliptic.CurveQ] = None) -> None:
    """Refuse a bound below the first prime the products would take: the first good
    prime of the curve, or 2 without one.  The products would be empty, and a check
    over them would pass having compared nothing."""
    if curve is None:
        first, which = 2, "the first prime"
    else:
        D = curve.cm_discriminant
        name = f"for D = {D}" if D else f"({curve.a4}, {curve.a6})"
        first, which = elliptic.first_good_prime(curve), f"the first good prime of the curve {name}"
    if bound < first:
        raise ValueError(f"bound = {bound} is below {first}, {which}, so no prime would be visited")


def _curve(args: argparse.Namespace) -> elliptic.CurveQ:
    """The curve named by --D or by --a4 and --a6; `_refuse` saw that one mode names it."""
    return elliptic.cm_curve_for(args.D) if args.D is not None else elliptic.CurveQ(args.a4, args.a6)


def _refuse(args: argparse.Namespace) -> None:
    """Refuse a flag that no selected mode reads, two modes, no mode, and a value below its
    least or past one of its `_LIMITS` rows, in that order.  --which chooses a mode by its
    value; any other mode is selected by one of its flags and needs all of them, as
    "--a4/--a6" does."""
    flags = _COMMANDS[args.command][2]
    value = {flag: getattr(args, flag[2:].replace("-", "_")) for flag, *_ in flags}
    given = {flag for flag in value if value[flag] is not None}
    chosen = [f"--which {args.which}"] if "which" in args else []
    # the modes selected by flags that the chosen --which mode reads; sorted, so --D comes first
    modes = sorted({m for _, _, _, ms, *_ in flags if {*chosen} <= {*ms} for m in ms if not m.startswith("--which")})
    picked = [m for m in modes if given & {*m.split("/")}]
    unread = [flag for flag, _, _, ms, *_ in flags if flag in given and ms and not {*chosen, *picked} & {*ms}]
    if unread and chosen + picked:
        raise ValueError(f"{(chosen + picked)[0]} does not use {'/'.join(unread)}")
    curve = "--a4/--a6" in modes
    if len(picked) > 1:
        named = "/".join(flag for flag in picked[1].split("/") if flag in given)
        raise ValueError(f"give either {picked[0]} or {named}, not both" + ": they name different curves" * curve)
    if modes and not (picked and given >= {*picked[0].split("/")}):
        either = "--D for a table curve or both --a4 and --a6" if curve else " or ".join(modes)
        raise ValueError(f"{chosen[0]} needs {modes[0]}" if len(modes) == 1 else f"give either {either}")
    for flag, _, _, _, *tail in flags:  # tail: [least value[, default in the modes that read it]]
        if flag in given and tail and value[flag] < tail[0]:
            raise ValueError(f"{flag[2:]} must be >= {tail[0]}")
        if tail[1:] and flag not in given:
            setattr(args, flag[2:], tail[1])
    for flag, _, rows, *_ in flags:
        if flag in given:
            for row in rows(args) if callable(rows) else rows:  # a p^depth row takes --depth as exponent
                _check_limit(row, value[flag], args.depth if _LIMITS[row][0].endswith("^depth") else 1)


# -- handlers (return parameters, status, payload, TSV rows with header) -------------


def _cmd_contfrac(args):
    w = quadfield.omega_of(args.D)
    cf = contfrac.expand(w)
    # |omega - p/q| < 1/q^2 for the first 8 convergents p/q, checked exactly in the field
    # as -1 < (q*omega - p)*q < 1
    heads = (contfrac.last_convergents(contfrac.partial_quotients(cf, k))[0] for k in range(1, 9))
    ok = all(-1 < (w * q - p) * q < 1 for p, q in heads)
    payload = {
        "D": args.D,
        "omega": str(w),
        "preperiod": list(cf.preperiod),
        "period": list(cf.period),
    }
    rows = _rows(payload, "D", "preperiod", "period")
    return {"D": args.D}, ("pass" if ok else "fail"), payload, rows


def _cmd_unit(args):
    res = quadfield.fundamental_unit(args.D)
    stable = quadfield.stabilizes_order(res.epsilon)
    payload = {
        "D": args.D,
        "epsilon": str(res.epsilon),
        "norm": res.norm,
        "stable": stable,
    }
    return {"D": args.D}, ("pass" if stable else "fail"), payload, _rows(payload, *payload)


def _cmd_omega(args):
    w = quadfield.omega_of(args.D)
    payload = {
        "D": args.D,
        "omega": str(w),
        "trace": str(w.trace()),
        "norm": str(w.norm()),
    }
    return {"D": args.D}, "pass", payload, _rows(payload, *payload)


def _cmd_dimgroup(args):
    if args.uhf_p is not None:
        params = {"uhf_p": args.uhf_p, "depth": args.depth}
        payload = {**params, "sizes": list(bratteli.uhf_diagram(args.uhf_p, args.depth))}
        return params, "pass", payload, _rows(payload, "p", "depth", "sizes", p=payload["uhf_p"])
    diagram = bratteli.effros_shen(quadfield.omega_of(args.D))
    group = bratteli.stationary_k0(diagram)
    shift_ok = bratteli.shift_action_check(diagram, group)
    payload = {
        "D": args.D,
        "seed": list(diagram.seed),
        "matrix": [list(r) for r in diagram.B],
        "period": diagram.period_length,
        "lambda": str(group.eigenvalue),
        "embedding": [str(g) for g in group.real_embedding],
        "shift_check": shift_ok,
    }
    rows = _rows(payload, *payload, embedding=" ; ".join(payload["embedding"]))
    return {"D": args.D}, ("pass" if shift_ok else "fail"), payload, rows


def _cmd_tower(args):
    tower = groupalg.cyclic_tower(args.p, args.depth)
    params = {"p": args.p, "depth": args.depth}
    payload = {**params, "level_orders": [lv.order for lv in tower.levels]}
    return params, "pass", payload, _rows(payload, *payload)


def _cmd_sl2(args):
    profile = groupalg.sl2_degree_profile(args.p)
    degrees = list(profile.degrees)
    payload = {
        "p": args.p,
        "order": profile.order,
        "class_count": len(degrees),
        "degrees": degrees,
    }
    rows = [("degree", "multiplicity"), *((d, degrees.count(d)) for d in sorted(set(degrees)))]
    return {"p": args.p}, "pass", payload, rows


def _cmd_count(args):
    curve = _curve(args)
    count = elliptic.count_points_extension(curve, args.p, args.r)
    params = {"a4": curve.a4, "a6": curve.a6, "p": args.p, "r": args.r}
    payload = {**params, "count": count}
    return params, "pass", payload, _rows(payload, *payload)


def _cmd_ap(args):
    curve = _curve(args)
    a_p = elliptic.trace_of_frobenius(curve, args.p)
    params = {"a4": curve.a4, "a6": curve.a6, "p": args.p}
    payload = {**params, "ap": a_p}
    if args.D is None:
        return params, "pass", payload, _rows(payload, "p", "ap")
    other = elliptic._norm_form_ap(args.D, args.p)  # hecke_ap_cm's body: p is good, checked above
    payload.update({"ap_norm_form": other, "match": other == a_p})
    columns = ("p", "ap_point_count", "ap_norm_form", "match")
    rows = _rows(payload, *columns, ap_point_count=payload["ap"])
    params["D"] = args.D
    return params, ("pass" if payload["match"] else "fail"), payload, rows


def _cmd_zeta_local(args):
    curve = _curve(args)
    zeta = elliptic.weil_zeta_local(curve, args.p)
    params = {"a4": curve.a4, "a6": curve.a6, "p": args.p}
    payload = {
        **params,
        "ap": zeta.a_p,
        "numerator": list(zeta.numerator),
        "factor": str(zeta),
    }
    return params, "pass", payload, _rows(payload, "p", "ap", "numerator", "factor")


def _cmd_lfun(args):
    s_params, s_cell = _s_parameters(args.s)
    _check_bound_reaches(args.bound)
    if args.which == "zeta":
        approx = lfunction.zeta_partial(args.s, args.bound)
    else:
        curve = _curve(args)
        _check_bound_reaches(args.bound, curve)
        if args.which == "motivic":
            with elliptic.ApCache(args.cache, curve) as cache:
                approx = lfunction.motivic_l1_partial(curve, args.s, args.bound, cache)
        else:
            approx = lfunction.automorphic_l_partial(args.D, args.s, args.bound)
    payload = {
        "which": args.which,
        "s": [args.s.real, args.s.imag],
        "bound": args.bound,
        "value_re": float(approx.value.real),
        "value_im": float(approx.value.imag),
        "factor_count": len(approx.factors),
    }
    params = {"which": args.which, **s_params, "bound": args.bound}
    if args.which != "zeta":  # a motivic curve is named by D or by its coefficients
        params.update({"D": args.D} if args.D is not None else {"a4": curve.a4, "a6": curve.a6})
    rows = _rows(
        payload, "which", "s", "bound", "value_re", "value_im", "factors",
        s=s_cell, factors=payload["factor_count"],
    )
    return params, "pass", payload, rows


def _cmd_match(args):
    curve = elliptic.cm_curve_for(args.D)
    _check_bound_reaches(args.bound, curve)
    with elliptic.ApCache(args.cache, curve) as cache:
        report = lfunction.local_factor_match(args.D, args.bound, cache)
    params = {"D": args.D, "bound": args.bound}
    payload = {**params, "primes": len(report.rows), "mismatches": list(report.mismatches)}
    rows = [("p", "ap_motivic", "ap_automorphic", "match")]
    rows += [(r.p, r.ap_motivic, r.ap_automorphic, r.match) for r in report.rows]
    return params, ("pass" if not report.mismatches else "fail"), payload, rows


def _cmd_prop3(args):
    s_params, s_cell = _s_parameters(args.s)
    curve = elliptic.cm_curve_for(args.D)
    _check_bound_reaches(args.bound, curve)
    with elliptic.ApCache(args.cache, curve) as cache:
        residual = lfunction.proposition3_check(args.D, args.s, args.bound, cache)
    ok = residual < args.tol
    payload = {
        "D": args.D,
        "s": [args.s.real, args.s.imag],
        "bound": args.bound,
        "residual": residual,
        "tol": args.tol,
    }
    params = {"D": args.D, **s_params, "bound": args.bound}
    rows = _rows(payload, *payload, "ok", s=s_cell, ok=ok)
    return params, ("pass" if ok else "fail"), payload, rows


def _cmd_coherence(args):
    cf = contfrac.expand(quadfield.omega_of(args.D))  # one expansion serves both checks
    es = coherence.effros_shen_coherence(args.D, cf)
    stable = quadfield.stabilizes_order(quadfield.fundamental_unit(args.D, cf).epsilon)
    payload = {"D": args.D, "effros_shen": es, "unit_stable": stable}
    return {"D": args.D}, ("pass" if es and stable else "fail"), payload, _rows(payload, *payload)


def _cmd_adelic(args):
    _check_bound_reaches(args.bound)
    _check_limit("restricted product", args.bound, args.depth + 1)
    given = list(filter(str.strip, args.ramified.split(",")))
    _check_limit("ramified list", len(given))
    ramified = set()
    for x in given:
        try:
            p = int(x)
        except ValueError:
            raise ValueError(f"ramified prime {x.strip()!r} is not an integer") from None
        _check_limit("ramified prime", p)
        ramified.add(p)
    for p in sorted(ramified):  # each prime tested once, before any work
        if not primes.is_prime(p):
            raise ValueError(f"ramified set contains non-prime {p}")
    seed = bratteli.effros_shen(quadfield.omega_of(args.D))
    towers = [groupalg.cyclic_tower(p, args.depth) for p in primes.sieve(args.bound) if p not in ramified]
    payload = {
        "ramified": sorted(ramified),
        "factors": [{"p": t.prime, "levels": [lv.order for lv in t.levels]} for t in towers],
        "infinite": {
            "seed": list(seed.seed),
            "matrix": [list(r) for r in seed.B],
            "period": seed.period_length,
        },
    }
    params = {
        "ramified": ",".join(map(str, payload["ramified"])) or "-",
        "bound": args.bound,
        "depth": args.depth,
        "D": args.D,
    }
    rows = [("ramified", params["ramified"])]
    rows += [("factor", f["p"], "levels", f["levels"]) for f in payload["factors"]]
    inf = payload["infinite"]
    rows.append(("infinite", "seed", inf["seed"], "matrix", inf["matrix"], "period", inf["period"]))
    return params, "pass", payload, rows


# -- parser and driver -------------------------------------------------------------


_INT = {"type": int}
_NEEDED = {"type": int, "required": True}
_FIELD = ("--D", _NEEDED, ("quadratic field",), ())
_BOUND = ("--bound", _NEEDED, ("prime sieve",), ())
_S = ("--s", {"type": _parse_s, "required": True}, (), ())
_COEFFICIENT = ("curve coefficient",)
_CURVE = (("--a4", _INT, _COEFFICIENT, ("--a4/--a6",)), ("--a6", _INT, _COEFFICIENT, ("--a4/--a6",)),
          ("--D", _INT, (), ("--D",)))
# Each subcommand once, in the order of `kzero --help`: handler, help line, and its flags
# as (flag, argparse keywords, `_LIMITS` rows, modes[, least[, default]]): the rows its value
# falls under (or a function of the parsed flags giving them), the modes that read it (none:
# all), the least value it takes, and its default in those modes.  Every subcommand also
# takes --format and --cache.
_COMMANDS = {
    "contfrac": (_cmd_contfrac, "continued fraction of omega", (_FIELD,)),
    "unit": (_cmd_unit, "fundamental unit and stability check", (_FIELD,)),
    "omega": (_cmd_omega, "integer-ring generator of Q(sqrt(D))", (_FIELD,)),
    "dimgroup": (_cmd_dimgroup, "stationary or UHF dimension group", (
        ("--D", _INT, ("quadratic field",), ("--D",)),
        ("--uhf-p", _INT, ("UHF chain", "UHF prime"), ("--uhf-p",)),
        ("--depth", _INT, (), ("--uhf-p",), 1, 3))),
    "tower": (_cmd_tower, "cyclic profinite tower with column-sum-p connecting maps", (
        ("--p", _NEEDED, ("tower",), ()), ("--depth", {"type": int, "default": 4}, (), (), 1))),
    "sl2": (_cmd_sl2, "irreducible degree profile of SL2(F_p)", (("--p", _NEEDED, ("SL2 degree list",), (), 3),)),
    "count": (_cmd_count, "point count over F_p or a small extension", (
        *_CURVE, ("--p", _NEEDED, lambda args: ("F_(p^2) enumeration" if args.r == 2 else "point count",), ()),
        ("--r", {"type": int, "default": 1, "choices": (1, 2, 3)}, (), ()))),
    "ap": (_cmd_ap, "Frobenius trace (and norm-form comparison with --D)",
           (*_CURVE, ("--p", _NEEDED, ("point count",), ()))),
    "zeta-local": (_cmd_zeta_local, "local zeta factor with its log identity",
                   (*_CURVE, ("--p", _NEEDED, ("F_(p^2) enumeration",), ()))),
    "lfun": (_cmd_lfun, "partial Euler product value", (
        ("--which", {"choices": ("zeta", "motivic", "auto"), "required": True}, (), ()), _S, _BOUND,
        ("--D", _INT, (), ("--which motivic", "--which auto", "--D")),
        ("--a4", _INT, _COEFFICIENT, ("--which motivic", "--a4/--a6")),
        ("--a6", _INT, _COEFFICIENT, ("--which motivic", "--a4/--a6")))),
    "match": (_cmd_match, "per-prime motivic vs automorphic traces", (("--D", _NEEDED, (), ()), _BOUND)),
    "prop3": (_cmd_prop3, "factorization residual of the assembled products", (
        ("--D", _NEEDED, (), ()), _S, _BOUND, ("--tol", {"type": _parse_tol, "default": 1e-10}, (), ()))),
    "coherence": (_cmd_coherence, "ordered K0 and unit checks for one D", (_FIELD,)),
    "adelic": (_cmd_adelic, "restricted-product descriptor records", (
        ("--ramified", {"default": ""}, (), ()), ("--bound", _NEEDED, (), ()),
        ("--depth", {"type": int, "default": 2}, (), (), 1),
        ("--D", {"type": int, "default": 5}, ("quadratic field",), ()))),
}
_COMMON = (
    ("--format", {"choices": ("json", "tsv"), "default": "tsv",
                  "help": "output format on stdout (default tsv)"}),
    ("--cache", {"default": "./apcache.tsv",
                 "help": "a_p cache path for lfun --which motivic, match and prop3 (default %(default)s)"}),
)


def _build_parser(command: Optional[str]) -> argparse.ArgumentParser:
    """Every subcommand's name and help line, as `kzero --help` lists them; `command`'s flags."""
    parser = argparse.ArgumentParser(prog="kzero", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, hlp, flags) in _COMMANDS.items():
        named = name == command  # any other is a stub without even -h
        p = sub.add_parser(name, help=hlp, add_help=named)
        for flag, kwargs, *_ in (*_COMMON, *flags) if named else ():
            p.add_argument(flag, **kwargs)
    return parser


def _emit(result: CommandResult, rows: Sequence[Sequence], fmt: str, out: TextIO) -> None:
    if fmt == "json":
        import json  # only JSON output needs it, so a TSV run never loads it

        doc = {
            "command": result.command,
            "parameters": result.parameters,
            "status": result.status,
            "payload": result.payload,
        }
        out.write(json.dumps(doc, sort_keys=True) + "\n")
        return
    out.write(f"# kzero {result.command} v1\n")
    if result.parameters:
        out.write("# " + " ".join(f"{k}={v}" for k, v in sorted(result.parameters.items())) + "\n")
    for row in rows:
        out.write("\t".join(_fmt(x) for x in row) + "\n")
    out.write(f"# status {result.status}\n")


def run(argv: Sequence[str], stdout: Optional[TextIO] = None) -> tuple[CommandResult, int]:
    """Execute one subcommand; returns the result and the process exit code."""
    argv = list(argv)
    # argparse takes the first positional argument as the command; no name is an option
    args = _build_parser(next((a for a in argv if a in _COMMANDS), None)).parse_args(argv)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: nothing to raise
    if digits:
        sys.set_int_max_str_digits(max(digits, _FIELD_DIGITS))
    try:
        return _execute(args, stdout if stdout is not None else sys.stdout)
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


def _execute(args: argparse.Namespace, out: TextIO) -> tuple[CommandResult, int]:
    try:
        _refuse(args)
        parameters, status, payload, rows = _COMMANDS[args.command][0](args)
    except AssertionError as exc:
        result = CommandResult(args.command, {}, "fail", {"message": str(exc)})
        _emit(result, (), args.format, out)
        tb = exc.__traceback__
        while tb.tb_next is not None:  # the innermost frame is the one that raised
            tb = tb.tb_next
        where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
        print(f"kzero {args.command}: invariant failed: {exc} ({where})", file=sys.stderr)
        return result, 1
    except (ValueError, ArithmeticError, OSError) as exc:
        # OSError: the cache file cannot be read or appended to
        result = CommandResult(args.command, {}, "error", {"message": str(exc)})
        _emit(result, (), args.format, out)
        print(f"kzero {args.command}: {exc}", file=sys.stderr)
        return result, 2
    result = CommandResult(args.command, parameters, status, payload)
    _emit(result, rows, args.format, out)
    return result, 0 if status == "pass" else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    _, code = run(sys.argv[1:] if argv is None else argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
