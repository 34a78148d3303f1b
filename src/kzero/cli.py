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

Frobenius traces computed along the way persist in an append-only TSV cache
(default ./apcache.tsv, overridable with --cache or KZERO_AP_CACHE; the flag
wins).  Every row is checked on load, and a bad one is a usage error naming
path:line.  A flush appends only the rows the run added, so runs sharing a
cache keep each other's rows, and a sequence of runs leaves a file that
lists each key once, in first-seen order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, TextIO

from kzero import bratteli, coherence, contfrac, elliptic, groupalg, lfunction, quadfield

__all__ = ["CommandResult", "run", "main"]

_CACHE_ENV = "KZERO_AP_CACHE"
_DEFAULT_CACHE = "./apcache.tsv"
# What each sized input bounds: (the input, its largest value).  A larger
# value is refused with exit 2 before any work.  Timed at the limit on 2 vCPUs:
_LIMITS = {
    "point count": ("p", 10 ** 18),  # ap, count: 0.4 s, growing as p^(1/4)
    "F_(p^2) enumeration": ("p", 10 ** 4),  # count --r 2, zeta-local: 1 s, as p^2
    "prime sieve": ("bound", 10 ** 6),  # lfun, match, prop3: prop3 33 s, 65 MB
    "tower": ("p^depth", 10 ** 6),  # tower: 0.9 s and 75 MB
    "restricted product": ("bound^(depth+1)", 10 ** 6),  # adelic: 0.8 s
    "UHF chain": ("p^depth", 10 ** 100),  # dimgroup --uhf-p: 0.2 s
    "SL2 degree list": ("p", 10 ** 6),  # sl2: 0.6 s
}


@dataclass
class CommandResult:
    """What a subcommand computed: parameters, pass/fail/error, and payload."""

    command: str
    parameters: dict
    status: str
    payload: dict


class _CacheBox:
    """Lazily opened a_p cache; only commands that count points touch it."""

    def __init__(self, path: str):
        self.path = path
        self._cache: Optional[elliptic.ApCache] = None

    def get(self) -> elliptic.ApCache:
        if self._cache is None:
            self._cache = elliptic.ApCache(self.path)
        return self._cache

    def flush(self) -> None:
        if self._cache is not None:
            self._cache.flush()


def _parse_s(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected re or re,im, got {text!r}")


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
    """Refuse value^exp past the limit of `what`, without computing a larger power."""
    name, limit = _LIMITS[what]
    if exp >= 1 and ((abs(value) > 1 and exp > limit.bit_length()) or value ** exp > limit):
        shown = value if exp == 1 else f"{value}^{exp}"
        raise ValueError(f"{name} = {shown} is above the {what} limit {name} <= {limit}")


def _resolve_curve(args: argparse.Namespace) -> elliptic.CurveQ:
    if getattr(args, "D", None) is not None:
        return elliptic.cm_curve_for(args.D)
    if args.a4 is None or args.a6 is None:
        raise ValueError("give either --D for a table curve or both --a4 and --a6")
    return elliptic.CurveQ(args.a4, args.a6)


# -- handlers (return parameters, status, payload, TSV rows with header) -------------


def _cmd_contfrac(args, box):
    w = quadfield.omega_of(args.D)
    cf = contfrac.expand(w)
    ok = True
    for conv in contfrac.convergents(cf, 8):
        # |omega - p/q| < 1/q^2, checked exactly in the field
        delta = w - Fraction(conv.p, conv.q)
        if delta.sign() < 0:
            delta = -delta
        ok = ok and delta < Fraction(1, conv.q * conv.q)
    payload = {
        "D": args.D,
        "omega": str(w),
        "preperiod": list(cf.preperiod),
        "period": list(cf.period),
    }
    rows = _rows(payload, "D", "preperiod", "period")
    return {"D": args.D}, ("pass" if ok else "fail"), payload, rows


def _cmd_unit(args, box):
    res = quadfield.fundamental_unit(args.D)
    stable = quadfield.stabilizes_order(res.epsilon)
    ok = abs(res.norm) == 1 and res.epsilon > 1 and stable
    payload = {
        "D": args.D,
        "epsilon": str(res.epsilon),
        "norm": res.norm,
        "stable": stable,
    }
    return {"D": args.D}, ("pass" if ok else "fail"), payload, _rows(payload, *payload)


def _cmd_omega(args, box):
    w = quadfield.omega_of(args.D)
    payload = {
        "D": args.D,
        "omega": str(w),
        "trace": str(w.trace()),
        "norm": str(w.norm()),
    }
    return {"D": args.D}, "pass", payload, _rows(payload, *payload)


def _cmd_dimgroup(args, box):
    if args.uhf_p is not None:
        _check_limit("UHF chain", args.uhf_p, args.depth)
        diagram = bratteli.uhf_diagram(args.uhf_p, args.depth)
        params = {"uhf_p": args.uhf_p, "depth": args.depth}
        payload = {**params, "sizes": [lv.sizes[0] for lv in diagram.levels]}
        return params, "pass", payload, _rows(payload, "p", "depth", "sizes", p=payload["uhf_p"])
    if args.D is None:
        raise ValueError("give either --D or --uhf-p")
    diagram = bratteli.effros_shen(quadfield.omega_of(args.D))
    group = bratteli.stationary_k0(diagram)
    shift_ok = bratteli.shift_action_check(diagram)
    assert group.real_embedding is not None
    payload = {
        "D": args.D,
        "seed": list(diagram.seed.sizes),
        "matrix": [list(r) for r in diagram.B],
        "period": diagram.period_length,
        "lambda": str(group.eigenvalue),
        "embedding": [str(g) for g in group.real_embedding.generators],
        "shift_check": shift_ok,
    }
    rows = _rows(payload, *payload, embedding=" ; ".join(payload["embedding"]))
    return {"D": args.D}, ("pass" if shift_ok else "fail"), payload, rows


def _cmd_tower(args, box):
    _check_limit("tower", args.p, args.depth)
    tower = groupalg.cyclic_tower(args.p, args.depth)
    similar = groupalg.self_similarity_check(tower, args.window)
    params = {"p": args.p, "depth": args.depth, "window": args.window}
    payload = {
        **params,
        "level_orders": [lv.order for lv in tower.levels],
        "self_similar": similar,
    }
    return params, ("pass" if similar else "fail"), payload, _rows(payload, *payload)


def _cmd_sl2(args, box):
    _check_limit("SL2 degree list", args.p)
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


def _cmd_count(args, box):
    _check_limit("F_(p^2) enumeration" if args.r == 2 else "point count", args.p)
    curve = _resolve_curve(args)
    if args.r == 1:
        data = elliptic.trace_of_frobenius(curve, args.p, box.get())
        if not data.good:
            raise elliptic.BadReductionError(f"p = {args.p} is bad for this curve")
        count = args.p + 1 - data.a_p
    else:
        count = elliptic.count_points_extension(curve, args.p, args.r, box.get())
    params = {"a4": curve.a4, "a6": curve.a6, "p": args.p, "r": args.r}
    payload = {**params, "count": count}
    return params, "pass", payload, _rows(payload, *payload)


def _cmd_ap(args, box):
    _check_limit("point count", args.p)
    curve = _resolve_curve(args)
    data = elliptic.trace_of_frobenius(curve, args.p, box.get())
    if not data.good:
        raise elliptic.BadReductionError(f"p = {args.p} is bad for this curve")
    params = {"a4": curve.a4, "a6": curve.a6, "p": args.p}
    payload = {**params, "ap": data.a_p}
    if args.D is None:
        return params, "pass", payload, _rows(payload, "p", "ap")
    other = elliptic.hecke_ap_cm(args.D, args.p)
    payload.update({"ap_norm_form": other, "match": other == data.a_p})
    columns = ("p", "ap_point_count", "ap_norm_form", "match")
    rows = _rows(payload, *columns, ap_point_count=payload["ap"])
    params["D"] = args.D
    return params, ("pass" if payload["match"] else "fail"), payload, rows


def _cmd_zeta_local(args, box):
    _check_limit("F_(p^2) enumeration", args.p)
    curve = _resolve_curve(args)
    zeta = elliptic.weil_zeta_local(curve, args.p)
    params = {"a4": curve.a4, "a6": curve.a6, "p": args.p}
    payload = {
        **params,
        "ap": zeta.a_p,
        "numerator": list(zeta.numerator),
        "factor": str(zeta),
    }
    return params, "pass", payload, _rows(payload, "p", "ap", "numerator", "factor")


def _cmd_lfun(args, box):
    _check_limit("prime sieve", args.bound)
    if args.which == "zeta":
        approx = lfunction.zeta_partial(args.s, args.bound)
    elif args.which == "motivic":
        curve = _resolve_curve(args)
        approx = lfunction.motivic_l1_partial(curve, args.s, args.bound, box.get())
    else:
        if args.D is None:
            raise ValueError("--which auto needs --D")
        approx = lfunction.automorphic_l_partial(args.D, args.i, args.s, args.bound)
    ok = approx.recompute() == approx.value
    payload = {
        "which": args.which,
        "s": [args.s.real, args.s.imag],
        "bound": args.bound,
        "value_re": float(approx.value.real),
        "value_im": float(approx.value.imag),
        "factor_count": len(approx.factors),
    }
    params = {"which": args.which, "s": _fmt(args.s.real), "bound": args.bound}
    if args.s.imag:
        params["s_im"] = _fmt(args.s.imag)
    if args.which != "zeta" and args.D is not None:
        params["D"] = args.D
    if args.which == "auto":
        params["i"] = args.i
    rows = _rows(
        payload, "which", "s", "bound", "value_re", "value_im", "factors",
        s=params["s"] + ("," + params["s_im"] if "s_im" in params else ""),
        factors=payload["factor_count"],
    )
    return params, ("pass" if ok else "fail"), payload, rows


def _cmd_match(args, box):
    _check_limit("prime sieve", args.bound)
    report = lfunction.local_factor_match(args.D, args.bound, box.get())
    params = {"D": args.D, "bound": args.bound}
    payload = {**params, "primes": len(report.rows), "mismatches": list(report.mismatches)}
    rows = [("p", "ap_motivic", "ap_automorphic", "match")]
    rows += [(r.p, r.ap_motivic, r.ap_automorphic, r.match) for r in report.rows]
    return params, ("pass" if not report.mismatches else "fail"), payload, rows


def _cmd_prop3(args, box):
    _check_limit("prime sieve", args.bound)
    residual = lfunction.proposition3_check(args.D, args.s, args.bound, box.get())
    ok = residual < args.tol
    payload = {
        "D": args.D,
        "s": [args.s.real, args.s.imag],
        "bound": args.bound,
        "residual": residual,
        "tol": args.tol,
    }
    params = {"D": args.D, "s": _fmt(args.s.real), "bound": args.bound}
    rows = _rows(payload, *payload, "ok", s=params["s"], ok=ok)
    return params, ("pass" if ok else "fail"), payload, rows


def _cmd_coherence(args, box):
    cf = contfrac.expand(quadfield.omega_of(args.D))  # one expansion serves both checks
    es = coherence.effros_shen_coherence(args.D, cf)
    stable = quadfield.stabilizes_order(quadfield.fundamental_unit(args.D, cf).epsilon)
    g_ok: Optional[bool] = None
    if args.D in elliptic.cm_table_discriminants() and args.D > 1:
        g_ok = coherence.g_coherence_check(
            coherence.trace_cohomology_ecm(args.D), coherence.k0_automorphic(args.D)
        )
    ok = es and stable and (g_ok is not False)
    payload = {"D": args.D, "effros_shen": es, "unit_stable": stable, "g_coherence": g_ok}
    return {"D": args.D}, ("pass" if ok else "fail"), payload, _rows(payload, *payload)


def _cmd_adelic(args, box):
    _check_limit("restricted product", args.bound, args.depth + 1)
    ramified = [int(x) for x in args.ramified.split(",") if x.strip()] if args.ramified else []
    seed = bratteli.effros_shen(quadfield.omega_of(args.D))
    spec = groupalg.assemble_restricted_product(ramified, args.bound, seed, args.depth)
    serialized = groupalg.serialize_restricted_product(spec)
    payload = {
        "ramified": sorted(spec.ramified),
        "factors": [
            {"p": p, "levels": [lv.order for lv in t.levels]}
            for p, t in sorted(spec.factors.items())
        ],
        "infinite": {
            "seed": list(seed.seed.sizes),
            "matrix": [list(r) for r in seed.B],
            "period": seed.period_length,
        },
    }
    params = {
        "ramified": ",".join(map(str, sorted(spec.ramified))) or "-",
        "bound": args.bound,
        "depth": args.depth,
        "D": args.D,
    }
    return params, "pass", payload, [line.split("\t") for line in serialized.splitlines()]


# -- parser and driver -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv"), default="tsv",
                        help="output format on stdout (default tsv)")
    common.add_argument("--cache", default=None,
                        help=f"a_p cache path (default {_DEFAULT_CACHE}; env {_CACHE_ENV})")

    parser = argparse.ArgumentParser(prog="kzero", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add("contfrac", _cmd_contfrac, help="continued fraction of omega")
    p.add_argument("--D", type=int, required=True)

    p = add("unit", _cmd_unit, help="fundamental unit and stability check")
    p.add_argument("--D", type=int, required=True)

    p = add("omega", _cmd_omega, help="integer-ring generator of Q(sqrt(D))")
    p.add_argument("--D", type=int, required=True)

    p = add("dimgroup", _cmd_dimgroup, help="stationary or UHF dimension group")
    p.add_argument("--D", type=int)
    p.add_argument("--uhf-p", type=int, dest="uhf_p")
    p.add_argument("--depth", type=int, default=3)

    p = add("tower", _cmd_tower, help="cyclic profinite tower self-similarity")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--window", type=int, default=3)

    p = add("sl2", _cmd_sl2, help="irreducible degree profile of SL2(F_p)")
    p.add_argument("--p", type=int, required=True)

    for name, handler, hlp in (
        ("count", _cmd_count, "point count over F_p or a small extension"),
        ("ap", _cmd_ap, "Frobenius trace (and norm-form comparison with --D)"),
        ("zeta-local", _cmd_zeta_local, "local zeta factor with its log identity"),
    ):
        p = add(name, handler, help=hlp)
        p.add_argument("--a4", type=int)
        p.add_argument("--a6", type=int)
        p.add_argument("--D", type=int)
        p.add_argument("--p", type=int, required=True)
        if name == "count":
            p.add_argument("--r", type=int, default=1, choices=(1, 2, 3))

    p = add("lfun", _cmd_lfun, help="partial Euler product value")
    p.add_argument("--which", choices=("zeta", "motivic", "auto"), required=True)
    p.add_argument("--s", type=_parse_s, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--D", type=int)
    p.add_argument("--a4", type=int)
    p.add_argument("--a6", type=int)
    p.add_argument("--i", type=int, default=1, choices=(0, 1, 2))

    p = add("match", _cmd_match, help="per-prime motivic vs automorphic traces")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)

    p = add("prop3", _cmd_prop3, help="factorization residual of the assembled products")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--s", type=_parse_s, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)

    p = add("coherence", _cmd_coherence, help="module coherence checks for one D")
    p.add_argument("--D", type=int, required=True)

    p = add("adelic", _cmd_adelic, help="restricted-product descriptor records")
    p.add_argument("--ramified", default="")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--D", type=int, default=5)

    return parser


def _emit(result: CommandResult, rows: Sequence[Sequence], fmt: str, out: TextIO) -> None:
    if fmt == "json":
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
    out = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(list(argv))
    box = _CacheBox(args.cache or os.environ.get(_CACHE_ENV) or _DEFAULT_CACHE)
    try:
        try:
            parameters, status, payload, rows = args.handler(args, box)
        finally:
            box.flush()  # traces counted before a failure are kept too
    except AssertionError as exc:
        result = CommandResult(args.command, {}, "fail", {"message": str(exc)})
        _emit(result, (), args.format, out)
        print(f"kzero {args.command}: invariant failed: {exc}", file=sys.stderr)
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
