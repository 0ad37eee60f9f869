"""Command-line front end: analyze, construct, verify, bounds, enumerate.

Reports are JSON on stdout with a fixed key order and exact rationals
rendered as "p/q" strings, so identical invocations produce byte-identical
output; timing goes to stderr. Exit codes: 0 pass, 1 violation found,
2 usage or parse error. UCF_THREADS caps verification workers.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from .bfamily import _b_report, _prop_suite, b_report, prop_suite
from .chains import (
    _chain_report,
    _lemma13_status,
    _thm12_witness,
    chain_report,
    lemma13_check,
    thm12_witness,
)
from .constructions import (
    ak_certificate,
    astar_certificate,
    astarstar_certificate,
    build_ak,
    build_astar,
    build_astarstar,
)
from .core import (
    WORD_CAPACITY,
    Family,
    _frankl_witness,
    _hasse,
    _is_union_closed,
    avg_size,
    base_set,
    format_family,
    frequencies,
    is_separating,
    parse_family,
    word_elements,
)
from .enumeration import (
    ENUMERATION_CAP,
    EnumFilter,
    THEOREM_IDS,
    canonical_form,
    enumerate_uc,
    verify_theorem,
)
from .errors import ParseError, UcfError


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _sets(masks) -> list[list[int]]:
    return [list(word_elements(m)) for m in masks]


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 2


# 2,747,402 is |UC(5)|, the union-closed families with base [5]
_DEEP_REFUSAL = f"n={ENUMERATION_CAP} walks up to 2,747,402 families; pass --deep to confirm"


def _progress(visited: int) -> None:
    """Progress of an n = ENUMERATION_CAP walk, on stderr."""
    sys.stderr.write(f"... {visited} families visited\n")
    sys.stderr.flush()


def _inapplicable(exc: UcfError) -> dict:
    return {"applicable": False, "reason": type(exc).__name__}


def _cert_json(cert) -> dict:
    out = {}
    for field in dataclasses.fields(cert):
        value = getattr(cert, field.name)
        out[field.name] = _frac(value) if isinstance(value, Fraction) else value
    out["ok"] = cert.ok
    return out


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    path = Path(args.file)
    try:
        data = path.read_bytes()
    except OSError as exc:
        return _fail(str(exc))
    try:
        fam = parse_family(data.decode())
    except (ParseError, UnicodeDecodeError) as exc:
        return _fail(f"{path}: {exc}")

    # The one Hasse scan: the union test, the chains and Lemma 1.3 read it.
    scan = _hasse(fam.members)
    uc, sep = _is_union_closed(fam, scan), is_separating(fam)
    results: dict = {"n": fam.n, "members": len(fam), "union_closed": uc, "separating": sep}
    try:
        base = base_set(fam)
        results["base"] = list(word_elements(base))
    except UcfError as exc:
        base, results["base"] = None, _inapplicable(exc)
    results["base_full"] = base == (1 << fam.n) - 1
    # A section whose core's facts hold calls the core; any other calls the
    # public function, whose first failing check names the reason.
    held = uc and results["base_full"]  # then fam is nonempty and rep is set

    try:
        rep = _chain_report(fam, scan) if fam.members else chain_report(fam)
        results["height"] = rep.height
        results["r"] = rep.r
        results["max_chain"] = _sets(rep.witness_chain)
    except UcfError as exc:
        results["height"] = _inapplicable(exc)

    try:
        results["avg"] = _frac(avg_size(fam))
    except UcfError as exc:
        results["avg"] = _inapplicable(exc)
    counts = frequencies(fam)
    results["frequencies"] = list(counts)
    try:
        wit = _frankl_witness(counts, len(fam))
        results["frankl"] = {
            "element": wit.element,
            "count": wit.count,
            "threshold": _frac(wit.threshold),
            "ok": wit.ok,
        }
    except UcfError as exc:
        results["frankl"] = _inapplicable(exc)

    try:
        br = _b_report(fam, rep.height) if held else b_report(fam)
        results["b_report"] = {
            "B": list(word_elements(br.b)),
            "cover": _sets(br.cover.members),
            "size": br.size,
        }
    except UcfError as exc:
        results["b_report"] = _inapplicable(exc)

    try:
        l13 = _lemma13_status(fam, scan) if held and sep else lemma13_check(fam)
        results["lemma13"] = {"ok": l13.ok}
        if not l13.ok:
            results["lemma13"]["offending_chain"] = _sets(l13.offending_chain)
    except UcfError as exc:
        results["lemma13"] = _inapplicable(exc)

    try:
        wit12 = _thm12_witness(fam, rep) if held and len(fam) > 1 else thm12_witness(fam)
        results["thm12"] = {
            "bound": _frac(wit12.bound),
            "element": wit12.element,
            "count": wit12.count,
        }
    except UcfError as exc:
        results["thm12"] = _inapplicable(exc)

    try:
        props = _prop_suite(fam, rep.height, sep) if held else prop_suite(fam)
        results["propositions"] = {
            key: {"applicable": res.applicable, "holds": res.holds, "witness": res.witness}
            for key, res in props.items()
        }
    except UcfError as exc:
        results["propositions"] = _inapplicable(exc)

    _emit(
        {
            "command": ["analyze", str(path)],
            "input": {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()},
            "results": results,
            "status": "ok",
        }
    )
    return 0


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

# kind -> (unverified builder, certified builder)
_CONSTRUCTIONS = {
    "astar": (build_astar, astar_certificate),
    "astarstar": (build_astarstar, astarstar_certificate),
    "ak": (build_ak, ak_certificate),
}


def _cmd_construct(args) -> int:
    if args.kind == "ak" and args.k is None:
        return _fail("construct ak requires --k")
    if args.kind != "ak" and args.k is not None:
        return _fail(f"construct {args.kind} takes no --k")
    params = (args.n, args.k) if args.kind == "ak" else (args.n,)
    build, certify = _CONSTRUCTIONS[args.kind]
    try:
        if args.no_verify:
            fam, cert = build(*params, verify=False), None
        else:
            fam, cert = certify(*params)
    except UcfError as exc:
        return _fail(f"{type(exc).__name__}: {exc}")

    text = format_family(fam)
    cert_json = json.dumps(_cert_json(cert), indent=2) + "\n" if cert else ""
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            return _fail(str(exc))
        if cert_json:
            sys.stdout.write(cert_json)
    else:
        sys.stdout.write(text)
        if cert_json:
            sys.stderr.write(cert_json)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    if args.n == ENUMERATION_CAP and not args.deep:
        return _fail(_DEEP_REFUSAL)
    outdir = Path(args.out) if args.out else None
    if outdir:
        try:  # before the walk, which can take minutes
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _fail(str(exc))
    try:
        report = verify_theorem(
            args.id,
            args.n,
            hypothesis_necessity=args.hypothesis_necessity,
            progress=_progress if args.n == ENUMERATION_CAP else None,
        )
    except (UcfError, ValueError) as exc:
        return _fail(str(exc))

    if outdir:
        try:
            for idx, violation in enumerate(report.violations):
                name = f"{args.id.replace('.', '')}_n{args.n}_{idx:04d}.family"
                body = f"# {report.mode}: {violation.detail}\n" + format_family(violation.family)
                (outdir / name).write_text(body)
        except OSError as exc:
            return _fail(str(exc))

    _emit(
        {
            "command": ["verify", args.id, f"n={args.n}"],
            "results": {
                "theorem": report.theorem,
                "n": report.n,
                "mode": report.mode,
                "hypothesis": report.hypothesis,
                "families_checked": report.families_checked,
                "violations": [
                    {"family": _sets(v.family.members), "detail": v.detail}
                    for v in report.violations
                ],
                "ok": report.ok,
            },
            "status": "pass" if report.ok else "fail",
        }
    )
    sys.stderr.write(f"elapsed_ms={report.elapsed * 1000:.1f}\n")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _identity_on_grid(n: int) -> tuple[bool, bool]:
    grid = [(x, y) for x in range(n + 1) for y in range(x + 1)]
    zeta_eq = all(bounds_mod.zeta(n, x, y) == bounds_mod.f_relax(n, x, y) for x, y in grid)
    eta_eq = all(bounds_mod.eta(n, x, y) == bounds_mod.g_relax(n, x, y) for x, y in grid)
    return zeta_eq, eta_eq


def _cmd_bounds(args) -> int:
    if args.n > WORD_CAPACITY:
        return _fail(f"bounds requires n <= {WORD_CAPACITY}")
    try:
        step = Fraction(args.grid)
        if step <= 0:
            raise ValueError("grid step must be positive")
    except (ValueError, ZeroDivisionError):
        return _fail(f"bad grid step {args.grid!r}")
    n = args.n
    try:
        fmin = bounds_mod.minimize_f(n, step)
        gmin = bounds_mod.minimize_g(n, step)
        zeta_eq, eta_eq = _identity_on_grid(n)
        half = Fraction(n, 2)
        f_opt = bounds_mod.f_relax(n, half - 1, half - 1)
        g_opt = bounds_mod.g_relax(n, half, half)
        g_expected = half + Fraction(n - 2, n + 6)
        results = {
            "n": n,
            "grid_step": _frac(step),
            "zeta_equals_f": zeta_eq,
            "eta_equals_g": eta_eq,
            "f_min": {"value": _frac(fmin.value), "at": [_frac(fmin.at[0]), _frac(fmin.at[1])]},
            "g_min": {"value": _frac(gmin.value), "at": [_frac(gmin.at[0]), _frac(gmin.at[1])]},
            "f_min_ge_half": fmin.value >= half,
            "g_min_ge_claimed": gmin.value >= g_expected,
            "f_at_claimed_opt": _frac(f_opt),
            "f_claimed_opt_equals_half": f_opt == half,
            "g_at_claimed_opt": _frac(g_opt),
            "g_claimed_opt_matches": g_opt == g_expected,
            "slice_bounds": {
                str(m): _frac(bounds_mod.case2_subcase_bounds(n, m)) for m in (4, 5, 6)
            },
        }
    except UcfError as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    except ValueError as exc:  # a grid too fine to scan
        return _fail(f"bad grid step {args.grid!r}: {exc}")
    _emit({"command": ["bounds", f"n={n}", f"grid={args.grid}"], "results": results, "status": "ok"})
    return 0


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def _cmd_enumerate(args) -> int:
    if args.n == ENUMERATION_CAP and not args.deep:
        return _fail(_DEEP_REFUSAL)
    filt = EnumFilter(separating=True) if args.separating else None
    progress = _progress if args.n == ENUMERATION_CAP else None
    try:
        if args.canonical:
            classes = set()
            enumerate_uc(args.n, filt, lambda f: classes.add(canonical_form(f)), progress)
        if args.count_only:
            count = len(classes) if args.canonical else enumerate_uc(args.n, filt, None, progress)
            _emit(
                {
                    "command": ["enumerate", f"n={args.n}"],
                    "results": {
                        "n": args.n,
                        "separating": bool(args.separating),
                        "canonical": bool(args.canonical),
                        "count": count,
                    },
                    "status": "ok",
                }
            )
        elif args.canonical:
            for index, fam in enumerate(sorted(classes, key=lambda f: f.members), 1):
                sys.stdout.write(f"# class {index}\n{format_family(fam)}\n")
        else:
            index = 0

            def dump(fam: Family) -> None:
                nonlocal index
                index += 1
                sys.stdout.write(f"# family {index}\n{format_family(fam)}\n")

            enumerate_uc(args.n, filt, dump, progress)
    except UcfError as exc:
        return _fail(str(exc))
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucf",
        description="Exact analytics and exhaustive verification for union-closed set families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis of a family file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("construct", help="build an extremal family with its certificate")
    p.add_argument("kind", choices=list(_CONSTRUCTIONS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--no-verify", action="store_true", help="skip the build-time self-check")
    p.add_argument("--out", help="write the family file here (certificate goes to stdout)")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="exhaustively check one theorem at small n")
    p.add_argument("--id", required=True, choices=list(THEOREM_IDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--deep", action="store_true", help=f"allow the n={ENUMERATION_CAP} run")
    p.add_argument("--out", help="dump violating families into this directory")
    p.add_argument(
        "--hypothesis-necessity",
        action="store_true",
        help="T2.1 only: drop n >= 4 and report the families that then fail",
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("bounds", help="bound-function minima and identities at one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", default="1/10", help="grid step as p/q (default 1/10)")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("enumerate", help="list or count union-closed families with base [n]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--separating", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.add_argument(
        "--canonical",
        action="store_true",
        help="report families up to relabeling of [n] (minimum-image representatives)",
    )
    p.add_argument("--deep", action="store_true", help=f"allow the n={ENUMERATION_CAP} run")
    p.set_defaults(fn=_cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
