"""The four workloads: their inputs, their operations and the oracle for each.

An operation is one public call: one `verify_theorem`, `enumerate_uc`,
`union_closure` or `*_certificate` call, or one in-process `ucf.cli.main`
call with stdout captured. Each op resolves the ucf function through its
module at call time, so the tracer's wrappers are used when installed.

Only `analyze` draws on the seed. It relabels fixed generator templates
and fixed constructions. Relabeling keeps each input's inclusion
structure, and with it the cost of every phase, the same for every seed.
Freshly drawn 8-generator sets take from 1 ms to 2.3 s each in
`union_closure` (2-vCPU VM, Python 3.11), because its frontier blow-up
depends on the structure drawn; freshly drawn small sets moved the
`analyze` phase of a pass by up to 0.2 s from seed to seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracle

WORKLOADS = ("verify", "enumerate", "analyze", "bounds")

THEOREM_IDS = ("T1.2", "L1.3", "T1.4", "L2.1.1", "T2.1", "C2.2", "T4.1", "PROPS")


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output is right
    families: int = 1  # families this op consumes (DFS leaves for verify/enumerate)
    digest: Callable[[Any], str] | None = None  # SHA-256 of the op's report
    check_id: str | None = None  # verify ops: the check id whose gate pass ratio it feeds
    repeat: int = 1  # runs in a row per untraced pass; each run is one sample


def _ucf(module: str):
    return sys.modules[f"ucf.{module}"]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process `ucf` invocation: (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _ucf("cli").main(argv)
    return code, out.getvalue()


def _cli_digest(output) -> str:
    return _sha(output[1])


def _cli_json(output) -> dict:
    code, text = output
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(text)


def _checked(check: Callable[[Any], str | None]) -> Callable[[Any], str | None]:
    """Turn an exception raised while reading an output into a failure."""

    def run(output):
        try:
            return check(output)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    return run


# ---------------------------------------------------------------------------
# verify: the non-deep battery
# ---------------------------------------------------------------------------

def _verify_digest(report) -> str:
    body = [
        report.theorem,
        report.n,
        report.mode,
        report.families_checked,
        [[list(v.family.members), v.detail] for v in report.violations],
    ]
    return _sha(json.dumps(body))


def _verify_op(tid: str, n: int, necessity: bool = False) -> Op:
    if necessity:
        want_checked, want_violations = oracle.NECESSITY_N3
    elif n == 5:
        want_checked, want_violations = oracle.T14_N5_CHECKED, 0
    else:
        want_checked, want_violations = oracle.VERIFY_CHECKED[tid][n - 1], 0

    def call():
        return _ucf("enumeration").verify_theorem(
            tid, n, workers=1, hypothesis_necessity=necessity
        )

    def check(report) -> str | None:
        got = (report.families_checked, len(report.violations))
        if got != (want_checked, want_violations):
            return f"(checked, violations) = {got}, expected {(want_checked, want_violations)}"
        if not report.ok:
            return "report not ok"
        return None

    name = f"verify:{tid}:n{n}" + (":necessity" if necessity else "")
    return Op(name, call, _checked(check), oracle.leaves(tid, n), _verify_digest,
              None if necessity else tid, SMALL_VERIFY_REPEAT if n <= 3 else 1)


# The n <= 3 ops take under 10 ms each, 0.04 s a pass together, and both
# op_p50 and op_tail of `verify` fall on them. Run once a pass they had 6-8
# samples a run, and those two figures spread 0.07-0.09 over 10 runs; run
# 8 times in a row they cost 0.2 s more a pass (2-vCPU VM, Python 3.11).
SMALL_VERIFY_REPEAT = 8


def verify_workload() -> list[Op]:
    ops = [_verify_op(tid, n) for tid in THEOREM_IDS for n in range(1, 5)]
    ops.append(_verify_op("T2.1", 3, necessity=True))
    ops.append(_verify_op("T1.4", 5))
    return ops


# ---------------------------------------------------------------------------
# enumerate: the DFS at scale
# ---------------------------------------------------------------------------

def _count_check(want: int):
    def check(count) -> str | None:
        return None if count == want else f"count {count}, expected {want}"

    return check


def _enum_op(name: str, n: int, want: int, leaves: int, **filt) -> Op:
    def call():
        enum = _ucf("enumeration")
        return enum.enumerate_uc(n, enum.EnumFilter(**filt) if filt else None)

    return Op(f"enumerate:{name}", call, _checked(_count_check(want)), leaves)


def enumerate_workload() -> list[Op]:
    def classes4():
        enum = _ucf("enumeration")
        classes = set()
        count = enum.enumerate_uc(4, None, lambda fam: classes.add(enum.canonical_form(fam)))
        return count, len(classes)

    def check_classes(output) -> str | None:
        want = (oracle.uc_count(4), oracle.CANONICAL_CLASSES_N4)
        return None if output == want else f"(families, classes) = {output}, expected {want}"

    # Four walks of the n = 5 tree under height cap 3 (15,067 leaves each)
    # with filters that prune nothing, so each is the same DFS with a
    # different count to check. With h2 = B(6) families of height <= 2:
    # the empty set sits below every other member, so the families of
    # height <= 3 that hold it are those of height <= 2 without it, with it
    # added: h2 - 1 of them. No op runs for more than about a second, so
    # that reference samples fall close around each.
    h3 = oracle.LEAVES[3][5]
    h2 = oracle.height2_count(5)
    return [
        _enum_op("n5:h<=3", 5, h3, h3, height=(1, 3)),
        _enum_op("n5:h=3", 5, h3 - h2, h3, height=3),
        _enum_op("n5:h<=3:empty", 5, h2 - 1, h3, height=(1, 3), contains_empty=True),
        _enum_op("n5:h<=3:no-empty", 5, h3 - h2 + 1, h3, height=(1, 3), contains_empty=False),
        _enum_op("n5:h<=2", 5, h2, h2, height=(1, 2)),
        _enum_op("n4", 4, oracle.uc_count(4), oracle.LEAVES[None][4]),
        Op("enumerate:n4:canonical", classes4, _checked(check_classes),
           oracle.LEAVES[None][4]),
    ]


# ---------------------------------------------------------------------------
# bounds: exact grid minimisation
# ---------------------------------------------------------------------------

# n = 10 on a 1/50 grid. On a shared 2-vCPU VM the 1/100 grid is one op of
# 4-7 s; a 20 s run held 2-4 samples, and on the plain clock the spread of
# 10 runs was 0.36. 1/50 runs the same exact scan over a quarter of the
# points, in about 1-1.5 s.
BOUNDS_N = 10
BOUNDS_GRID = "1/50"


def bounds_workload() -> list[Op]:
    n = BOUNDS_N
    half = Fraction(n, 2)
    g_min = Fraction(n * n + 8 * n - 4, 2 * n + 12)
    ft = oracle.frac_text

    def check(output) -> str | None:
        res = _cli_json(output)["results"]
        expected = {
            "f_min": {"value": ft(half), "at": [ft(half - 1), ft(half - 1)]},
            "g_min": {"value": ft(g_min), "at": [ft(half), ft(half)]},
        }
        for key, want in expected.items():
            if res[key] != want:
                return f"{key} = {res[key]}, expected {want}"
        for key in ("zeta_equals_f", "eta_equals_g", "f_min_ge_half", "g_min_ge_claimed",
                    "f_claimed_opt_equals_half", "g_claimed_opt_matches"):
            if res[key] is not True:
                return f"{key} is {res[key]}"
        for m, value in res["slice_bounds"].items():
            if Fraction(value) <= half:
                return f"slice bound for m={m} is {value}, not above n/2"
        return None

    op = Op(
        f"bounds:n{n}:grid{BOUNDS_GRID}",
        lambda: run_cli(["bounds", "--n", str(n), "--grid", BOUNDS_GRID]),
        _checked(check),
        families=0,
        digest=_cli_digest,
    )
    return [op]


# ---------------------------------------------------------------------------
# analyze: few large families
# ---------------------------------------------------------------------------

# Generator templates for union_closure: (ground size, generator count, draw
# seed). Each draws its generators with a fixed RNG; the run's seed only
# relabels them. At most 8 generators each, because union_closure keeps
# duplicates in its frontier and larger sets do not finish. Together they
# take about a third of a pass, with the blow-up still visible.
UNION_TEMPLATES = (
    (16, 8, 1), (16, 8, 2), (16, 8, 5), (12, 7, 3), (20, 8, 4), (24, 6, 6), (12, 8, 9),
)
# More templates, in the same form, whose closures (23 to 110 members) the
# benchmark computes itself and hands to `ucf analyze` only.
ANALYZE_TEMPLATES = (
    (12, 6, 20), (16, 6, 20), (20, 6, 23), (16, 7, 25), (20, 8, 20), (24, 7, 27),
)
# The 87 certificate ops take 0.4-30 ms each, 0.37 s a pass together;
# op_p50 of `analyze` falls on them and most of the ops around op_tail are
# among them. Run once a pass, they had 6-8 samples a run, and those two
# figures spread 0.10-0.13 over 5 runs; run 3 times in a row they cost
# 0.75 s more a pass (2-vCPU VM, Python 3.11).
CERTIFICATE_REPEAT = 3
# Ground sizes of the relabeled astarstar families (38 up to 530 members).
ASTARSTAR_NS = (16, 32, 48, 64)
CONSTRUCT_N = 64
ASTAR_NS = tuple(range(4, 65, 4))
AK_PARAMS = tuple((n, k) for n in range(11, 17) for k in range(5, n + 2)) + tuple(
    (32, k) for k in range(5, 34, 4)
)


def _random_mask(n: int, rng: random.Random) -> int:
    """A nonempty subset of [n], each element in with probability 1/4."""
    return sum(1 << i for i in range(n) if rng.random() < 0.25) or 1 << rng.randrange(n)


def template_generators(n: int, count: int, draw: int) -> list[int]:
    rng = random.Random(draw)
    gens: set[int] = set()
    while len(gens) < count:
        gens.add(_random_mask(n, rng))
    return sorted(gens)


def relabel(n: int, masks, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(sum(1 << perm[i] for i in range(n) if m >> i & 1) for m in masks)


@dataclass
class AnalyzeCorpus:
    """Inputs of one `analyze` run; `files` maps a relative path to (n, masks)."""

    generator_sets: list[tuple[int, list[int]]]
    files: dict[str, tuple[int, list[int]]]
    workdir: str


def make_analyze_corpus(seed: int, workdir: str) -> AnalyzeCorpus:
    """Draw the corpus from the seed and write the family files."""
    rng = random.Random(seed)
    generator_sets = [
        (n, relabel(n, template_generators(n, count, draw), rng))
        for n, count, draw in UNION_TEMPLATES
    ]
    families: list[tuple[str, int, list[int]]] = []
    for i, (n, gens) in enumerate(generator_sets):
        families.append((f"closure{i}", n, oracle.closure(gens)))
    for i, (n, count, draw) in enumerate(ANALYZE_TEMPLATES):
        gens = relabel(n, template_generators(n, count, draw), rng)
        families.append((f"template{i}", n, oracle.closure(gens)))
    for n in ASTARSTAR_NS:
        families.append((f"astarstar{n}", n, relabel(n, oracle.astarstar_masks(n), rng)))

    root = Path(workdir)
    root.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, n, masks in families:
        path = (root / f"{name}.family").as_posix()
        Path(path).write_text(oracle.format_family(n, masks))
        files[path] = (n, masks)
    return AnalyzeCorpus(generator_sets, files, workdir)


def _closure_op(index: int, n: int, gens: list[int]) -> Op:
    want = oracle.closure(gens)

    def call():
        core = _ucf("core")
        return core.union_closure(core.Family.from_masks(n, gens)).members

    def check(members) -> str | None:
        if list(members) != want:
            return f"closure has {len(members)} members, expected {len(want)}"
        return None

    return Op(f"union_closure:{index}", call, _checked(check))


def _analyze_op(path: str, n: int, masks: list[int]) -> Op:
    expected = {
        "n": n,
        "members": len(masks),
        "union_closed": oracle.is_union_closed(masks),
        "base": oracle.base_elements(masks),
        "avg": oracle.frac_text(oracle.average(masks)),
        "frequencies": oracle.frequencies(n, masks),
        "height": oracle.height(masks),
    }

    def check(output) -> str | None:
        res = _cli_json(output)["results"]
        for key, want in expected.items():
            if res[key] != want:
                return f"{key} = {res[key]!r}, expected {want!r}"
        return None

    return Op(f"analyze:{Path(path).stem}", lambda: run_cli(["analyze", path]),
              _checked(check), digest=_cli_digest)


@functools.cache  # passes repeat the same outputs; check each distinct one once
def _certificate_check(fam, cert, expected_height: int, relation: str) -> str | None:
    masks = list(fam.members)
    n = fam.n
    avg = oracle.average(masks)
    if not cert.ok:
        return "certificate not ok"
    if cert.avg != avg:
        return f"certificate avg {cert.avg}, recomputed {avg}"
    if not oracle.is_union_closed(masks):
        return "family is not union-closed"
    if oracle.height(masks) != expected_height:
        return f"height {oracle.height(masks)}, expected {expected_height}"
    if (avg >= Fraction(n, 2)) != (relation == "ge"):
        return f"average {avg} is not {relation} n/2"
    return None


def _astar_op(n: int) -> Op:
    want = oracle.astar_masks(n)

    def check(output) -> str | None:
        fam, cert = output
        if list(fam.members) != want:
            return "members differ from the astar definition"
        return _certificate_check(fam, cert, 4, "ge")

    return Op(f"astar_certificate:n{n}",
              lambda: _ucf("constructions").astar_certificate(n), _checked(check),
              repeat=CERTIFICATE_REPEAT)


def _ak_op(n: int, k: int) -> Op:
    def check(output) -> str | None:
        fam, cert = output
        return _certificate_check(fam, cert, k, "lt")

    return Op(f"ak_certificate:n{n}:k{k}",
              lambda: _ucf("constructions").ak_certificate(n, k), _checked(check),
              repeat=CERTIFICATE_REPEAT)


def _construct_op(workdir: str) -> Op:
    n = CONSTRUCT_N
    out = f"{workdir}/construct_astarstar{n}.family"
    want = oracle.astarstar_masks(n)
    avg = oracle.average(want)
    facts_ok = oracle.is_union_closed(want) and oracle.height(want) == 5 and avg < Fraction(n, 2)

    def check(output) -> str | None:
        cert = _cli_json(output)
        if cert["ok"] is not True or cert["avg"] != oracle.frac_text(avg):
            return f"certificate ok={cert['ok']} avg={cert['avg']}, expected avg {avg}"
        if oracle.parse_family(Path(out).read_text()) != (n, want):
            return "written family differs from the astarstar definition"
        if not facts_ok:
            return "astarstar definition is not union-closed of height 5 below n/2"
        return None

    return Op(f"construct:astarstar:n{n}",
              lambda: run_cli(["construct", "astarstar", "--n", str(n), "--out", out]),
              _checked(check), digest=_cli_digest)


def analyze_workload(corpus: AnalyzeCorpus) -> list[Op]:
    ops = [_closure_op(i, n, gens) for i, (n, gens) in enumerate(corpus.generator_sets)]
    ops += [_analyze_op(path, n, masks) for path, (n, masks) in corpus.files.items()]
    ops.append(_construct_op(corpus.workdir))
    ops += [_astar_op(n) for n in ASTAR_NS]
    ops += [_ak_op(n, k) for n, k in AK_PARAMS]
    return ops


def prepare(name: str, seed: int, workdir: str):
    """The set-up step: corpus generation and input files (analyze only)."""
    if name == "analyze":
        return make_analyze_corpus(seed, workdir)
    return None


def build(name: str, corpus) -> list[Op]:
    if name == "verify":
        return verify_workload()
    if name == "enumerate":
        return enumerate_workload()
    if name == "bounds":
        return bounds_workload()
    if name == "analyze":
        return analyze_workload(corpus)
    raise ValueError(f"unknown workload {name!r}")
