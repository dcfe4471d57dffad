"""Command-line front end.

Exit codes: 0 success, 1 domain or validation failure, 2 usage/parse
error.  --json output is deterministic (stable keys; the timing field is
suppressed by --no-timing); integers outside the 53-bit safe range are
rendered as decimal strings.  Every exit-1 failure prints a
{"ok": false, "reason": ...} payload under --json, including a refusal
(ValueError) or a ConsistencyError that reaches main.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from .germfile import GermDocument, GermParseError, parse_germ, print_germ
from .jordan import (SequenceTarget, bounded_order, is_admissible,
                     parse_inline_matrix, period_set)
from .multiplicity import (DEFAULT_DEGREE_CAP, NotIsolatedWithinBound,
                           multiplicity)
from .orbits import (ConsistencyError, direct_iterate_index,
                     fixed_point_index, orbit_spectrum)
from .polynomials import TermBudgetExceeded
from .resonance import strip_eigenvalues, validate_rnf
from .universality import (is_universal, normalized_target, realize,
                           residue_search)

_SAFE_INT = 2**53 - 1


def _jsonable(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value if abs(value) <= _SAFE_INT else str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


class _Reporter:
    def __init__(self, args):
        self.json_mode = args.json
        self.timing = not args.no_timing
        self.started = time.monotonic()
        command = f"matrix {args.what}" if args.cmd == "matrix" else args.cmd
        self.payload: dict = {"command": command}
        self.lines: list[str] = []

    def input_digest(self, data: bytes):
        self.payload["inputs"] = {"sha256": hashlib.sha256(data).hexdigest()}

    def say(self, line: str):
        self.lines.append(line)

    def emit(self, results: dict, checks: dict | None = None) -> None:
        if self.json_mode:
            self.payload["results"] = results
            if checks is not None:
                self.payload["checks"] = checks
            if self.timing:
                self.payload["timing_ms"] = round(
                    (time.monotonic() - self.started) * 1000, 3)
            print(json.dumps(_jsonable(self.payload), sort_keys=True))
        else:
            for line in self.lines:
                print(line)


def _fail(rep: _Reporter, reason: str, **extra) -> int:
    rep.say(f"FAIL: {reason}")
    rep.emit({"ok": False, "reason": reason, **extra})
    return 1


def _load_document(path: str, reporter: _Reporter) -> GermDocument:
    data = Path(path).read_bytes()
    reporter.input_digest(data)
    return parse_germ(data.decode("utf-8"))


def _cmd_check(args, rep: _Reporter) -> int:
    doc = _load_document(args.file, rep)
    verdict = validate_rnf(doc.matrix, doc.gmap)
    if not verdict.ok:
        return _fail(rep, verdict.describe())
    # at q = M the mask selects every coordinate, so the full-period
    # order is that of the whole stripped map
    try:
        full = multiplicity(strip_eigenvalues(doc.matrix, doc.gmap),
                            args.degree_cap).value
    except NotIsolatedWithinBound as exc:
        rep.say(f"FAIL: iterate fixed points are not isolated: {exc}")
        rep.emit({"ok": False, "reason": str(exc)})
        return 1
    rep.say(f"OK: resonant normal form; full-period order {full}")
    rep.emit({"ok": True, "full_order": full})
    return 0


def _cmd_mult(args, rep: _Reporter) -> int:
    doc = _load_document(args.file, rep)
    target = doc.gmap if args.map_only else doc.gmap.minus_identity()
    try:
        result = multiplicity(target, degree_cap=args.degree_cap)
    except NotIsolatedWithinBound as exc:
        return _fail(rep, str(exc), definite=exc.definite)
    rep.say(str(result.value))
    rep.emit({
        "ok": True,
        "value": result.value,
        "fast_path": result.fast_path,
        "stabilized_at": result.stabilized_at,
        "quotient_dims": list(result.quotient_dims),
    })
    return 0


def _cmd_index(args, rep: _Reporter) -> int:
    doc = _load_document(args.file, rep)
    results = {}
    try:
        if args.route in ("projection", "both"):
            results["projection"] = fixed_point_index(
                doc.matrix, doc.gmap, args.q, degree_cap=args.degree_cap)
        if args.route in ("direct", "both"):
            results["direct"] = direct_iterate_index(
                doc.gmap, args.q, degree_cap=args.degree_cap,
                hint=results.get("projection"))
    except (NotIsolatedWithinBound, ValueError, TermBudgetExceeded) as exc:
        return _fail(rep, str(exc))
    agree = len(set(results.values())) == 1
    value = next(iter(results.values()))
    rep.say(str(value) if agree else f"DISAGREE: {results}")
    rep.emit({"ok": agree, "q": args.q, **results})
    return 0 if agree else 1


def _cmd_spectrum(args, rep: _Reporter) -> int:
    doc = _load_document(args.file, rep)
    try:
        sp = orbit_spectrum(doc.matrix, doc.gmap,
                            cross_check=not args.no_cross_check,
                            degree_cap=args.degree_cap)
    except (NotIsolatedWithinBound, ValueError, ConsistencyError) as exc:
        return _fail(rep, str(exc))
    rep.say("pe: " + " ".join(str(q) for q in sp.pe))
    rep.say("counts: " + " ".join(f"{q}:{v}" for q, v in sorted(sp.counts.items())))
    rep.say("mu: " + " ".join(f"{q}:{v}" for q, v in sorted(sp.mu.items())))
    results = {
        "pe": list(sp.pe),
        "mu": dict(sp.mu),
        "dold": dict(sp.dold),
        "counts": dict(sp.counts),
    }
    if sp.checked_by:
        rep.say("checked by: " + " ".join(
            f"{q}:{route}" for q, route in sorted(sp.checked_by.items())))
        results["checked_by"] = dict(sp.checked_by)
    if sp.unchecked:
        rep.say("unchecked: " + "; ".join(
            f"q={q} ({why})" for q, why in sorted(sp.unchecked.items())))
        results["unchecked"] = dict(sp.unchecked)
    rep.emit(results, checks=dict(sp.checks) or None)
    return 0


def _cmd_matrix(args, rep: _Reporter) -> int:
    spec = parse_inline_matrix(args.matrix)
    order = bounded_order(spec)
    if args.what == "pe":
        pe = sorted(period_set(spec))
        rep.say(" ".join(str(q) for q in pe))
        rep.emit({"pe": pe})
        return 0
    if args.what == "order":
        rep.say(str(order))
        rep.emit({"order": order})
        return 0
    verdict = is_universal(spec)
    if verdict.universal:
        rep.say(f"universal ({verdict.mode}; block order "
                f"{' '.join(str(i + 1) for i in verdict.ordering)})")
    else:
        rep.say(f"not universal: {verdict.failure_reason}")
    rep.emit({
        "universal": verdict.universal,
        "mode": verdict.mode,
        "ordering": list(verdict.ordering) if verdict.ordering else None,
        "failure_reason": verdict.failure_reason,
    })
    return 0


def _cmd_admissible(args, rep: _Reporter) -> int:
    spec = parse_inline_matrix(args.matrix)
    bounded_order(spec)
    target = SequenceTarget.parse(args.seq)
    verdict = is_admissible(spec, target)
    rep.say("admissible" if verdict.ok else f"not admissible: {verdict.reason}")
    rep.emit({"admissible": verdict.ok, "reason": verdict.reason})
    return 0 if verdict.ok else 1


def _cmd_realize(args, rep: _Reporter) -> int:
    spec = parse_inline_matrix(args.matrix)
    target = SequenceTarget.parse(args.seq)
    try:
        doc = realize(spec, target, degree_cap=args.degree_cap_arg)
    except ValueError as exc:
        return _fail(rep, str(exc))
    text = print_germ(doc)
    if args.output:
        Path(args.output).write_text(text)
        rep.say(f"wrote {args.output}")
    else:
        rep.say(text.rstrip("\n"))
    # realize() verified that the germ's counts equal the normalized target
    rep.emit({"ok": True, "germ": text,
              "counts": normalized_target(spec, target)})
    return 0


def _cmd_lemma42(args, rep: _Reporter) -> int:
    moduli = tuple(int(v) for v in args.a.split(","))
    powers = tuple(int(v) for v in args.r.split(","))
    try:
        witness = residue_search(moduli, powers)
    except ValueError as exc:
        return _fail(rep, str(exc))
    rep.say(f"k = {witness.k}; residues = {list(witness.residues)}; "
            f"product = {witness.product} <= bound {witness.bound}")
    rep.emit({
        "ok": True,
        "k": witness.k,
        "residues": list(witness.residues),
        "product": witness.product,
        "bound": witness.bound,
    })
    return 0


def _fixture_dir(args) -> Path:
    if args.fixtures_dir:
        return Path(args.fixtures_dir)
    from importlib import resources

    return Path(str(resources.files("orbitdex") / "fixtures"))


def _cmd_paper_suite(args, rep: _Reporter) -> int:
    fdir = _fixture_dir(args)
    names = sorted(p.stem for p in fdir.glob("*.germ"))
    if args.filter:
        names = [n for n in names if args.filter in n]
    if not names:
        rep.say("no fixtures matched")
        rep.emit({"ok": False, "reason": "no fixtures matched"})
        return 1
    failures = []
    table = []
    for name in names:
        germ_path = fdir / f"{name}.germ"
        expected_path = fdir / f"{name}.expected.json"
        try:
            doc = parse_germ(germ_path.read_text())
            sp = orbit_spectrum(doc.matrix, doc.gmap, cross_check=True,
                                degree_cap=args.degree_cap)
            got = {
                "pe": list(sp.pe),
                "counts": {str(q): v for q, v in sorted(sp.counts.items())},
                "mu": {str(q): v for q, v in sorted(sp.mu.items())},
            }
            if not expected_path.exists():
                status = "MISSING EXPECTATION"
                failures.append(name)
            else:
                want = json.loads(expected_path.read_text())
                status = "pass" if got == want else "FAIL"
                if got != want:
                    failures.append(name)
        except Exception as exc:  # deliberate catch-all: report, don't crash
            status = f"ERROR: {exc}"
            failures.append(name)
        table.append((name, status))
        rep.say(f"{name:28s} {status}")
    rep.say(f"{len(names) - len(failures)}/{len(names)} fixtures pass")
    rep.emit({"results": {n: s for n, s in table},
              "failed": failures}, checks={"all": not failures})
    return 1 if failures else 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; parse_args leaves it
    unchanged, so one serves every call of main."""
    parser = argparse.ArgumentParser(
        prog="orbitdex",
        description="Exact multiplicities, iterate indices, hidden orbit "
                    "counts, and universality decisions for polynomial "
                    "germ maps.")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report on stdout")
    parser.add_argument("--degree-cap", type=positive_int, default=None,
                        dest="degree_cap_arg",
                        help=f"stabilization degree cap (default "
                             f"{DEFAULT_DEGREE_CAP}; realize sizes it from "
                             f"the target)")
    parser.add_argument("--no-timing", action="store_true",
                        help="suppress the timing field in JSON output")
    # the same flags are accepted after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS)
    common.add_argument("--degree-cap", type=positive_int, dest="degree_cap_arg",
                        default=argparse.SUPPRESS)
    common.add_argument("--no-timing", action="store_true",
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="validate a germ file (normal form + isolated "
                            "iterate fixed points)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("mult", parents=[common],
                       help="zero order of f - id (or the raw map)")
    p.add_argument("file")
    p.add_argument("--map-only", action="store_true",
                   help="treat the map coordinates as the system directly")
    p.set_defaults(func=_cmd_mult)

    p = sub.add_parser("index", parents=[common],
                       help="fixed point index of an iterate")
    p.add_argument("file")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--route", choices=("projection", "direct", "both"),
                   default="projection")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("spectrum", parents=[common],
                       help="all hidden orbit counts")
    p.add_argument("file")
    p.add_argument("--no-cross-check", action="store_true")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("matrix", parents=[common], help="matrix-only queries")
    p.add_argument("what", choices=("pe", "order", "universal"))
    p.add_argument("matrix", help='inline matrix "[(k,d,r);(k,d,r)]"')
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("admissible", parents=[common],
                       help="check a count sequence against the forced "
                            "pattern")
    p.add_argument("matrix")
    p.add_argument("--seq", required=True, help='e.g. "1:1,2:2,6:3"')
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("realize", parents=[common],
                       help="construct a germ with the given hidden orbit "
                            "counts")
    p.add_argument("matrix")
    p.add_argument("--seq", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("lemma42", parents=[common],
                       help="simultaneous residue minimization")
    p.add_argument("--a", required=True, help="comma-separated moduli")
    p.add_argument("--r", required=True, help="comma-separated powers")
    p.set_defaults(func=_cmd_lemma42)

    p = sub.add_parser("paper-suite", parents=[common],
                       help="run the bundled regression fixtures against "
                            "their expected spectra")
    p.add_argument("--filter", default=None)
    p.add_argument("--fixtures-dir", default=None)
    p.set_defaults(func=_cmd_paper_suite)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.degree_cap = (DEFAULT_DEGREE_CAP if args.degree_cap_arg is None
                       else args.degree_cap_arg)
    rep = _Reporter(args)
    try:
        return args.func(args, rep)
    except GermParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ConsistencyError) as exc:
        kind = ("internal consistency error"
                if isinstance(exc, ConsistencyError) else "error")
        print(f"{kind}: {exc}", file=sys.stderr)
        rep.emit({"ok": False, "reason": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
