"""orbitdex benchmark: the `spectrum`, `mult` and `realize` workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 30 --trace 0

Every case is one call of `orbitdex.cli.main` in this process, with
`--json --no-timing` and stdout captured, checked against an oracle that
does not come from the code under test (see workloads.py).  A wrong
answer prints the case to stderr and exits 1 without a result.

`--trace 0` gives the end-to-end metrics.  Set-up (a fresh import of
the package, input generation and file writing, and warming the
cyclotomic tables) is repeated, once before each pass and at least
SETUP_REPEATS times, and its median reported.  The cases are run in
whole passes; the number of passes follows from `--seconds`
alone (divided by the workload's nominal pass time), so two commits
compared with the same settings do the same work however fast each
runs.  A case's time is the best of its passes: on a shared machine
interference only ever adds time, and it comes in stretches of seconds
to minutes (see RATIONALE.md).  A case that times out in the first pass
is not run again.

`--trace 1` gives the per-layer metrics: each case runs once untraced
and once with tracer.py's wrappers installed.  The ratio of the two,
over the cases that finished both times, is the tracing overhead.  The
run fails (exit 1, no result) if a trace target is missing or a case
finishes in one mode and not in the other.

Every case runs under a wall-clock budget enforced in-process with
SIGALRM (no extra threads or processes).  A case over budget is a
`timeout` row and counts at its budget; a typed library failure is a
row named by its exception class.  Both count as failed, neither is
dropped.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.  `--workload all` runs every workload in
both modes, each in a child process of its own one after the other (so
that `peak_rss_mb` is each workload's own), and prints one combined
object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("spectrum", "mult", "realize")

CASE_BUDGET_S = 3.0
# Tracing slows the cyclotomic-heavy cases by up to a third, and the
# machine's speed wanders; the traced pass gets a larger budget so that
# the same cases finish in both modes.
TRACE_BUDGET_FACTOR = 2
SETUP_REPEATS = 7
# Seconds one untraced pass takes on a 2-core x86 box; --seconds divided
# by this is the number of passes, whatever the speed of the machine.
NOMINAL_PASS_S = {"spectrum": 5.5, "mult": 6.0, "realize": 1.2}

# Per-layer metrics each workload should show as nonzero, and ones it
# should not touch at all.  A miss means the program no longer takes the
# path the workload is meant to stress (the roadmap plans to take the
# direct composition off the default path, for one); misses are reported
# on stderr and counted in bench.selfcheck_misses, not fatal.
EXPECT_NONZERO = {
    "spectrum": [
        "cyclotomic.mul.calls", "cyclotomic.mul.calls_under_iterate",
        "cyclotomic.addsub.calls", "cyclotomic.invert.calls",
        "polynomials.mul.calls", "polynomials.mul.terms_out",
        "polynomials.substitute.calls", "polynomials.iterate.calls",
        "multiplicity.calls", "orbits.orbit_spectrum.calls",
        "orbits.direct_iterate_index.calls", "orbits.crosscheck_share",
        "resonance.validate_rnf.total_s", "resonance.project.calls",
        "germfile.parse_germ.total_s", "cli.main.self_s"],
    "mult": [
        "cyclotomic.mul.calls", "cyclotomic.mul.calls_under_multiplicity",
        "cyclotomic.addsub.calls", "cyclotomic.invert.calls",
        "multiplicity.calls", "multiplicity.self_s", "multiplicity.q_s",
        "multiplicity.cyclo_s", "multiplicity.stabilized_at_sum",
        "germfile.parse_germ.total_s", "cli.main.self_s"],
    "realize": [
        "multiplicity.calls", "multiplicity.fast_path_frac",
        "resonance.validate_rnf.total_s", "resonance.project.calls",
        "universality.realize.calls", "universality.realize.self_s",
        "germfile.print_germ.total_s", "cli.main.self_s"],
}
EXPECT_ZERO = {
    "spectrum": [],
    "mult": ["polynomials.iterate.calls", "orbits.orbit_spectrum.calls"],
    "realize": ["polynomials.iterate.calls", "orbits.direct_iterate_index.calls"],
}


class SelfCheckFailed(Exception):
    """The benchmark's own machinery did not measure what it should."""


class CaseTimeout(BaseException):
    """Raised by the alarm; a BaseException so no `except Exception` in
    the library swallows it."""


class Alarm:
    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise CaseTimeout

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


# -- set-up ------------------------------------------------------------------


def fresh_library() -> SimpleNamespace:
    """Import orbitdex from this checkout anew (so import time and cache
    warming are paid again) and collect what the benchmark uses."""
    for key in [k for k in sys.modules if k == "orbitdex" or k.startswith("orbitdex.")]:
        del sys.modules[key]
    mods = {name: importlib.import_module(f"orbitdex.{name}")
            for name in ("cli", "cyclotomic", "germfile", "jordan",
                         "multiplicity", "polynomials", "universality")}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"orbitdex imported from {mods['cli'].__file__}, "
                         f"not from {SRC}")
    cyc, gf, jo, poly = (mods[k] for k in ("cyclotomic", "germfile", "jordan",
                                           "polynomials"))
    return SimpleNamespace(
        cli=mods["cli"], root_of_unity=cyc.root_of_unity, euler_phi=cyc.euler_phi,
        GermDocument=gf.GermDocument, parse_germ=gf.parse_germ,
        print_germ=gf.print_germ, JordanBlock=jo.JordanBlock,
        JordanSpec=jo.JordanSpec, parse_inline_matrix=jo.parse_inline_matrix,
        global_order=jo.global_order, GermMap=poly.GermMap, Poly=poly.Poly,
        TermBudgetExceeded=poly.TermBudgetExceeded,
        NotIsolatedWithinBound=mods["multiplicity"].NotIsolatedWithinBound,
        chain_germ=mods["universality"].chain_germ,
        chain_coprime_germ=mods["universality"].chain_coprime_germ)


def warm_caches(lib, moduli) -> None:
    """Fill the lru_cache tables of cyclotomic (powers of zeta, reduction
    rows, cyclotomic polynomials) for every field the cases use."""
    for m in sorted(moduli):
        for k in range(m):
            lib.root_of_unity(m, k, m)
        if lib.euler_phi(m) > 1:
            z = lib.root_of_unity(m, 1, m)
            (z * z).invert()


def setup(name: str, seed: int, workdir: Path):
    start = time.perf_counter()
    lib = fresh_library()
    cases = workloads.build(name, lib, seed, workdir, ROOT)
    warm_caches(lib, {c.modulus for c in cases})
    return lib, cases, time.perf_counter() - start


# -- running cases -------------------------------------------------------------


def run_case(lib, case, budget: float, alarm: Alarm) -> tuple[str, float]:
    """(status, seconds) of one CLI call; raises WrongAnswer."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            alarm.arm(budget)
            try:
                rc = lib.cli.main(case.argv)
            finally:
                alarm.disarm()
    except CaseTimeout:
        return "timeout", budget
    except (lib.TermBudgetExceeded, lib.NotIsolatedWithinBound) as exc:
        return type(exc).__name__, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    lines = out.getvalue().splitlines()
    if not lines:
        raise workloads.WrongAnswer(f"exit {rc}, no output; stderr: {err.getvalue()!r}")
    payload = json.loads(lines[-1])
    if rc != 0:
        reason = str(payload.get("results", {}).get("reason", ""))
        if reason.startswith("not isolated within degree"):
            return "NotIsolatedWithinBound", elapsed
        raise workloads.WrongAnswer(f"exit {rc}: {payload}")
    case.check(payload)
    return "ok", elapsed


def run_pass(lib, cases, budget: float, alarm: Alarm, tracer=None, skip=()):
    """One (status, seconds) row per case; None for the skipped ones."""
    rows = []
    for i, case in enumerate(cases):
        if i in skip:
            rows.append(None)
            continue
        state = tracer.snapshot() if tracer else None
        try:
            status, seconds = run_case(lib, case, budget, alarm)
        except workloads.WrongAnswer as exc:
            raise workloads.WrongAnswer(f"{case.id}: {exc}") from None
        if status == "timeout" and tracer:
            tracer.restore(state)
        rows.append((status, seconds))
    return rows


def report_failures(cases, rows) -> None:
    for case, (status, seconds) in zip(cases, rows):
        if status != "ok":
            print(f"  {status:>22s} after {seconds:.3f} s  {case.id}", file=sys.stderr)


# -- the two modes ---------------------------------------------------------------


def end_to_end(name: str, seed: int, seconds: float, alarm: Alarm, workdir: Path):
    passes = max(1, round(seconds / NOMINAL_PASS_S[name]))
    # One set-up before each pass, so that their median is not taken from
    # a single stretch of the machine's speed; at least SETUP_REPEATS.
    setups = [setup(name, seed, workdir)[2] for _ in range(SETUP_REPEATS - passes)]
    runs: list[list] = []
    hung: set[int] = set()
    for _ in range(passes):
        lib, cases, took = setup(name, seed, workdir)
        setups.append(took)
        gc.collect()
        runs.append(run_pass(lib, cases, CASE_BUDGET_S, alarm, skip=hung))
        hung = {i for i, (status, _) in enumerate(runs[0]) if status == "timeout"}
    samples = [[r[i] for r in runs if r[i] is not None] for i in range(len(cases))]
    per_case = [min(t for _, t in rows) for rows in samples]
    ok_cases = sum(all(status == "ok" for status, _ in rows) for rows in samples)
    ranked = sorted(per_case)
    beyond = min(10, len(ranked) - 1)
    tail_pct = 100.0 * (len(ranked) - beyond) / len(ranked)
    attempted = sum(len(rows) for rows in samples)
    failed = sum(status != "ok" for rows in samples for status, _ in rows)
    metrics = {
        "wall_s": (sum(per_case), "s"),
        "case_p50_ms": (statistics.median(per_case) * 1000, "ms"),
        "case_tail_ms": (ranked[len(ranked) - 1 - beyond] * 1000, "ms"),
        "ok_frac": (ok_cases / len(cases), "frac"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"[{name}] seed {seed}: {len(cases)} cases x {len(runs)} passes; "
          f"case_tail_ms is p{tail_pct:.1f} of {len(ranked)} per-case times; "
          f"fail_frac {1 - ok_cases / len(cases):.4f}", file=sys.stderr)
    report_failures(cases, runs[0])
    return attempted, failed, metrics


def traced(name: str, seed: int, alarm: Alarm, workdir: Path):
    """Each case untraced and traced back to back, alternating which goes
    first, so that drift in the machine's speed cancels out of the
    overhead."""
    lib, cases, _ = setup(name, seed, workdir)
    tracer = Tracer()
    plain, rows = [], []
    gc.collect()
    for i, case in enumerate(cases):
        for with_trace in (i % 2, 1 - i % 2):
            if not with_trace:
                plain += run_pass(lib, [case], CASE_BUDGET_S, alarm)
                continue
            missing = tracer.install(lib)
            try:
                if missing:
                    raise SelfCheckFailed(f"trace targets not found: {', '.join(missing)}")
                rows += run_pass(lib, [case], CASE_BUDGET_S * TRACE_BUDGET_FACTOR,
                                 alarm, tracer)
            finally:
                tracer.uninstall()
    both = [(a[1], b[1]) for a, b in zip(plain, rows) if a[0] == b[0] == "ok"]
    overhead = sum(b for _, b in both) / sum(a for a, _ in both) - 1 if both else 0.0
    failed = sum(status != "ok" for status, _ in rows)
    values = tracer.metrics()
    values["trace.overhead_frac"] = overhead
    values["bench.fail_frac"] = failed / len(rows)
    if [s for s, _ in plain] != [s for s, _ in rows]:
        raise SelfCheckFailed("a case finished untraced and not traced, or the reverse")
    problems = [f"{k} is 0" for k in EXPECT_NONZERO[name] if not values[k]]
    problems += [f"{k} is {values[k]}, expected 0" for k in EXPECT_ZERO[name] if values[k]]
    if name == "mult" and not values["multiplicity.fast_path_frac"] < 1:
        problems.append("multiplicity.fast_path_frac is 1: the engine never ran")
    for problem in problems:
        print(f"[{name}] self-check: {problem}", file=sys.stderr)
    values["bench.selfcheck_misses"] = len(problems)
    metrics = {k: (v, unit_of(k)) for k, v in values.items()}
    print(f"[{name}] traced pass overhead {overhead:.1%} over {len(both)} cases",
          file=sys.stderr)
    report_failures(cases, rows)
    return 2 * len(cases), failed + sum(s != "ok" for s, _ in plain), metrics


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac") or metric.endswith("_share"):
        return "frac"
    return "count"


def result(correct, attempted, failed, metrics) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(seed: int, seconds: float):
    """Every workload untraced and traced, each run a child process of
    its own, one after the other; metric names get the workload prefix."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        for mode in (0, 1):
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(mode)],
                stdout=subprocess.PIPE, text=True)
            if child.returncode:
                raise SystemExit(child.returncode)
            got = json.loads(child.stdout.splitlines()[-1])
            attempted += got["attempted"]
            failed += got["failed"]
            metrics.update({f"{name}.{k}": (m["value"], m["unit"])
                            for k, m in got["metrics"].items()})
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orbitdex" / "__init__.py").is_file():
        print(f"no orbitdex sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        attempted, failed, metrics = run_all(args.seed, args.seconds)
        print(json.dumps(result(True, attempted, failed, metrics)))
        return 0
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    alarm = Alarm()
    try:
        if args.trace:
            attempted, failed, metrics = traced(args.workload, args.seed, alarm, workdir)
        else:
            attempted, failed, metrics = end_to_end(
                args.workload, args.seed, args.seconds, alarm, workdir)
    except workloads.WrongAnswer as exc:
        print(f"WRONG ANSWER {exc}", file=sys.stderr)
        return 1
    except SelfCheckFailed as exc:
        print(f"SELF-CHECK FAILED [{args.workload}] {exc}", file=sys.stderr)
        return 1
    finally:
        alarm.disarm()
        shutil.rmtree(workdir, ignore_errors=True)
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:>14.6g} {unit}", file=sys.stderr)
    print(json.dumps(result(True, attempted, failed, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
