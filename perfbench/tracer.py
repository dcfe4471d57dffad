"""Per-layer tracing of `orbitdex`, installed from outside the library.

Each traced function is replaced by a wrapper wherever a caller looks the
name up: every `orbitdex` module global and class attribute bound to the
original object is rebound, because `orbits`, `cli` and `universality`
import `multiplicity`, `orbit_spectrum` and friends by name, and patching
only the defining module would read zero.

Layer boundaries (CLI entry, parser and printer, realize, orbit spectra,
multiplicity, resonance checks, map iteration) are spans; hot leaves
(cyclotomic arithmetic, polynomial products and substitution) are
leaves.  Both are only counted and timed, per name, and leaf calls are
also counted per (leaf, enclosing span), so memory stays bounded however
many millions of calls a case makes.  Self time is a call's duration
minus the time of the traced calls made inside it.
"""

from __future__ import annotations

import copy
import sys
import time
from collections import defaultdict

SPAN, LEAF, COUNT = "span", "leaf", "count"

# (module, attribute path, metric prefix, kind)
TARGETS = [
    ("orbitdex.cli", "main", "cli.main", SPAN),
    ("orbitdex.germfile", "parse_germ", "germfile.parse_germ", SPAN),
    ("orbitdex.germfile", "print_germ", "germfile.print_germ", SPAN),
    ("orbitdex.universality", "realize", "universality.realize", SPAN),
    ("orbitdex.orbits", "orbit_spectrum", "orbits.orbit_spectrum", SPAN),
    ("orbitdex.orbits", "direct_iterate_index", "orbits.direct_iterate_index", SPAN),
    ("orbitdex.multiplicity", "multiplicity", "multiplicity", SPAN),
    ("orbitdex.resonance", "validate_rnf", "resonance.validate_rnf", SPAN),
    ("orbitdex.resonance", "project", "resonance.project", SPAN),
    ("orbitdex.polynomials", "GermMap.iterate", "polynomials.iterate", SPAN),
    ("orbitdex.polynomials", "Poly.mul", "polynomials.mul", LEAF),
    ("orbitdex.polynomials", "Poly.substitute", "polynomials.substitute", LEAF),
    ("orbitdex.cyclotomic", "CyclotomicNumber.__mul__", "cyclotomic.mul", LEAF),
    ("orbitdex.cyclotomic", "CyclotomicNumber.__add__", "cyclotomic.addsub", LEAF),
    ("orbitdex.cyclotomic", "CyclotomicNumber.__sub__", "cyclotomic.addsub", LEAF),
    ("orbitdex.cyclotomic", "CyclotomicNumber.__rsub__", "cyclotomic.addsub", LEAF),
    ("orbitdex.cyclotomic", "CyclotomicNumber.__neg__", "cyclotomic.addsub", LEAF),
    ("orbitdex.cyclotomic", "CyclotomicNumber.invert", "cyclotomic.invert", LEAF),
    ("orbitdex.cyclotomic", "euler_phi", "cyclotomic.euler_phi", COUNT),
]


class Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Counters for one traced pass; `install` patches the library,
    `uninstall` restores it."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.by_parent: dict[tuple[str, str], int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []   # [child time, enclosing span name]
        self._patched: list[tuple] = []

    # -- state kept or dropped per case ---------------------------------------

    def snapshot(self):
        return copy.deepcopy(self.stats), dict(self.by_parent), dict(self.extra)

    def restore(self, state) -> None:
        """Drop everything recorded since `snapshot` (a timed-out case:
        how far it got before its budget does not repeat)."""
        for live, saved in zip((self.stats, self.by_parent, self.extra), state):
            live.clear()
            live.update(saved)
        self._stack.clear()

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, name: str, kind: str, fn, after=None, failed=None):
        perf = time.perf_counter
        stack = self._stack
        tracer = self
        if kind == COUNT:
            def counted(*args, **kwargs):
                tracer.stats[name].calls += 1
                return fn(*args, **kwargs)
            return counted

        def timed(*args, **kwargs):
            owner = stack[-1][1] if stack else "-"
            frame = [0.0, name if kind == SPAN else owner]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if failed is not None:
                    failed(exc)
                raise
            finally:
                elapsed = perf() - start
                stack.pop()
                stat = tracer.stats[name]
                stat.calls += 1
                stat.total += elapsed
                stat.self += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if kind == LEAF:
                    tracer.by_parent[name, owner] += 1
            if after is not None:
                after(args, result, elapsed)
            return result
        return timed

    def _hooks(self, name: str, lib):
        extra = self.extra
        if name == "multiplicity":
            def after(args, result, elapsed):
                extra["fast_path"] += result.fast_path
                extra["stabilized_at_sum"] += result.stabilized_at or 0
                extra["q_s" if args[0].modulus == 1 else "cyclo_s"] += elapsed

            def failed(exc):
                if isinstance(exc, lib.NotIsolatedWithinBound):
                    extra["not_isolated"] += 1
            return after, failed
        if name == "polynomials.mul":
            def after(args, result, elapsed):
                extra["terms_out"] += len(result.terms)

            def failed(exc):
                if isinstance(exc, lib.TermBudgetExceeded):
                    extra["term_budget_exceeded"] += 1
            return after, failed
        return None, None

    # -- patching ---------------------------------------------------------------

    def install(self, lib) -> list[str]:
        """Patch every target; return the ones the library no longer has
        (their metrics then read 0)."""
        modules = [m for key, m in sys.modules.items()
                   if key == "orbitdex" or key.startswith("orbitdex.")]
        missing = []
        for module_name, path, name, kind in TARGETS:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, kind, original, *self._hooks(name, lib))
            holders = [owner] if outer else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))
        return missing

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        s, x = self.stats, self.extra
        mult_calls = s["multiplicity"].calls
        spectrum_s = s["orbits.orbit_spectrum"].total
        return {
            "cyclotomic.mul.calls": s["cyclotomic.mul"].calls,
            "cyclotomic.mul.self_s": s["cyclotomic.mul"].self,
            "cyclotomic.mul.calls_under_iterate":
                self.by_parent["cyclotomic.mul", "polynomials.iterate"],
            "cyclotomic.mul.calls_under_multiplicity":
                self.by_parent["cyclotomic.mul", "multiplicity"],
            "cyclotomic.addsub.calls": s["cyclotomic.addsub"].calls,
            "cyclotomic.addsub.self_s": s["cyclotomic.addsub"].self,
            "cyclotomic.invert.calls": s["cyclotomic.invert"].calls,
            "cyclotomic.invert.self_s": s["cyclotomic.invert"].self,
            "cyclotomic.euler_phi.calls": s["cyclotomic.euler_phi"].calls,
            "polynomials.mul.calls": s["polynomials.mul"].calls,
            "polynomials.mul.self_s": s["polynomials.mul"].self,
            "polynomials.mul.terms_out": int(x["terms_out"]),
            "polynomials.substitute.calls": s["polynomials.substitute"].calls,
            "polynomials.substitute.self_s": s["polynomials.substitute"].self,
            "polynomials.iterate.calls": s["polynomials.iterate"].calls,
            "polynomials.iterate.total_s": s["polynomials.iterate"].total,
            "polynomials.term_budget_exceeded": int(x["term_budget_exceeded"]),
            "multiplicity.calls": mult_calls,
            "multiplicity.total_s": s["multiplicity"].total,
            "multiplicity.self_s": s["multiplicity"].self,
            "multiplicity.q_s": x["q_s"],
            "multiplicity.cyclo_s": x["cyclo_s"],
            "multiplicity.fast_path_frac": x["fast_path"] / mult_calls if mult_calls else 0.0,
            "multiplicity.stabilized_at_sum": int(x["stabilized_at_sum"]),
            "multiplicity.not_isolated": int(x["not_isolated"]),
            "orbits.orbit_spectrum.calls": s["orbits.orbit_spectrum"].calls,
            "orbits.orbit_spectrum.total_s": spectrum_s,
            "orbits.direct_iterate_index.calls": s["orbits.direct_iterate_index"].calls,
            "orbits.direct_iterate_index.total_s": s["orbits.direct_iterate_index"].total,
            "orbits.crosscheck_share":
                s["orbits.direct_iterate_index"].total / spectrum_s if spectrum_s else 0.0,
            "resonance.validate_rnf.total_s": s["resonance.validate_rnf"].total,
            "resonance.project.calls": s["resonance.project"].calls,
            "universality.realize.calls": s["universality.realize"].calls,
            "universality.realize.total_s": s["universality.realize"].total,
            "universality.realize.self_s": s["universality.realize"].self,
            "germfile.parse_germ.total_s": s["germfile.parse_germ"].total,
            "germfile.print_germ.total_s": s["germfile.print_germ"].total,
            "cli.main.self_s": s["cli.main"].self,
        }
