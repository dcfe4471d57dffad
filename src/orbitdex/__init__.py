"""orbitdex: exact local dynamics of polynomial germ maps.

Zero orders of isolated zeros, fixed-point indices of all iterates,
Dold indices and hidden periodic-orbit counts, plus the universality
decision for Jordan linear parts with root-of-unity eigenvalues and
constructive realization of admissible count sequences.  All arithmetic
is exact, over cyclotomic extensions of the rationals.
"""

from .cyclotomic import CyclotomicNumber
from .germfile import GermDocument, GermParseError, parse_germ, print_germ
from .jordan import (JordanBlock, JordanSpec, SequenceTarget, global_order,
                     is_admissible, parse_inline_matrix, period_set)
from .multiplicity import MultiplicityResult, NotIsolatedWithinBound, multiplicity
from .orbits import (ConsistencyError, OrbitSpectrum, direct_iterate_index,
                     fixed_point_index, orbit_spectrum)
from .polynomials import GermMap, Poly, TermBudgetExceeded
from .resonance import NormalFormVerdict, validate_rnf
from .universality import (ResidueWitness, UniversalityVerdict, is_universal,
                           realize, residue_search)

__version__ = "0.1.0"

# The functions the command line imports or the README names, and the
# types they take, return or raise; everything else is imported from its
# submodule.
__all__ = [
    "CyclotomicNumber",
    "GermDocument", "GermParseError", "parse_germ", "print_germ",
    "JordanBlock", "JordanSpec", "SequenceTarget", "global_order",
    "is_admissible", "parse_inline_matrix", "period_set",
    "MultiplicityResult", "NotIsolatedWithinBound", "multiplicity",
    "ConsistencyError", "OrbitSpectrum", "direct_iterate_index",
    "fixed_point_index", "orbit_spectrum",
    "GermMap", "Poly", "TermBudgetExceeded",
    "NormalFormVerdict", "validate_rnf",
    "ResidueWitness", "UniversalityVerdict", "is_universal", "realize",
    "residue_search",
]
