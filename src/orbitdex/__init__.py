"""orbitdex: exact local dynamics of polynomial germ maps.

Zero orders of isolated zeros, fixed-point indices of all iterates,
Dold indices and hidden periodic-orbit counts, plus the universality
decision for Jordan linear parts with root-of-unity eigenvalues and
constructive realization of admissible count sequences.  All arithmetic
is exact, over cyclotomic extensions of the rationals.
"""

from .cyclotomic import CyclotomicNumber, cyclotomic_polynomial, euler_phi, root_of_unity
from .germfile import GermDocument, GermParseError, parse_germ, print_germ
from .jordan import (CoordMask, JordanBlock, JordanSpec, SequenceTarget,
                     format_inline_matrix, global_order, is_admissible,
                     parse_inline_matrix, period_mask, period_set)
from .multiplicity import MultiplicityResult, NotIsolatedWithinBound, multiplicity
from .orbits import (ConsistencyError, OrbitSpectrum, direct_iterate_index,
                     fixed_point_index, orbit_spectrum,
                     solve_counts_triangular)
from .polynomials import GermMap, Poly, TermBudgetExceeded, variables
from .resonance import (NormalFormVerdict, ResonanceContext, divide_by_leads,
                        find_essential_blocks, is_resonant_monomial,
                        lead_variable_shape_ok, project, strip_eigenvalues,
                        validate_rnf)
from .universality import (ResidueWitness, UniversalityVerdict, chain_check,
                           chain_coprime_germ, chain_germ, is_universal,
                           realize, residue_search, unit_spectrum_germ)

__version__ = "0.1.0"

__all__ = [
    "CyclotomicNumber", "cyclotomic_polynomial", "euler_phi", "root_of_unity",
    "GermDocument", "GermParseError", "parse_germ", "print_germ",
    "CoordMask", "JordanBlock", "JordanSpec", "SequenceTarget",
    "format_inline_matrix", "global_order", "is_admissible",
    "parse_inline_matrix", "period_mask", "period_set",
    "MultiplicityResult", "NotIsolatedWithinBound", "multiplicity",
    "ConsistencyError", "OrbitSpectrum", "direct_iterate_index",
    "fixed_point_index", "orbit_spectrum", "solve_counts_triangular",
    "GermMap", "Poly", "TermBudgetExceeded", "variables",
    "NormalFormVerdict", "ResonanceContext", "divide_by_leads",
    "find_essential_blocks", "is_resonant_monomial", "lead_variable_shape_ok",
    "project", "strip_eigenvalues", "validate_rnf",
    "ResidueWitness", "UniversalityVerdict", "chain_check",
    "chain_coprime_germ", "chain_germ", "is_universal", "realize",
    "residue_search", "unit_spectrum_germ",
]
