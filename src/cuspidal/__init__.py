"""Exact invariants of plane cusps with one characteristic pair.

The package computes, over exact rational arithmetic: the value semigroup
and its semimodule of differential values, standard and extended standard
bases of 1-forms, Delorme decompositions, total-dicriticalness
certificates for the last basis form, and the analytic semiroots cut out
by the basis forms, together with cross-checks of the structure theorems
relating all of these.
"""

from .semigroup import (PuiseuxPair, GammaRepresentation, contains,
                        represent, copair)
from .semimodule import (GammaSemimodule, Limits, LevelSet, Tops,
                         minimal_basis, limits, is_increasing, level_set,
                         ray_level_set, is_circular_interval, tops)
from .forms import (BivariatePolynomial, OneForm, Region, differential,
                    nu_E_form, initial_part, rdo, is_basic, is_prebasic,
                    is_resonant)
from .series import (TruncatedSeries, OrderResult, PuiseuxCurve,
                     pullback_form, pullback_function, nu_C_form,
                     nu_C_function, integrate_against_conductor)
from .blowup import (CuspidalSequence, DicriticalVerdict, build_sequence,
                     transform_form, is_totally_dicritical)
from .stdbasis import (ExtendedStandardBasis, ConstructionTrace,
                       DelormeDecomposition, compute_standard_basis,
                       dicritically_adjust, delorme_decompose,
                       semimodule_oracle)
from .semiroot import (Semiroot, solve_invariant_branch, semiroot,
                       verify_main_theorem, zariski_invariant)

__version__ = "0.1.0"
