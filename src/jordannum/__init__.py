"""Numerical kernel for finite-dimensional complex Jordan algebras."""

from .algebra import (AlgebraSpec, Element, OperatorMatrix, U_operator,
                      U_pair_operator, from_descriptor, jordan_mul,
                      jordan_power, make_direct_sum, make_function_algebra,
                      make_matrix_jordan, make_spin_factor, mult_operator,
                      random_element)
from .calculus import (Contour, HolomorphicCurve, cos, derivative_at_zero,
                       exp, holomorphic_calculus, log, power_mu)
from .errors import (AlgebraMismatch, BranchCut, BranchTrackingFailed,
                     ContourViolation, ExpOverflow, InsufficientData,
                     JordanNumError,
                     NotInvertible, NotSelfAdjoint, NotUMultiplicative,
                     OnSpectrum, ParseError, QuadratureError, StructureError,
                     UnsupportedAlgebra, ZeroFunctional, ZeroOnPath)
from .functionals import (CharacterReport, FunctionalHandle,
                          affine_resolvent_check, characters,
                          is_U_multiplicative, is_spectral_valued,
                          linear_extension, pos_neg_parts,
                          principal_component_sample, reconstruct_psi,
                          unit_sign, verify_character_theorem)
from .spectral import (SpectrumSet, in_unbounded_component, inverse,
                       is_invertible, jordan_spectrum, resolvent)
from .trotter import (ConvergenceReport, SequencePlan,
                      associative_identity_check, convergence_report,
                      general_trotter, geometric_grid, trotter_U,
                      trotter_U_pair, trotter_jordan)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
