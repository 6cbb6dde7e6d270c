"""Exact Macdonald polynomials at the resonance t^(k+1) q^(r-1) = 1.

The package verifies, in exact arithmetic, that the span of the
admissible Macdonald polynomials equals the ideal of symmetric
polynomials vanishing on the shifted diagonals
x_{i+1} = t q^(s_i) x_i, and realizes the dual current-algebra picture:
relation generation, graded quotient dimensions, admissible monomial
reduction and character recursions.
"""

from .scalars import (BiRatFunc, CycloNum, LaurentPoly, MixedFieldError,
                      ParameterSpec, PoleError, QTPoly, UniPoly, UniRatFunc,
                      render_scalar)
from .partitions import (add_node, check_lemma21, conjugate, dominance_leq,
                         enumerate_admissible, enumerate_partitions,
                         is_admissible, remove_node)
from .symfunc import (MonomialExpansion, SymPoly, m_to_monomials,
                      monomials_to_m, restrict_derivative, sympoly_mul,
                      wheel_substitute)
from .macdonald import (CoeffField, ExactDivisionError, MacdonaldTable,
                        apply_D, apply_E, cauchy_row_check, check_integrality,
                        compute_P, eigenvalue_D, integral_form_factor,
                        psi_dblprime, psi_prime, specialize_P, verify_pieri)
from .wheel_ideal import (basis_I, dim_J, satisfies_wheel, verify_rho_inclusion,
                          verify_stability, verify_theorem1,
                          wheel_substitutions)
from .current_algebra import (CharSeries, W_space_dim, chi_C,
                              enumerate_C_sequences, quotient_dim,
                              reduce_to_admissible, relation_generic,
                              relation_rootofunity, verify_prop302,
                              verify_recursion)

__version__ = "0.1.0"
