"""conezeta: reduce lattice-cone zeta values to cyclotomic zeta symbols.

Main entry points: `reduce_cone_zeta` for the symbolic reduction and
`verify_reduction` / `eval_cone_zeta` for independent numeric checks.
"""

from .exact import (CycloNumber, RootOfUnity, LatticeCharacter, nth_roots,
                    restrict_character, induced_character_decompose)
from .geometry import (Cone, SimplicialCone, triangulate,
                       open_simplicial_decomposition, free_superlattice)
from .derivation import (DerivedSequence, build_derived_sequences,
                         primitive_rescale)
from .rewrite import (FactorTerm, Integrand, ReductionTrace,
                      integral_expression, convergence_check,
                      change_coordinates, uni_factorize,
                      reduce_to_univariate)
from .polylog import (PNormalForm, ZExpression, MZVSymbol, DivergentResult,
                      shuffle, multiply_factor, integrate_P, regularize_limit,
                      mzv_symbol_from_word)
from .pipeline import (reduce_cone_zeta, execute_recipe, ReductionResult,
                       PieceLimitExceeded)
from .numeric import (EvalResult, eval_mzv, eval_zexpr, eval_cone_zeta,
                      verify_reduction)

__version__ = "0.1.0"
