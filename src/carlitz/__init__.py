"""Exact arithmetic for the Carlitz world over F_q[theta]:

- finite fields, polynomials, and normalized fractions (ffield, poly)
- sparse multivariate polynomials over the fraction field (tpoly)
- fundamental sequences, semi-characters, twisted power sums (powersums)
- matrix-data multiple zeta sums and finite zeta values (mzv)
- the per-degree shuffle identity engine (shuffle)
- twisted power sums in K{tau} and the star chain (skew)
- truncated Tate series and the numeric identity checks (tate)
- the verification registry and report machinery (checks)
- the printers and the matrix-data parser (textio); the command line (cli)
"""

from .errors import (ArityMismatch, BothZero, BudgetExceeded, CarlitzError,
                     ClosedFormMismatch, ConstantInput, ContextMismatch,
                     DivisionByZero, FieldConstructionError, GrammarError,
                     IndexOutOfRange, InexactDivision, InvalidParams,
                     NonConvergent, NonIntegral, NonMonicInput, NotAUnit,
                     PrecisionInsufficient, TailNotVanishing, UnknownCheck,
                     UnsupportedCharacter, WeightZero)
from .ffield import FieldContext, FqElem
from .poly import (APoly, RatK, digit_sum, enumerate_monics, is_irreducible,
                   irreducibles_of_degree, moebius, necklace_count, poly_gcd,
                   poly_xgcd, valuation_inf)
from .tpoly import TPoly
from .powersums import (DEFAULT_BUDGET, SemiChar, SeqCache, partial_F_one_q,
                        power_sum, power_sum_bruteforce, power_sum_closed,
                        tau_b_expand)
from .mzv import (BGDegrees, BGPoly, CongruenceSurvey, MatrixData,
                  bernoulli_goss, bg_block_values, bg_congruence_survey,
                  bg_degree_formula, bg_formula_rhs, multi_power_sum,
                  partial_zeta)
from .skew import SkewPoly, frak_S, star_chain_check
from .tate import (TateSeries, annals_check, family_qk_check, omega_factor,
                   pi_factor, strange_shuffle_check, thakur_weight_check,
                   valuation_identity_check, zeta_series)
from .checks import (CheckReport, CheckSpec, REGISTRY, all_passed, iter_suite,
                     run_check, run_suite)
from .textio import (format_apoly, format_matrix_data, format_ratk,
                     format_semichar, format_series, format_skew, format_tpoly,
                     parse_matrix_data, parse_semichar)

__version__ = "0.1.0"
