"""rlab: exact and numerical laboratory for Ramanujan expansions."""

from .arith import (ArithmeticFunction, FactoredInteger, d_k, divisors, factor,
                    function_from_spec, mu, omega, phi)
from .finite import (FiniteExpansion, TruncatedDivisorSum, fre_to_tds,
                     high_coefficient_check, low_coefficient_report,
                     tds_to_fre, truncate)
from .kernels import BACKEND
from .limits import LimitEstimate
from .ramanujan import (RamanujanSumTable, csum, csum_divisor_form,
                        csum_trig_form, orthogonality_estimate)
from .rational import exact_sum, format_rational, parse_rational
from .transforms import (ConditionReport, carmichael_estimate, condition_check,
                         cw_formula_check, eratosthenes, nonneg_carmichael_bound,
                         vanishing_tail_search, wintner_coefficient)
from .expansions import (ZeroCloudElement, divisor_power_coefficient,
                         evaluate_partial, invert_pure_coefficients,
                         lucht_evaluate, standard_finite_expansion,
                         wintner_delange_reconstruct, zero_cloud_partial)
from .shift import (Correlation, CutCorrelation, cc_coefficients, carmichael_vs_cc,
                    correlate, cut_correlation, l_estimate, qrc,
                    shift_expansion_check, short_average, weak_reef_check)

__version__ = "0.1.0"
