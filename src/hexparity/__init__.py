"""Exact q-series engine and parity verification harness for the
hard-hexagon partition counts.

Everything is computed in Z[[q]] truncated at a finite order, with a
GF(2) fast path for parity statements.  The verifier tier re-derives each
congruence and identity endpoint by at least two independent routes.
"""

from .checks import verify_set_equivalence
from .partitions import (
    PartitionTable,
    PartResidueRule,
    count_restricted,
    p_bruteforce,
    p_table,
    r_gf,
    r_s_decomposed,
    r_star_decomposed,
    regime3_rule,
    regime4_rule,
)
from .report import CheckReport, Violation
from .series import (
    DegenerateFactor,
    NonUnitConstantTerm,
    OrderExceeded,
    ParitySeries,
    QPochhammerSpec,
    TruncatedSeries,
    pochhammer_quotient,
)
from .squares import SquareProgression, index_set, indicator_series
from .theta import (
    Monomial,
    NegativeExponent,
    QuadraticExponentFamily,
    bilateral_sum,
    eq41_sides,
    eq42_sides,
    gauss_theta_sides,
    jtp_sides,
    quintuple_sides,
    regime3_sum,
    regime4_sum,
    rr_G,
    rr_H,
    truncated_gauss_lhs,
    truncated_gauss_rhs,
)

__version__ = "0.1.0"
