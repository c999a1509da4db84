"""Toolkit for overdetermined polynomial systems and jet prolongation.

Exact rational arithmetic end to end: prolong first-order PDE systems into
algebraic systems in jet variables, lower and eliminate overdetermined
polynomial systems pair by pair, and certify candidate solutions by exact
Jacobian rank.
"""

from .errors import OverdetError
from .jets import (
    IndexCodec,
    JetVar,
    OrderSearchResult,
    PdeSystem,
    ProlongedSystem,
    TopOrderResult,
    minimal_orders,
    prolong,
    top_order_extraction,
    total_derivative,
)
from .oracle import gcd_univariate, rational_root_search, sylvester_resultant
from .poly import Polynomial, Scalar, determinant, parse_polynomial
from .rank import JacobianMatrix, RankReport, certify, exact_rank, jacobian
from .reduction import (
    ReductionOutcome,
    ReductionStep,
    SideCondition,
    eliminate_variable,
    reduce_chain,
    reduce_pair,
    solve_overdetermined,
)

__version__ = "0.1.0"

__all__ = [
    "IndexCodec",
    "JacobianMatrix",
    "JetVar",
    "OrderSearchResult",
    "OverdetError",
    "PdeSystem",
    "Polynomial",
    "ProlongedSystem",
    "RankReport",
    "ReductionOutcome",
    "ReductionStep",
    "Scalar",
    "SideCondition",
    "TopOrderResult",
    "certify",
    "determinant",
    "eliminate_variable",
    "exact_rank",
    "gcd_univariate",
    "jacobian",
    "minimal_orders",
    "parse_polynomial",
    "prolong",
    "rational_root_search",
    "reduce_chain",
    "reduce_pair",
    "solve_overdetermined",
    "sylvester_resultant",
    "top_order_extraction",
    "total_derivative",
]
