"""Exact-arithmetic kernel for finite stages of Iwasawa algebras.

A uniform pro-p group G with ordered basis g_1..g_d is represented by a
unipotent matrix chart; the completed group ring O[[G]] is computed
through its finite stages (Z/p^N)[G/G^{p^n}].  The package provides p-adic
scalar arithmetic, nilpotent Lie-lattice structure theory (upper central
series, centralizers), group-ring convolution with the Lazard filtration,
Mahler expansions of automorphisms, and subgroup-control machinery, plus
a batch CLI over a small text input format.
"""

from .algebra import (
    AlgebraElement,
    FiltValue,
    QuotientGroup,
    SubmoduleBasis,
    b_element,
    b_monomial,
    build_quotient,
    ideal_closure,
    lazard_value,
)
from .charts import (
    GroupChart,
    abelian_chart,
    builtin_chart,
    chart_from_matrices,
    cyclic_chart,
    heisenberg_chart,
    unipotent_chart,
)
from .control import (
    control_lattice,
    controller_estimate,
    is_controlled,
    is_faithful,
    j_ideal_rank,
)
from .errors import (
    BudgetError,
    InvariantViolation,
    KernelError,
    PrecisionError,
    ValidationError,
)
from .mahler import (
    AutomorphismSpec,
    MahlerTable,
    aut_mahler_coeffs,
    divided_power,
    expand_aut,
    is_mahler_aut,
    mahler_coeffs,
    q_growth,
    reconstruct,
)
from .nilpotent import (
    LiePresentation,
    Submodule,
    centraliser_compat,
    centralizer,
    second_centre_centralizer,
    upper_central_series,
    validate,
)
from .padic import (
    PadicScalar,
    digit_sum,
    idempotent_power,
    legendre_factorial_val,
    vp,
    vp_binom_prime_power,
)
from .presentation import PresentationFile, load_presentation, parse_presentation

__version__ = "0.1.0"
