"""dfinite: exact transcendence testing for D-finite power series.

The package decides or tests the algebraic/transcendental nature of a
power series given a linear differential operator with polynomial
coefficients plus initial terms.  All arithmetic is exact; verdicts
carry replayable certificates.
"""

from .errors import (
    DFiniteError,
    InconsistentInitialConditions,
    InputError,
    InsufficientInitialConditions,
    IrregularPoint,
    NotSquarefree,
    PrecisionTooLow,
    RootNotSeparable,
    ZeroDivisorSplit,
)
from .polys import Poly
from .quotient import ModElt, ModRing, split_cases
from .ore import DiffOp, RecOp, lclm, ode_to_rec, op_mul, op_right_divrem, rec_to_ode
from .series import (
    TruncSeries,
    apply_op,
    indicial_bound,
    is_zero_series,
    unroll,
    validate_init,
    valuation,
    zero_test,
)
from .generators import (
    DiagonalSpec,
    MPoly,
    StepSet,
    TRIDENT_STEPS,
    apery_diagonal_spec,
    binomial_double_product_spec,
    gen_binomial_sum,
    gen_diagonal,
    gen_walk,
)
from .local import (
    FormalSolutionBasis,
    IndicialData,
    LogSeries,
    SingularPoint,
    formal_solutions,
    indicial,
    indicial_branches,
    singularities,
)
from .minimize import (
    MinimizationResult,
    MinimizeOptions,
    certify_annihilates,
    guess_annihilator,
    minimal_annihilator,
)
from .transcend import (
    CertificateStep,
    TranscendOptions,
    VerdictReport,
    diagonal_grade_bound,
    globally_bounded_test,
    transcendence_test,
    verify_report,
)
from .hypergeom import HypParams, frac_conv, hypergeometric_operator, interlaces, interlacing_criterion
from .heuristics import (
    AsymptoticForm,
    EisensteinReport,
    PCurvatureReport,
    apery_asymptotic_decision,
    eisenstein_scan,
    estimate_growth,
    flajolet_check,
    p_curvature,
)
from .algebraic import (
    BivarPoly,
    annihilator_of_roots,
    certify_root,
    guess_algebraic,
    prove_algebraic,
)

__version__ = "0.1.0"
