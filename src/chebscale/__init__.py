"""Chebyshev asymptotic scales: canonical factorizations, weighted-derivative
operators, asymptotic-expansion coefficient extraction and theorem checks."""

from .errors import (
    BadScheduleParams,
    ChebscaleError,
    DivergentTail,
    DivisionByZeroJet,
    DomainErrorJet,
    EvaluationError,
    ExprSyntaxError,
    IndexConditionViolated,
    LimitDiverged,
    NotAsymptoticScale,
    NotConstant,
    OrderExceeded,
    PivotVanishes,
    ToleranceNotMet,
    WronskianDegenerate,
)
from .expansion import (
    ConstructedFunction,
    ExpansionResult,
    ScaleArtifacts,
    TheoremReport,
    artifacts_for,
    check_absolute,
    check_complete,
    check_incomplete,
    check_O,
    construct_from_source,
    extract_operator,
    extract_recursive,
)
from .expr import ExpressionFunction, eval_jet, parse, render
from .factorization import (
    PrincipalSystem,
    WeightChain,
    apply_chain,
    apply_full_operator,
    build_principal_system,
    build_type1_chain,
    build_type2_chain,
    classify_canonicity,
    divide_and_differentiate,
    fit_ratio_constant,
)
from .jet import Jet, JetMemo, jet_derivative, jet_variable
from .operators import (
    OperatorConstants,
    operator_constants,
)
from .quadrature import (
    ConvergenceVerdict,
    NestedIntegral,
    WorkGrid,
    integrate,
)
from .scale import (
    ChebyshevScale,
    ProbeSchedule,
    default_verification_schedule,
    finite_prefix,
    load_scale_file,
    make_schedule,
    scale_schedule,
    verify_hierarchy,
    verify_tas,
)
from .wronskian import (
    WronskianEvaluation,
    check_levin_hierarchy,
    wronskian,
    wronskian_jet,
)

__version__ = "0.1.0"
