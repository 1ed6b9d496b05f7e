"""Exact construction and verification of q-Racah tridiagonal operator suites."""

__version__ = "0.1.0"

from .scalars import Scalar, RationalField, RatFuncField, rational_field, ratfunc_field, get_field
from .parser import ParseError, parse_scalar
from .params import QRacahParams, ParamValidationError, ParamViolation, validate_params
from .linalg import (
    Matrix,
    Subspace,
    eigenspace,
    subspace_sum,
    subspace_intersect,
    is_direct_decomposition,
    nilpotency_index,
    generated_algebra_dim,
)
from .qcalc import q_int, q_fact, q_exp
from .leonard import (
    LeonardSuite,
    leonard_suite,
    operator_matrix,
    psi_hat,
    transition_matrix,
)
from .engine import (
    AxiomReport,
    CrossRouteError,
    EngineError,
    NotQRacahError,
    OperatorSuite,
    derive_suite,
    detect_qracah,
    downarrow,
    psi_from_KB,
    split_from_AK,
    split_from_pair,
    validate_axioms,
)
from .battery import VerificationReport, battery_ids, verify_battery
from .fixtures import Fixture, FixtureFormatError, read_fixture, write_fixture

__all__ = [
    "LeonardSuite",
    "leonard_suite",
    "operator_matrix",
    "psi_hat",
    "transition_matrix",
    "AxiomReport",
    "CrossRouteError",
    "EngineError",
    "NotQRacahError",
    "OperatorSuite",
    "derive_suite",
    "detect_qracah",
    "downarrow",
    "psi_from_KB",
    "split_from_AK",
    "split_from_pair",
    "validate_axioms",
    "VerificationReport",
    "battery_ids",
    "verify_battery",
    "Fixture",
    "FixtureFormatError",
    "read_fixture",
    "write_fixture",
    "Scalar",
    "RationalField",
    "RatFuncField",
    "rational_field",
    "ratfunc_field",
    "get_field",
    "ParseError",
    "parse_scalar",
    "QRacahParams",
    "ParamValidationError",
    "ParamViolation",
    "validate_params",
    "Matrix",
    "Subspace",
    "eigenspace",
    "subspace_sum",
    "subspace_intersect",
    "is_direct_decomposition",
    "nilpotency_index",
    "generated_algebra_dim",
    "q_int",
    "q_fact",
    "q_exp",
]
