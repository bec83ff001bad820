"""Sign-constancy verification and exploration toolkit for weighted Liouville sums.

Core objects:
- Liouville function values, exact and streamed (`liouville`)
- Compensated partial sums of lambda(n)/n^alpha with tracked error bounds,
  sign scanning, and the Euler product for exponents > 1 (`partial_sum`)
- Complex Riemann zeta and its derivative via Euler-Maclaurin (`zeta`)
- Tables of critical-line zero ordinates, validation, refinement (`zeros`)
- Residues at the zeta zeros and the smoothed auxiliary trigonometric
  polynomial built from them, with grid scanning (`aux_poly`)
- Command-line front end (`cli`)
"""

from .aux_poly import (
    AuxPolynomial,
    UScanReport,
    build_polynomial,
    evaluate_at,
    residue_batch,
    residue_r0,
    residue_rn,
    scan_u,
)
from .liouville import (
    DEFAULT_SEGMENT_SIZE,
    LambdaBlock,
    lambda_at,
    primes_upto,
    sieve_segment,
    stream_lambda_range,
)
from .partial_sum import (
    Sign,
    SignReport,
    SumState,
    accumulate,
    euler_product_value,
    evaluate,
    scan_sign,
)
from .zeros import ZeroTable, bundled_zero_table, load_zeros, refine_zero, validate_zero
from .zeta import ComplexValue, em_params, zeta, zeta_batch, zeta_prime

__version__ = "0.1.0"

__all__ = [
    "AuxPolynomial",
    "ComplexValue",
    "DEFAULT_SEGMENT_SIZE",
    "LambdaBlock",
    "Sign",
    "SignReport",
    "SumState",
    "UScanReport",
    "ZeroTable",
    "accumulate",
    "build_polynomial",
    "bundled_zero_table",
    "em_params",
    "euler_product_value",
    "evaluate",
    "evaluate_at",
    "lambda_at",
    "load_zeros",
    "primes_upto",
    "refine_zero",
    "residue_batch",
    "residue_r0",
    "residue_rn",
    "scan_sign",
    "scan_u",
    "sieve_segment",
    "stream_lambda_range",
    "validate_zero",
    "zeta",
    "zeta_batch",
    "zeta_prime",
    "__version__",
]
