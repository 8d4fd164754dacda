"""Central L-values of quadratic twists of CM elliptic curves with good
reduction at 2: exact algebraic parts, 2-adic valuation bounds, Eisenstein
torsion-sum identities, and Tamagawa-factor arithmetic.

The supported fields are K = Q(sqrt(-q)) for q in {7, 11, 19, 43, 67, 163}
(odd class number one); the two builtin curves are 49a and 121b.
"""

from .bsd import (
    BSDError,
    BSDReport,
    NotApplicable,
    TwistSpec,
    classify_twist,
    predicted_sha_ord2,
    tamagawa_ord2_at,
    theorem18_check,
    torsion2_order,
)
from .coeffs import CurveContext
from .lseries import LValueResult, algebraic_part, central_value
from .qfield import QuadInt, is_special_split, special_split_primes
from .registry import Curve, builtin_curve, parse_curve_file, resolve_curve

__version__ = "0.1.0"

__all__ = [
    "BSDError", "BSDReport", "Curve", "CurveContext", "LValueResult",
    "NotApplicable", "QuadInt", "TwistSpec", "algebraic_part",
    "builtin_curve", "central_value", "classify_twist", "is_special_split",
    "parse_curve_file", "predicted_sha_ord2", "resolve_curve",
    "special_split_primes", "tamagawa_ord2_at", "theorem18_check",
    "torsion2_order",
]
