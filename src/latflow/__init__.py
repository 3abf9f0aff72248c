"""latflow: a desk-scale laboratory pairing the diagonal flow on the space
of unimodular 3D lattices with the Diophantine classification of the line
segment driving it.  Each side serves as an oracle for the other: witness
searches predict flow minima and escape of mass, and certified lattice
computations corroborate (or bound) the arithmetic claims.
"""

from .errors import (
    BudgetError,
    InvalidInputError,
    LatflowError,
    ParseError,
    PrecisionError,
)
from .flow import FlowTime, LineSegmentSpec
from .scalars import F64, RATIONAL, ScalarMode, bigfloat

__all__ = [
    "BudgetError",
    "InvalidInputError",
    "LatflowError",
    "ParseError",
    "PrecisionError",
    "FlowTime",
    "LineSegmentSpec",
    "F64",
    "RATIONAL",
    "ScalarMode",
    "bigfloat",
]

__version__ = "0.1.0"
