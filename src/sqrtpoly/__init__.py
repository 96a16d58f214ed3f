"""Square-root polynomials over prime fields.

Construct, enumerate, count, and minimize polynomials f in F_p[x] with
f(a)^2 = a on the quadratic residues.
"""

from . import census, errors, fourier, heuristic, poly, search, signs, ts
from .field import (FieldCtx, canonical_sqrt, legendre, make_field_ctx,
                    root_of_unity)
from .poly import Poly, is_sqrt_poly

__all__ = [
    "FieldCtx", "Poly", "canonical_sqrt", "census", "errors",
    "fourier", "heuristic", "is_sqrt_poly", "legendre", "make_field_ctx",
    "poly", "root_of_unity", "search", "signs", "ts",
]

__version__ = "0.1.0"
