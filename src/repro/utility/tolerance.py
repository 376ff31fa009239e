"""Float comparison helpers (the tolerance discipline behind lint rule R2).

Rates, prices and utilities are fixed-point iterates; comparing them with
a naked ``==`` either hides an "exactly clamped" assumption or is a bug.
These helpers centralize the raw comparisons so intent is explicit at the
call site and the tolerances live in one place:

* :func:`is_zero` — sentinel test for quantities that are *projected to
  exactly 0.0* by ``max(x, 0.0)`` clamps (node/link prices, eq. 12-13) or
  initialized to literal zero.  The default tolerance is therefore exact.
* :func:`close_enough` — approximate equality for quantities that are
  *computed* (utilities, rates, capacities read back from configs);
  :func:`close_enough_elementwise` applies the same rule to numpy arrays.

This module is the single place allowed to spell the raw comparisons.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray

#: Relative tolerance of :func:`close_enough` (``math.isclose``'s default).
REL_TOL = 1e-9

#: Absolute slack used by :func:`close_enough` so magnitudes near zero
#: still compare equal (plain ``math.isclose`` has ``abs_tol=0``).
ABS_TOL = 1e-12

#: Maximum per-iteration relative utility deviation an alternative LRGP
#: engine may show against the reference trajectory
#: (``tests/core/test_engines.py``).  The vectorized engine reorders some
#: floating-point reductions (matrix products, dot-product objective), so
#: bit equality is not guaranteed — but measured deviations are ~1e-15,
#: leaving six orders of magnitude of headroom under this bound.
ENGINE_EQUIVALENCE_RTOL = 1e-9


def is_zero(value: float, tol: float = 0.0) -> bool:
    """True when ``value`` is within ``tol`` of zero.

    With the default ``tol=0.0`` this is an *exact* sentinel test: prices
    are projected onto the non-negative orthant with ``max(x, 0.0)``, so
    "this resource is unconstrained" is represented by exactly ``0.0``.
    NaN is never zero.
    """
    if tol < 0.0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    return abs(value) <= tol


def close_enough(
    a: float, b: float, rel_tol: float = REL_TOL, abs_tol: float = ABS_TOL
) -> bool:
    """Approximate float equality with a non-zero absolute floor."""
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


def close_enough_elementwise(
    a: NDArray[np.float64], b: NDArray[np.float64]
) -> NDArray[np.bool_]:
    """:func:`close_enough` at its default tolerances, applied pairwise to
    two equal-shape arrays.

    Spelled with operators only, so this module never imports numpy; per
    element it is ``math.isclose``'s rule (exact equality, infinities and
    NaN included).
    """
    diff = abs(a - b)
    return (a == b) | (
        (diff < math.inf)
        & ((diff <= abs(REL_TOL * b)) | (diff <= abs(REL_TOL * a)) | (diff <= ABS_TOL))
    )
