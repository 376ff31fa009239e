"""The elementwise ``close_enough`` agrees with the scalar rule per element."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.utility.tolerance import ABS_TOL, close_enough, close_enough_elementwise

#: Relative and absolute offsets that straddle the default tolerances.
NUDGES = (0.0, 1e-10, 1e-9, 1.0000001e-9, 1e-8, 0.5)
ABSOLUTE = (0.0, ABS_TOL / 2, ABS_TOL, 2 * ABS_TOL)


@st.composite
def pairs(draw):
    a = draw(st.floats(allow_nan=True, allow_infinity=True))
    kind = draw(st.sampled_from(("free", "relative", "absolute")))
    if kind == "free":
        b = draw(st.floats(allow_nan=True, allow_infinity=True))
    elif kind == "relative":
        b = a * (1.0 + draw(st.sampled_from(NUDGES)) * draw(st.sampled_from((1, -1))))
    else:
        b = a + draw(st.sampled_from(ABSOLUTE)) * draw(st.sampled_from((1, -1)))
    return (b, a) if draw(st.booleans()) else (a, b)


@given(st.lists(pairs(), max_size=20))
def test_matches_scalar_close_enough(drawn):
    a = np.array([x for x, _ in drawn], dtype=np.float64)
    b = np.array([y for _, y in drawn], dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        got = close_enough_elementwise(a, b)
    assert got.tolist() == [close_enough(x, y) for x, y in drawn]
