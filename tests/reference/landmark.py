"""A landmark oracle's estimate vector, the reference of the pairs it answers.

:func:`estimate_vector` takes the midpoint of the triangle bounds from one
source to every host at once, straight from
:attr:`~repro.oracle.landmark.LandmarkOracle.embedding`: the same
elementwise ops and axis-0 reductions over the landmark dimension as
:meth:`~repro.oracle.landmark.LandmarkOracle.delay_pairs`, which
``tests/oracle/test_landmark.py`` holds to it bit for bit.
"""

import numpy as np


def estimate_vector(oracle, source: int) -> np.ndarray:
    """Estimated delays from *source* to every host (inf where unreachable)."""
    x = oracle.embedding
    xs = x[:, source : source + 1]
    with np.errstate(invalid="ignore"):
        lower = np.max(np.abs(x - xs), axis=0)
        upper = np.min(x + xs, axis=0)
        est = 0.5 * (lower + upper)
    est = np.where(np.isnan(est), np.inf, est)
    est[source] = 0.0
    return est
