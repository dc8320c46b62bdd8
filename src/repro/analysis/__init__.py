"""Analysis: the paper's metrics (affected fractions, CCT slowdown) and the
measured Table 3 characteristics probe."""

from .cdf import cdf_at, empirical_cdf, percentile, summarize
from .characteristics import Characteristics, PermutationProbe, divergence_is_upstream
from .metrics import (
    AffectedCounts,
    PinIndex,
    SlowdownReport,
    affected_by_scenario,
    cct_slowdowns,
)

__all__ = [
    "AffectedCounts",
    "Characteristics",
    "PermutationProbe",
    "PinIndex",
    "SlowdownReport",
    "affected_by_scenario",
    "cct_slowdowns",
    "cdf_at",
    "divergence_is_upstream",
    "empirical_cdf",
    "percentile",
    "summarize",
]
