"""Metrics: iteration-time statistics and convergence detection."""

from .contention import (
    LinkContention,
    hyper_period,
    link_contention_report,
    rack_link_loads,
)
from .convergence import (
    ConvergenceReport,
    detect_convergence,
    is_stable_after,
    relative_gap,
)
from .recovery import (
    FaultWindow,
    RecoverySLO,
    fault_windows,
    goodput_deficit_bits,
    recovery_slos,
    reinterleave_time,
    reroute_outage,
)
from .stats import (
    SeriesSummary,
    empirical_cdf,
    jain_fairness,
    percentile,
    summarize,
    tail_speedup,
)

__all__ = [
    "empirical_cdf",
    "percentile",
    "tail_speedup",
    "jain_fairness",
    "SeriesSummary",
    "summarize",
    "ConvergenceReport",
    "detect_convergence",
    "relative_gap",
    "is_stable_after",
    "LinkContention",
    "hyper_period",
    "link_contention_report",
    "rack_link_loads",
    "FaultWindow",
    "RecoverySLO",
    "fault_windows",
    "goodput_deficit_bits",
    "recovery_slos",
    "reinterleave_time",
    "reroute_outage",
]
