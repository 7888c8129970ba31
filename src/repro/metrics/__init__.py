"""Metrics: iteration-time statistics and convergence detection."""

from .contention import (
    LinkContention,
    hyper_period,
    link_contention_report,
    rack_link_loads,
)
from .convergence import ConvergenceReport, detect_convergence
from .recovery import (
    FaultWindow,
    RecoverySLO,
    fault_windows,
    goodput_deficit_bits,
    recovery_slos,
    reinterleave_time,
    reroute_outage,
)
from .stats import empirical_cdf, jain_fairness, percentile, tail_speedup

__all__ = [
    "empirical_cdf",
    "percentile",
    "tail_speedup",
    "jain_fairness",
    "ConvergenceReport",
    "detect_convergence",
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
