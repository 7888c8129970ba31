"""Scheduling-as-a-service: the long-lived, crash-resilient churn daemon.

Everything the closed batch experiments cannot exercise lives here: an
open-loop arrival stream (:mod:`repro.workloads.arrivals`) feeding a live
array-backed fluid simulation (:mod:`~repro.service.engine`) through
bounded admission control (:mod:`~repro.service.admission`), supervised
by a watchdog and a write-ahead journal (:mod:`~repro.service.journal`)
so a killed daemon replays to bit-identical state
(:mod:`~repro.service.daemon`, docs/SERVICE.md).  Exposed on the CLI as
``repro serve``.
"""

from .admission import SHED_POLICIES, AdmissionController
from .daemon import (
    ChurnDaemon,
    InjectedCrash,
    ServiceConfig,
    ServiceCrash,
    query_journal,
)
from .engine import ENGINE_POLICIES, LiveFluidEngine
from .journal import JournalError, ServiceJournal

__all__ = [
    "AdmissionController",
    "SHED_POLICIES",
    "ChurnDaemon",
    "InjectedCrash",
    "ServiceConfig",
    "ServiceCrash",
    "query_journal",
    "ENGINE_POLICIES",
    "LiveFluidEngine",
    "JournalError",
    "ServiceJournal",
]
