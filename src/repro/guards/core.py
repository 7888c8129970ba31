"""Guardrail core: violation records, policies, and the :class:`GuardRail` sink.

The paper's MLTCP is a *distributed* approximation of a centralized
scheduler, so nothing global checks that the system stays inside its
physical envelope — conservation per link, capacity per allocation, cwnd
bounds, tracker sanity.  The guards subsystem makes those invariants
checkable at runtime: monitors (:mod:`repro.guards.monitors`,
:mod:`repro.guards.watchdog`) call :meth:`GuardRail.violation` whenever an
invariant is broken, and the rail's *policy* decides what happens:

``off``
    Drop the report (useful to silence one guard via ``overrides``).
``record``
    Accumulate an :class:`InvariantViolation` for the telemetry layer —
    the default for experiments, where one bad step should not kill a
    sweep.
``raise``
    Raise :class:`GuardViolationError` at the violation site — the test
    and smoke-target policy.  Violations whose caller already engaged a
    fallback (``fallback_engaged=True``, e.g. MLTCP degrading to vanilla
    CC) are recorded but never raised: degrading *is* the graceful path.
``degrade``
    Like ``record``; names the intent at sites where a fallback exists.

Everything here is dependency-free (no simulator imports), so any layer —
engine, fluid, TCP, harness — can hold a rail without import cycles.
Monitors are **off by default**: with no rail attached the event engine
pays one ``is not None`` test per event and no check runs (see
``benchmarks/bench_guard_overhead.py`` and docs/ROBUSTNESS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

__all__ = [
    "POLICIES",
    "InvariantViolation",
    "GuardViolationError",
    "GuardRail",
]

#: Valid guard policies, in escalation order.
POLICIES = ("off", "record", "raise", "degrade")


@dataclass(frozen=True)
class InvariantViolation:
    """One detected invariant violation (structured, JSON-ready).

    ``guard`` is the stable machine name of the invariant (the catalogue
    lives in docs/ROBUSTNESS.md), ``subject`` the entity it concerns (a
    link name, flow id, policy class, ...), ``time`` the simulation time
    of detection, and ``fallback_engaged`` whether the reporting layer
    already degraded to a safe behaviour instead of misbehaving.
    """

    guard: str
    subject: str
    time: float
    message: str
    fallback_engaged: bool = False

    def render(self) -> str:
        """Human-readable one-liner (the CLI summary format)."""
        suffix = " [fallback engaged]" if self.fallback_engaged else ""
        return f"[{self.guard}] t={self.time:.6g} {self.subject}: {self.message}{suffix}"

    def as_dict(self) -> dict:
        """JSON-ready form (the per-violation dicts experiment results carry)."""
        return {
            "guard": self.guard,
            "subject": self.subject,
            "time": self.time,
            "message": self.message,
            "fallback_engaged": self.fallback_engaged,
        }


class GuardViolationError(RuntimeError):
    """Raised at the violation site under the ``raise`` policy."""

    def __init__(self, violation: InvariantViolation) -> None:
        super().__init__(violation.render())
        self.violation = violation


class GuardRail:
    """Collects :class:`InvariantViolation` reports and applies a policy.

    One rail is shared by every monitor of a run (both substrates, the
    protocol layer, watchdogs); pass it wherever a ``guards=`` parameter
    is accepted.  Per-guard ``overrides`` refine the default policy, e.g.
    ``GuardRail("raise", overrides={"engine-stall": "record"})``.

    The rail also satisfies the engine's monitor duck-type
    (:class:`repro.simulator.engine.SimMonitor`): the engine calls
    :meth:`violation` directly.
    """

    def __init__(
        self,
        policy: str = "record",
        overrides: Optional[Mapping[str, str]] = None,
        max_violations: int = 10_000,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown guard policy {policy!r}; expected one of {POLICIES}")
        if max_violations < 1:
            raise ValueError(f"max_violations must be positive, got {max_violations!r}")
        for guard, override in (overrides or {}).items():
            if override not in POLICIES:
                raise ValueError(
                    f"unknown override policy {override!r} for guard {guard!r}; "
                    f"expected one of {POLICIES}"
                )
        self.policy = policy
        self.overrides: Dict[str, str] = dict(overrides or {})
        self.max_violations = max_violations
        self.violations: List[InvariantViolation] = []
        #: Violations discarded after ``max_violations`` was reached.
        self.dropped = 0

    def policy_for(self, guard: str) -> str:
        """The effective policy for one guard (override, else default)."""
        return self.overrides.get(guard, self.policy)

    def violation(
        self,
        guard: str,
        subject: str,
        time: float,
        message: str,
        fallback_engaged: bool = False,
    ) -> Optional[InvariantViolation]:
        """Report one violation; record and/or raise according to policy.

        Returns the recorded :class:`InvariantViolation` (or ``None`` when
        the guard's policy is ``off``).  Under ``raise``, violations with
        no engaged fallback raise :class:`GuardViolationError` *after*
        being recorded, so a post-mortem still sees them.
        """
        policy = self.policy_for(guard)
        if policy == "off":
            return None
        violation = InvariantViolation(
            guard=guard,
            subject=subject,
            time=time,
            message=message,
            fallback_engaged=fallback_engaged,
        )
        if len(self.violations) < self.max_violations:
            self.violations.append(violation)
        else:
            self.dropped += 1
        if policy == "raise" and not fallback_engaged:
            raise GuardViolationError(violation)
        return violation

    def counts_by_guard(self) -> Dict[str, int]:
        """``{guard: violation count}`` in sorted guard order."""
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.guard] = counts.get(violation.guard, 0) + 1
        return {guard: counts[guard] for guard in sorted(counts)}

    def clear(self) -> None:
        """Forget every recorded violation (between sweep points)."""
        self.violations.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.violations)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GuardRail(policy={self.policy!r}, violations={len(self.violations)}"
            + (f", dropped={self.dropped}" if self.dropped else "")
            + ")"
        )
