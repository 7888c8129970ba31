"""Per-layer host-time attribution for the traced benchmark run.

The traced run wraps each layer's public entry points from the
benchmark's own files; nothing under ``src/`` knows it is being traced.
A wrapper opens a *span*: on exit it adds the call's duration to the
span's inclusive time and, minus the time covered by nested spans, to its
*self* time.  Self times of all spans plus the benchmark's own residual
(``unattributed_s``) therefore sum exactly to the traced wall time.

Module-level functions are often bound by name at import time
(``from .allocation import water_fill_array`` in ``fluid.flowsim`` and
``service.engine``), so a wrapper installed only on the defining module
would silently read zero.  ``install`` therefore rebinds the function in
every loaded ``repro`` module whose global *is* the original object, and
``uninstall`` restores each binding and checks it by ``is`` identity.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["Target", "Tracer", "TARGETS", "SPANS"]


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``where`` is ``"package.module:function"`` or
    ``"package.module:Class.method"`` (the method must be defined on that
    class, not inherited).  ``span`` is the layer the call's time is
    charged to; a ``count_only`` target counts calls without opening a
    span (its time stays with the enclosing span).  ``collect`` keeps the
    first positional argument (``self``) so per-instance counters can be
    summed after the pass; ``sample`` records ``sample(self)`` before each
    call; ``count_result`` counts calls whose return value equals it.
    """

    span: str
    where: str
    count_only: bool = False
    collect: bool = False
    sample: Optional[Callable[[Any], float]] = None
    count_result: Optional[object] = None


#: Every wrapped entry point, grouped by the layer its time is charged to.
TARGETS: tuple[Target, ...] = (
    # harness: the experiment functions the CLI renders figures from.
    *[
        Target("harness.experiments", f"repro.harness.experiments:{name}")
        for name in (
            "fig1_traffic_patterns fig2_schedules fig3_aggressiveness "
            "fig4_six_jobs fig5_loss_function fig6_packet_two_jobs "
            "noise_error_bound fairness_competition_share "
            "fairness_loss_response cross_rack_interleaving chaos_recovery"
        ).split()
    ],
    Target("harness.packetlab", "repro.harness.packetlab:run_packet_jobs"),
    Target("harness.packetlab", "repro.harness.packetlab:run_packet_placements"),
    # schedulers: the CASSINI-style centralized offset search (fig2).
    Target("schedulers.optimize", "repro.schedulers.centralized:CentralizedScheduler.optimize"),
    # fluid single-bottleneck simulator and its allocators.
    Target("fluid.flowsim.run", "repro.fluid.flowsim:FluidSimulator.run"),
    Target("fluid.flowsim.iteration", "repro.fluid.flowsim:FluidSimulator._next_event_dt", count_only=True),
    Target("fluid.flowsim.iteration", "repro.fluid.flowsim:FluidSimulator._next_event_dt_scalar", count_only=True),
    *[
        Target("fluid.allocation.allocate", f"repro.fluid.allocation:{cls}.allocate")
        for cls in ("FairShare", "MLTCPWeighted", "SRPT", "PDQ", "PIAS")
    ],
    *[
        Target("fluid.allocation.cache_key", f"repro.fluid.allocation:{cls}.cache_key", count_only=True)
        for cls in ("AllocationPolicy", "FairShare", "MLTCPWeighted")
    ],
    Target("fluid.allocation.water_fill", "repro.fluid.allocation:water_fill"),
    Target("fluid.allocation.water_fill_array", "repro.fluid.allocation:water_fill_array"),
    # fluid multi-link simulator, fabric faults and weighted max-min.
    Target("fluid.network.run", "repro.fluid.network:NetworkFluidSimulator.run"),
    Target("fluid.network.iteration", "repro.fluid.network:NetworkFluidSimulator._next_dt", count_only=True),
    Target("fluid.network.iteration", "repro.fluid.network:NetworkFluidSimulator._next_dt_array", count_only=True),
    Target("fluid.network.wmm", "repro.fluid.network:weighted_max_min"),
    Target("fluid.network.wmm_array", "repro.fluid.network:weighted_max_min_array"),
    Target("fluid.fabric.capacity_factors", "repro.fluid.fabric:FluidFabricFaults.capacity_factors"),
    *[
        Target("faults.routing", f"repro.faults.routing:FabricRoutingState.{name}")
        for name in (
            "apply revert uplink_up surviving_spines spine_for path_nodes path_links"
        ).split()
    ],
    Target("faults.chaos.schedule", "repro.faults.chaos:ChaosCampaign.schedule"),
    Target("metrics.recovery", "repro.metrics.recovery:recovery_slos"),
    Target("metrics.contention", "repro.metrics.contention:link_contention_report"),
    Target("metrics.contention", "repro.metrics.contention:rack_link_loads"),
    Target("guards.check", "repro.fluid.flowsim:FluidSimulator._check_allocation"),
    Target("guards.check", "repro.fluid.network:NetworkFluidSimulator._check_fabric_guards"),
    *[
        Target("guards.check", f"repro.guards.monitors:{name}")
        for name in (
            "check_allocation check_link_conservation check_cwnd_bounds "
            "check_route_liveness check_reroute_conservation check_tracker_sanity"
        ).split()
    ],
    # packet substrate: event loop, link serialization, TCP ACK clocking.
    Target("simulator.run", "repro.simulator.engine:Simulator.run"),
    Target("simulator.link.send", "repro.simulator.link:Link.send"),
    Target("simulator.link.init", "repro.simulator.link:Link.__init__", count_only=True, collect=True),
    Target("tcp.ack", "repro.tcp.base:TcpSender.receive"),
    Target("tcp.data", "repro.tcp.base:TcpReceiver.receive"),
    Target("tcp.sender.init", "repro.tcp.base:TcpSender.__init__", count_only=True, collect=True),
    # the churn service.
    Target("service.daemon", "repro.service.daemon:ChurnDaemon.run"),
    Target("service.daemon", "repro.service.daemon:ChurnDaemon.__init__"),
    Target("service.engine.step", "repro.service.engine:LiveFluidEngine.step", sample=lambda engine: engine.running),
    Target("service.engine.admit", "repro.service.engine:LiveFluidEngine.admit"),
    Target("service.admission.offer", "repro.service.admission:AdmissionController.offer", count_result="shed"),
    Target("service.admission.drain", "repro.service.admission:AdmissionController.drain"),
    Target("service.journal.commit", "repro.service.journal:ServiceJournal.commit_epoch"),
    Target("service.journal.load", "repro.service.journal:ServiceJournal.__init__"),
)

#: Span names in report order (count-only targets open no span).
SPANS: tuple[str, ...] = tuple(
    dict.fromkeys(t.span for t in TARGETS if not t.count_only)
)


def _resolve(where: str) -> tuple[Any, str, Optional[type]]:
    """``(owner, attribute, class or None)`` for a ``Target.where``."""
    module_name, _, path = where.partition(":")
    module = importlib.import_module(module_name)
    if "." in path:
        class_name, attr = path.split(".")
        cls = getattr(module, class_name)
        if attr not in cls.__dict__:
            raise LookupError(f"{where}: not defined on {class_name}")
        return cls, attr, cls
    if not callable(getattr(module, path, None)):
        raise LookupError(f"{where}: no such function")
    return module, path, None


class Tracer:
    """Span and counter state of one traced pass, plus the wrappers."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        #: ``(owner, attribute, original)`` for every binding replaced.
        self._patched: list[tuple[Any, str, Any]] = []
        self.calls: Counter[str] = Counter()
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.results: Counter[str] = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.instances: defaultdict[str, list[Any]] = defaultdict(list)
        # One child-time accumulator per open span, innermost last.
        self._children: list[float] = []
        self._depth: Counter[str] = Counter()

    def install(self) -> None:
        """Wrap every target and rebind it wherever it was imported by name."""
        if self._patched:
            raise RuntimeError("wrappers already installed")
        try:
            for target in self.targets:
                owner, attr, cls = _resolve(target.where)
                if cls is not None:
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        new: Any = staticmethod(self._wrap(target, raw.__func__))
                    else:
                        new = self._wrap(target, raw)
                    setattr(cls, attr, new)
                    self._patched.append((cls, attr, raw))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(target, original)
                for name, module in list(sys.modules.items()):
                    if module is None or not (name == "repro" or name.startswith("repro.")):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patched.append((module, key, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every original binding; raise if one did not come back."""
        patched, self._patched = self._patched, []
        originals: dict[tuple[int, str], tuple[Any, str, Any]] = {}
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
            originals[(id(owner), attr)] = (owner, attr, original)
        stale = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in originals.values()
            if vars(owner)[attr] is not original
        ]
        if stale:
            raise RuntimeError(f"wrappers not removed: {stale}")

    def _wrap(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        span = target.span
        calls = self.calls
        if target.count_only:
            collect = target.collect
            instances = self.instances[span]

            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                calls[span] += 1
                if collect:
                    instances.append(args[0])
                return fn(*args, **kwargs)

            return counted

        children = self._children
        depth = self._depth
        inclusive = self.inclusive
        self_s = self.self_s
        sample = target.sample
        samples = self.samples[span]
        count_result = target.count_result
        results = self.results
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            calls[span] += 1
            if sample is not None:
                samples.append(float(sample(args[0])))
            depth[span] += 1
            children.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                nested = children.pop()
                self_s[span] += elapsed - nested
                if children:
                    children[-1] += elapsed
                depth[span] -= 1
                if not depth[span]:
                    # Only the outermost call of a recursive span counts
                    # toward inclusive time, so it is never double-charged.
                    inclusive[span] += elapsed
            if count_result is not None and result == count_result:
                results[span] += 1
            return result

        return spanned
