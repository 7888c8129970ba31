"""Multi-rack fabric specification and cross-rack job placement.

The paper's testbed is a single-bottleneck dumbbell, but its
distributed-scheduling claim is only stressed when one job's flows cross
*several* contended links with different competitor sets per link — the
regime where centralized network-aware schedulers (CASSINI) must solve a
global optimization while MLTCP just runs per-flow.  This module is the
substrate-neutral description of that regime:

* :class:`FabricSpec` — a two-tier fat-tree / multi-spine leaf-spine
  fabric (racks, hosts per rack, spines, oversubscription) plus the
  deterministic ECMP rule both simulators share, so a packet-level run
  and a fluid run of the same placement traverse *identical* paths.
* :class:`JobPlacement` — one job pinned to a (src host, dst host) pair.
* :func:`place_jobs` — packed / spread / seeded-random policies mapping
  a job list onto the fabric's hosts.

The packet side consumes this via
:func:`repro.simulator.topology.build_fat_tree`; the fluid side via
:mod:`repro.fluid.fabric`.  Naming follows the existing leaf-spine
builder: hosts ``h{rack}_{index}``, rack switches ``rack{i}``, spine
switches ``spine{k}``, directed links ``"a->b"``.

ECMP determinism
----------------
The simulator's routing tables are destination-keyed (one next hop per
``(switch, dst)``), so ECMP here is a deterministic per-(rack, dst)
choice of spine, not per-flow hashing.  The choice function is a CRC-32
of ``"{seed}/{rack}/{dst}"`` — CRC-32 is specified byte-for-byte, unlike
Python's salted builtin ``hash``, so every process, platform and
substrate picks the same spine and reruns are bit-reproducible.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .job import JobSpec

__all__ = [
    "PLACEMENT_POLICIES",
    "FabricSpec",
    "JobPlacement",
    "ecmp_index",
    "host_rack",
    "place_jobs",
]

#: The placement policies :func:`place_jobs` understands.
PLACEMENT_POLICIES = ("packed", "spread", "random")


def ecmp_index(seed: int, ingress: str, dst_host: str, n_choices: int) -> int:
    """Deterministic ECMP-style choice among ``n_choices`` equal-cost paths.

    ``ingress`` is the switch making the choice (a rack name), ``dst_host``
    the packet's destination.  The same ``(seed, ingress, dst_host)`` always
    yields the same index, in every process and on every platform.
    """
    if n_choices < 1:
        raise ValueError(f"n_choices must be positive, got {n_choices!r}")
    key = f"{seed}/{ingress}/{dst_host}".encode("ascii")
    digest = zlib.crc32(key)
    # CRC-32 is linear in its input: host names differing only in the last
    # character map to CRCs differing by a fixed XOR pattern, which makes
    # ``crc % n`` nearly constant across a rack's hosts.  A multiply/xor
    # avalanche (Murmur3-style finalizer) breaks that linearity while
    # staying exactly reproducible everywhere.
    digest ^= digest >> 16
    digest = (digest * 0x45D9F3B) & 0xFFFFFFFF
    digest ^= digest >> 16
    return digest % n_choices


def host_rack(host: str) -> int:
    """The rack index encoded in a fabric host name (``h{rack}_{index}``)."""
    if not host.startswith("h") or "_" not in host:
        raise ValueError(f"not a fabric host name: {host!r}")
    return int(host[1:].split("_", 1)[0])


@dataclass(frozen=True)
class FabricSpec:
    """A two-tier multi-rack fabric, shared by both simulators.

    Parameters
    ----------
    n_racks:
        Number of racks (leaf switches), at least 2.
    hosts_per_rack:
        Hosts attached to each rack switch.
    n_spines:
        Number of spine switches; every rack uplinks to every spine.
    oversubscription:
        Ratio of aggregate host bandwidth entering a rack to the rack's
        aggregate uplink bandwidth.  1.0 is non-blocking; 2.0 means the
        rack's hosts can offer twice what its uplinks carry, so uplinks
        congest under cross-rack load.
    host_gbps:
        Host NIC (edge link) rate in Gbps.
    ecmp_seed:
        Seed of the deterministic ECMP choice (:func:`ecmp_index`).
        Different seeds give different — but equally deterministic —
        spine assignments.
    """

    n_racks: int = 4
    hosts_per_rack: int = 2
    n_spines: int = 2
    oversubscription: float = 1.0
    host_gbps: float = 1.0
    ecmp_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_racks < 2:
            raise ValueError(f"n_racks must be at least 2, got {self.n_racks!r}")
        if self.hosts_per_rack < 1:
            raise ValueError(
                f"hosts_per_rack must be positive, got {self.hosts_per_rack!r}"
            )
        if self.n_spines < 1:
            raise ValueError(f"n_spines must be positive, got {self.n_spines!r}")
        for name in ("oversubscription", "host_gbps"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # NaN fails this test too
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    # -- derived capacities --------------------------------------------------

    @property
    def n_hosts(self) -> int:
        """Total hosts in the fabric."""
        return self.n_racks * self.hosts_per_rack

    @property
    def rack_capacity_gbps(self) -> float:
        """Aggregate uplink bandwidth of one rack (all spines), in Gbps."""
        return self.hosts_per_rack * self.host_gbps / self.oversubscription

    @property
    def uplink_gbps(self) -> float:
        """Rate of one physical rack<->spine link, in Gbps."""
        return self.rack_capacity_gbps / self.n_spines

    # -- names ---------------------------------------------------------------

    def host_name(self, rack: int, index: int) -> str:
        """Name of host ``index`` in ``rack`` (``h{rack}_{index}``)."""
        return f"h{rack}_{index}"

    def rack_name(self, rack: int) -> str:
        """Name of a rack (leaf) switch."""
        return f"rack{rack}"

    def spine_name(self, spine: int) -> str:
        """Name of a spine switch."""
        return f"spine{spine}"

    def host_names(self) -> tuple[str, ...]:
        """Every host, rack-major: ``h0_0, h0_1, ..., h1_0, ...``."""
        return tuple(
            self.host_name(rack, index)
            for rack in range(self.n_racks)
            for index in range(self.hosts_per_rack)
        )

    # -- routing -------------------------------------------------------------

    def spine_for(self, rack: int, dst_host: str) -> int:
        """The spine ``rack``'s switch uses to reach ``dst_host``."""
        return ecmp_index(self.ecmp_seed, self.rack_name(rack), dst_host, self.n_spines)

    def path_nodes(self, src: str, dst: str) -> tuple[str, ...]:
        """Node names a ``src -> dst`` flow visits (both simulators agree)."""
        src_rack, dst_rack = host_rack(src), host_rack(dst)
        for rack, host in ((src_rack, src), (dst_rack, dst)):
            if not 0 <= rack < self.n_racks:
                raise ValueError(f"{host!r} is not on this {self.n_racks}-rack fabric")
        if src == dst:
            raise ValueError(f"src and dst must differ, got {src!r} twice")
        if src_rack == dst_rack:
            return (src, self.rack_name(src_rack), dst)
        spine = self.spine_for(src_rack, dst)
        return (
            src,
            self.rack_name(src_rack),
            self.spine_name(spine),
            self.rack_name(dst_rack),
            dst,
        )

    def path_links(self, src: str, dst: str) -> tuple[str, ...]:
        """Directed link names (``"a->b"``) a ``src -> dst`` flow crosses."""
        nodes = self.path_nodes(src, dst)
        return tuple(f"{a}->{b}" for a, b in zip(nodes, nodes[1:]))

    def capacities_gbps(self) -> dict[str, float]:
        """Every directed link's capacity, keyed by ``"a->b"`` name.

        This is the fluid simulator's link-capacity map; the packet builder
        creates one :class:`~repro.simulator.link.Link` per entry at the
        same rate, so both substrates share one capacity model.
        """
        capacities: dict[str, float] = {}
        for rack in range(self.n_racks):
            rack_sw = self.rack_name(rack)
            for index in range(self.hosts_per_rack):
                host = self.host_name(rack, index)
                capacities[f"{host}->{rack_sw}"] = self.host_gbps
                capacities[f"{rack_sw}->{host}"] = self.host_gbps
            for spine in range(self.n_spines):
                spine_sw = self.spine_name(spine)
                capacities[f"{rack_sw}->{spine_sw}"] = self.uplink_gbps
                capacities[f"{spine_sw}->{rack_sw}"] = self.uplink_gbps
        return capacities

    def fabric_links(self) -> tuple[str, ...]:
        """The rack<->spine link names — the links that can be oversubscribed."""
        names: list[str] = []
        for rack in range(self.n_racks):
            rack_sw = self.rack_name(rack)
            for spine in range(self.n_spines):
                spine_sw = self.spine_name(spine)
                names.append(f"{rack_sw}->{spine_sw}")
                names.append(f"{spine_sw}->{rack_sw}")
        return tuple(names)


@dataclass(frozen=True)
class JobPlacement:
    """One job pinned to a source and destination host on a fabric."""

    job: JobSpec
    src: str
    dst: str

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"{self.job.name}: src and dst must differ")

    @property
    def cross_rack(self) -> bool:
        """Whether the flow leaves its source rack (crosses uplinks)."""
        return host_rack(self.src) != host_rack(self.dst)

    def nodes(self, spec: FabricSpec) -> tuple[str, ...]:
        """Node path of this job's flow on ``spec``."""
        return spec.path_nodes(self.src, self.dst)

    def links(self, spec: FabricSpec) -> tuple[str, ...]:
        """Directed links of this job's flow on ``spec``."""
        return spec.path_links(self.src, self.dst)


def _host_order(spec: FabricSpec, policy: str, seed: int) -> list[str]:
    """Host assignment order for one policy (see :func:`place_jobs`)."""
    rack_major = list(spec.host_names())
    if policy == "packed":
        return rack_major
    if policy == "spread":
        # Round-robin across racks: consecutive hosts sit in different
        # racks, so consecutive (src, dst) pairs become cross-rack flows.
        return [
            spec.host_name(rack, index)
            for index in range(spec.hosts_per_rack)
            for rack in range(spec.n_racks)
        ]
    if policy == "random":
        rng = np.random.default_rng(seed)
        return [rack_major[i] for i in rng.permutation(len(rack_major))]
    raise ValueError(
        f"unknown placement policy {policy!r}; expected one of {PLACEMENT_POLICIES}"
    )


def place_jobs(
    jobs: list[JobSpec] | tuple[JobSpec, ...],
    spec: FabricSpec,
    policy: str = "spread",
    seed: int = 0,
) -> tuple[JobPlacement, ...]:
    """Map jobs onto fabric hosts, two hosts (one flow) per job.

    Policies:

    * ``"packed"`` — rack-major assignment: consecutive host pairs, so
      jobs mostly stay *inside* a rack (the scheduler-friendly layout
      Metronome-style placers aim for); cross-rack flows appear only
      where a pair straddles a rack boundary.
    * ``"spread"`` — round-robin across racks: every pair lands in two
      different racks, so every job crosses uplinks and each uplink sees
      a different competitor set (the CASSINI-hard layout).
    * ``"random"`` — a seeded permutation of the hosts; the realistic
      middle ground where a cluster scheduler ignored the network.

    Each host carries at most one flow endpoint, so host NICs never
    multiplex jobs and contention happens only on fabric links.
    """
    if not jobs:
        raise ValueError("need at least one job")
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise ValueError(f"job names must be unique, got {names}")
    if 2 * len(jobs) > spec.n_hosts:
        raise ValueError(
            f"{len(jobs)} jobs need {2 * len(jobs)} hosts; the fabric has "
            f"{spec.n_hosts} ({spec.n_racks} racks x {spec.hosts_per_rack})"
        )
    order = _host_order(spec, policy, seed)
    return tuple(
        JobPlacement(job=job, src=order[2 * i], dst=order[2 * i + 1])
        for i, job in enumerate(jobs)
    )
