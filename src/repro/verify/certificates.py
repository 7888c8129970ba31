"""Invariant certificates and counterexample fixtures.

Every ``repro verify`` verdict becomes a committed, machine-readable
artifact under ``src/repro/verify/certificates/``:

* **UNSAT → invariant certificate** — the property, its parameters, the
  proved invariants (e.g. the instantaneous share floor
  ``F_min / (F_min + (n-1) F_max)``) and a fingerprint over the mirrored
  model constants.  ``repro.guards`` derives monitor bounds from these
  instead of hand-written numbers (:func:`certified_f_max` feeds the
  cwnd/BDP cap slack in :func:`repro.guards.watchdog.bdp_cwnd_cap`).
* **SAT → counterexample** — the witness state plus a ready-to-replay
  fluid-simulator scenario (:func:`scenario_from_witness`), committed as
  a regression fixture and replayed in tests to confirm the model
  predicts the simulator (docs/VERIFICATION.md).

Staleness: the fingerprint is recomputed from the *current* model and
property registry by :func:`staleness_errors`; a unit test and
``repro verify --check`` both fail when a mirrored constant, the model
version or a property's parameters changed after the artifact was
generated.

This module stays importable without z3 (stdlib only + :mod:`.model` /
:mod:`.properties`): guards loads certificates at runtime and must never
pay for the solver stack.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Optional

from .model import model_fingerprint
from .properties import PROPERTIES, Property, invariants_for, property_by_name
from .solver import Verdict

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "CERTIFICATE_DIR",
    "artifact_filename",
    "build_artifact",
    "scenario_from_witness",
    "write_artifact",
    "load_artifact",
    "load_committed",
    "staleness_errors",
    "certified_invariants",
    "certified_f_max",
    "certified_share_floor",
]

#: Bump on breaking artifact-layout changes.
ARTIFACT_FORMAT_VERSION = 1

#: Where the committed artifacts live (package data, shipped with repro).
CERTIFICATE_DIR = Path(__file__).resolve().parent / "certificates"


def artifact_filename(prop: Property) -> str:
    """``<name>.v<version>.json`` — versioned so upgrades coexist."""
    return f"{prop.name}.v{prop.version}.json"


def _fingerprint(prop: Property, params: dict) -> str:
    return model_fingerprint(
        {"property": prop.name, "version": prop.version, "params": params}
    )


def build_artifact(verdict: Verdict) -> dict:
    """The JSON artifact for one conclusive verdict.

    ``unsat`` yields an invariant certificate, ``sat`` a counterexample
    with an attached replay scenario; ``unknown``/``skipped`` verdicts
    have nothing to certify and raise ``ValueError``.
    """
    prop = property_by_name(verdict.property)
    if verdict.verdict not in ("unsat", "sat"):
        raise ValueError(
            f"cannot build an artifact from verdict {verdict.verdict!r} "
            f"for {verdict.property!r}"
        )
    base = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "kind": (
            "invariant-certificate" if verdict.verdict == "unsat" else "counterexample"
        ),
        "property": prop.name,
        "property_version": prop.version,
        "summary": prop.summary,
        "verdict": verdict.verdict,
        "backend": verdict.backend,
        "params": dict(verdict.params),
        "states_checked": verdict.states_checked,
        "fingerprint": _fingerprint(prop, verdict.params),
    }
    if verdict.verdict == "unsat":
        base["invariants"] = invariants_for(prop, verdict.params)
    else:
        witness = dict(verdict.witness or {})
        # Traces can be long; the scenario replays from the initial state.
        witness.pop("trace", None)
        base["witness"] = witness
        base["scenario"] = scenario_from_witness(prop, witness, verdict.params)
    return base


def scenario_from_witness(prop: Property, witness: dict, params: dict) -> dict:
    """A fluid-simulator regression scenario from a SAT witness.

    Maps the model's abstract schedule onto concrete units: a 10 Gbps
    bottleneck, per-iteration communication volume ``alpha * period *
    capacity`` and compute gap ``(1 - alpha) * period``, with the witness
    lag as the second job's start offset.  ``expectation`` records what
    the model claims, which the replay test asserts against
    :func:`repro.fluid.flowsim.run_fluid` output.
    """
    from ..core.units import bps_from_gbps

    period = float(params.get("period", 1.0))
    alpha = float(params.get("alpha", 0.4))
    capacity_gbps = 10.0
    comm_bits = alpha * period * bps_from_gbps(capacity_gbps)
    compute_time = (1.0 - alpha) * period
    if "initial_lag" in witness:
        offsets = [0.0, float(witness["initial_lag"]) % period]
    elif "initial_offsets" in witness:
        offsets = [float(o) % period for o in witness["initial_offsets"]]
    else:
        raise ValueError(f"witness has no schedule: {sorted(witness)}")
    jobs = [
        {
            "name": f"job-{chr(ord('a') + i)}",
            "comm_bits": comm_bits,
            "demand_gbps": capacity_gbps,
            "compute_time": compute_time,
            "start_offset": offset,
        }
        for i, offset in enumerate(offsets)
    ]
    return {
        "capacity_gbps": capacity_gbps,
        "variant": params.get("variant", "paper"),
        "alpha": alpha,
        "period_s": period,
        "iterations": int(params.get("k", 16)) + 8,
        "jobs": jobs,
        "expectation": {
            "interleaves": False,
            "detail": (
                f"the model predicts this schedule never reaches the "
                f"interleavable condition under variant "
                f"{params.get('variant', 'paper')!r}; the paper F1 variant "
                f"must interleave from the same schedule"
            ),
        },
    }


def write_artifact(artifact: dict, directory: Optional[Path] = None) -> Path:
    """Write one artifact into ``directory`` (default: the committed set)."""
    directory = Path(directory) if directory is not None else CERTIFICATE_DIR
    directory.mkdir(parents=True, exist_ok=True)
    prop = property_by_name(artifact["property"])
    path = directory / artifact_filename(prop)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: Path) -> dict:
    """Read one artifact file (``ValueError`` on a non-artifact JSON, or
    one whose ``property`` is not a string or whose ``params`` is not an
    object, naming the file and the field)."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "property" not in data:
        raise ValueError(f"{path} is not a verification artifact")
    if not isinstance(data["property"], str):
        raise ValueError(
            f"{path}: field 'property' must be a string, got "
            f"{data['property']!r}"
        )
    if not isinstance(data.get("params", {}), dict):
        raise ValueError(
            f"{path}: field 'params' must be a JSON object, got "
            f"{data['params']!r}"
        )
    return data


@lru_cache(maxsize=None)
def load_committed(name: str) -> dict:
    """The committed artifact of property ``name`` (cached per process)."""
    prop = property_by_name(name)
    path = CERTIFICATE_DIR / artifact_filename(prop)
    if not path.exists():
        raise FileNotFoundError(
            f"no committed artifact for {name!r} at {path}; regenerate with "
            f"`python -m repro verify --write`"
        )
    return load_artifact(path)


def staleness_errors(artifact: dict) -> list[str]:
    """Why ``artifact`` no longer matches the current model/properties.

    Empty list = fresh.  Checks the property still exists at the same
    version, the verdict still matches the property's expectation, and the
    fingerprint (mirrored constants + model version + parameters) is
    unchanged.
    """
    errors: list[str] = []
    name = artifact.get("property", "<missing>")
    if name not in PROPERTIES:
        return [f"{name}: property no longer exists"]
    prop = PROPERTIES[name]
    if artifact.get("property_version") != prop.version:
        errors.append(
            f"{name}: artifact is v{artifact.get('property_version')}, "
            f"property is now v{prop.version}"
        )
    if artifact.get("verdict") != prop.expected:
        errors.append(
            f"{name}: artifact verdict {artifact.get('verdict')!r} no longer "
            f"matches the expected {prop.expected!r}"
        )
    expected_fingerprint = _fingerprint(prop, artifact.get("params", {}))
    if artifact.get("fingerprint") != expected_fingerprint:
        errors.append(
            f"{name}: fingerprint mismatch — a mirrored model constant, the "
            f"model version or the property parameters changed since this "
            f"artifact was generated (regenerate with `repro verify --write`)"
        )
    return errors


def certified_invariants(name: str) -> dict:
    """The invariants section of a committed UNSAT certificate."""
    artifact = load_committed(name)
    if artifact.get("kind") != "invariant-certificate":
        raise ValueError(f"{name!r} is a {artifact.get('kind')}, not a certificate")
    stale = staleness_errors(artifact)
    if stale:
        raise ValueError(
            f"certificate {name!r} is stale: " + "; ".join(stale)
        )
    return dict(artifact["invariants"])


def certified_f_max() -> float:
    """The proved upper end of the aggressiveness range (2.0 on paper
    constants), from the starvation-bound certificate.

    This is the value ``repro.guards`` derives the cwnd/BDP cap slack
    from: recovery inflation can double a window and MLTCP scales
    additive increase by at most ``F_max``, so ``slack = 2 * F_max``
    bounds legitimate growth (docs/ROBUSTNESS.md, "Derived bounds").
    """
    return float(certified_invariants("starvation-bound")["f_max"])


def certified_share_floor() -> float:
    """The proved instantaneous share floor (1/9 on paper constants)."""
    return float(
        certified_invariants("starvation-bound")["instantaneous_share_floor"]
    )
