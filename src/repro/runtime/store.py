"""On-disk persistence for scenario traces.

Trace construction (every zoo model over every frame) dominates wall-clock
for the whole benchmark suite; a built trace is a pure function of the
(scenario, zoo) pair, so it is safe to persist and reuse across processes.
Entries carry a schema version that fails loudly on mismatch.

Format — one entry per (scenario, zoo) pair, named
``trace-v<algo>-<scenario_fp16>-<zoo_fp12>.col`` in the binary columnar
format (:mod:`repro.runtime.colfmt`).  Entries named ``....json`` are a
legacy read-only format: loads fall back to them, and opening a store
re-encodes them as binary in place.  The on-disk lifecycle — sharding by
scenario-fingerprint prefix (``root/<2-hex>/``), per-shard indexes,
advisory-lock–guarded writes, flat→shard and JSON→binary migration on
open, quarantine, maintenance — is :class:`repro.runtime.shards.ShardedEntryStore`;
this module supplies the trace codec.  The logical payload is identical
across formats (the differential checks assert bit-equality).  Fields:

``schema_version``
    Integer; readers reject anything but their own version.
``scenario_name`` / ``scenario_fingerprint`` / ``zoo_fingerprint``
    Identity block.  Fingerprints are the full content digests
    (:meth:`Scenario.fingerprint`, :meth:`ModelZoo.fingerprint`); loads
    re-derive both from the live objects and reject any mismatch, so a
    stale or hand-edited file can never masquerade as the wrong trace.
``frame_count``
    Must equal the live scenario's ``total_frames``.
``outcomes``
    ``{model_name: [row, ...]}`` with one compact row per frame:
    ``[box, confidence, iou, quality, detected, false_positive]`` where
    ``box`` is ``[x1, y1, x2, y2]`` or ``null``.

Frames (rendered pixels + scene states) are *not* stored: rendering is
deterministic, so loads return a **lazy** trace that attaches the persisted
outcomes and defers rendering until someone actually reads ``.frames``.
Outcome-only consumers (tables, metrics, oracle summaries) therefore pay
only a header probe plus a column decode on reload; policy runs render on
first frame access through the batched renderer and see a trace
indistinguishable from a fresh build.
"""

from __future__ import annotations

from pathlib import Path

from ..data.scenario import Scenario
from ..models.detector import DetectionOutcome
from ..models.zoo import ModelZoo
from ..vision.bbox import BoundingBox
from . import colfmt, iolayer, shards
from .trace import ScenarioTrace

SCHEMA_VERSION = 1

# Version of the *outcome-producing algorithm* (detector, scene difficulty,
# noise streams).  Fingerprints pin what a trace was built FROM; this pins
# what it was built WITH.  Bump it whenever a change to the simulation
# alters detection outcomes, or persisted traces from before the change
# would silently masquerade as current results.
ALGORITHM_VERSION = 1


class TraceSchemaError(ValueError):
    """Raised when a persisted trace cannot be understood or doesn't match."""


def trace_to_dict(trace: ScenarioTrace, zoo: ModelZoo) -> dict:
    """Plain-dict form of a trace (JSON-compatible, frames omitted)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "algorithm_version": ALGORITHM_VERSION,
        "scenario_name": trace.scenario.name,
        "scenario_fingerprint": trace.scenario.fingerprint(),
        "zoo_fingerprint": zoo.fingerprint(),
        "frame_count": trace.frame_count,
        "outcomes": {
            model: [
                [
                    None if o.box is None else [o.box.x1, o.box.y1, o.box.x2, o.box.y2],
                    o.confidence,
                    o.iou,
                    o.quality,
                    o.detected,
                    o.false_positive,
                ]
                for o in per_model
            ]
            for model, per_model in trace.outcomes.items()
        },
    }


def _validate_trace_payload(payload: dict, scenario: Scenario, zoo: ModelZoo) -> None:
    """Identity checks shared by both entry formats (raises :class:`TraceSchemaError`).

    Everything verified here lives in the binary header's ``meta`` block,
    so the columnar load path can validate without decoding any outcome
    columns.
    """
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise TraceSchemaError(
            f"unsupported trace schema {version!r}; this build reads version {SCHEMA_VERSION}"
        )
    algorithm = payload.get("algorithm_version")
    if algorithm != ALGORITHM_VERSION:
        raise TraceSchemaError(
            f"trace was built by algorithm version {algorithm!r}; this build produces "
            f"version {ALGORITHM_VERSION} — rebuild (delete the store entry)"
        )
    if payload.get("scenario_fingerprint") != scenario.fingerprint():
        raise TraceSchemaError(
            f"trace was built for a different scenario than {scenario.name!r} "
            "(fingerprint mismatch)"
        )
    if payload.get("zoo_fingerprint") != zoo.fingerprint():
        raise TraceSchemaError("trace was built against a different model zoo (fingerprint mismatch)")
    if payload.get("frame_count") != scenario.total_frames:
        raise TraceSchemaError(
            f"trace covers {payload.get('frame_count')!r} frames but scenario "
            f"{scenario.name!r} has {scenario.total_frames}"
        )


def _outcomes_from_rows(rows_by_model: dict) -> dict[str, list[DetectionOutcome]]:
    """Rebuild per-model :class:`DetectionOutcome` lists from compact rows."""
    try:
        outcomes: dict[str, list[DetectionOutcome]] = {}
        for model, rows in rows_by_model.items():
            outcomes[model] = [
                DetectionOutcome(
                    model_name=model,
                    box=None if row[0] is None else BoundingBox(*row[0]),
                    confidence=row[1],
                    iou=row[2],
                    quality=row[3],
                    detected=row[4],
                    false_positive=row[5],
                )
                for row in rows
            ]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise TraceSchemaError(f"malformed trace payload: {exc}") from exc
    return outcomes


def trace_from_dict(payload: dict, scenario: Scenario, zoo: ModelZoo) -> ScenarioTrace:
    """Rebuild a trace from its dict form against the live scenario and zoo.

    Validates the schema version and both fingerprints and reattaches the
    persisted outcomes; frames stay lazy (rendered deterministically on
    first access), so outcome-only consumers never pay for pixels.
    """
    _validate_trace_payload(payload, scenario, zoo)
    try:
        rows_by_model = payload["outcomes"]
    except KeyError as exc:
        raise TraceSchemaError("trace payload has no outcomes block") from exc
    outcomes = _outcomes_from_rows(rows_by_model)
    return ScenarioTrace(scenario=scenario, frames=None, outcomes=outcomes)


def _trace_entry_stem(scenario_fingerprint: str, zoo_fingerprint: str) -> str:
    """The entry file name, minus its format suffix, for a (scenario, zoo) pair.

    The algorithm version is part of the name, so bumping it simply
    orphans stale files (treated as misses and rebuilt) rather than
    erroring on them.
    """
    return f"trace-v{ALGORITHM_VERSION}-{scenario_fingerprint[:16]}-{zoo_fingerprint[:12]}"


def _scrub_problem(name: str, payload: dict) -> str | None:
    """Why a parsed trace entry is unsound, or None when it checks out.

    Scrub has no live scenario/zoo to compare against, so it verifies the
    *internal* identity discipline: schema and algorithm versions, the
    fingerprint prefixes baked into the file name, and the outcome shape.
    Payloads of both formats arrive here fully decoded
    (:func:`repro.runtime.colfmt.load_entry_payload`), so the same checks
    cover JSON and binary entries.
    """
    if payload.get("schema_version") != SCHEMA_VERSION:
        return f"schema_version {payload.get('schema_version')!r} != {SCHEMA_VERSION}"
    parts = colfmt.entry_stem(name).split("-")
    if parts[1] != f"v{payload.get('algorithm_version')}":
        return (
            f"algorithm_version {payload.get('algorithm_version')!r} "
            f"does not match file name {parts[1]}"
        )
    fingerprint = payload.get("scenario_fingerprint")
    if not isinstance(fingerprint, str) or not fingerprint.startswith(parts[2]):
        return "scenario fingerprint does not match file name"
    zoo_fingerprint = payload.get("zoo_fingerprint")
    if not isinstance(zoo_fingerprint, str) or not zoo_fingerprint.startswith(parts[3]):
        return "zoo fingerprint does not match file name"
    outcomes = payload.get("outcomes")
    if not isinstance(outcomes, dict):
        return "outcomes block is not an object"
    frames = payload.get("frame_count")
    if not isinstance(frames, int):
        return "frame_count is not an integer"
    for model, rows in outcomes.items():
        if not isinstance(rows, list) or len(rows) != frames:
            return f"outcomes[{model}] does not carry {frames} rows"
    return None


def _index_meta(payload: dict) -> dict:
    """The identity block a shard index records for one trace entry."""
    return {
        "scenario_name": payload.get("scenario_name"),
        "scenario_fingerprint": payload.get("scenario_fingerprint"),
        "zoo_fingerprint": payload.get("zoo_fingerprint"),
        "algorithm_version": payload.get("algorithm_version"),
        "frame_count": payload.get("frame_count"),
    }


class TraceStore(shards.ShardedEntryStore):
    """A sharded directory of persisted traces, content-addressed by fingerprints.

    Entries live under ``root/<fp-prefix>/`` with a per-shard index and
    advisory-lock–guarded atomic writes (:class:`repro.runtime.shards.ShardedEntryStore`),
    so any number of processes, threads, and service workers can share
    one store.  Every load re-validates identity; an entry that cannot
    even be *parsed* (torn by a crash, truncated disk) is treated exactly
    like a missing one — a miss, counted in :attr:`corrupt_entries` and
    quarantined — while a parseable entry that does not match is a loud
    :class:`TraceSchemaError`.  The worst outcome is a rebuild, never a
    silently wrong trace.
    """

    ENTRY_PATTERNS = ("trace-*.json", "trace-*.col")
    NAME_PARTS = 4  # trace-v<A>-<scenario_fp16>-<zoo_fp12>
    DIGEST_CHARS = 16

    _index_meta = staticmethod(_index_meta)
    _scrub_problem = staticmethod(_scrub_problem)

    @staticmethod
    def _encode(payload: dict) -> bytes:
        return colfmt.encode_trace(payload)

    def _address(self, scenario: Scenario, zoo: ModelZoo) -> tuple[str, str]:
        fingerprint = scenario.fingerprint()
        return fingerprint, _trace_entry_stem(fingerprint, zoo.fingerprint())

    def _entry(self, trace: ScenarioTrace, zoo: ModelZoo) -> tuple[str, str, dict]:
        payload = trace_to_dict(trace, zoo)
        fingerprint = payload["scenario_fingerprint"]
        return fingerprint, _trace_entry_stem(fingerprint, payload["zoo_fingerprint"]), payload

    def load(self, scenario: Scenario, zoo: ModelZoo) -> ScenarioTrace | None:
        """Load the persisted trace for (scenario, zoo), or None if absent.

        Probes the binary entry's header (identity checks live there;
        outcome columns decode lazily on first ``.outcomes`` access), then
        the legacy JSON fallback.  Misses, unreadable entries and corrupt
        ones follow :meth:`ShardedEntryStore._read`.
        """
        root = self.root

        def read_meta(path: Path) -> dict:
            meta = colfmt.read_header(path, root=root).get("meta")
            return meta if isinstance(meta, dict) else {}

        found = self._read(*self._address(scenario, zoo), read_meta)
        if found is None:
            return None
        payload, path = found
        if path.suffix != colfmt.COL_SUFFIX:
            return trace_from_dict(payload, scenario, zoo)
        _validate_trace_payload(payload, scenario, zoo)

        def load_outcomes() -> dict[str, list[DetectionOutcome]]:
            buffer = iolayer.read_bytes(path, root=root, map=True)
            return _outcomes_from_rows(colfmt.decode_trace_outcomes(buffer))

        return ScenarioTrace(scenario=scenario, frames=None, outcomes_loader=load_outcomes)

    def get(
        self,
        scenario: Scenario,
        zoo: ModelZoo,
        max_workers: int | None = None,
    ) -> ScenarioTrace:
        """Load the trace, building (and persisting) it on a miss."""
        trace = self.load(scenario, zoo)
        if trace is None:
            trace = ScenarioTrace.build(scenario, zoo, max_workers=max_workers)
            self.save(trace, zoo)
        return trace
