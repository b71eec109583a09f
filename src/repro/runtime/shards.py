"""Sharded store layout: fingerprint-prefix shards, indexes, advisory locks.

The service tier (:mod:`repro.service`) points N worker threads and M
concurrent requests at one :class:`~repro.runtime.store.TraceStore` /
:class:`~repro.runtime.runstore.RunStore` pair, and CI points several
*processes* at the same directories.  A single flat directory survives
that only by luck: every writer renames into one namespace, every ``len``
scans every entry, and a crashed writer's temp file sits around forever.
This module gives both stores one shared on-disk discipline:

**Shards.**  Every entry lives under ``root/<prefix>/`` where ``prefix``
is the first :data:`SHARD_PREFIX_CHARS` hex chars of the entry's content
digest (scenario fingerprint for traces, run-key digest for runs).
Contention and directory size split 256 ways; a shard is the unit of
locking.

**Per-shard index.**  Each shard carries an ``index.json`` mapping entry
file names to their identity block (the fingerprints the entry was keyed
by).  Tools can enumerate a store's contents — and audit that every
indexed entry still parses — without opening every payload.

**Advisory locks.**  All mutations (entry writes, removals, stale-temp
cleanup, legacy migration) happen under an ``fcntl`` advisory lock on the
shard's ``.lock`` file, so concurrent writers serialize per shard and an
index update can never lose a racing writer's entry.  Readers never need
the lock: entry writes stay atomic (temp file + ``os.replace``), so a
reader sees either the old complete file or the new complete one.

**Crash consistency.**  A writer killed mid-write leaves ``*.tmp*`` files
behind; :func:`clean_stale_temps` removes them under the shard locks at
store open.  Temp files can never be served as hits (lookups only probe
the final name), and because cleanup holds the same lock writers hold, a
*live* writer's temp file is never swept — anything visible under the
lock is by definition abandoned.

**Fault discipline.**  Every durable write and rename here routes through
:mod:`repro.runtime.iolayer` (the ``locks/io-seam`` lint rule enforces
it), which retries transient capacity errors, raises a typed
:exc:`~repro.runtime.iolayer.StoreDegraded` once a root is out of space,
and hosts the deterministic fault plan the ``fsfaults`` check arms.
Corrupt entries are moved into ``root/_quarantine/`` (a rename needs no
data blocks, so quarantine works even on a full disk) rather than
deleted, so torn bytes stay inspectable; skipped paths and read errors
are counted per root in ``iolayer.io_error_count`` instead of being
silently dropped.

**One store engine.**  :class:`ShardedEntryStore` is the lifecycle both
entry stores share on top of these primitives — open-time cleanup and
migration, binary saves, the probe/quarantine/retry read skeleton,
health and maintenance; the trace and run stores only add their codecs.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from pathlib import Path
from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING

from ..util import jsonsafe
from . import colfmt, iolayer

if TYPE_CHECKING:  # maintenance imports this module; its reports are annotations only
    from .maintenance import GcReport, RepairReport, ScrubReport

# Re-exported here for lower-tier sharing (characterization); store-tier
# code routes writes through `iolayer` instead (the io-seam rule flags
# direct calls in this package).
from ..util.atomicio import atomic_write_json as atomic_write_json
from ..util.atomicio import atomic_write_text as atomic_write_text

try:  # pragma: no cover - always available on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback: in-process only
    fcntl = None

# Hex chars of the content digest that name an entry's shard (256 shards).
SHARD_PREFIX_CHARS = 2

INDEX_NAME = "index.json"
INDEX_SCHEMA_VERSION = 1

#: Corrupt entries are moved here (under the store root), never deleted:
#: torn bytes are evidence, and a rename works even on a full disk.
QUARANTINE_DIR = "_quarantine"

#: Default age before quarantine/temp/dead-letter artifacts are collected.
DEFAULT_TTL_SECONDS = 7 * 24 * 3600.0

# One process-local mutex per lock file: fcntl locks are held per process
# (re-acquiring in another thread of the same process would succeed), so
# thread-level serialization needs its own layer.
_THREAD_LOCKS: dict[str, threading.Lock] = {}
_THREAD_LOCKS_GUARD = threading.Lock()  # repro: guards[_THREAD_LOCKS]


def shard_prefix(digest: str) -> str:
    """The shard an entry with ``digest`` belongs to."""
    if len(digest) < SHARD_PREFIX_CHARS:
        raise ValueError(f"digest {digest!r} is too short to shard")
    return digest[:SHARD_PREFIX_CHARS]


def shard_dir(root: Path, digest: str) -> Path:
    """The shard directory for ``digest`` under ``root`` (not created)."""
    return root / shard_prefix(digest)


def shard_dirs(root: Path) -> list[Path]:
    """Every existing shard directory under ``root``, sorted."""
    if not root.is_dir():
        return []
    return sorted(
        p for p in root.iterdir()
        if p.is_dir() and len(p.name) == SHARD_PREFIX_CHARS
        and all(c in "0123456789abcdef" for c in p.name)
    )


def _thread_lock_for(path: Path) -> threading.Lock:
    key = str(path)
    with _THREAD_LOCKS_GUARD:
        lock = _THREAD_LOCKS.get(key)
        if lock is None:
            lock = _THREAD_LOCKS[key] = threading.Lock()
        return lock


@contextmanager
def shard_lock(shard: Path) -> Iterator[None]:
    """Hold the shard's advisory lock (exclusive, blocking).

    Serializes against other *processes* via ``fcntl.flock`` on the
    shard's ``.lock`` file and against other *threads* of this process
    via a per-path mutex (POSIX locks are per-process, not per-thread).
    The shard directory is created on first use.
    """
    shard.mkdir(parents=True, exist_ok=True)
    lock_path = shard / ".lock"
    with _thread_lock_for(lock_path):
        handle = iolayer.open_lock_file(lock_path)
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()


def _replace_atomically(shard: Path, name: str, data: str | bytes) -> Path:
    # `shard.parent` IS the store root: shards are its direct children,
    # so degraded-mode accounting lands on the store, not the shard.
    if isinstance(data, (bytes, bytearray, memoryview)):
        return iolayer.write_bytes(shard / name, bytes(data), root=shard.parent)
    return iolayer.write_text(shard / name, data, root=shard.parent)


def _patterns(pattern: str | tuple[str, ...]) -> tuple[str, ...]:
    """Normalize the single-glob / glob-tuple pattern argument."""
    return (pattern,) if isinstance(pattern, str) else tuple(pattern)


def read_index(shard: Path) -> dict[str, dict]:
    """The shard's index entries (``{}`` for a missing or unreadable index).

    An unreadable index never blocks the store — entry files are the
    ground truth; the index is regenerated entry-by-entry as writes land.
    """
    path = shard / INDEX_NAME
    try:
        payload = json.loads(iolayer.read_text(path, root=shard.parent))
    except (OSError, json.JSONDecodeError):
        return {}
    if not isinstance(payload, dict) or payload.get("schema_version") != INDEX_SCHEMA_VERSION:
        return {}
    entries = payload.get("entries")
    return entries if isinstance(entries, dict) else {}


def _write_index(shard: Path, entries: dict[str, dict]) -> None:
    text = jsonsafe.dumps(
        {"schema_version": INDEX_SCHEMA_VERSION, "entries": entries},
        sort_keys=True,
    )
    _replace_atomically(shard, INDEX_NAME, text)


def write_index_locked(shard: Path, entries: dict[str, dict]) -> None:
    """Rewrite a shard's index wholesale (callers hold the shard lock).

    The maintenance tier's primitive: repair passes rebuild the entry map
    and commit it in one atomic write.
    """
    _write_index(shard, entries)


def write_entry(
    root: Path,
    digest: str,
    name: str,
    data: str | bytes,
    meta: dict,
    *,
    supersedes: tuple[str, ...] = (),
) -> Path:
    """Atomically persist one entry and record it in the shard index.

    Runs entirely under the shard lock: the entry write is temp +
    ``os.replace`` (readers never see a torn file even without the lock),
    and the index read-modify-write is protected against concurrent
    writers of *other* entries in the same shard.  ``supersedes`` names
    sibling files this write replaces — the same logical entry under its
    other format's name — removed under the same lock acquisition so a
    store can never serve a stale twin.
    """
    shard = shard_dir(root, digest)
    with shard_lock(shard):
        return write_entry_locked(shard, name, data, meta, supersedes=supersedes)


def write_entry_locked(
    shard: Path,
    name: str,
    data: str | bytes,
    meta: dict,
    *,
    supersedes: tuple[str, ...] = (),
) -> Path:
    """Entry write + index update for callers already holding the shard lock.

    The job queue's claim sweep mutates several entries per shard under
    one lock acquisition; re-entering :func:`shard_lock` per entry would
    deadlock on the per-path thread mutex (it is not reentrant), so the
    multi-entry paths compose this primitive instead.
    """
    path = _replace_atomically(shard, name, data)
    entries = read_index(shard)
    entries[name] = meta
    for stale in supersedes:
        if stale == name:
            continue
        try:
            (shard / stale).unlink(missing_ok=True)
        except OSError:
            # The new entry is durable regardless; the surviving twin is
            # de-indexed below so repair can reclaim it as an orphan.
            iolayer.record_io_error(shard.parent)
        entries.pop(stale, None)
    _write_index(shard, entries)
    return path


def update_entry(
    root: Path, digest: str, name: str, mutate: "callable"
) -> dict | None:
    """Read-modify-write one entry atomically under the shard lock.

    Loads the current payload (``None`` when the entry is missing or
    unparseable), passes it to ``mutate(payload) -> dict | None``, and —
    when ``mutate`` returns a dict — writes it back atomically and
    refreshes the index record's existing metadata.  Returning ``None``
    from ``mutate`` leaves the entry untouched (compare-and-swap failure).
    Returns whatever ``mutate`` returned.  The whole cycle holds the shard
    lock, so two concurrent updates serialize and neither loses a write.
    """
    shard = shard_dir(root, digest)
    with shard_lock(shard):
        path = shard / name
        try:
            payload = json.loads(iolayer.read_text(path, root=root))
            if not isinstance(payload, dict):
                payload = None
        except (OSError, json.JSONDecodeError):
            payload = None
        updated = mutate(payload)
        if updated is None:
            return None
        _replace_atomically(shard, name, jsonsafe.dumps(updated, sort_keys=True))
        entries = read_index(shard)
        if name not in entries:
            entries[name] = {}
        _write_index(shard, entries)
        return updated


def remove_entry_locked(shard: Path, name: str) -> bool:
    path = shard / name
    existed = path.exists()
    if existed:
        path.unlink()
    entries = read_index(shard)
    if name in entries:
        del entries[name]
        _write_index(shard, entries)
    return existed


def quarantine_corrupt_entry(root: Path, digest: str, name: str) -> bool:
    """Quarantine an entry that failed to parse — unless a writer fixed it.

    Returns True when the entry was (still) corrupt and has been moved to
    ``root/_quarantine`` (its torn bytes preserved for inspection, never
    again servable), False when a concurrent writer replaced it with a
    parseable payload in the meantime (the caller should then retry its
    load).  Runs under the shard lock so the check-and-move cannot race a
    live writer.

    Only genuine *parse* failures (of either format) quarantine.  An
    ``OSError`` out of the re-read means the entry is *unavailable*, not
    provably corrupt — quarantining on that evidence is how a transient
    ``EIO`` used to destroy valid entries — so it is counted and reported
    as False (the caller already treated its own read error as a miss).
    """
    shard = shard_dir(root, digest)
    with shard_lock(shard):
        path = shard / name
        corrupt = False
        try:
            payload = colfmt.load_entry_payload(path, root=root)
            corrupt = not isinstance(payload, dict)
        except FileNotFoundError:
            return False  # already gone: someone else cleaned it
        except colfmt.PARSE_ERRORS:
            corrupt = True  # unparseable is exactly the state to remove
        except OSError:
            # Unreadable ≠ corrupt: the seam already counted the retries;
            # leave the entry for a later read to vindicate or convict.
            return False
        if not corrupt:
            return False  # repaired behind our back — not corrupt anymore
        quarantine_entry_locked(root, shard, name)
        return True


def quarantine_entry_locked(root: Path, shard: Path, name: str) -> bool:
    """Move one entry into ``root/_quarantine`` and drop its index record.

    For callers already holding the shard lock.  The move is a same-
    filesystem rename (allocates no data blocks, so it works under
    ENOSPC); if even that fails the file is unlinked instead — serving
    corrupt bytes is the one unacceptable outcome.  True when the entry
    file existed.
    """
    path = shard / name
    existed = path.exists()
    if existed:
        target_dir = root / QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            iolayer.replace(path, target_dir / f"{shard.name}-{name}", root=root)
        except (OSError, iolayer.StoreError):
            iolayer.record_io_error(root)
            path.unlink(missing_ok=True)
    entries = read_index(shard)
    if name in entries:
        del entries[name]
        _write_index(shard, entries)
    return existed


def clean_stale_temps(root: Path) -> int:
    """Remove abandoned ``*.tmp*`` files left by killed writers.

    Sweeps the root (legacy flat layout) and every shard, taking each
    shard's lock first: a temp file observed *while holding the lock*
    cannot belong to a live writer, so everything swept is a crash
    leftover.  Returns how many files were removed.  Paths that cannot
    be scanned or unlinked are *not* silently dropped: each failure is
    counted in ``iolayer.io_error_count(root)`` and the sweep moves on —
    a stale temp is cosmetic, an uncounted I/O error is not.
    """
    removed = 0
    if not root.is_dir():
        return 0
    for stale in _scan_or_count(root, "*.tmp*", root):
        removed += _unlink_or_count(stale, root)
    for shard in shard_dirs(root):
        with shard_lock(shard):
            for stale in _scan_or_count(shard, "*.tmp*", root):
                removed += _unlink_or_count(stale, root)
    return removed


def _scan_or_count(directory: Path, pattern: str, root: Path) -> list[Path]:
    """A seam scan that degrades to an empty listing, counting the error."""
    try:
        return iolayer.scan(directory, pattern, root=root)
    except OSError:
        # Already counted by the seam's retry loop; an unscannable
        # directory just contributes nothing to this sweep.
        return []


def _unlink_or_count(stale: Path, root: Path) -> int:
    """Unlink one stale temp; 1 when removed, 0 (counted) when skipped."""
    try:
        stale.unlink(missing_ok=True)
    except OSError:
        iolayer.record_io_error(root)
        return 0
    return 1


def migrate_flat_entries(
    root: Path, pattern: str, digest_for: "callable", meta_for: "callable"
) -> int:
    """Move legacy flat-layout entries into their shards; returns the count.

    ``digest_for(path) -> str | None`` names the shard digest for a legacy
    file (None skips it); ``meta_for(path) -> dict | None`` supplies its
    index record (None marks the file unreadable — it is removed rather
    than migrated, since a flat corrupt file would otherwise survive every
    later audit).  Idempotent and concurrency-safe: the actual move runs
    under the target shard's lock and tolerates the file having been
    migrated by another opener meanwhile.
    """
    migrated = 0
    if not root.is_dir():
        return 0
    for path in sorted(root.glob(pattern)):
        if not path.is_file() or ".tmp" in path.name:
            continue
        digest = digest_for(path)
        if digest is None:
            continue
        shard = shard_dir(root, digest)
        with shard_lock(shard):
            if not path.exists():  # another opener migrated it first
                continue
            meta = meta_for(path)
            if meta is None:
                path.unlink()
                continue
            target = shard / path.name
            # The legacy file is already fully written, so moving it into
            # its shard needs no temp — the seam's rename is enough.
            iolayer.replace(path, target, root=root)
            entries = read_index(shard)
            entries[path.name] = meta
            _write_index(shard, entries)
            migrated += 1
    return migrated


def iter_entry_paths(root: Path, pattern: str | tuple[str, ...]) -> Iterator[Path]:
    """Every entry file matching ``pattern`` (shards first, then legacy root).

    ``pattern`` may be a tuple of globs — entries come in two formats
    (``.json`` / ``.col``) and a bare ``prefix-*`` glob would also match
    in-flight ``*.tmp*`` files.
    """
    patterns = _patterns(pattern)
    for shard in shard_dirs(root):
        yield from sorted({p for glob in patterns for p in shard.glob(glob)})
    if root.is_dir():
        yield from sorted(
            {p for glob in patterns for p in root.glob(glob) if p.is_file()}
        )


def audit_entries(root: Path, pattern: str | tuple[str, ...]) -> tuple[int, list[str]]:
    """Audit a store: every indexed entry must exist and parse in its format.

    Returns ``(entries_checked, problems)`` where ``problems`` is a list of
    human-readable findings: indexed-but-missing files, unparseable
    payloads, and files present on disk but absent from their shard index.
    A clean store returns ``(n, [])``.  Both entry formats are parsed via
    :func:`repro.runtime.colfmt.load_entry_payload`.
    """
    patterns = _patterns(pattern)
    problems: list[str] = []
    checked = 0
    for shard in shard_dirs(root):
        indexed = read_index(shard)
        on_disk = {
            p.name
            for glob in patterns
            for p in shard.glob(glob)
            if ".tmp" not in p.name
        }
        for name in sorted(indexed):
            checked += 1
            path = shard / name
            if name not in on_disk:
                problems.append(f"{shard.name}/{name}: indexed but missing on disk")
                continue
            try:
                payload = colfmt.load_entry_payload(path, root=root)
            except (OSError, *colfmt.PARSE_ERRORS) as exc:
                problems.append(f"{shard.name}/{name}: unreadable ({exc})")
                continue
            if not isinstance(payload, dict):
                problems.append(f"{shard.name}/{name}: not a JSON object")
        for name in sorted(on_disk - set(indexed)):
            problems.append(f"{shard.name}/{name}: on disk but not indexed")
    return checked, problems


class ShardedEntryStore:
    """The lifecycle both entry stores share: open, save, probe, quarantine, maintain.

    :class:`~repro.runtime.store.TraceStore` and
    :class:`~repro.runtime.runstore.RunStore` differ only in what an entry
    *is*; everything about how an entry lives on disk is here.  A
    subclass supplies:

    - its file-name scheme: :attr:`ENTRY_PATTERNS`, :attr:`NAME_PARTS`,
      :attr:`DIGEST_CHARS`, ``_address(*key) -> (digest, stem)`` for the
      keys :meth:`path_for` takes, and ``_entry(*args) -> (digest, stem,
      payload)`` for the arguments :meth:`save` takes;
    - its codec: ``_encode(payload) -> bytes`` and ``_index_meta(payload)``;
    - its scrub rule: ``_scrub_problem(name, payload) -> str | None``;
    - its typed loads, built on :meth:`_read`.

    Entries are written in the binary column format
    (:mod:`repro.runtime.colfmt`) only.  ``.json`` entries left by older
    builds stay readable: :meth:`_read` falls back to them, and opening a
    store re-encodes them in place (:attr:`format_migrated`).

    Read discipline: a missing entry is a miss; an entry whose bytes
    cannot be *read* (after the seam's retries) is a miss too, never
    quarantined — unavailability is not evidence of corruption; only an
    entry that *parses wrong* — including a binary entry whose header
    points past the end of the file — is counted in
    :attr:`corrupt_entries`, quarantined, and retried once.
    """

    #: Entry globs: the legacy JSON glob first, then the binary one.
    ENTRY_PATTERNS: tuple[str, str] = ("", "")
    #: ``-``-separated parts of an entry stem; part 2 is the shard digest.
    NAME_PARTS = 0
    #: Hex chars of the shard digest baked into an entry name.
    DIGEST_CHARS = 0

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise NotADirectoryError(
                f"{type(self).__name__} path {self.root} exists and is not a directory"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        #: Corrupt entries encountered (and quarantined) by this instance —
        #: a non-zero value means a writer died mid-life or the disk
        #: corrupted an entry; each was re-treated as a miss.
        self.corrupt_entries = 0
        #: Abandoned temp files swept at open (crashed writers' leftovers).
        self.stale_temps_cleaned = clean_stale_temps(self.root)
        self._migrate_flat_entries()
        #: Legacy JSON entries re-encoded to the binary format by this open.
        self.format_migrated = 0
        self._migrate_json_entries()

    @classmethod
    def _digest_from_name(cls, name: str) -> str | None:
        """The shard digest encoded in an entry file name (either format)."""
        stem = colfmt.entry_stem(name)
        parts = stem.split("-") if stem != name else []
        if len(parts) == cls.NAME_PARTS and len(parts[2]) == cls.DIGEST_CHARS:
            return parts[2]
        return None

    # ----------------------------------------------------------------- open

    def _migrate_flat_entries(self) -> None:
        """Move flat-layout entries (pre-sharding stores) into their shards."""

        def digest_for(path: Path) -> str | None:
            return self._digest_from_name(path.name)

        def meta_for(path: Path) -> dict | None:
            try:
                payload = colfmt.load_entry_payload(path, root=self.root)
            except (OSError, *colfmt.PARSE_ERRORS):
                self.corrupt_entries += 1
                return None
            return self._index_meta(payload)

        migrate_flat_entries(self.root, self.ENTRY_PATTERNS[0], digest_for, meta_for)

    def _migrate_json_entries(self) -> None:
        """Re-encode legacy JSON entries as binary columns, in place.

        Runs under each entry's shard lock; the ``.json`` file is removed
        in the same critical section (``supersedes``), so no logical entry
        ever has two live twins.  Entries that cannot be read or encoded
        are skipped, and a degraded (full) disk aborts the sweep — opening
        a store must never fail because migration could not proceed; the
        legacy reader serves the leftovers either way.
        """
        for path in list(iter_entry_paths(self.root, self.ENTRY_PATTERNS[0])):
            if path.parent == self.root:
                continue  # legacy flat leftovers: not this migration's job
            shard = path.parent
            try:
                with shard_lock(shard):
                    if not path.exists():  # another opener migrated it first
                        continue
                    try:
                        payload = colfmt.load_entry_payload(path, root=self.root)
                    except (OSError, *colfmt.PARSE_ERRORS):  # repro: allow[exceptions/swallow] unreadable/corrupt entries stay JSON; scrub handles them
                        continue
                    try:
                        data = self._encode(payload)
                    except (KeyError, TypeError, ValueError, IndexError):  # repro: allow[exceptions/swallow] unencodable payloads stay JSON (still servable)
                        continue
                    name = colfmt.entry_stem(path.name) + colfmt.COL_SUFFIX
                    write_entry_locked(
                        shard, name, data, self._index_meta(payload), supersedes=(path.name,)
                    )
                    self.format_migrated += 1
            except iolayer.StoreDegraded:
                break

    # -------------------------------------------------------- write / read

    def path_for(self, *key) -> Path:
        """The (sharded) file the entry for ``key`` persists to.

        The binary name, unless only a legacy JSON twin exists on disk.
        """
        digest, stem = self._address(*key)
        shard = shard_dir(self.root, digest)
        binary = shard / (stem + colfmt.COL_SUFFIX)
        if not binary.exists():
            legacy = shard / (stem + colfmt.LEGACY_SUFFIX)
            if legacy.exists():
                return legacy
        return binary

    def save(self, *args) -> Path:
        """Persist one entry in the binary format; returns the file written.

        The write is atomic (temp file + rename) and the shard index is
        updated under the shard's advisory lock, so concurrent readers
        never observe a half-written entry and concurrent writers never
        lose each other's index records.  A legacy JSON twin is
        superseded under the same lock, so one file serves an entry.
        """
        digest, stem, payload = self._entry(*args)
        return write_entry(
            self.root,
            digest,
            stem + colfmt.COL_SUFFIX,
            self._encode(payload),
            self._index_meta(payload),
            supersedes=(stem + colfmt.LEGACY_SUFFIX,),
        )

    def _read(
        self, digest: str, stem: str, read_binary: Callable[[Path], dict],
        *, _retry: bool = True,
    ) -> tuple[dict, Path] | None:
        """``(payload, path)`` of one entry, or None on a miss.

        ``read_binary(path)`` decodes the binary entry (as much of it as
        the caller needs); a missing one falls through to the legacy JSON
        twin.  A read ``OSError`` is a plain miss.  A parse failure of
        either format quarantines the entry and retries once — the retry
        serves a surviving twin (entries are content-addressed, so any
        parseable twin is the correct data) or a concurrently repaired
        entry.
        """
        shard = shard_dir(self.root, digest)
        binary_path = shard / (stem + colfmt.COL_SUFFIX)
        try:
            return read_binary(binary_path), binary_path
        except FileNotFoundError:
            json_path = shard / (stem + colfmt.LEGACY_SUFFIX)  # try the legacy twin
        except OSError:
            return None  # unavailable, not corrupt: a miss, already counted
        except colfmt.ColumnFormatError:
            self._quarantine(digest, binary_path.name)
            if _retry:
                return self._read(digest, stem, read_binary, _retry=False)
            return None

        try:
            return colfmt.load_entry_payload(json_path, root=self.root), json_path
        except OSError:
            return None  # missing or unavailable: a miss either way
        except colfmt.PARSE_ERRORS:
            if not self._quarantine(digest, json_path.name) and _retry:
                # A concurrent writer replaced the entry while we looked at
                # it; one retry reads the now-complete file (or misses).
                return self._read(digest, stem, read_binary, _retry=False)
            return None

    def _quarantine(self, digest: str, name: str) -> bool:
        """Quarantine one corrupt entry; True when it was moved (counted)."""
        try:
            quarantined = quarantine_corrupt_entry(self.root, digest, name)
        except iolayer.StoreDegraded:
            # Quarantine bookkeeping hit a full disk: the entry is still
            # unservable, so this load is a miss either way.
            self.corrupt_entries += 1
            return True
        if quarantined:
            self.corrupt_entries += 1
        return quarantined

    def __contains__(self, key) -> bool:
        return self.path_for(*(key if isinstance(key, tuple) else (key,))).exists()

    def __len__(self) -> int:
        return sum(1 for _ in iter_entry_paths(self.root, self.ENTRY_PATTERNS))

    def clear(self) -> int:
        """Delete every persisted entry (both formats); returns how many were removed."""
        removed = 0
        for path in list(iter_entry_paths(self.root, self.ENTRY_PATTERNS)):
            if path.parent == self.root:  # legacy flat file written after open
                path.unlink(missing_ok=True)
                removed += 1
                continue
            with shard_lock(path.parent):
                removed += remove_entry_locked(path.parent, path.name)
        return removed

    def audit(self) -> tuple[int, list[str]]:
        """Cross-check shard indexes against entry files; see :func:`audit_entries`."""
        return audit_entries(self.root, self.ENTRY_PATTERNS)

    # ----------------------------------------------------------------- health

    @property
    def degraded(self) -> bool:
        """True while this store's root is in read-only (capacity) mode."""
        return iolayer.is_degraded(self.root)

    @property
    def io_errors(self) -> int:
        """I/O errors observed under this root (skipped paths included)."""
        return iolayer.io_error_count(self.root)

    # ------------------------------------------------------------ maintenance

    def scrub(self) -> ScrubReport:
        """Re-verify every indexed entry with the store's scrub rule; quarantine failures."""
        from . import maintenance

        return maintenance.scrub_entries(
            self.root, self.ENTRY_PATTERNS, self._scrub_problem,
            digest_for=self._digest_from_name,
        )

    def gc(
        self,
        *,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
        dry_run: bool = True,
        now: float | None = None,
    ) -> GcReport:
        """TTL-collect quarantined files and stale temps (dry-run default)."""
        from . import maintenance

        return maintenance.gc_entries(
            self.root, ttl_seconds=ttl_seconds, dry_run=dry_run, now=now
        )

    def repair(self) -> RepairReport:
        """Heal index↔disk drift (drop ghosts, re-index parseable orphans)."""
        from . import maintenance

        return maintenance.repair_entries(
            self.root, self.ENTRY_PATTERNS, lambda name, payload: self._index_meta(payload)
        )
