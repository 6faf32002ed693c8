"""Content-addressed persistent store for experiment-cell results.

Every grid cell is deterministic in its own description — evaluation
kind, workload, mitigation, and full parameter record — so a completed
cell never needs to run twice. This module keys each result under a
stable SHA-256 digest of that description (plus the kind's schema
version) and persists it as one row of one sqlite file per store
directory::

    store/
      results.sqlite       results(digest PRIMARY KEY, kind,
                                   schema_version, cell, result)

which buys the experiment engine three properties:

- **Resumability**: ``run_grid(spec, store=...)`` skips cells the store
  already holds, returning their stored results bit-identically — a
  killed grid rerun against the same store executes only the missing
  cells.
- **Incrementality**: growing a sweep (more TRH points, another
  workload) recomputes only the new cells; the digest of an existing
  cell does not depend on what else is in the grid.
- **Sharding**: :func:`shard_of` partitions cells by digest, so ``n``
  processes each running ``shard=(i, n)`` against one store cover the
  grid exactly once, in any order, with no coordination (separate
  machines each keep a local store and merge them, see
  :meth:`ResultStore.merge_from`).

Safety: the file runs in WAL mode with ``synchronous=NORMAL`` and a
busy timeout, so concurrent writers (two grids, or a grid next to a
report) serialize on sqlite's write lock instead of losing rows, and
:meth:`ResultStore.put_many` commits a whole chunk or none of it. A
row whose kind, schema version or result does not decode is a miss
(the cell reruns and the row is rewritten); a schema-version bump in
the kind's registration invalidates its stored cells by changing their
digests. Reads parse only the ``result`` column. A store must live on
a local filesystem: sqlite's locking is not safe over NFS and the
like.

Fork rule: the connection opens lazily, one per store object and
process. It is closed before every ``fork``, so a child inherits no
sqlite state (inherited lock bookkeeping would let the parent, closing
its connection, delete the WAL a child still commits to), and it is
guarded by pid, so a forked pool worker never uses its parent's
handle.

Stores written before the sqlite tier (one ``<digest>.json`` file per
cell, optionally folded into ``pack.seg``) are read only by
:meth:`ResultStore.merge_from` — ``repro store import OLD NEW``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.registry import EVALUATIONS

#: The database file inside a store directory.
STORE_FILE = "results.sqlite"

#: Digests per ``SELECT ... WHERE digest IN (...)`` on the read-ahead
#: path (below sqlite's historical 999-parameter limit).
READ_AHEAD_BLOCK = 256

#: Seconds a writer waits for another process's write lock.
BUSY_TIMEOUT_S = 60.0

#: Page-cache cap per connection, in KiB.
CACHE_KIB = 512

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS results ("
    "digest TEXT PRIMARY KEY, kind TEXT, schema_version INTEGER, "
    "cell TEXT, result TEXT)"
)

_HEX64 = re.compile(r"[0-9a-f]{64}")

#: Store objects with an open connection, closed before every fork.
_OPEN: "weakref.WeakSet[ResultStore]" = weakref.WeakSet()


def _close_before_fork() -> None:
    for store in list(_OPEN):
        store.close()


os.register_at_fork(before=_close_before_fork)


class StoreError(RuntimeError):
    """A store directory holds something that is not a result store."""


def _workload_fingerprint(cell: Any) -> Optional[Any]:
    """Content token of a file-backed workload, or ``None``.

    Synthetic workloads are pure functions of the cell's parameters, so
    name + params identify them; a file-backed workload (a recorded
    trace) can change on disk under the same name, so its source object
    contributes a ``store_fingerprint()`` (mtime/size per file — the
    same invalidation key the trace cache uses) to the cell identity.
    Unresolvable workloads and fingerprint errors degrade to ``None``:
    the digest then covers name + params only, and the actual run will
    surface the underlying problem.
    """
    workload = cell.workload_spec
    if workload is None and ":" in str(cell.workload):
        from repro.workloads.sources import resolve_workload_string

        try:
            workload = resolve_workload_string(cell.workload)
        except Exception:
            return None
    hook = getattr(workload, "store_fingerprint", None)
    if not callable(hook):
        return None
    try:
        return hook()
    except OSError:
        return None


def cell_key(cell: Any, with_fingerprint: bool = True) -> Dict[str, Any]:
    """The JSON-ready identity record of a cell.

    Covers everything the cell's result is a function of: evaluation
    kind, schema version, workload name, mitigation/subject, and the
    kind's *identity view* of the parameter record
    (:meth:`~repro.registry.EvaluationInfo.key_params` — for ``perf``
    this drops the simulation engine, which is bit-identical by
    contract, so a store filled under one engine serves the other).
    With ``with_fingerprint`` (store addressing), file-backed workloads
    additionally contribute a content fingerprint (see
    :func:`_workload_fingerprint`), so re-recording a trace under the
    same path invalidates its stored cells instead of silently serving
    results for the old contents; shard assignment leaves it out so the
    partition is portable across machines whose file timestamps differ.
    Other ad-hoc workload objects carried by ``workload_spec`` are keyed
    by their name, like named workloads — two specs sharing a name and
    parameters are assumed interchangeable, which holds for the
    synthetic suite.
    """
    info = EVALUATIONS.get(cell.kind)
    key = {
        "kind": cell.kind,
        "schema_version": info.schema_version,
        "workload": cell.workload,
        "mitigation": cell.mitigation,
        "params": info.key_params(cell.params),
    }
    if with_fingerprint:
        fingerprint = _workload_fingerprint(cell)
        if fingerprint is not None:
            key["workload_fingerprint"] = fingerprint
    return key


def key_digest(key: Mapping[str, Any]) -> str:
    """Stable SHA-256 hex digest of an already-computed :func:`cell_key`.

    Canonicalized with sorted keys and exact float ``repr``, so the
    digest is identical across processes, machines, and Python runs —
    never derived from randomized ``hash()``. Split out from
    :func:`cell_digest` so callers that need the key *and* the digest
    (the engine passes both to :meth:`ResultStore.put`) compute the
    trace-fingerprint ``stat`` pass exactly once.
    """
    return _text_digest(_canonical(key))


#: The canonical JSON text of a cell key (what :func:`key_digest`
#: hashes, and what a row's ``cell`` column holds). One encoder for
#: every call: ``json.dumps`` would build a new one per key.
_canonical = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=str
).encode


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_digest(cell: Any, with_fingerprint: bool = True) -> str:
    """Stable SHA-256 hex digest of :func:`cell_key` (the store address)."""
    return key_digest(cell_key(cell, with_fingerprint=with_fingerprint))


def shard_of(cell: Any, count: int) -> int:
    """The shard (``0..count-1``) a cell belongs to in a ``count``-way split.

    Digest-based, so the partition is *axis-stable*: a cell's shard
    depends only on the cell itself, never on grid size or axis order —
    extending a sweep cannot migrate existing cells between shards (and
    thus cannot invalidate per-shard stores or restart balanced work).
    The digest here excludes the workload content fingerprint — shard
    membership is a function of the cell's *description*, so machines
    holding the same trace under different mtimes still agree on the
    partition. Every cell lands in exactly one shard (completeness and
    disjointness are by construction of ``% count``).
    """
    if count < 1:
        raise ValueError("shard count must be at least 1")
    return int(cell_digest(cell, with_fingerprint=False), 16) % count


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a CLI ``i/n`` shard spec into ``(index, count)``.

    ``index`` is zero-based: ``--shard 0/4 .. 3/4`` covers a grid.
    """
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"shard spec {text!r} is not of the form i/n (e.g. 0/4)"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"shard spec {text!r} needs 0 <= i < n (zero-based index)"
        )
    return index, count


@dataclass
class MergeStats:
    """What one :meth:`ResultStore.merge_from` pass did.

    ``adopted`` entries were copied in; ``present`` already existed in
    the destination (first write wins — both sides computed the same
    deterministic cell, so the bytes agree); ``unverified`` entries
    failed digest verification (the entry's cell record does not hash
    to its address — renamed, tampered, or written by a store
    predating the fingerprint-carrying payload format) and were left
    behind; ``rejected`` entries were corrupt or stale (unreadable, an
    unknown kind, or a schema-version mismatch).
    """

    adopted: int = 0
    present: int = 0
    unverified: int = 0
    rejected: int = 0

    @property
    def total(self) -> int:
        """Total source entries examined."""
        return self.adopted + self.present + self.unverified + self.rejected


@dataclass
class StoreInventory:
    """What a :meth:`ResultStore.inventory` scan found.

    ``live`` counts well-formed rows per ``(kind, stored schema
    version)`` — including versions the registered kind no longer
    declares (those are *stale*: reads treat them as misses).
    ``stale`` and ``corrupt`` list the rows :meth:`ResultStore.prune`
    would remove, as ``(digest, reason)``.
    """

    live: Dict[Tuple[str, int], int] = field(default_factory=dict)
    stale: List[Tuple[str, str]] = field(default_factory=list)
    corrupt: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Total rows scanned."""
        return sum(self.live.values()) + len(self.stale) + len(self.corrupt)

    @property
    def prunable(self) -> List[Tuple[str, str]]:
        """(digest, reason) of every row pruning would remove."""
        return self.stale + self.corrupt


#: One stored entry: ``(digest, kind, schema_version, cell, result)``,
#: ``cell`` and ``result`` as JSON text (``None`` fields: unreadable).
Row = Tuple[str, Any, Any, Any, Any]


def _classify(kind: Any, version: Any, result: Any) -> Tuple[str, Any]:
    """``(state, detail)`` of one entry's columns.

    States: ``live`` (well-formed; detail is the ``(kind, version)``
    bucket), ``stale`` (well-formed but unreadable by the current
    registrations — unknown kind, old schema version, or a result
    record the kind's deserializer rejects), ``corrupt`` (missing
    fields or an unparseable result). Reads already treat stale and
    corrupt entries as silent misses; this makes them visible to
    ``repro store ls`` / ``prune``.
    """
    try:
        if kind is None or version is None:
            raise ValueError("missing envelope field")
        record = json.loads(result)
    except (ValueError, TypeError):
        return "corrupt", "unreadable or truncated payload"
    if kind not in EVALUATIONS:
        return "stale", f"unknown evaluation kind {kind!r}"
    info = EVALUATIONS.get(kind)
    if version != info.schema_version:
        return "stale", f"{kind} schema v{version} (current v{info.schema_version})"
    try:
        info.result_from_dict(record)
    except Exception:
        return "stale", f"{kind} result fails to deserialize"
    return "live", (kind, version)


def _legacy_rows(directory: str) -> Iterator[Row]:
    """Every entry of a pre-sqlite store directory: loose
    ``<digest>.json`` files first, then ``pack.seg`` lines
    (``<digest> <payload>``). The one reader of the old tiers."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        names = []
    for name in names:
        if name.endswith(".json"):
            try:
                with open(os.path.join(directory, name), encoding="utf-8") as handle:
                    text: Optional[str] = handle.read()
            except OSError:
                text = None
            yield _legacy_row(name[: -len(".json")], text)
    if "pack.seg" not in names:
        return
    with open(os.path.join(directory, "pack.seg"), "rb") as handle:
        for line in handle:
            digest = line[:64].decode("ascii", "replace")
            if line[64:65] == b" " and _HEX64.fullmatch(digest):
                yield _legacy_row(digest, line[65:].decode("utf-8", "replace"))


def _legacy_row(digest: str, text: Optional[str]) -> Row:
    try:
        payload = json.loads(text)  # type: ignore[arg-type]
        return (
            digest,
            payload["kind"],
            payload["schema_version"],
            _canonical(payload.get("cell", {})),
            json.dumps(payload["result"]),
        )
    except (ValueError, KeyError, TypeError):
        return digest, None, None, None, None


def _connect(path: str) -> Any:
    """Open (creating if needed) the database at ``path``."""
    import sqlite3

    db = sqlite3.connect(
        path, timeout=BUSY_TIMEOUT_S, isolation_level=None,
        check_same_thread=False,
    )
    try:
        db.execute("PRAGMA journal_mode=WAL")
        db.execute("PRAGMA synchronous=NORMAL")
        db.execute(f"PRAGMA cache_size=-{CACHE_KIB}")
        db.execute(_SCHEMA)
    except sqlite3.DatabaseError as error:
        db.close()
        raise StoreError(f"{path}: not a usable result store ({error})") from None
    return db


class ResultStore:
    """A directory holding one sqlite file of completed experiment cells
    (see the module docstring).

    Args:
        path: Store directory (created on first use). Safe to share
            between concurrent processes on one machine: writes are
            transactions, and two runs computing the same cell write
            identical rows.
    """

    def __init__(self, path: str):
        self.path = path
        os.makedirs(path, exist_ok=True)
        self.file = os.path.join(path, STORE_FILE)
        self._conn: Any = None
        self._inherited: Any = None
        self._pid: Optional[int] = None
        #: Digests announced by :meth:`read_ahead`, not yet fetched.
        self._queue: Iterator[str] = iter(())
        #: Fetched rows awaiting their ``get`` (``None``: no row).
        self._ahead: Dict[str, Optional[Tuple[Any, Any, Any]]] = {}

    # -- connection ----------------------------------------------------

    def _db(self) -> Any:
        """This process's connection, opened on first use."""
        pid = os.getpid()
        if self._pid != pid:
            # Never use (nor close) a handle inherited over fork.
            self._inherited, self._conn = self._conn, None
            self._pid = pid
        if self._conn is None:
            if not os.path.exists(self.file):
                self._refuse_legacy_directory()
            self._conn = _connect(self.file)
            _OPEN.add(self)
        return self._conn

    def _refuse_legacy_directory(self) -> None:
        """A pre-sqlite store would silently read as empty: name it."""
        try:
            names = os.listdir(self.path)
        except OSError:
            return
        if "pack.seg" in names or any(
            _HEX64.fullmatch(name[:-5]) and name.endswith(".json") for name in names
        ):
            raise StoreError(
                f"{self.path} holds a pre-sqlite result store; run "
                f"'repro store import {self.path} NEW_DIR' and use NEW_DIR"
            )

    def close(self) -> None:
        """Close this process's connection (the next use reopens it)."""
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
            self._conn = None
        _OPEN.discard(self)

    @contextmanager
    def _write(self) -> Iterator[Any]:
        """One write transaction: commits on success, rolls back (so
        persists nothing) on any exception."""
        db = self._db()
        db.execute("BEGIN IMMEDIATE")
        try:
            yield db
        except BaseException:
            if db.in_transaction:
                db.execute("ROLLBACK")
            raise
        db.execute("COMMIT")
        self._ahead = {}

    def __contains__(self, cell: Any) -> bool:
        return self.get(cell) is not None

    def __len__(self) -> int:
        """Number of (well-formed or not) rows currently stored."""
        return self._db().execute("SELECT COUNT(*) FROM results").fetchone()[0]

    # -- reads ---------------------------------------------------------

    def read_ahead(self, digests: Iterable[str]) -> None:
        """Announce the digests the next :meth:`get` calls ask for, in
        order. Each ``get`` that finds no fetched row then reads the
        next :data:`READ_AHEAD_BLOCK` announced digests in one query,
        so a resume scan costs one query per block instead of one per
        cell. Memory stays at one block."""
        self._queue = iter(digests)
        self._ahead = {}

    def _fetch(self, digest: str) -> Optional[Tuple[Any, Any, Any]]:
        """The ``(kind, schema_version, result)`` columns under
        ``digest``, fetching the next read-ahead block with it."""
        row = self._ahead.pop(digest, False)
        if row is not False:
            return row
        block = [digest]
        for upcoming in self._queue:
            if upcoming != digest:
                block.append(upcoming)
            if len(block) == READ_AHEAD_BLOCK:
                break
        self._ahead = dict.fromkeys(block)
        marks = ",".join("?" * len(block))
        for found, *columns in self._db().execute(
            "SELECT digest, kind, schema_version, result FROM results "
            f"WHERE digest IN ({marks})",
            block,
        ):
            self._ahead[found] = tuple(columns)
        return self._ahead.pop(digest)

    def get(self, cell: Any, digest: Optional[str] = None) -> Optional[Any]:
        """The stored result of ``cell``, or ``None`` on any miss.

        A miss is: no row, a kind or schema-version mismatch in the
        row, or a result that fails to parse or deserialize. Every miss
        is recoverable — the engine reruns the cell and :meth:`put`
        rewrites the row. ``digest`` short-circuits the address
        computation when the caller already holds :func:`cell_digest`
        of the cell (the engine computes it once per cell —
        fingerprinting a trace workload stats its files).
        """
        info = EVALUATIONS.get(cell.kind)
        if digest is None:
            digest = cell_digest(cell)
        row = self._fetch(digest)
        if row is None or row[0] != cell.kind or row[1] != info.schema_version:
            return None
        try:
            return info.result_from_dict(json.loads(row[2]))
        except (ValueError, KeyError, TypeError):
            return None

    def _scan(self, db: Any) -> StoreInventory:
        report = StoreInventory()
        for digest, kind, version, result in db.execute(
            "SELECT digest, kind, schema_version, result FROM results "
            "ORDER BY digest"
        ).fetchall():
            state, detail = _classify(kind, version, result)
            if state == "live":
                report.live[detail] = report.live.get(detail, 0) + 1
            elif state == "stale":
                report.stale.append((digest, detail))
            else:
                report.corrupt.append((digest, detail))
        return report

    def inventory(self) -> StoreInventory:
        """Scan every row: per-kind live counts plus prunable rows."""
        return self._scan(self._db())

    def prune(self, dry_run: bool = False) -> List[Tuple[str, str]]:
        """Delete stale/corrupt rows (the silent misses); returns
        ``(digest, reason)`` per removed — or, with ``dry_run``, per
        would-be-removed — row. Live rows are never touched: the scan
        and the deletes share one write transaction."""
        if dry_run:
            return self.inventory().prunable
        with self._write() as db:
            removals = self._scan(db).prunable
            db.executemany(
                "DELETE FROM results WHERE digest = ?",
                [(digest,) for digest, _ in removals],
            )
        return removals

    # -- writes --------------------------------------------------------

    def merge_from(self, source: str) -> MergeStats:
        """Adopt another store's entries into this store.

        ``source`` is a store directory (read through ``ATTACH``) or a
        pre-sqlite directory of loose ``<digest>.json`` files and
        ``pack.seg`` lines (``repro store import``). The multi-host
        collection primitive: a coordinator merges each worker's store
        after its shard completes. Adoption is one transaction and
        idempotent — a row this store already holds is left alone (both
        sides computed the same deterministic cell), so merging the
        same source twice changes nothing.

        Entries are **digest-verified** before adoption: the entry's
        ``cell`` record must hash back to its address, so a renamed or
        tampered entry from a remote host cannot poison the
        coordinator's store. The record carries the same
        fingerprint-bearing key the address was derived from, so
        trace-workload entries verify like any other; entries written
        before the payload carried the fingerprint fail the check and
        are skipped (counted ``unverified``) — the coordinator
        recomputes those cells. Corrupt or stale source entries are
        skipped as ``rejected``. Merging a store into itself is a
        no-op (everything counts as ``present``).
        """
        stats = MergeStats()
        try:
            same = os.path.samefile(source, self.path)
        except OSError:
            same = False
        if same:
            stats.present = len(self)
            return stats
        db = self._db()
        database = os.path.join(source, STORE_FILE)
        if os.path.exists(database):
            rows = self._attached_rows(database)
        else:
            rows = list(_legacy_rows(source))
        adopted: Dict[str, Row] = {}
        for row in rows:
            digest, kind, version, cell, result = row
            if digest in adopted or db.execute(
                "SELECT 1 FROM results WHERE digest = ?", (digest,)
            ).fetchone():
                stats.present += 1
            elif _classify(kind, version, result)[0] != "live":
                stats.rejected += 1
            elif not isinstance(cell, str) or _text_digest(cell) != digest:
                stats.unverified += 1
            else:
                adopted[digest] = row
        with self._write() as db:
            db.executemany(
                "INSERT OR IGNORE INTO results VALUES (?, ?, ?, ?, ?)",
                adopted.values(),
            )
        stats.adopted = len(adopted)
        return stats

    def _attached_rows(self, database: str) -> List[Row]:
        import sqlite3

        db = self._db()
        try:
            db.execute("ATTACH DATABASE ? AS source", (database,))
            try:
                return db.execute(
                    "SELECT digest, kind, schema_version, cell, result "
                    "FROM source.results ORDER BY digest"
                ).fetchall()
            finally:
                db.execute("DETACH DATABASE source")
        except sqlite3.DatabaseError as error:
            raise StoreError(
                f"{database}: not a usable result store ({error})"
            ) from None

    @staticmethod
    def _row(
        cell: Any,
        result: Any,
        digest: Optional[str] = None,
        key: Optional[Dict[str, Any]] = None,
    ) -> Row:
        info = EVALUATIONS.get(cell.kind)
        if key is None:
            key = cell_key(cell)
        if digest is None:
            digest = key_digest(key)
        return (
            digest,
            cell.kind,
            info.schema_version,
            _canonical(key),
            json.dumps(info.result_to_dict(result)),
        )

    def _insert(self, rows: List[Row]) -> List[str]:
        with self._write() as db:
            db.executemany(
                "INSERT OR REPLACE INTO results VALUES (?, ?, ?, ?, ?)", rows
            )
        return [row[0] for row in rows]

    def put(
        self,
        cell: Any,
        result: Any,
        digest: Optional[str] = None,
        key: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Persist ``cell``'s result in one transaction; returns its digest.

        ``key``/``digest`` reuse a precomputed :func:`cell_key` /
        :func:`key_digest` pair (the engine computes both once per cell
        at plan time — fingerprinting a trace workload stats its
        files). When omitted they are computed here, from one
        :func:`cell_key` call. The row records the same
        fingerprint-carrying key the address is derived from, which is
        what makes every row digest-verifiable by :meth:`merge_from` —
        including trace-workload cells. An existing row under the
        digest (a corrupt or stale one, on a rerun) is replaced.
        """
        return self._insert([self._row(cell, result, digest, key)])[0]

    def put_many(
        self,
        entries: Sequence[Tuple[Any, Any, Optional[str], Optional[Dict[str, Any]]]],
    ) -> List[str]:
        """Persist a batch of ``(cell, result, digest, key)`` records in
        one transaction; returns their digests.

        The per-chunk store transaction: the grid coordinator calls
        this once per completed chunk instead of once per cell, so a
        chunk's results commit together — or, when the write fails
        (a full disk), not at all, and ``--resume`` recomputes the
        chunk.
        """
        return self._insert([self._row(*entry) for entry in entries])
