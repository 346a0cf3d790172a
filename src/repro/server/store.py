"""The persistent artifact store: compiled queries that survive restarts.

A serving fleet cannot afford to re-run synthesis because a process was
rescheduled.  :class:`SQLiteStore` is a durable, content-addressed table of
compiled-query artifacts that speaks the existing cache vocabulary — keys
are :func:`~repro.service.cache.cache_key` hashes, payloads are
:func:`~repro.service.serialize.compiled_query_to_json` encodings, and the
file records :data:`~repro.service.cache.CACHE_FORMAT_VERSION` so a store
written by an incompatible codec fails loudly instead of deserializing
garbage proofs.

It implements the :class:`~repro.service.cache.CacheBackend` protocol, so
``SynthesisCache(backend=SQLiteStore(path))`` warm-starts a whole process:
every artifact ever served by any shard is decoded into memory on boot and
every new compile is written through.  :meth:`export_cache_json` /
:meth:`import_cache_json` interoperate with the flat-file format of
:meth:`SynthesisCache.save <repro.service.cache.SynthesisCache.save>`, so
existing warm-start files migrate into a store (and back) losslessly.

The store also implements the :class:`~repro.server.ledger.LedgerBackend`
protocol in a second table, ``ledger_bounds``: per ``(user, spec)``
knowledge-bound payloads written through on every ledger commit and
reloaded when a ledger attaches.  Budgets and artifacts thereby share one
durability story — a restart that keeps warm artifacts keeps the budgets
charged for them, closing the budget-laundering hole a memory-only ledger
leaves open.  The ledger payload codec is versioned independently of the
artifact codec (``ledger_format_version`` in the ``meta`` table); a store
written before the ledger table existed adopts the current version on
first open.

A third table, ``request_journal``, makes the store the gateway's
request journal (the :class:`~repro.server.journal.JournalBackend`
protocol): every state-changing request is written once, after it
executes — idempotency key, monotone sequence number, payload, outcome
digest — in the same transaction as the ledger bounds it changed.
Crash recovery and deterministic replay both read this table; like the
ledger table it is independently format-versioned
(``journal_format_version``) and adopted on first open by older stores.
``audit_spill`` holds audit events evicted from the bounded in-memory
ring, so the full dense-sequence audit history survives even under
serving loads the ring cannot hold.

Hardening (file-backed stores): WAL journaling so readers never block the
writer, a bounded busy-retry with backoff around every write (a
transiently locked file — another process compacting, a backup tool —
must not crash the gateway), an automatic pre-compaction backup, and a
corruption path (:meth:`quick_check` / :meth:`recover`) that quarantines
a damaged file and rebuilds instead of serving garbage.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.obs.metrics import NULL_REGISTRY
from repro.server import faults
from repro.server.journal import JOURNAL_FORMAT_VERSION
from repro.server.ledger import LEDGER_FORMAT_VERSION
from repro.service.cache import CACHE_FORMAT_VERSION

__all__ = ["StoreFormatError", "SQLiteStore"]


class StoreFormatError(RuntimeError):
    """The store was written by an incompatible artifact codec."""


class SQLiteStore:
    """A durable content-addressed store of compiled-query payloads.

    Safe for concurrent use from one process (one lock around the shared
    connection); concurrent *processes* are serialized by SQLite itself.
    ``path`` may be ``":memory:"`` for tests.
    """

    #: Bounded busy-retry around writes: attempts and base backoff.
    busy_retries = 5
    busy_backoff = 0.01

    def __init__(self, path: str | Path, *, timeout: float = 10.0):
        self.path = str(path)
        #: Busy-retry telemetry sink; a gateway adopting this store
        #: swaps in its hub's registry.
        self.metrics: Any = NULL_REGISTRY
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, timeout=timeout, check_same_thread=False
        )
        try:
            if self.path != ":memory:":
                # WAL: readers never block the writer, and an abrupt
                # process death leaves a replayable log, not a torn page.
                with self._lock:
                    self._conn.execute("PRAGMA journal_mode=WAL")
            with self._lock, self._conn:
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS meta "
                    "(key TEXT PRIMARY KEY, value TEXT)"
                )
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS artifacts ("
                    "  key TEXT PRIMARY KEY,"
                    "  payload TEXT NOT NULL,"
                    "  created_at REAL NOT NULL"
                    ")"
                )
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS ledger_bounds ("
                    "  user_id TEXT NOT NULL,"
                    "  spec TEXT NOT NULL,"
                    "  payload TEXT NOT NULL,"
                    "  updated_at REAL NOT NULL,"
                    "  PRIMARY KEY (user_id, spec)"
                    ")"
                )
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS request_journal ("
                    "  seq INTEGER PRIMARY KEY AUTOINCREMENT,"
                    "  idem_key TEXT NOT NULL UNIQUE,"
                    "  kind TEXT NOT NULL,"
                    "  payload TEXT NOT NULL,"
                    "  status TEXT NOT NULL DEFAULT 'pending',"
                    "  outcome_digest TEXT,"
                    "  response TEXT,"
                    "  created_at REAL NOT NULL,"
                    "  acked_at REAL"
                    ")"
                )
                # Pending rows only.  Only the write-ahead journal of
                # earlier versions wrote such rows; the index stays so
                # every version's stores share one schema.
                self._conn.execute(
                    "CREATE INDEX IF NOT EXISTS request_journal_pending "
                    "ON request_journal(seq) WHERE status = 'pending'"
                )
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS audit_spill ("
                    "  seq INTEGER PRIMARY KEY,"
                    "  kind TEXT NOT NULL,"
                    "  data TEXT NOT NULL,"
                    "  spilled_at REAL NOT NULL"
                    ")"
                )
                self._check_version("format_version", CACHE_FORMAT_VERSION)
                # Pre-ledger/pre-journal stores (no such meta row) adopt
                # the current version: the tables above were just
                # created empty.
                self._check_version("ledger_format_version", LEDGER_FORMAT_VERSION)
                self._check_version("journal_format_version", JOURNAL_FORMAT_VERSION)
        except BaseException:
            # Refusing an incompatible store must not leak its handle.
            self._conn.close()
            raise

    def _write_txn(self, fn):
        """One durable transaction, retried through ``database is locked``.

        SQLite raises ``OperationalError: database is locked`` when
        another connection holds the write lock past ``timeout``.  That
        is a transient condition, not a bug: back off exponentially for
        up to :attr:`busy_retries` attempts before letting it propagate.
        The chaos hook (:func:`repro.server.faults.maybe_db_locked`)
        fires *inside* the loop so injected lock storms are absorbed the
        same way real ones are.  *fn* runs with the lock and an open
        transaction and must be safe to re-run (every caller's is:
        plain INSERT/UPDATE/DELETE statements).
        """
        for attempt in range(self.busy_retries + 1):
            try:
                with self._lock, self._conn:
                    faults.maybe_db_locked("store.write")
                    return fn(self._conn)
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or attempt >= self.busy_retries:
                    raise
                metrics = self.metrics
                if metrics:
                    metrics.counter(
                        "anosy_store_busy_retries_total",
                        "SQLite database-is-locked retries absorbed by the "
                        "bounded backoff loop.",
                    ).inc()
                time.sleep(self.busy_backoff * (2**attempt))

    def _execute_write(self, sql: str, params: tuple) -> None:
        """One durable single-statement write (see :meth:`_write_txn`)."""
        self._write_txn(lambda conn: conn.execute(sql, params))

    def _check_version(self, key: str, expected: int) -> None:
        """Record or verify one ``meta`` version row (absent = adopt)."""
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                (key, str(expected)),
            )
        elif int(row[0]) != expected:
            raise StoreFormatError(
                f"store {self.path!r} has {key} {row[0]}, "
                f"this codec speaks {expected}"
            )

    # -- CacheBackend protocol ---------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """The stored artifact payload for a key, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM artifacts WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else json.loads(row[0])

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Durably store a payload under its content hash (last write wins)."""
        blob = json.dumps(payload, sort_keys=True)
        self._execute_write(
            "INSERT OR REPLACE INTO artifacts (key, payload, created_at) "
            "VALUES (?, ?, ?)",
            (key, blob, time.time()),
        )

    def keys(self) -> Iterator[str]:
        """The stored keys (insertion order)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT key FROM artifacts ORDER BY created_at, key"
            ).fetchall()
        return iter(row[0] for row in rows)

    def items(self) -> Iterator[tuple[str, dict[str, Any]]]:
        """All ``(key, payload)`` pairs in one scan (the warm-start read)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, payload FROM artifacts ORDER BY created_at, key"
            ).fetchall()
        return iter((key, json.loads(blob)) for key, blob in rows)

    # -- LedgerBackend protocol ---------------------------------------------
    def put_ledger_bound(
        self, user_id: str, spec_name: str, payload: dict[str, Any]
    ) -> None:
        """Durably store one user's knowledge-bound payload for one spec.

        Written through by :meth:`PrivacyBudgetLedger.commit
        <repro.server.ledger.PrivacyBudgetLedger.commit>` (and epoch
        decay); last write wins, exactly like artifacts.
        """
        blob = json.dumps(payload, sort_keys=True)
        self._execute_write(
            "INSERT OR REPLACE INTO ledger_bounds "
            "(user_id, spec, payload, updated_at) VALUES (?, ?, ?, ?)",
            (user_id, spec_name, blob, time.time()),
        )

    def ledger_bounds(self) -> Iterator[tuple[str, str, dict[str, Any]]]:
        """All ``(user_id, spec_name, payload)`` rows (the attach read)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT user_id, spec, payload FROM ledger_bounds "
                "ORDER BY user_id, spec"
            ).fetchall()
        return iter((user, spec, json.loads(blob)) for user, spec, blob in rows)

    def ledger_bound_count(self) -> int:
        """Number of persisted ``(user, spec)`` bound rows."""
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM ledger_bounds"
            ).fetchone()
        return int(count)

    # -- JournalBackend protocol ---------------------------------------------
    _JOURNAL_COLUMNS = (
        "seq, idem_key, kind, payload, status, outcome_digest, response"
    )

    def journal_write(
        self,
        rows: list[tuple[int, str, str, str, str, str]],
        bounds: Iterable[tuple[str, str, dict[str, Any]]] = (),
    ) -> None:
        """Executed journal rows plus ledger-bound puts, in one transaction.

        Inserts each ``(seq, key, kind, payload_json, digest,
        response_json)`` row already done, under the sequence number the
        journal reserved for it.  ``INSERT OR REPLACE`` on the
        ``idem_key`` unique constraint lets a retry replace the pending
        row an earlier, write-ahead version left under its key.  The
        exactly-once keystone: a journaled gateway drains the ledger's
        buffered durable-mirror writes into *bounds* and lands them *with*
        the rows they justify.  A crash therefore leaves the store in one
        of exactly two states — bounds folded and rows written, or
        neither — never a charge without its request or a request
        without its charge.
        """

        # Users sharing a bound share its payload object: encode it once.
        blobs: dict[int, str] = {}
        bound_rows = []
        for user_id, spec_name, payload in bounds:
            blob = blobs.get(id(payload))
            if blob is None:
                blob = blobs[id(payload)] = json.dumps(payload, sort_keys=True)
            bound_rows.append((user_id, spec_name, blob))

        def txn(conn):
            now = time.time()
            if bound_rows:
                conn.executemany(
                    "INSERT OR REPLACE INTO ledger_bounds "
                    "(user_id, spec, payload, updated_at) VALUES (?, ?, ?, ?)",
                    [(user, spec, blob, now) for user, spec, blob in bound_rows],
                )
            conn.executemany(
                "INSERT OR REPLACE INTO request_journal (seq, idem_key, kind, "
                "payload, status, outcome_digest, response, created_at, acked_at) "
                "VALUES (?, ?, ?, ?, 'done', ?, ?, ?, ?)",
                [row + (now, now) for row in rows],
            )

        self._write_txn(txn)

    def journal_lookup(self, keys: list[str]):
        """The journal rows under the idempotency *keys*, in one read."""
        with self._lock:
            return self._conn.execute(
                f"SELECT {self._JOURNAL_COLUMNS} FROM request_journal "
                "WHERE idem_key IN (SELECT value FROM json_each(?))",
                (json.dumps(keys),),
            ).fetchall()

    def journal_entries(self):
        """Every journal row, in sequence order."""
        with self._lock:
            return self._conn.execute(
                f"SELECT {self._JOURNAL_COLUMNS} FROM request_journal "
                "ORDER BY seq"
            ).fetchall()

    def journal_count(self) -> int:
        """Number of journal rows (SQLite's b-tree count, no row decoded)."""
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM request_journal"
            ).fetchone()
        return int(count)

    def journal_next_seq(self) -> int:
        """One past the highest journal sequence number ever written.

        Reads ``sqlite_sequence`` (AUTOINCREMENT's high-water mark, which
        an explicit ``seq`` above it raises), so compacted rows still
        advance the floor — a restarted journal never reissues a dead
        process's sequence numbers or auto keys.
        """
        with self._lock:
            try:
                row = self._conn.execute(
                    "SELECT seq FROM sqlite_sequence "
                    "WHERE name = 'request_journal'"
                ).fetchone()
            except sqlite3.OperationalError:
                # sqlite_sequence is created lazily, on the first insert
                # into any AUTOINCREMENT table: absent means empty.
                row = None
        return 1 if row is None else int(row[0]) + 1

    def journal_checkpoint(self) -> str | None:
        """The JSON checkpoint the last journal compaction stored."""
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'journal_checkpoint'"
            ).fetchone()
        return None if row is None else row[0]

    def journal_compact(self, seqs: list[int], checkpoint: str) -> int:
        """Replace the journal checkpoint and delete the done rows among
        *seqs*, atomically."""

        def txn(conn):
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) "
                "VALUES ('journal_checkpoint', ?)",
                (checkpoint,),
            )
            cursor = conn.executemany(
                "DELETE FROM request_journal WHERE status = 'done' AND seq = ?",
                [(seq,) for seq in seqs],
            )
            return cursor.rowcount

        return int(self._write_txn(txn))

    def append_audit_spill(self, rows: list[tuple[int, str, str]]) -> None:
        """Persist audit events evicted from the in-memory ring.

        ``INSERT OR IGNORE``: audit sequence numbers are dense and
        assigned once, so a re-spill after a busy-retry is a no-op.
        """

        def txn(conn):
            now = time.time()
            conn.executemany(
                "INSERT OR IGNORE INTO audit_spill (seq, kind, data, spilled_at) "
                "VALUES (?, ?, ?, ?)",
                [(seq, kind, blob, now) for seq, kind, blob in rows],
            )

        self._write_txn(txn)

    def audit_spill_count(self) -> int:
        """Number of spilled audit events."""
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM audit_spill"
            ).fetchone()
        return int(count)

    # -- operator hooks ------------------------------------------------------
    def backup(self, path: str | Path) -> None:
        """Write a consistent online snapshot of the store to ``path``.

        Uses SQLite's backup API, so it is safe while the server is
        serving (readers and writers proceed; the snapshot is
        transactionally consistent).
        """
        with self._lock:
            target = sqlite3.connect(str(path))
            try:
                self._conn.backup(target)
            finally:
                target.close()

    def compact(self) -> None:
        """Reclaim space from deleted/overwritten rows (``VACUUM``).

        Blocks writers for the duration; run it from the operations
        runbook's maintenance window, not the serving path.  File-backed
        stores first take an automatic snapshot at ``<path>.pre-compact``
        — ``VACUUM`` rewrites the whole file, and an interrupted rewrite
        is exactly the corruption :meth:`recover` exists for.
        """
        if self.path != ":memory:":
            self.backup(f"{self.path}.pre-compact")
        with self._lock:
            self._conn.execute("VACUUM")

    def quick_check(self) -> bool:
        """True when SQLite's integrity probe (``PRAGMA quick_check``) passes."""
        try:
            with self._lock:
                rows = self._conn.execute("PRAGMA quick_check").fetchall()
        except sqlite3.DatabaseError:
            return False
        return bool(rows) and rows[0][0] == "ok"

    @classmethod
    def recover(
        cls, path: str | Path, *, export_json: str | Path | None = None
    ) -> "SQLiteStore":
        """Open ``path``, quarantining and rebuilding it if corrupted.

        The boot-time entry point for the gateway: a healthy file opens
        normally; a damaged one (unreadable header, failed
        ``quick_check``) is moved aside to ``<path>.corrupt-<n>`` along
        with its WAL/SHM sidecars, a fresh store is created, and — when
        ``export_json`` names a flat-file cache export — artifacts are
        re-imported from it.  Ledger bounds cannot be rebuilt from a
        cache export; users restart from the full-space bound, which is
        strictly more permissive (see the operations runbook for why
        restoring the newest *backup* is preferable when one exists).

        A :class:`StoreFormatError` still propagates: a codec-version
        mismatch is a deployment error, not file damage.
        """
        path = str(path)
        store: "SQLiteStore" | None = None
        try:
            store = cls(path)
            if store.quick_check():
                return store
            store.close()
        except StoreFormatError:
            raise
        except (sqlite3.DatabaseError, ValueError):
            # ValueError: a garbage meta row — damage, not a codec skew.
            if store is not None:
                store.close()
        cls._quarantine(path)
        rebuilt = cls(path)
        if export_json is not None and Path(export_json).exists():
            rebuilt.import_cache_json(export_json)
        return rebuilt

    @staticmethod
    def _quarantine(path: str) -> None:
        """Move a damaged store (and sidecars) out of the way, keeping it."""
        suffix = 0
        while Path(f"{path}.corrupt-{suffix}").exists():
            suffix += 1
        os.replace(path, f"{path}.corrupt-{suffix}")
        for sidecar in ("-wal", "-shm"):
            if Path(path + sidecar).exists():
                os.replace(path + sidecar, f"{path}.corrupt-{suffix}{sidecar}")

    # -- conveniences --------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM artifacts"
            ).fetchone()
        return int(count)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM artifacts WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "SQLiteStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- flat-file interop ---------------------------------------------------
    def export_cache_json(self, path: str | Path) -> int:
        """Write the store as a ``SynthesisCache.save`` file; returns count."""
        entries = dict(self.items())
        Path(path).write_text(
            json.dumps(
                {"version": CACHE_FORMAT_VERSION, "entries": entries},
                sort_keys=True,
            )
        )
        return len(entries)

    def import_cache_json(self, path: str | Path) -> int:
        """Absorb a ``SynthesisCache.save`` file; returns entries imported."""
        data = json.loads(Path(path).read_text())
        version = data.get("version")
        if version != CACHE_FORMAT_VERSION:
            raise StoreFormatError(
                f"cache file {str(path)!r} has format version {version!r}, "
                f"this codec speaks {CACHE_FORMAT_VERSION}"
            )
        for key, payload in data["entries"].items():
            self.put(key, payload)
        return len(data["entries"])
