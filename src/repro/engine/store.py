"""The durable state tier: a crash-safe SQLite store for engine state.

Everything the engine learns — plans that cost seconds of strategy
optimization, released estimates whose spans make follow-up queries free,
and (critically for DP correctness) spent privacy budgets — used to die
with the process.  The :class:`StateStore` externalises all three into one
content-addressed SQLite file so a restarted server reboots **warm** and a
tenant's budget survives **crashes**:

* **plans** — serialized :class:`~repro.engine.planner.Plan` objects under
  the planner's content-addressed cache keys (workload fingerprint +
  privacy regime + planner config), loaded back into the
  :class:`~repro.engine.cache.PlanCache` on boot so warm shapes skip
  strategy optimization across restarts;
* **releases** — each tenant's released ``(strategy, estimate)`` pairs, so
  free-reuse spans survive a restart;
* **the budget ledger** — one row per charge with **write-ahead
  semantics**: a ``PENDING`` row is committed *before* the noise draw,
  promoted to ``SPENT`` on success and ``VOIDED`` on refund.  Recovery
  conservatively counts ``PENDING`` as spent, so a crash at any point can
  strand budget but can never double-spend it, and a spend whose noise was
  released is never lost (the row was durable before the draw);
* **arrival history** — per-tenant ``fingerprint x epoch`` request counts
  (and one pickled exemplar workload per fingerprint), the input of the
  workload forecaster (:mod:`repro.engine.forecast`): a rebooted server
  resumes forecasting from the history the previous process recorded
  instead of starting blind.

Durability model (the Paper-Scanner WAL idiom): ``journal_mode=WAL`` for
concurrent readers, ``synchronous=NORMAL`` (WAL commits need no fsync, so a
ledger write costs microseconds; an OS crash may lose the tail of the WAL,
a *process* crash — the failure the fault-injection matrix kills — cannot),
``busy_timeout`` plus an explicit retry-with-backoff loop for cross-process
``SQLITE_BUSY`` contention.

Failure policy, by what the state protects:

* **ledger operations raise** (:class:`~repro.exceptions.StoreError` /
  :class:`~repro.exceptions.StoreUnavailableError`) — budget accounting is
  correctness, so paid requests fail **closed** when the store is gone;
* **plan/release persistence never raises** — warmth is an optimization,
  so it degrades to in-memory-only and counts the failure
  (:meth:`StateStore.stats`, surfaced in ``Server.stats()["store"]``).

Ownership (``docs/architecture.md`` §8): the serving process writes the
store — sessions and the planner persist through it.
"""

from __future__ import annotations

import pickle
import sqlite3
import threading
import time
from datetime import datetime, timezone

from repro.core.privacy import PrivacyParams
from repro.engine import faults
from repro.exceptions import StoreError, StoreUnavailableError

__all__ = ["PENDING", "SPENT", "StateStore", "VOIDED"]

#: Ledger states.  ``PENDING`` is the write-ahead reservation (committed
#: before any noise is drawn); ``SPENT`` a confirmed release; ``VOIDED`` a
#: refunded reservation whose release provably did not happen.
PENDING = "PENDING"
SPENT = "SPENT"
VOIDED = "VOIDED"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS plans (
    key      TEXT PRIMARY KEY,
    payload  BLOB NOT NULL,
    created  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS releases (
    id       INTEGER PRIMARY KEY AUTOINCREMENT,
    tenant   TEXT NOT NULL,
    label    TEXT NOT NULL DEFAULT '',
    epsilon  REAL NOT NULL,
    delta    REAL NOT NULL,
    payload  BLOB NOT NULL,
    created  TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS releases_tenant ON releases(tenant);
CREATE TABLE IF NOT EXISTS ledger (
    id       INTEGER PRIMARY KEY AUTOINCREMENT,
    tenant   TEXT NOT NULL,
    label    TEXT NOT NULL DEFAULT '',
    epsilon  REAL NOT NULL,
    delta    REAL NOT NULL,
    state    TEXT NOT NULL CHECK (state IN ('PENDING', 'SPENT', 'VOIDED')),
    created  TEXT NOT NULL,
    resolved TEXT
);
CREATE INDEX IF NOT EXISTS ledger_tenant_state ON ledger(tenant, state);
CREATE TABLE IF NOT EXISTS arrivals (
    tenant      TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    epoch       INTEGER NOT NULL,
    count       INTEGER NOT NULL,
    PRIMARY KEY (tenant, fingerprint, epoch)
);
CREATE TABLE IF NOT EXISTS shapes (
    fingerprint TEXT PRIMARY KEY,
    payload     BLOB NOT NULL,
    created     TEXT NOT NULL
);
"""


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _is_busy(error: sqlite3.OperationalError) -> bool:
    message = str(error).lower()
    return "locked" in message or "busy" in message


class StateStore:
    """Crash-safe SQLite persistence for plans, releases, and the ledger.

    Parameters
    ----------
    path:
        Database file path (created on first open).  One file holds every
        tenant's state; keys are content-addressed, so two servers pointed
        at the same file share warmth the way two sessions share a plan
        cache.
    synchronous:
        The SQLite ``synchronous`` pragma (default ``NORMAL``: WAL commits
        without per-commit fsync — crash-safe against process death, the
        model the fault matrix tests; ``FULL`` additionally survives OS /
        power failure at ~10x the ledger-write cost).
    busy_timeout_ms:
        How long SQLite itself waits on a locked database before surfacing
        ``SQLITE_BUSY`` (default 30 s).
    retry_attempts / retry_base_seconds:
        The explicit retry-with-backoff loop wrapped around every statement
        for cross-process writer contention that outlives the busy timeout:
        attempt ``k`` sleeps ``retry_base_seconds * 2**k`` before retrying.

    The store is thread-safe (one connection, one lock — the parent serving
    process is the sole writer; cross-*process* readers are what WAL is
    for).  All mutation methods are grouped by failure policy: ledger
    methods raise on failure, ``save_*``/``load_*`` warmth methods degrade
    silently and count.
    """

    def __init__(
        self,
        path,
        *,
        synchronous: str = "NORMAL",
        busy_timeout_ms: int = 30000,
        retry_attempts: int = 5,
        retry_base_seconds: float = 0.01,
    ):
        self.path = str(path)
        self.synchronous = synchronous
        self.busy_timeout_ms = int(busy_timeout_ms)
        self.retry_attempts = max(1, int(retry_attempts))
        self.retry_base_seconds = float(retry_base_seconds)
        self._lock = threading.RLock()
        self._available = False
        self.busy_retries = 0
        self.persist_failures = 0
        self.load_failures = 0
        try:
            self._conn = sqlite3.connect(
                self.path,
                timeout=self.busy_timeout_ms / 1000.0,
                check_same_thread=False,
                isolation_level=None,  # explicit BEGIN/COMMIT below
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(f"PRAGMA synchronous={self.synchronous}")
            self._conn.execute(f"PRAGMA busy_timeout={self.busy_timeout_ms}")
            self._conn.execute("PRAGMA foreign_keys=ON")
            self._conn.executescript(_SCHEMA)
            self._available = True
        except sqlite3.Error as error:
            raise StoreUnavailableError(
                f"cannot open state store at {self.path!r}: {error}"
            ) from error

    # ------------------------------------------------------------- lifecycle
    @property
    def available(self) -> bool:
        """Whether the store is usable (False after :meth:`close` or a fatal
        database error; ledger callers fail closed on it)."""
        return self._available

    def close(self) -> None:
        """Close the connection (idempotent); the store becomes unavailable."""
        with self._lock:
            if not self._available:
                return
            self._available = False
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- plumbing
    def _execute(self, sql: str, params: tuple = ()):
        """Run one statement under the lock, retrying ``SQLITE_BUSY`` with
        exponential backoff; marks the store unavailable on fatal errors."""
        with self._lock:
            if not self._available:
                raise StoreUnavailableError(
                    f"state store at {self.path!r} is unavailable"
                )
            for attempt in range(self.retry_attempts):
                try:
                    return self._conn.execute(sql, params)
                except sqlite3.OperationalError as error:
                    if not _is_busy(error) or attempt == self.retry_attempts - 1:
                        if not _is_busy(error):
                            self._available = False
                            raise StoreUnavailableError(
                                f"state store at {self.path!r} failed: {error}"
                            ) from error
                        raise StoreError(
                            f"state store at {self.path!r} stayed busy after "
                            f"{self.retry_attempts} attempts: {error}"
                        ) from error
                    self.busy_retries += 1
                    time.sleep(self.retry_base_seconds * 2**attempt)
                except sqlite3.DatabaseError as error:
                    self._available = False
                    raise StoreUnavailableError(
                        f"state store at {self.path!r} failed: {error}"
                    ) from error

    def _rollback(self) -> None:
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.Error:  # pragma: no cover - nothing to roll back
            pass

    # ---------------------------------------------------------------- ledger
    def ledger_begin(self, tenant: str, params: PrivacyParams, label: str = "") -> int:
        """Commit a write-ahead ``PENDING`` ledger row; returns its id.

        This is the durability point of a charge: once this returns, the
        reservation survives any crash (recovery counts it as spent until
        it is settled).  Raises :class:`StoreError` on failure — the caller
        must refuse the paid request (fail closed), because a noise draw
        without a durable reservation could be double-spent after a crash.
        """
        with self._lock:
            self._execute("BEGIN IMMEDIATE")
            try:
                cursor = self._execute(
                    "INSERT INTO ledger (tenant, label, epsilon, delta, state, created)"
                    " VALUES (?, ?, ?, ?, ?, ?)",
                    (tenant, label, params.epsilon, params.delta, PENDING, _now()),
                )
                entry = int(cursor.lastrowid)
                # A kill here — row written, transaction not committed —
                # must roll back on recovery: no noise was drawn yet.
                faults.trip(faults.LEDGER_MID_COMMIT)
                self._execute("COMMIT")
            except BaseException:
                self._rollback()
                raise
        return entry

    def ledger_settle(self, entry: int, state: str) -> None:
        """Promote a ``PENDING`` row to ``SPENT`` (success) or ``VOIDED``
        (refund: the release provably did not happen)."""
        if state not in (SPENT, VOIDED):
            raise StoreError(f"a ledger row settles to SPENT or VOIDED, not {state!r}")
        self._execute(
            "UPDATE ledger SET state = ?, resolved = ? WHERE id = ? AND state = ?",
            (state, _now(), entry, PENDING),
        )

    def ledger_spent(self, tenant: str) -> tuple[float, float]:
        """The tenant's durable ``(epsilon, delta)`` spend.

        ``PENDING`` counts as spent — the conservative recovery rule: a
        reservation whose outcome the crash erased *may* have released
        noise, so it must be assumed to have.
        """
        row = self._execute(
            "SELECT COALESCE(SUM(epsilon), 0), COALESCE(SUM(delta), 0) FROM ledger"
            " WHERE tenant = ? AND state IN (?, ?)",
            (tenant, PENDING, SPENT),
        ).fetchone()
        return float(row[0]), float(row[1])

    def ledger_entries(self, tenant: str | None = None) -> list[dict]:
        """Every ledger row (of one tenant, or all), oldest first."""
        sql = (
            "SELECT id, tenant, label, epsilon, delta, state FROM ledger"
            + (" WHERE tenant = ?" if tenant is not None else "")
            + " ORDER BY id"
        )
        rows = self._execute(sql, (tenant,) if tenant is not None else ()).fetchall()
        return [
            {
                "id": row[0],
                "tenant": row[1],
                "label": row[2],
                "epsilon": row[3],
                "delta": row[4],
                "state": row[5],
            }
            for row in rows
        ]

    def ledger_counts(self, tenant: str) -> dict:
        """``{state: row count}`` for one tenant (absent states omitted)."""
        rows = self._execute(
            "SELECT state, COUNT(*) FROM ledger WHERE tenant = ? GROUP BY state"
            " ORDER BY state",
            (tenant,),
        ).fetchall()
        return {state: count for state, count in rows}

    def ledger_by_label(self, tenant: str) -> dict:
        """Durable per-label spend attribution for one tenant.

        Maps each charge label to its aggregated ``PENDING``/``SPENT``
        epsilon, delta and row count — what lets ``Server.stats()``
        attribute a tenant's spend per request kind across restarts.
        """
        rows = self._execute(
            "SELECT label, SUM(epsilon), SUM(delta), COUNT(*) FROM ledger"
            " WHERE tenant = ? AND state IN (?, ?) GROUP BY label ORDER BY label",
            (tenant, PENDING, SPENT),
        ).fetchall()
        return {
            label: {"epsilon": epsilon, "delta": delta, "count": count}
            for label, epsilon, delta, count in rows
        }

    # ----------------------------------------------------------------- plans
    def save_plan(self, key: str, plan) -> bool:
        """Persist one plan under its cache key; best-effort (never raises).

        Warmth, not correctness: an unpicklable plan or an unreachable
        store degrades to in-memory-only and bumps ``persist_failures``.
        """
        try:
            payload = pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)
            self._execute(
                "INSERT OR REPLACE INTO plans (key, payload, created) VALUES (?, ?, ?)",
                (key, sqlite3.Binary(payload), _now()),
            )
            return True
        except (pickle.PicklingError, TypeError, AttributeError, StoreError):
            with self._lock:
                self.persist_failures += 1
            return False

    def load_plan(self, key: str):
        """The persisted plan under ``key``, or ``None`` (never raises)."""
        try:
            row = self._execute(
                "SELECT payload FROM plans WHERE key = ?", (key,)
            ).fetchone()
            return None if row is None else pickle.loads(row[0])
        except (StoreError, pickle.UnpicklingError, Exception):
            with self._lock:
                self.load_failures += 1
            return None

    def load_plans(self) -> list[tuple[str, object]]:
        """Every persisted ``(key, plan)`` pair, skipping corrupt rows."""
        try:
            rows = self._execute("SELECT key, payload FROM plans ORDER BY key").fetchall()
        except StoreError:
            with self._lock:
                self.load_failures += 1
            return []
        plans = []
        for key, payload in rows:
            try:
                plans.append((key, pickle.loads(payload)))
            except Exception:  # a corrupt row must not poison the boot
                with self._lock:
                    self.load_failures += 1
        return plans

    def plan_count(self) -> int:
        return int(self._execute("SELECT COUNT(*) FROM plans").fetchone()[0])

    # -------------------------------------------------------------- releases
    def save_release(
        self, tenant: str, label: str, params: PrivacyParams, strategy, estimate
    ) -> bool:
        """Persist one released ``(strategy, estimate)``; best-effort."""
        try:
            payload = pickle.dumps(
                (strategy, estimate), protocol=pickle.HIGHEST_PROTOCOL
            )
            self._execute(
                "INSERT INTO releases (tenant, label, epsilon, delta, payload, created)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (
                    tenant,
                    label,
                    params.epsilon,
                    params.delta,
                    sqlite3.Binary(payload),
                    _now(),
                ),
            )
            return True
        except (pickle.PicklingError, TypeError, AttributeError, StoreError):
            with self._lock:
                self.persist_failures += 1
            return False

    def load_releases(self, tenant: str) -> list[dict]:
        """The tenant's persisted releases, oldest first (never raises).

        Each entry carries ``strategy``, ``estimate``, ``params`` and
        ``label`` — exactly what a rebooted session needs to rebuild its
        free-reuse pool.
        """
        try:
            rows = self._execute(
                "SELECT label, epsilon, delta, payload FROM releases"
                " WHERE tenant = ? ORDER BY id",
                (tenant,),
            ).fetchall()
        except StoreError:
            with self._lock:
                self.load_failures += 1
            return []
        releases = []
        for label, epsilon, delta, payload in rows:
            try:
                strategy, estimate = pickle.loads(payload)
            except Exception:
                with self._lock:
                    self.load_failures += 1
                continue
            releases.append(
                {
                    "strategy": strategy,
                    "estimate": estimate,
                    "params": PrivacyParams(epsilon, delta),
                    "label": label,
                }
            )
        return releases

    def release_count(self, tenant: str | None = None) -> int:
        if tenant is None:
            return int(self._execute("SELECT COUNT(*) FROM releases").fetchone()[0])
        return int(
            self._execute(
                "SELECT COUNT(*) FROM releases WHERE tenant = ?", (tenant,)
            ).fetchone()[0]
        )

    # -------------------------------------------------------------- arrivals
    def add_arrivals(self, tenant: str, epoch: int, counts) -> bool:
        """Fold ``{fingerprint: count}`` deltas into one epoch's arrival rows.

        Additive upsert, so the recorder may flush an epoch incrementally
        (e.g. a partial flush at shutdown after an earlier roll) without
        double-counting or losing arrivals.  Best-effort: forecast history
        is warmth, not correctness, so failures degrade silently and count.
        """
        try:
            with self._lock:
                self._execute("BEGIN IMMEDIATE")
                try:
                    for fingerprint, count in counts.items():
                        self._execute(
                            "INSERT INTO arrivals (tenant, fingerprint, epoch, count)"
                            " VALUES (?, ?, ?, ?)"
                            " ON CONFLICT(tenant, fingerprint, epoch)"
                            " DO UPDATE SET count = count + excluded.count",
                            (tenant, fingerprint, int(epoch), int(count)),
                        )
                    self._execute("COMMIT")
                except BaseException:
                    self._rollback()
                    raise
            return True
        except (StoreError, TypeError, ValueError):
            with self._lock:
                self.persist_failures += 1
            return False

    def load_arrivals(self, tenant: str, *, last_epochs: int | None = None) -> dict:
        """The tenant's persisted ``{epoch: {fingerprint: count}}`` history.

        ``last_epochs`` keeps only the most recent epochs (the recorder's
        ring-buffer bound).  Best-effort: an unreachable store returns ``{}``
        and corrupt rows (non-integer epochs/counts, negative counts) are
        skipped and counted in ``load_failures`` — a poisoned history row
        must not take forecasting down.
        """
        try:
            rows = self._execute(
                "SELECT epoch, fingerprint, count FROM arrivals WHERE tenant = ?"
                " ORDER BY epoch",
                (tenant,),
            ).fetchall()
        except StoreError:
            with self._lock:
                self.load_failures += 1
            return {}
        history: dict = {}
        for epoch, fingerprint, count in rows:
            try:
                epoch = int(epoch)
                count = int(count)
                if count < 0:
                    raise ValueError("negative arrival count")
            except (TypeError, ValueError):
                with self._lock:
                    self.load_failures += 1
                continue
            history.setdefault(epoch, {})[str(fingerprint)] = count
        if last_epochs is not None and len(history) > last_epochs:
            for epoch in sorted(history)[:-last_epochs]:
                del history[epoch]
        return history

    def arrival_count(self) -> int:
        return int(self._execute("SELECT COUNT(*) FROM arrivals").fetchone()[0])

    # ---------------------------------------------------------------- shapes
    def save_shape(self, fingerprint: str, workload) -> bool:
        """Persist one exemplar workload under its fingerprint; best-effort.

        The forecaster's arrival history is keyed by content-addressed
        fingerprints; the exemplar is what lets a *rebooted* pre-planner
        turn a predicted-hot fingerprint back into a plannable workload.
        """
        try:
            payload = pickle.dumps(workload, protocol=pickle.HIGHEST_PROTOCOL)
            self._execute(
                "INSERT OR REPLACE INTO shapes (fingerprint, payload, created)"
                " VALUES (?, ?, ?)",
                (fingerprint, sqlite3.Binary(payload), _now()),
            )
            return True
        except (pickle.PicklingError, TypeError, AttributeError, StoreError):
            with self._lock:
                self.persist_failures += 1
            return False

    def load_shapes(self) -> list[tuple[str, object]]:
        """Every persisted ``(fingerprint, workload)`` pair, skipping corrupt
        rows (counted in ``load_failures``); never raises."""
        try:
            rows = self._execute(
                "SELECT fingerprint, payload FROM shapes ORDER BY fingerprint"
            ).fetchall()
        except StoreError:
            with self._lock:
                self.load_failures += 1
            return []
        shapes = []
        for fingerprint, payload in rows:
            try:
                shapes.append((str(fingerprint), pickle.loads(payload)))
            except Exception:  # a corrupt exemplar must not poison the boot
                with self._lock:
                    self.load_failures += 1
        return shapes

    def shape_count(self) -> int:
        return int(self._execute("SELECT COUNT(*) FROM shapes").fetchone()[0])

    # ------------------------------------------------------------- monitoring
    def stats(self) -> dict:
        """One snapshot: path, availability, row counts, failure counters."""
        out = {
            "path": self.path,
            "available": self._available,
            "busy_retries": self.busy_retries,
            "persist_failures": self.persist_failures,
            "load_failures": self.load_failures,
        }
        if self._available:
            try:
                out["plans"] = self.plan_count()
                out["releases"] = self.release_count()
                out["ledger_rows"] = int(
                    self._execute("SELECT COUNT(*) FROM ledger").fetchone()[0]
                )
                out["arrival_rows"] = self.arrival_count()
                out["shapes"] = self.shape_count()
            except StoreError:  # pragma: no cover - raced with a failure
                out["available"] = self._available
        return out
