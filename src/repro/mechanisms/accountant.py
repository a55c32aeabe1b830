"""A simple sequential-composition privacy accountant.

Batch query answering (the paper's setting) spends the whole budget in a
single interaction, but applications often run the mechanism several times —
e.g. once per release period.  The accountant tracks cumulative (epsilon,
delta) spending under basic sequential composition and refuses to exceed a
configured budget.

The accountant is **thread-safe**: :meth:`PrivacyAccountant.charge` checks
and debits under one lock, so concurrent callers can never jointly overspend
the budget.  The separate :meth:`can_spend` probe remains available but is
*advisory only* — between a ``can_spend`` and a later ``spend`` another
thread may debit the budget (the classic time-of-check/time-of-use window),
which is exactly why budget-mutating callers must go through ``charge``.

The accountant can optionally be **durable**: :meth:`PrivacyAccountant.bind_ledger`
attaches a :class:`~repro.engine.store.StateStore` budget ledger, after which
every charge commits a write-ahead ``PENDING`` row *before* the in-memory
debit (so a crash after the row exists is conservatively counted on
recovery), :meth:`commit` promotes it to ``SPENT`` once the release actually
happened, and :meth:`refund` voids it.  Ledger failures during ``charge``
**fail closed** — the request is refused with nothing debited — while
settle failures degrade conservatively: the row stays ``PENDING`` and keeps
counting as spent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.privacy import PrivacyParams
from repro.exceptions import PrivacyError, StoreError

__all__ = ["PrivacyAccountant", "BudgetExceededError"]


class BudgetExceededError(PrivacyError):
    """Raised when a requested spend would exceed the configured budget."""


@dataclass
class PrivacyAccountant:
    """Tracks (epsilon, delta) spending under basic sequential composition."""

    budget: PrivacyParams
    spent_epsilon: float = 0.0
    spent_delta: float = 0.0
    history: list = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    _ledger: object = field(default=None, repr=False, compare=False)
    _tenant: str = field(default="default", repr=False, compare=False)
    _open_charges: dict = field(default_factory=dict, repr=False, compare=False)

    def bind_ledger(self, store, tenant: str = "default", *, recover: bool = True):
        """Attach a durable budget ledger (a :class:`~repro.engine.store.StateStore`).

        With ``recover=True`` (the default) the tenant's durable spend —
        ``SPENT`` rows plus, conservatively, any ``PENDING`` rows a previous
        process left behind when it crashed — is added to the in-memory
        counters first, so a rebooted accountant resumes exactly where the
        ledger says the tenant is.  Returns the recovered ``(epsilon,
        delta)`` pair.
        """
        recovered = (0.0, 0.0)
        with self._lock:
            if recover:
                recovered = store.ledger_spent(tenant)
                epsilon, delta = recovered
                self.spent_epsilon += epsilon
                self.spent_delta += delta
                if epsilon > 0:
                    self.history.append(("recovered", PrivacyParams(epsilon, delta)))
            self._ledger = store
            self._tenant = tenant
        return recovered

    @property
    def remaining(self) -> PrivacyParams | None:
        """The unspent budget, or ``None`` when it is (numerically) exhausted.

        Exhaustion counts *both* parameters: a budget whose delta has been
        overspent is exhausted even while epsilon remains, because no further
        request (``delta >= 0``) could be afforded without violating the
        configured guarantee.  Delta deficits within the ``can_spend``
        rounding slack (``1e-15``) are treated as zero, not as exhaustion.
        The two views agree for any request larger than the rounding slack:
        ``remaining is None`` implies ``can_spend`` refuses every request
        with ``epsilon > 1e-12``, and a non-``None`` remainder is itself
        spendable.  (Degenerate requests at or below the slack exist only to
        absorb float accumulation and are intentionally outside the
        guarantee.)
        """
        with self._lock:
            epsilon = self.budget.epsilon - self.spent_epsilon
            delta = self.budget.delta - self.spent_delta
        if epsilon <= 0 or delta < -1e-15:
            return None
        return PrivacyParams(epsilon, max(delta, 0.0))

    def _fits(self, request: PrivacyParams) -> bool:
        return (
            self.spent_epsilon + request.epsilon <= self.budget.epsilon + 1e-12
            and self.spent_delta + request.delta <= self.budget.delta + 1e-15
        )

    def can_spend(self, request: PrivacyParams) -> bool:
        """Whether ``request`` fits in the remaining budget.

        Advisory only: the answer can be stale by the time the caller acts on
        it when other threads share the accountant.  Use :meth:`charge` to
        check *and* debit atomically.
        """
        with self._lock:
            return self._fits(request)

    def charge(self, request: PrivacyParams, *, label: str = "") -> PrivacyParams:
        """Atomically check **and** debit ``request``; the only safe mutation.

        The check and the debit happen under one lock, closing the
        ``can_spend``/``spend`` time-of-check/time-of-use window through
        which two concurrent callers could both observe an affordable budget
        and jointly overspend it.  On refusal a
        :class:`BudgetExceededError` is raised and **no state is mutated** —
        the accountant (and any session built on it) stays usable.

        With a bound ledger (:meth:`bind_ledger`) the write-ahead ``PENDING``
        row is committed *before* the in-memory debit, still under the lock:
        if the store refuses, the charge raises with nothing debited (paid
        requests fail closed), and if this process dies any instant after
        this method debits, the durable row already accounts for the spend.
        """
        with self._lock:
            if not self._fits(request):
                raise BudgetExceededError(
                    f"spending (epsilon={request.epsilon}, delta={request.delta}) would exceed "
                    f"the remaining budget (spent epsilon={self.spent_epsilon}, delta={self.spent_delta} "
                    f"of epsilon={self.budget.epsilon}, delta={self.budget.delta})"
                )
            if self._ledger is not None:
                entry = self._ledger.ledger_begin(self._tenant, request, label)
                key = (label, request.epsilon, request.delta)
                self._open_charges.setdefault(key, []).append(entry)
            self.spent_epsilon += request.epsilon
            self.spent_delta += request.delta
            self.history.append((label, request))
        return request

    def _pop_open_charge(self, request: PrivacyParams, label: str):
        """Pop the oldest open ledger row matching ``(label, request)``.

        Identical concurrent charges are interchangeable — their rows carry
        the same tenant, label, and cost — so oldest-first resolution is
        sound even when settles arrive out of order.
        """
        key = (label, request.epsilon, request.delta)
        entries = self._open_charges.get(key)
        if not entries:
            return None
        entry = entries.pop(0)
        if not entries:
            # repro-lint: allow[lock-discipline] reason=private helper; commit/refund enter it holding self._lock
            del self._open_charges[key]
        return entry

    def commit(self, request: PrivacyParams, *, label: str = "") -> None:
        """Promote the matching write-ahead ledger row to ``SPENT``.

        Called once the release actually happened (the noise was drawn and
        returned).  Without a bound ledger this is a no-op.  A settle
        failure is swallowed: the row stays ``PENDING``, which recovery
        already counts as spent — conservative, never a double-spend.
        """
        if self._ledger is None:
            return
        with self._lock:
            entry = self._pop_open_charge(request, label)
        if entry is not None:
            try:
                self._ledger.ledger_settle(entry, "SPENT")
            except StoreError:  # stays PENDING: still counted on recovery
                pass

    def refund(self, request: PrivacyParams, *, label: str = "") -> None:
        """Return a previously charged ``request`` to the budget.

        Only sound for a charge whose release provably **did not happen** —
        e.g. the mechanism raised before drawing any noise.  Callers reserve
        the budget with :meth:`charge` *before* executing, so a failed
        execution must hand the reservation back; refunding an actually
        released spend would violate the configured guarantee.

        With a bound ledger the matching write-ahead row is settled to
        ``VOIDED``.  If that settle fails the row stays ``PENDING`` and a
        later recovery counts it as spent — the budget is stranded durably
        even though this process got it back, which errs on the safe side.
        """
        with self._lock:
            self.spent_epsilon -= request.epsilon
            self.spent_delta -= request.delta
            if self.history and self.history[-1] == (label, request):
                self.history.pop()
            else:  # pragma: no cover - concurrent interleaving
                self.history.append((f"refund:{label}", request))
            entry = (
                self._pop_open_charge(request, label)
                if self._ledger is not None
                else None
            )
        if entry is not None:
            try:
                self._ledger.ledger_settle(entry, "VOIDED")
            except StoreError:  # stays PENDING: stranded, never double-spent
                pass

    def spent_by_label(self) -> dict:
        """In-memory spend attribution: ``{label: {epsilon, delta, count}}``.

        Aggregated from :attr:`history`, so refunded charges are excluded.
        The durable, restart-surviving equivalent is
        :meth:`~repro.engine.store.StateStore.ledger_by_label`.
        """
        out: dict = {}
        with self._lock:
            entries = list(self.history)
        for label, request in entries:
            bucket = out.setdefault(label, {"epsilon": 0.0, "delta": 0.0, "count": 0})
            bucket["epsilon"] += request.epsilon
            bucket["delta"] += request.delta
            bucket["count"] += 1
        return out

    def spend(self, request: PrivacyParams, *, label: str = "") -> PrivacyParams:
        """Record a spend of ``request`` and return it; raises if over budget.

        Kept for callers that already serialized their own check; delegates
        to the atomic :meth:`charge`.
        """
        return self.charge(request, label=label)
