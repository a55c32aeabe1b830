"""Serving above the request pool: coalescing, admission control, pickling.

What the serving layer must *not* change:

* **determinism** — the same seeded request produces the same answer
  through :meth:`Server.ask_many` and through the streaming line protocol;
  plans survive pickling (the durable store's format) exactly;
* **budget integrity** — N racing identical requests charge the tenant
  exactly once (coalescing), and a rejected request (backpressure, drain)
  charges nothing at all;
* **bounded queues** — with ``queue_depth`` set, the line protocol rejects
  with a ``retry_after`` hint instead of buffering without bound;
* **streaming** — a reply is written before the next input line is read.
"""

import io
import pickle
import threading

import numpy as np
import pytest

from repro.core.privacy import PrivacyParams
from repro.core.workload import Workload
from repro.engine import Planner, Server
from repro.exceptions import ReproError
from repro.workloads import all_range_queries_1d

PRIVACY = PrivacyParams(epsilon=0.5, delta=1e-4)

# A wedged coalescing future or a stalled stream would hang, not fail; the
# timeout marker (pytest-timeout in CI, conftest SIGALRM fallback locally)
# keeps this module diagnosable.
pytestmark = pytest.mark.timeout(300)

CELLS = 16


def _data(cells=CELLS):
    return np.arange(cells, dtype=float) * 2.0


# --------------------------------------------------------- pickle boundary
class TestPickleBoundary:
    def test_plan_roundtrips_and_executes_identically(self):
        planner = Planner()
        workload = all_range_queries_1d(CELLS)
        plan = planner.plan(workload, PRIVACY)
        clone = pickle.loads(pickle.dumps(plan))
        data = _data()
        original = plan.execute(
            workload, data, PRIVACY, random_state=np.random.default_rng(7)
        )
        copied = clone.execute(
            workload, data, PRIVACY, random_state=np.random.default_rng(7)
        )
        np.testing.assert_array_equal(original.answers, copied.answers)
        np.testing.assert_array_equal(original.estimate, copied.estimate)

    def test_unpickled_mechanism_still_thread_safe(self):
        # __setstate__ must rebuild the dropped lock, not leave None behind.
        planner = Planner()
        plan = planner.plan(all_range_queries_1d(8), PRIVACY)
        clone = pickle.loads(pickle.dumps(plan))
        data = np.ones(8)

        def work():
            clone.execute(
                all_range_queries_1d(8),
                data,
                PRIVACY,
                random_state=np.random.default_rng(0),
            )

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()


# -------------------------------------------------------------- coalescing
class TestCoalescing:
    def test_racing_identical_requests_charge_once(self):
        burst = 8
        server = Server(
            PrivacyParams(1.0, 1e-4), data=_data(), workers=burst, random_state=0
        )
        session = server.open_session("t")
        real_ask = session.ask
        leader_entered = threading.Event()
        release_leader = threading.Event()

        def gated_ask(request, **options):
            leader_entered.set()
            assert release_leader.wait(timeout=60)
            return real_ask(request, **options)

        session.ask = gated_ask
        workload = all_range_queries_1d(CELLS)
        answers = [None] * burst
        threads = [
            threading.Thread(
                target=lambda i=i: answers.__setitem__(
                    i, server.ask("t", workload, epsilon=0.4)
                )
            )
            for i in range(burst)
        ]
        for thread in threads:
            thread.start()
        assert leader_entered.wait(timeout=60)
        # Hold the leader until every other request has attached to it.
        deadline = threading.Event()
        for _ in range(600):
            if server.stats()["coalesce"]["followers"] == burst - 1:
                break
            deadline.wait(0.05)
        release_leader.set()
        for thread in threads:
            thread.join()
        server.close()
        stats = server.stats()
        assert stats["coalesce"] == {"leaders": 1, "followers": burst - 1}
        # One execution, one release, one debit — fanned out to the burst.
        assert session.accountant.spent_epsilon == pytest.approx(0.4)
        assert session.releases == 1
        reference = answers[0]
        for answer in answers[1:]:
            assert answer is reference

    def test_explicit_seed_or_data_never_coalesces(self):
        server = Server(
            PrivacyParams(5.0, 1e-3), data=_data(), workers=2, random_state=0
        )
        workload = Workload.identity(CELLS)
        first = server.ask("t", workload, epsilon=0.5, data=_data(), random_state=1)
        second = server.ask("t", workload, epsilon=0.5, data=_data(), random_state=2)
        server.close()
        stats = server.stats()
        assert stats["coalesce"] == {"leaders": 0, "followers": 0}
        # Independent draws were demanded and delivered.
        assert not np.array_equal(first.answers, second.answers)

    def test_coalesce_false_forces_independent_execution(self):
        server = Server(
            PrivacyParams(5.0, 1e-3), data=_data(), workers=2, random_state=0
        )
        server.ask("t", Workload.identity(CELLS), epsilon=0.5, coalesce=False)
        server.close()
        assert server.stats()["coalesce"]["leaders"] == 0


# ------------------------------------------------- backpressure and draining
class _ReplyWriter(io.StringIO):
    """An ``out`` stream that signals once a whole reply line is written."""

    def __init__(self):
        super().__init__()
        self.replied = threading.Event()

    def write(self, text):
        written = super().write(text)
        if "\n" in text:
            self.replied.set()
        return written


class TestAdmissionControl:
    LINES = [
        '{"tenant": "a", "sql": "SELECT COUNT(*) FROM t GROUP BY color"}',
        '{"tenant": "b", "sql": "SELECT COUNT(*) FROM t GROUP BY color"}',
        '{"tenant": "c", "sql": "SELECT COUNT(*) FROM t GROUP BY color"}',
    ]

    @staticmethod
    def _server(**overrides):
        from repro.relational.relation import Relation
        from repro.relational.vectorize import infer_schema, sample_relation

        schema = infer_schema(
            Relation({"color": ["red", "blue"] * 8}), {"color": "categorical"}
        )
        relation = sample_relation(schema, 200, random_state=0)
        options = dict(
            schema=schema,
            data=relation,
            workers=2,
            default_epsilon=0.5,
            random_state=0,
        )
        options.update(overrides)
        return Server(PrivacyParams(2.0, 1e-4), **options)

    def test_backpressure_rejects_and_charges_nothing(self):
        server = self._server(queue_depth=0)
        replies = server.serve(self.LINES)
        server.close()
        assert len(replies) == 3
        for reply in replies:
            assert reply["rejected"] is True
            assert reply["retry_after"] > 0
        # No session was opened, no budget touched, nothing executed.
        assert server.stats()["spent"] == {}
        assert server.stats()["answers_served"] == 0

    def test_admitted_requests_serve_normally(self):
        server = self._server(queue_depth=16)
        replies = server.serve(self.LINES)
        server.close()
        assert len(replies) == 3
        for reply in replies:
            assert "rejected" not in reply
            assert reply["spent"] is not None
        assert set(server.stats()["spent"]) == {"a", "b", "c"}

    def test_negative_queue_depth_is_refused(self):
        with pytest.raises(ReproError, match="queue_depth"):
            Server(PRIVACY, queue_depth=-1)

    def test_streamed_input_matches_list_input(self):
        lines = [
            '{"tenant": "a", "sql": "SELECT COUNT(*) FROM t GROUP BY color"}',
            "{\"tenant\": \"a\", \"sql\": \"SELECT COUNT(*) FROM t WHERE color = 'red'\"}",
        ]
        listed_server = self._server()
        listed = listed_server.serve(lines)
        listed_server.close()
        streamed_server = self._server(queue_depth=8)
        streamed = streamed_server.serve(line for line in lines)
        streamed_server.close()
        assert [reply["answers"] for reply in streamed] == [
            reply["answers"] for reply in listed
        ]
        # Per-tenant ordering held: the follow-up reused the release.
        assert streamed[1]["served_from_release"]

    def test_replies_before_reading_the_next_line(self):
        """A live input stream gets each reply before its next line exists."""
        out = _ReplyWriter()
        replied_first = []

        def live():
            yield self.LINES[0]
            replied_first.append(out.replied.wait(timeout=10))
            yield self.LINES[1]

        server = self._server()
        replies = server.serve(live(), out=out)
        server.close()
        assert replied_first == [True]
        assert [reply["tenant"] for reply in replies] == ["a", "b"]
        assert len(out.getvalue().splitlines()) == 2

    def test_stop_drains_without_executing(self):
        stop = threading.Event()
        stop.set()
        server = self._server()
        replies = server.serve(self.LINES, stop=stop)
        server.close()
        for reply in replies:
            assert reply["rejected"] is True
            assert "shutting down" in reply["error"]
        assert server.stats()["spent"] == {}

    def test_stop_mid_stream_answers_started_and_rejects_later(self):
        stop = threading.Event()
        out = _ReplyWriter()

        def live():
            yield self.LINES[0]
            assert out.replied.wait(timeout=10)
            stop.set()
            yield from self.LINES[1:]

        server = self._server()
        replies = server.serve(live(), out=out, stop=stop)
        server.close()
        assert "rejected" not in replies[0] and replies[0]["spent"] is not None
        for reply in replies[1:]:
            assert reply["rejected"] is True
            assert "shutting down" in reply["error"]
        assert set(server.stats()["spent"]) == {"a"}

    def test_stage_stats_populated(self):
        server = self._server()
        # The cold first request builds its plan: a plan_build, not a lookup.
        server.serve(self.LINES[:1])
        cold = server.stats()["stages"]
        assert cold["plan_build"]["count"] == 1
        assert "plan_lookup" not in cold
        # The follow-up reuses tenant a's release, exercising the derive stage.
        lines = self.LINES[1:] + [
            "{\"tenant\": \"a\", \"sql\": \"SELECT COUNT(*) FROM t WHERE color = 'red'\"}",
        ]
        server.serve(lines)
        server.close()
        stages = server.stats()["stages"]
        # Tenants b and c repeat a's shape and find its plan warm.
        assert stages["plan_build"]["count"] == 1
        assert stages["plan_lookup"]["count"] == 2
        for stage in ("queue_wait", "plan_lookup", "plan_build", "execute", "derive"):
            assert stage in stages, stages
            assert stages[stage]["count"] >= 1
            assert stages[stage]["mean_ms"] >= 0.0
            assert stages[stage]["p95_ms"] >= 0.0
