"""Regression tests of the process-global degradation counter semantics
(`DEGRADATION`): snapshot/reset/delta_since behaviour and the
thread-safety the serving tier's metrics surface depends on."""

import threading

import pytest

from repro.batch.runtime import DEGRADATION, DegradationStats


@pytest.fixture()
def stats():
    return DegradationStats()


class TestBasics:
    def test_starts_at_zero_for_every_field(self, stats):
        snapshot = stats.snapshot()
        assert set(snapshot) == set(DegradationStats._FIELDS)
        assert all(v == 0 for v in snapshot.values())

    def test_record_accumulates(self, stats):
        stats.record("pool_timeouts")
        stats.record("pool_timeouts", 2)
        assert stats.snapshot()["pool_timeouts"] == 3

    def test_snapshot_is_a_copy_not_a_view(self, stats):
        before = stats.snapshot()
        stats.record("pool_errors")
        assert before["pool_errors"] == 0

    def test_reset_zeroes_everything(self, stats):
        stats.record("serial_fallbacks", 5)
        stats.reset()
        assert all(v == 0 for v in stats.snapshot().values())

    def test_global_instance_has_all_fields(self):
        assert set(DEGRADATION.snapshot()) == set(DegradationStats._FIELDS)


class TestDeltaSince:
    def test_reports_only_nonzero_increases(self, stats):
        before = stats.snapshot()
        stats.record("pool_retries", 2)
        stats.record("dead_pools")
        assert stats.delta_since(before) == {
            "pool_retries": 2,
            "dead_pools": 1,
        }

    def test_empty_when_nothing_happened(self, stats):
        before = stats.snapshot()
        assert stats.delta_since(before) == {}

    def test_consecutive_intervals_partition_events(self, stats):
        first_base = stats.snapshot()
        stats.record("publish_failures")
        second_base = stats.snapshot()
        stats.record("publish_failures", 3)
        assert stats.delta_since(first_base)["publish_failures"] == 4
        assert stats.delta_since(second_base)["publish_failures"] == 3

    def test_negative_deltas_after_reset_are_clamped_out(self, stats):
        stats.record("stale_attachments", 7)
        before = stats.snapshot()
        stats.reset()
        stats.record("reaped_segments")
        delta = stats.delta_since(before)
        assert "stale_attachments" not in delta  # went down, not up
        assert delta == {"reaped_segments": 1}


class TestThreadSafety:
    def test_concurrent_records_lose_no_increment(self, stats):
        """The serving tier records from worker threads while bulk calls
        record from the event-loop thread; every increment must land."""
        threads, per_thread = 8, 2_000

        def hammer():
            for _ in range(per_thread):
                stats.record("pool_errors")

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert stats.snapshot()["pool_errors"] == threads * per_thread

    def test_snapshots_under_concurrent_recording_are_consistent(self, stats):
        """A reader thread snapshotting mid-traffic must only ever see
        monotonically non-decreasing counts."""
        stop = threading.Event()
        seen = []

        def reader():
            while not stop.is_set():
                seen.append(stats.snapshot()["serial_fallbacks"])

        thread = threading.Thread(target=reader)
        thread.start()
        for _ in range(5_000):
            stats.record("serial_fallbacks")
        stop.set()
        thread.join()
        assert seen == sorted(seen)
        assert stats.snapshot()["serial_fallbacks"] == 5_000
