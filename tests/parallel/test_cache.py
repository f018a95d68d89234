"""Content-addressed run cache: keys, purity rules, store semantics."""

import json
import os

import pytest

from repro.collectives.types import CollectiveOp
from repro.config.parameters import TorusShape
from repro.harness.runners import run_collective, torus_platform
from repro.parallel.cache import (
    PAYLOAD_SCHEMA,
    RunCache,
    collective_cache_key,
    payload_to_result,
    result_to_payload,
)
from repro.parallel.executor import ParallelExecutor, RunPoint


def _spec():
    return torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4)


KB64 = 64 * 1024.0


class TestCacheKey:
    def test_same_point_same_key(self):
        k1 = collective_cache_key(_spec(), CollectiveOp.ALL_REDUCE, KB64)
        k2 = collective_cache_key(_spec(), CollectiveOp.ALL_REDUCE, KB64)
        assert k1 == k2
        assert len(k1) == 64  # sha256 hexdigest

    def test_key_varies_with_inputs(self):
        base = collective_cache_key(_spec(), CollectiveOp.ALL_REDUCE, KB64)
        assert collective_cache_key(
            _spec(), CollectiveOp.ALL_GATHER, KB64) != base
        assert collective_cache_key(
            _spec(), CollectiveOp.ALL_REDUCE, 2 * KB64) != base
        assert collective_cache_key(
            _spec(), CollectiveOp.ALL_REDUCE, KB64, backend="detailed") != base
        other = torus_platform(TorusShape(2, 4, 2), preferred_set_splits=4)
        assert collective_cache_key(
            other, CollectiveOp.ALL_REDUCE, KB64) != base

    def test_config_change_invalidates(self):
        """Any simulated parameter lands in the key via the config repr."""
        from dataclasses import replace

        spec = _spec()
        base = collective_cache_key(spec, CollectiveOp.ALL_REDUCE, KB64)
        spec.config = replace(
            spec.config,
            system=replace(spec.config.system, preferred_set_splits=8))
        assert collective_cache_key(
            spec, CollectiveOp.ALL_REDUCE, KB64) != base

    def test_impure_specs_are_uncacheable(self):
        from dataclasses import replace

        from repro.config.parameters import TransportConfig
        from repro.network.fault_schedule import FaultSchedule
        from repro.resilience.watchdog import WatchdogConfig

        faulty = _spec()
        faulty.fault_schedule = FaultSchedule([])
        assert collective_cache_key(faulty, CollectiveOp.ALL_REDUCE, KB64) is None

        watched = _spec()
        watched.watchdog = WatchdogConfig()
        assert collective_cache_key(
            watched, CollectiveOp.ALL_REDUCE, KB64) is None

        custom = _spec()
        custom.backend_factory = lambda e, n, s: None
        assert collective_cache_key(custom, CollectiveOp.ALL_REDUCE, KB64) is None

        transported = _spec()
        transported.config = replace(
            transported.config,
            system=replace(transported.config.system,
                           transport=TransportConfig()))
        assert collective_cache_key(
            transported, CollectiveOp.ALL_REDUCE, KB64) is None


class TestPayloadRoundtrip:
    def test_result_survives_roundtrip(self):
        result = run_collective(_spec(), CollectiveOp.ALL_REDUCE, KB64)
        key = collective_cache_key(_spec(), CollectiveOp.ALL_REDUCE, KB64)
        rebuilt = payload_to_result(
            json.loads(json.dumps(result_to_payload(result, key))))
        assert rebuilt.label == result.label
        assert rebuilt.op == result.op
        assert rebuilt.duration_cycles == result.duration_cycles
        assert rebuilt.num_npus == result.num_npus
        assert rebuilt.breakdown.as_dict() == result.breakdown.as_dict()
        assert rebuilt.system is None


class TestRunCache:
    def test_miss_then_hit(self, tmp_path):
        cache = RunCache(str(tmp_path))
        key = "a" * 64
        assert cache.get(key) is None
        cache.put(key, {"schema": PAYLOAD_SCHEMA, "key": key, "x": 1})
        assert cache.get(key)["x"] == 1
        assert cache.stats.as_dict() == {"hits": 1, "misses": 1,
                                         "stores": 1, "corrupt": 0}
        assert len(cache) == 1

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        """A truncated entry is a miss AND moves to corrupt/ (counted,
        surfaced in the summary line) so the evidence survives."""
        cache = RunCache(str(tmp_path))
        key = "b" * 64
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(os.path.join(str(tmp_path), f"{key}.json"), "w") as f:
            f.write("{truncated")
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        assert cache.stats.corrupt == 1
        quarantined = os.path.join(str(tmp_path), "corrupt", f"{key}.json")
        assert os.path.exists(quarantined)
        assert not os.path.exists(os.path.join(str(tmp_path), f"{key}.json"))
        assert "1 corrupt quarantined" in cache.summary()
        # The slot is rewritable and serves normally afterwards.
        cache.put(key, {"schema": PAYLOAD_SCHEMA, "key": key, "x": 2})
        assert cache.get(key)["x"] == 2

    def test_schema_mismatch_is_a_plain_miss(self, tmp_path):
        """An old-schema entry is stale, not damaged: no quarantine."""
        cache = RunCache(str(tmp_path))
        key = "c" * 64
        cache.put(key, {"schema": PAYLOAD_SCHEMA + 1, "key": key})
        assert cache.get(key) is None
        assert cache.stats.corrupt == 0
        assert os.path.exists(os.path.join(str(tmp_path), f"{key}.json"))

    def test_schema_1_entry_is_a_miss_not_a_crash(self, tmp_path):
        """A schema-1 payload (raw ready-queue delays, no count) is
        re-simulated and overwritten, never rebuilt into a result."""
        key = collective_cache_key(_spec(), CollectiveOp.ALL_REDUCE, KB64)
        fresh = run_collective(_spec(), CollectiveOp.ALL_REDUCE, KB64)
        old = result_to_payload(fresh, key)
        old["schema"] = 1
        del old["breakdown"]["ready_queue_count"]
        old["breakdown"]["ready_queue_delays"] = [0.0] * 4
        RunCache(str(tmp_path)).put(key, old)
        executor = ParallelExecutor(jobs=1, cache=RunCache(str(tmp_path)))
        point = RunPoint(builder=_spec, op=CollectiveOp.ALL_REDUCE, size_bytes=KB64)
        [result] = executor.run_points([point])
        assert executor.cache.stats.as_dict() == {"hits": 0, "misses": 1,
                                                  "stores": 1, "corrupt": 0}
        assert result.duration_cycles == fresh.duration_cycles
        assert result.breakdown.as_dict() == fresh.breakdown.as_dict()
        assert RunCache(str(tmp_path)).get(key)["schema"] == PAYLOAD_SCHEMA

    def test_entry_bytes_match_streamed_encoder(self, tmp_path):
        """``put`` encodes with one ``json.dumps`` (the C encoder); a
        real payload's file holds exactly the bytes the streaming
        ``json.dump`` writes, so existing cache files stay valid."""
        import io

        key = collective_cache_key(_spec(), CollectiveOp.ALL_REDUCE, KB64)
        payload = result_to_payload(
            run_collective(_spec(), CollectiveOp.ALL_REDUCE, KB64), key)
        streamed = io.StringIO()
        json.dump(payload, streamed, sort_keys=True)
        streamed.write("\n")
        RunCache(str(tmp_path)).put(key, payload)
        with open(os.path.join(str(tmp_path), f"{key}.json"), "rb") as f:
            assert f.read() == streamed.getvalue().encode()

    def test_wrong_key_entry_is_quarantined(self, tmp_path):
        cache = RunCache(str(tmp_path))
        key = "c" * 64
        cache.put(key, {"schema": PAYLOAD_SCHEMA, "key": "d" * 64})
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1

    def test_needs_directory(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            RunCache("")


class TestConcurrentClients:
    """Two processes sharing one cache directory must never surface an
    exception to either — races resolve to at-most-one count."""

    def test_namespace_scopes_entries(self, tmp_path):
        a = RunCache(str(tmp_path), namespace="team-a")
        b = RunCache(str(tmp_path), namespace="team-b")
        key = "a" * 64
        a.put(key, {"schema": PAYLOAD_SCHEMA, "key": key, "x": 1})
        assert a.get(key)["x"] == 1
        assert b.get(key) is None  # isolated roots
        assert os.path.isdir(os.path.join(str(tmp_path), "team-a"))
        assert a.directory != b.directory

    @pytest.mark.parametrize("bad", ["", ".", "..", "a/b", ".hidden"])
    def test_bad_namespace_rejected(self, tmp_path, bad):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            RunCache(str(tmp_path), namespace=bad)

    def test_concurrent_same_key_put_is_atomic(self, tmp_path):
        """Interleaved writers of one key never leave a torn entry: the
        per-pid+sequence temp names keep them from clobbering each
        other's in-progress file, and the final rename is atomic."""
        a = RunCache(str(tmp_path))
        b = RunCache(str(tmp_path))
        key = "d" * 64
        a.put(key, {"schema": PAYLOAD_SCHEMA, "key": key, "writer": "a"})
        b.put(key, {"schema": PAYLOAD_SCHEMA, "key": key, "writer": "b"})
        entry = RunCache(str(tmp_path)).get(key)
        assert entry["writer"] in ("a", "b")  # last writer wins, whole
        leftovers = [n for n in os.listdir(str(tmp_path))
                     if n.endswith(".tmp")]
        assert leftovers == []

    def test_corrupt_race_counts_once_and_never_raises(self, tmp_path):
        """Two racing readers notice the same damaged entry; exactly one
        quarantines (and counts) it, the loser sees a plain miss."""
        first = RunCache(str(tmp_path))
        second = RunCache(str(tmp_path))
        key = "e" * 64
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(os.path.join(str(tmp_path), f"{key}.json"), "w") as f:
            f.write("{torn")
        # Both caches have "seen" the damage; the second's move runs
        # after the first already won the os.replace race.
        assert first.get(key) is None
        second._quarantine_corrupt(key)  # the losing racer's attempt
        assert first.stats.corrupt == 1
        assert second.stats.corrupt == 0
        assert os.path.exists(
            os.path.join(str(tmp_path), "corrupt", f"{key}.json"))

    def test_unwritable_quarantine_dir_stays_a_plain_miss(self, tmp_path):
        """A cache root where corrupt/ cannot be created degrades to a
        miss instead of raising at the caller."""
        cache = RunCache(str(tmp_path))
        key = "f" * 64
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(os.path.join(str(tmp_path), f"{key}.json"), "w") as f:
            f.write("{torn")
        with open(os.path.join(str(tmp_path), "corrupt"), "w") as f:
            f.write("not a directory")  # makedirs will fail
        assert cache.get(key) is None  # no exception surfaces
        assert cache.stats.corrupt == 0
        assert cache.stats.misses == 1
