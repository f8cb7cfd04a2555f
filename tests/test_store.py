"""The content-addressed artifact store: envelope integrity and both backends.

The load-bearing property under test: a corrupted or truncated artifact is
*detected* (payload hash re-verified on every read), treated as a cache miss,
evicted, and rewritten by the next save -- it is never returned as a result.
"""

import hashlib
import json
import os

import pytest

from repro.store import (
    Artifact,
    ArtifactIntegrityError,
    ArtifactStore,
    FileStore,
    MemoryStore,
    decode_artifact,
    decode_header,
    encode_artifact,
    open_store,
    validate_address,
)

KEY = hashlib.sha256(b"some stage inputs").hexdigest()
KEY2 = hashlib.sha256(b"other stage inputs").hexdigest()


class TestEnvelope:
    def test_roundtrip_preserves_payload_and_metadata(self):
        blob = encode_artifact("harden", KEY, b"\x00\x01payload\xff", "pickle")
        artifact = decode_artifact(blob, expect_stage="harden", expect_key=KEY)
        assert artifact.payload == b"\x00\x01payload\xff"
        assert artifact.stage == "harden"
        assert artifact.key == KEY
        assert artifact.codec == "pickle"
        assert artifact.size == len(b"\x00\x01payload\xff")
        assert artifact.sha256 == hashlib.sha256(b"\x00\x01payload\xff").hexdigest()

    def test_header_is_one_json_line(self):
        blob = encode_artifact("plan", KEY, b"{}", "json")
        header, offset = decode_header(blob)
        assert blob[:offset].endswith(b"\n")
        assert json.loads(blob[: offset - 1]) == header

    def test_truncated_payload_is_rejected(self):
        blob = encode_artifact("campaign", KEY, b"0123456789", "json")
        with pytest.raises(ArtifactIntegrityError, match="truncated"):
            decode_artifact(blob[:-3])

    def test_flipped_payload_byte_is_rejected(self):
        blob = bytearray(encode_artifact("campaign", KEY, b"0123456789", "json"))
        blob[-1] ^= 0x40
        with pytest.raises(ArtifactIntegrityError, match="hash mismatch"):
            decode_artifact(bytes(blob))

    def test_unreadable_header_is_rejected(self):
        with pytest.raises(ArtifactIntegrityError):
            decode_artifact(b"not json\npayload")
        with pytest.raises(ArtifactIntegrityError):
            decode_artifact(b"no header newline at all")

    def test_misfiled_entry_cannot_masquerade(self):
        blob = encode_artifact("harden", KEY, b"data", "pickle")
        with pytest.raises(ArtifactIntegrityError, match="stage mismatch"):
            decode_artifact(blob, expect_stage="campaign", expect_key=KEY)
        with pytest.raises(ArtifactIntegrityError, match="key mismatch"):
            decode_artifact(blob, expect_stage="harden", expect_key=KEY2)

    def test_invalid_addresses_are_rejected(self):
        with pytest.raises(ValueError):
            validate_address("../evil", KEY)
        with pytest.raises(ValueError):
            validate_address("harden", "not-a-hex-digest")
        with pytest.raises(ValueError):
            validate_address("harden", "ABCDEF00")  # upper case is not canonical


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    return FileStore(tmp_path / "cache")


def _corrupt(store, stage, key):
    """Flip one payload byte of a stored artifact, backend-appropriately."""
    if isinstance(store, MemoryStore):
        blob = bytearray(store.blobs[(stage, key)])
        blob[-1] ^= 0x01
        store.blobs[(stage, key)] = bytes(blob)
    else:
        path = store.root / stage / key[:2] / key
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))


def _truncate(store, stage, key):
    if isinstance(store, MemoryStore):
        store.blobs[(stage, key)] = store.blobs[(stage, key)][:-4]
    else:
        path = store.root / stage / key[:2] / key
        path.write_bytes(path.read_bytes()[:-4])


class TestStoreBackends:
    """Behavioural parity between MemoryStore and FileStore."""

    def test_implements_the_protocol(self, store):
        assert isinstance(store, ArtifactStore)

    def test_save_load_roundtrip(self, store):
        saved = store.save("harden", KEY, b"payload bytes", "pickle")
        assert saved.payload is None  # save returns header metadata only
        loaded = store.load("harden", KEY)
        assert loaded is not None
        assert loaded.payload == b"payload bytes"
        assert loaded.sha256 == saved.sha256
        assert store.hits == 1

    def test_absent_entry_is_a_miss(self, store):
        assert store.load("harden", KEY) is None
        assert store.misses == 1

    def test_entries_lists_headers_without_payloads(self, store):
        store.save("harden", KEY, b"aa", "pickle")
        store.save("plan", KEY2, b"bbbb", "json")
        listed = sorted(store.entries(), key=lambda a: a.stage)
        assert [(a.stage, a.key, a.size, a.payload) for a in listed] == [
            ("harden", KEY, 2, None),
            ("plan", KEY2, 4, None),
        ]

    def test_corrupted_artifact_is_miss_then_rewritten(self, store):
        store.save("campaign", KEY, b"real counters", "json")
        _corrupt(store, "campaign", KEY)
        assert store.load("campaign", KEY) is None  # never returned corrupt
        assert store.integrity_failures == 1
        # The bad entry was evicted: a fresh save fully replaces it...
        store.save("campaign", KEY, b"real counters", "json")
        loaded = store.load("campaign", KEY)
        assert loaded is not None and loaded.payload == b"real counters"

    def test_truncated_artifact_is_miss_then_rewritten(self, store):
        store.save("harden", KEY, b"netlist pickle bytes", "pickle")
        _truncate(store, "harden", KEY)
        assert store.load("harden", KEY) is None
        assert store.integrity_failures == 1
        store.save("harden", KEY, b"netlist pickle bytes", "pickle")
        loaded = store.load("harden", KEY)
        assert loaded is not None and loaded.payload == b"netlist pickle bytes"

    def test_delete(self, store):
        store.save("report", KEY, b"{}", "json")
        assert store.delete("report", KEY) is True
        assert store.delete("report", KEY) is False
        assert store.load("report", KEY) is None

    def test_clear_removes_everything(self, store):
        store.save("harden", KEY, b"a", "pickle")
        store.save("plan", KEY2, b"b", "json")
        assert store.clear() == 2
        assert list(store.entries()) == []

    def test_gc_sweeps_corrupt_and_expired(self, store):
        store.save("harden", KEY, b"fresh", "pickle")
        store.save("campaign", KEY2, b"rotten", "json")
        _corrupt(store, "campaign", KEY2)
        stats = store.gc()
        assert stats["removed_corrupt"] == 1
        assert stats["kept"] == 1
        # Expiry: everything is younger than a day, nothing goes...
        assert store.gc(max_age_days=1.0)["removed_expired"] == 0
        # ...and a zero-age cutoff expires the survivor.
        stats = store.gc(max_age_days=0.0)
        assert stats["removed_expired"] == 1
        assert list(store.entries()) == []

    @pytest.mark.parametrize("age", [-1.0, -1e-9, float("nan"), float("inf"), float("-inf")])
    def test_gc_rejects_a_negative_or_non_finite_age(self, store, age):
        store.save("harden", KEY, b"fresh", "pickle")
        with pytest.raises(ValueError, match="max_age_days"):
            store.gc(max_age_days=age)
        assert [artifact.key for artifact in store.entries()] == [KEY]


class TestFileStore:
    def test_layout_is_sharded_by_key_prefix(self, tmp_path):
        store = FileStore(tmp_path / "cache")
        store.save("harden", KEY, b"x", "pickle")
        assert (tmp_path / "cache" / "harden" / KEY[:2] / KEY).is_file()
        assert (tmp_path / "cache" / "store.json").is_file()

    def test_no_temp_files_survive_a_save(self, tmp_path):
        store = FileStore(tmp_path / "cache")
        store.save("harden", KEY, b"x" * 4096, "pickle")
        leftovers = [p for p in (tmp_path / "cache").rglob("*.tmp")]
        assert leftovers == []

    def test_gc_sweeps_leftover_temp_files(self, tmp_path):
        store = FileStore(tmp_path / "cache")
        store.save("harden", KEY, b"x", "pickle")
        shard = tmp_path / "cache" / "harden" / KEY[:2]
        (shard / f"{KEY}.123.tmp").write_bytes(b"interrupted write")
        stats = store.gc()
        assert stats["removed_tmp"] == 1
        assert stats["kept"] == 1
        assert store.load("harden", KEY) is not None

    def test_persists_across_instances(self, tmp_path):
        FileStore(tmp_path / "cache").save("harden", KEY, b"persisted", "pickle")
        reopened = FileStore(tmp_path / "cache")
        loaded = reopened.load("harden", KEY)
        assert loaded is not None and loaded.payload == b"persisted"

    def test_corrupt_file_is_unlinked_on_load(self, tmp_path):
        store = FileStore(tmp_path / "cache")
        store.save("harden", KEY, b"data", "pickle")
        _truncate(store, "harden", KEY)
        assert store.load("harden", KEY) is None
        assert not (tmp_path / "cache" / "harden" / KEY[:2] / KEY).exists()

    def test_clear_keeps_the_store_usable(self, tmp_path):
        store = FileStore(tmp_path / "cache")
        store.save("harden", KEY, b"a", "pickle")
        store.clear()
        store.save("plan", KEY2, b"b", "json")
        assert store.load("plan", KEY2).payload == b"b"

    def test_open_store_returns_a_file_store(self, tmp_path):
        store = open_store(tmp_path / "cache")
        assert isinstance(store, FileStore)

    def test_foreign_files_in_root_are_ignored(self, tmp_path):
        store = FileStore(tmp_path / "cache")
        (tmp_path / "cache" / "README").write_text("not an artifact\n")
        store.save("harden", KEY, b"x", "pickle")
        assert [a.stage for a in store.entries()] == ["harden"]
        assert store.gc()["kept"] == 1


def _stress_writer(root, key, writer_id, rounds):
    """One competing writer: repeatedly save distinct payloads to one key."""
    store = FileStore(root)
    for round_no in range(rounds):
        payload = bytes([writer_id]) * 2048 + f":{writer_id}:{round_no}".encode()
        store.save("harden", key, payload, "pickle")


class TestFileStoreMultiWriter:
    """Concurrent writers against one FileStore (the scfi serve scenario).

    Atomic same-directory replace plus per-writer temp names (the pid is in
    the mkstemp prefix) mean a reader can only ever observe some writer's
    *complete* envelope -- never a torn mix -- and no temp files survive.
    """

    def test_concurrent_writers_never_tear_a_read(self, tmp_path):
        import multiprocessing

        root = tmp_path / "cache"
        store = FileStore(root)
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        writers = [
            context.Process(target=_stress_writer, args=(root, KEY, writer_id, 25))
            for writer_id in range(4)
        ]
        for process in writers:
            process.start()
        observed = 0
        try:
            # Read concurrently with the writers; every successful load must
            # be one writer's complete payload (leader byte repeated 2048x).
            while any(process.is_alive() for process in writers):
                artifact = store.load("harden", KEY)
                if artifact is not None:
                    observed += 1
                    leader = artifact.payload[0]
                    assert leader in range(4)
                    assert artifact.payload[:2048] == bytes([leader]) * 2048
        finally:
            for process in writers:
                process.join(30)
        assert all(process.exitcode == 0 for process in writers)
        final = store.load("harden", KEY)
        assert final is not None and final.payload[:2048] == bytes([final.payload[0]]) * 2048
        assert list(root.rglob("*.tmp")) == []

    def test_tempfile_names_are_writer_unique(self, tmp_path, monkeypatch):
        """The mkstemp prefix embeds the pid, so two processes interrupted
        mid-write can never race on one temp name."""
        import repro.store.filestore as filestore_module

        seen = {}
        real_mkstemp = filestore_module.tempfile.mkstemp

        def spying_mkstemp(*args, **kwargs):
            seen.update(kwargs)
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr(filestore_module.tempfile, "mkstemp", spying_mkstemp)
        FileStore(tmp_path / "cache").save("harden", KEY, b"x", "pickle")
        assert f".{os.getpid()}." in seen["prefix"]
