"""Cache shipping: ``export_store``/``import_store`` (scfi cache export/import).

The load-bearing property: an imported entry is only accepted after its
envelope re-verifies -- payload SHA-256 recomputed, header address matched
against the member name -- so a corrupt or mis-filed tar member costs at most
a recompute, never a wrong cached result.
"""

import hashlib
import io
import tarfile

import pytest

from repro.cli.main import main as scfi_main
from repro.store import FileStore, MemoryStore
from repro.store.transfer import export_store, import_store

KEY = hashlib.sha256(b"alpha").hexdigest()
KEY2 = hashlib.sha256(b"beta").hexdigest()
KEY3 = hashlib.sha256(b"gamma").hexdigest()


def _seeded_store():
    store = MemoryStore()
    store.save("harden", KEY, b"net:" + b"\x00\x01" * 64, "pickle")
    store.save("campaign", KEY2, b'{"counters": [1, 2, 3]}', "json")
    store.save("result", KEY3, b'{"spec_hash": "abc"}', "json")
    return store


class TestExport:
    def test_members_named_stage_slash_key(self, tmp_path):
        tar_path = tmp_path / "cache.tgz"
        stats = export_store(_seeded_store(), tar_path)
        assert stats["exported"] == 3 and stats["skipped"] == 0
        with tarfile.open(tar_path) as archive:
            names = sorted(member.name for member in archive)
        assert names == sorted([f"harden/{KEY}", f"campaign/{KEY2}", f"result/{KEY3}"])

    def test_no_tmp_left_behind(self, tmp_path):
        export_store(_seeded_store(), tmp_path / "cache.tgz")
        assert list(tmp_path.glob("*.tmp")) == []


class TestImportRoundTrip:
    def test_payload_codec_and_created_survive(self, tmp_path):
        source = _seeded_store()
        original = source.load("harden", KEY)
        tar_path = tmp_path / "cache.tgz"
        export_store(source, tar_path)

        target = MemoryStore()
        stats = import_store(target, tar_path)
        assert stats["imported"] == 3 and stats["skipped"] == 0
        loaded = target.load("harden", KEY)
        assert loaded.payload == original.payload
        assert loaded.codec == original.codec
        assert loaded.sha256 == original.sha256

    def test_round_trip_into_file_store(self, tmp_path):
        tar_path = tmp_path / "cache.tgz"
        export_store(_seeded_store(), tar_path)
        target = FileStore(tmp_path / "imported")
        assert import_store(target, tar_path)["imported"] == 3
        assert target.load("campaign", KEY2).payload == b'{"counters": [1, 2, 3]}'


def _repack_with(tar_path, out_path, mutate):
    """Copy a store tarball, letting ``mutate(name, blob)`` rewrite members."""
    with tarfile.open(tar_path) as src, tarfile.open(out_path, "w:gz") as dst:
        for member in src:
            blob = src.extractfile(member).read()
            name, blob = mutate(member.name, blob)
            info = tarfile.TarInfo(name=name)
            info.size = len(blob)
            dst.addfile(info, io.BytesIO(blob))


class TestImportVerifies:
    def test_corrupt_member_skipped_with_warning(self, tmp_path):
        tar_path = tmp_path / "cache.tgz"
        export_store(_seeded_store(), tar_path)
        bad_path = tmp_path / "corrupt.tgz"

        def flip_harden_payload(name, blob):
            if name.startswith("harden/"):
                # Flip a payload bit past the header line: the envelope's
                # stored SHA-256 no longer matches.
                body = bytearray(blob)
                body[-1] ^= 0xFF
                return name, bytes(body)
            return name, blob

        _repack_with(tar_path, bad_path, flip_harden_payload)
        target = MemoryStore()
        warnings = []
        stats = import_store(target, bad_path, warn=warnings.append)
        assert stats["imported"] == 2 and stats["skipped"] == 1
        assert target.load("harden", KEY) is None  # corrupt member kept out
        assert target.load("campaign", KEY2) is not None
        assert len(warnings) == 1 and "harden" in warnings[0]

    def test_misfiled_member_skipped(self, tmp_path):
        """A valid envelope under the wrong name must not import under it."""
        tar_path = tmp_path / "cache.tgz"
        export_store(_seeded_store(), tar_path)
        bad_path = tmp_path / "misfiled.tgz"

        def misfile(name, blob):
            if name.startswith("harden/"):
                return f"harden/{KEY2}", blob  # envelope says KEY, name says KEY2
            return name, blob

        _repack_with(tar_path, bad_path, misfile)
        warnings = []
        stats = import_store(MemoryStore(), bad_path, warn=warnings.append)
        assert stats["skipped"] == 1 and len(warnings) == 1

    def test_junk_member_name_skipped(self, tmp_path):
        tar_path = tmp_path / "cache.tgz"
        export_store(_seeded_store(), tar_path)
        bad_path = tmp_path / "junk.tgz"
        _repack_with(
            tar_path,
            bad_path,
            lambda name, blob: ("README" if name.startswith("result/") else name, blob),
        )
        stats = import_store(MemoryStore(), bad_path, warn=lambda _m: None)
        assert stats["imported"] == 2 and stats["skipped"] == 1


class TestCacheCli:
    def test_export_import_round_trip(self, tmp_path, capsys):
        source_dir = tmp_path / "src-cache"
        FileStore(source_dir).save("harden", KEY, b"payload", "pickle")
        tar_path = tmp_path / "shipped.tgz"
        assert scfi_main(["cache", "export", str(tar_path), "--cache-dir", str(source_dir)]) == 0
        target_dir = tmp_path / "dst-cache"
        assert scfi_main(["cache", "import", str(tar_path), "--cache-dir", str(target_dir)]) == 0
        assert FileStore(target_dir).load("harden", KEY).payload == b"payload"
        err = capsys.readouterr().err
        assert "exported 1" in err and "imported 1" in err

    def test_export_requires_a_path(self, tmp_path, capsys):
        assert scfi_main(["cache", "export", "--cache-dir", str(tmp_path / "c")]) == 2
        assert "path is required" in capsys.readouterr().err

    def test_import_missing_tar_fails_cleanly(self, tmp_path, capsys):
        rc = scfi_main(
            ["cache", "import", str(tmp_path / "absent.tgz"), "--cache-dir", str(tmp_path / "c")]
        )
        assert rc == 2
        assert "scfi cache import:" in capsys.readouterr().err
