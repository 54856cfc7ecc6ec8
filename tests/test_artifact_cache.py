"""Tests for the persistent on-disk stage-artifact cache."""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path

import pytest

from repro.experiments.artifact_cache import (
    CACHE_VERSION,
    StageCache,
    cache_enabled,
    default_cache_dir,
)


def _key(name: str = "s27") -> str:
    return hashlib.sha256(name.encode()).hexdigest()


class TestEnvironment:
    def test_cache_enabled_default_and_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLOW_CACHE", raising=False)
        assert cache_enabled()
        for off in ("0", "off", "no"):
            monkeypatch.setenv("REPRO_FLOW_CACHE", off)
            assert not cache_enabled()
        monkeypatch.setenv("REPRO_FLOW_CACHE", "1")
        assert cache_enabled()

    def test_cache_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
        assert default_cache_dir() == tmp_path / "x"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_dir() == Path(
            default_cache_dir()).resolve()  # repo-root default is absolute


class TestArtifactCache:
    def test_roundtrip(self, tmp_path):
        cache = StageCache(tmp_path)
        key = _key()
        assert cache.load(key) is None
        cache.store(key, {"rows": [1, 2, 3]})
        assert cache.load(key) == {"rows": [1, 2, 3]}

    def test_entries_are_sharded_by_prefix(self, tmp_path):
        cache = StageCache(tmp_path)
        key = _key()
        cache.store(key, "payload")
        assert (cache.root / key[:2] / f"{key}.pkl").exists()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = StageCache(tmp_path)
        key = _key()
        cache.store(key, "payload")
        (cache.root / key[:2] / f"{key}.pkl").write_bytes(b"\x80garbage")
        assert cache.load(key) is None

    def test_store_is_best_effort(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        cache = StageCache(target / "sub")  # mkdir will fail
        with pytest.warns(RuntimeWarning, match="stage cache write") as rec:
            cache.store(_key(), "payload")  # must not raise
            cache.store(_key("c17"), "payload")
        assert len(rec) == 1  # one warning per store instance
        assert str(cache.root) in str(rec[0].message)
        assert cache.load(_key()) is None

    def test_no_stray_tmp_files_after_store(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store(_key(), list(range(100)))
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []


class TestStageCache:
    def test_namespaced_by_global_version(self, tmp_path):
        cache = StageCache(tmp_path)
        assert cache.root == tmp_path / f"v{CACHE_VERSION}"
        key = _key()
        cache.store(key, "artifact")
        assert (tmp_path / f"v{CACHE_VERSION}" / key[:2]
                / f"{key}.pkl").exists()
        assert cache.load(key) == "artifact"

    def test_version_bump_orphans_old_entries(self, tmp_path):
        key = _key()
        old = tmp_path / "v0" / key[:2] / f"{key}.pkl"
        old.parent.mkdir(parents=True)
        old.write_bytes(pickle.dumps("stale"))
        assert StageCache(tmp_path).load(key) is None

    def test_default_root_follows_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert StageCache().root == tmp_path / "env" / f"v{CACHE_VERSION}"
