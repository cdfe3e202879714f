"""The query registry and the session memo (pipelines/analysis.py)."""

from __future__ import annotations

import os

import pytest

from documentprocessor_ray.pipelines import analysis as A


def _q(sf_dir):
    return sf_dir


class TestRegistry:
    def test_query_without_twin_raises(self):
        with pytest.raises(ValueError, match=r"no oracle twin for \['b'\]"):
            A.check_registry({"a": _q, "b": _q}, {"a": "SELECT 1"})

    def test_twin_without_query_raises(self):
        with pytest.raises(ValueError, match=r"no query for twin \['b'\]"):
            A.check_registry({"a": _q}, {"a": "SELECT 1", "b": "SELECT 2"})


class _Built:
    """A build function that counts its calls and returns the count."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.calls


@pytest.fixture
def memo(monkeypatch):
    monkeypatch.setattr(A, "_SESSION_MEMO", {})
    return A._session_memo


class TestSessionMemo:
    def test_consumer_builds_once_per_session(self, memo, tmp_path):
        build = _Built()
        assert memo("pairs", str(tmp_path), build) == 1
        assert memo("pairs", str(tmp_path), build) == 1
        assert build.calls == 1

    def test_builder_builds_on_every_call(self, memo, tmp_path):
        build = _Built()
        assert memo("pairs", str(tmp_path), build, fresh=True) == 1
        assert memo("pairs", str(tmp_path), build, fresh=True) == 2
        # a consumer then reuses the builder's newest entry
        assert memo("pairs", str(tmp_path), build) == 2
        assert build.calls == 2

    def test_sf_dirs_get_separate_entries(self, memo, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        build = _Built()
        assert memo("pairs", str(a), build) == 1
        assert memo("pairs", str(b), build) == 2
        # the same directory spelled another way is the same entry
        monkeypatch.chdir(tmp_path)
        assert memo("pairs", os.path.join(".", "b", ""), build) == 2
        assert build.calls == 2

    def test_kinds_get_separate_entries(self, memo, tmp_path):
        build = _Built()
        assert memo("bpe_merges", str(tmp_path), build) == 1
        assert memo("unigram_vocab", str(tmp_path), build) == 2
        assert memo("bpe_merges", str(tmp_path), build) == 1

    def test_new_session_rebuilds_and_drops_old_entries(
            self, memo, tmp_path, monkeypatch):
        build = _Built()
        monkeypatch.setattr(A, "_ray_session_key", lambda: "job-1")
        memo("pairs", str(tmp_path), build)
        memo("bpe_merges", str(tmp_path), build)
        monkeypatch.setattr(A, "_ray_session_key", lambda: "job-2")
        assert memo("pairs", str(tmp_path), build) == 3
        assert [k[2] for k in A._SESSION_MEMO] == ["job-2"]


class _Stop(Exception):
    pass


@pytest.mark.parametrize("query, kind, fresh", [
    ("ngram_jaccard_pairs", "ngram_pairs", True),
    ("bpe_merges", "bpe_merges", True),
    ("unigram_vocab", "unigram_vocab", True),
    ("wordpiece_merges", "wordpiece_merges", True),
    ("dedup_clusters", "ngram_pairs", False),
    ("bpe_encode", "bpe_merges", False),
    ("unigram_encode", "unigram_vocab", False),
    ("wordpiece_encode", "wordpiece_merges", False),
    ("ppl_buckets", "trigram_backoff", False),
])
def test_only_builder_queries_build_fresh(query, kind, fresh, monkeypatch):
    """Only the query that builds an artifact pays its build every call."""
    seen = []

    def record(kind, sf_dir, build, fresh=False):
        seen.append((kind, fresh))
        raise _Stop

    monkeypatch.setenv("DPRAY_SKIP_ORACLE_DUMP", "1")
    monkeypatch.setattr(A, "_session_memo", record)
    with pytest.raises(_Stop):
        A.QUERIES[query]("/nonexistent/sf")
    assert seen == [(kind, fresh)]
