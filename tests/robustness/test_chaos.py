"""The ``FAURE_CHAOS`` directive parser behind the process chaos hooks."""

from repro.robustness.chaos import chaos_directives, sentinel_fires


class TestChaosProtocol:
    def test_parses_directives(self, monkeypatch):
        monkeypatch.setenv(
            "FAURE_CHAOS", "die-after-records:2:/tmp/s1; serve-hang-apply:5:/tmp/s2;"
        )
        assert chaos_directives() == [
            ("die-after-records", "2", "/tmp/s1"),
            ("serve-hang-apply", "5", "/tmp/s2"),
        ]

    def test_empty_means_no_faults(self, monkeypatch):
        monkeypatch.delenv("FAURE_CHAOS", raising=False)
        assert chaos_directives() == []

    def test_sentinel_fires_once(self, tmp_path):
        sentinel = str(tmp_path / "sentinel")
        assert sentinel_fires(sentinel)
        assert not sentinel_fires(sentinel)
