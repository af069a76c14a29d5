"""Suite-wide fixtures."""

import sys

import pytest


@pytest.fixture(autouse=True)
def _isolated_artifact_cache(tmp_path, monkeypatch):
    """Keep the persistent pipeline cache out of the real user cache dir.

    Commands and orchestrators default to ``$REPRO_CACHE_DIR`` (or
    ``~/.cache/repro-narada``); tests must neither read a developer's
    warm cache nor leave artifacts behind, so every test gets a private
    throwaway root.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "artifact-cache"))


@pytest.fixture(autouse=True)
def _recursion_limit_unchanged():
    """Fail any test that leaves ``sys.getrecursionlimit()`` changed.

    The recursion limit is process-global: nothing in the package may
    move it, and a test that moves it must put it back.
    """
    before = sys.getrecursionlimit()
    yield
    assert sys.getrecursionlimit() == before, (
        f"recursion limit changed from {before} to {sys.getrecursionlimit()}"
    )
