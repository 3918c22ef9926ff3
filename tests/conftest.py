import pytest


@pytest.fixture(autouse=True)
def _no_cache_dir_from_the_environment(monkeypatch):
    # a `PSA_CACHE_DIR` set in the shell would send every CLI run that
    # names no --cache-dir to that cache; a test that wants it sets it
    monkeypatch.delenv("PSA_CACHE_DIR", raising=False)
