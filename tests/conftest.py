import pytest


@pytest.fixture(autouse=True)
def _no_cache_dir_from_the_environment(monkeypatch):
    # a `PSA_CACHE_DIR` set in the shell would send every CLI run that
    # names no --cache-dir to that cache; a test that wants it sets it
    monkeypatch.delenv("PSA_CACHE_DIR", raising=False)


@pytest.fixture
def add_counts(monkeypatch):
    """[rows that reduced to zero, rows accepted] over the `SparseRREF.add`
    calls made after the fixture is requested."""
    from shufflestar.linalg import SparseRREF

    counts = [0, 0]
    add = SparseRREF.add

    def counting(self, vec):
        grew = add(self, vec)
        counts[grew] += 1
        return grew

    monkeypatch.setattr(SparseRREF, "add", counting)
    return counts
