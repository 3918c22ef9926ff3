import pytest


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
