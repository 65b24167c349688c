import pytest

from sphtrans import transform


@pytest.fixture
def fresh_phi_cache(monkeypatch):
    """Empty phi-table cache state for the test: held tables, the newest table and the
    remembered first requests.  Returns a function that empties it again."""
    def reset():
        monkeypatch.setattr(transform, "_PHI_CACHE", {})
        monkeypatch.setattr(transform, "_PHI_ONCE", [])
        monkeypatch.setattr(transform, "_PHI_ASKED", {})
    reset()
    return reset
