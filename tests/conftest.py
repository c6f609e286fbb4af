import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture
def eliminations(monkeypatch):
    """The ``(rows, width)`` of every ``linalg._rref`` call made after the
    fixture is set up, in call order; clear it to count afresh."""
    import bihom.linalg

    calls = []
    rref = bihom.linalg._rref

    def counted_rref(rows, width):
        calls.append((len(rows), width))
        return rref(rows, width)

    monkeypatch.setattr(bihom.linalg, "_rref", counted_rref)
    return calls
