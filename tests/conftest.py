import random

import pytest

from qrc1 import canonical
from qrc1.syntax import Signature


@pytest.fixture
def sig() -> Signature:
    return Signature(constants=("c0", "c1"), relations=(("S", 1), ("R", 2)))


@pytest.fixture
def small_sig() -> Signature:
    return Signature(constants=("c0",), relations=(("S", 1),))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260823)


@pytest.fixture
def fact_cap(monkeypatch):
    """Sets CANONICAL_FACT_CAP for the test, so that builds of M_phi and of
    M_phi^1 stop early."""

    def set_cap(cap: int) -> None:
        monkeypatch.setattr(canonical, "CANONICAL_FACT_CAP", cap)

    return set_cap
