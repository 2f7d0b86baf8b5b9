"""Shared fixtures.

Heavy artifacts (topologies, routing tables) are session-scoped: they are
immutable, so sharing them across tests is safe and keeps the suite fast.
"""

from __future__ import annotations

import pytest

from repro.core import PolarFly, ClusterLayout
from repro.flitsim._kernel import load_kernel
from repro.routing import RoutingTables


@pytest.fixture
def flat_kernel():
    """Skip unless the C cycle kernel loads.

    Requested by tests that build ``FlatSimulator`` directly: its cycle
    is the kernel, so without cffi and a C compiler it cannot be built
    (``make_simulator`` runs the reference engine instead).
    """
    if load_kernel() is None:
        pytest.skip("C cycle kernel unavailable (needs cffi and a C compiler)")


@pytest.fixture(scope="session")
def pf5():
    return PolarFly(5)


@pytest.fixture(scope="session")
def pf7():
    return PolarFly(7)


@pytest.fixture(scope="session")
def pf9():
    """Extension-field case (q = 3**2)."""
    return PolarFly(9)


@pytest.fixture(scope="session")
def pf11():
    return PolarFly(11)


@pytest.fixture(scope="session")
def pf13():
    return PolarFly(13)


@pytest.fixture(scope="session")
def layout7(pf7):
    return ClusterLayout(pf7)


@pytest.fixture(scope="session")
def layout9(pf9):
    return ClusterLayout(pf9)


@pytest.fixture(scope="session")
def pf7_endpoints():
    return PolarFly(7, concentration=4)


@pytest.fixture(scope="session")
def tables7(pf7_endpoints):
    return RoutingTables(pf7_endpoints)
