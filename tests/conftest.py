from __future__ import annotations

import gc

import pytest

from vicbench.rings import builtin_ring


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves the cyclic garbage collector switched off."""
    enabled = gc.isenabled()
    yield
    if enabled and not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture(scope="session")
def f2():
    return builtin_ring("F2")


@pytest.fixture(scope="session")
def f3():
    return builtin_ring("F3")


@pytest.fixture(scope="session")
def z4():
    return builtin_ring("Z4")


@pytest.fixture(scope="session")
def t2f2():
    return builtin_ring("T2F2")


@pytest.fixture(scope="session")
def m2f2():
    return builtin_ring("M2F2")
