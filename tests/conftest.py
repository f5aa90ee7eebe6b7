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


@pytest.fixture(autouse=True)
def no_objects_left_frozen():
    """Fail a test that leaves more objects frozen (``gc.freeze``) than it
    found.  When it found none, thaw them so later tests start unfrozen;
    otherwise leave them, since ``gc.unfreeze`` would also thaw what was
    frozen before (CPython 3.12 starts with objects frozen)."""
    frozen = gc.get_freeze_count()
    yield
    if gc.get_freeze_count() > frozen:
        if not frozen:
            gc.unfreeze()
        pytest.fail("the test left objects frozen in the permanent generation")


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
