from __future__ import annotations

import pytest

from vicbench.rings import builtin_ring


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
