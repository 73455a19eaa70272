import pytest

from clkset import bundle_for, geometry


@pytest.fixture(scope="session")
def pg32():
    return geometry(3, 1, 2)


@pytest.fixture(scope="session")
def pg32_bundle(pg32):
    return bundle_for(pg32)


@pytest.fixture(scope="session")
def pg33():
    return geometry(3, 1, 3)


@pytest.fixture(scope="session")
def pg33_bundle(pg33):
    return bundle_for(pg33)


@pytest.fixture(scope="session")
def pg34():
    return geometry(3, 1, 4)


@pytest.fixture(scope="session")
def pg42():
    return geometry(4, 1, 2)


@pytest.fixture(scope="session")
def pg42_bundle(pg42):
    return bundle_for(pg42)


@pytest.fixture(scope="session")
def pg42_planes():
    return geometry(4, 2, 2)


@pytest.fixture(scope="session")
def pg52():
    return geometry(5, 1, 2)


@pytest.fixture(scope="session")
def pg52_bundle(pg52):
    return bundle_for(pg52)
