import pytest

from rookmonoids import enumerate_universe, green_partition


@pytest.fixture(scope="session")
def or2():
    return enumerate_universe("OR", 2)


@pytest.fixture(scope="session")
def or4():
    return enumerate_universe("OR", 4)


@pytest.fixture(scope="session")
def or6():
    return enumerate_universe("OR", 6)


@pytest.fixture(scope="session")
def sr2():
    return enumerate_universe("SR", 2)


@pytest.fixture(scope="session")
def sr4():
    return enumerate_universe("SR", 4)


@pytest.fixture(scope="session")
def sr6():
    return enumerate_universe("SR", 6)


@pytest.fixture(scope="session")
def sr8():
    return enumerate_universe("SR", 8)


@pytest.fixture(scope="session")
def r4():
    return enumerate_universe("R", 4)


@pytest.fixture(scope="session")
def green_or4(or4):
    return green_partition(or4)


@pytest.fixture(scope="session")
def green_or6(or6):
    return green_partition(or6)
