import pytest

from qrank.subspaces import build_lattice


@pytest.fixture(scope="session")
def lat22():
    return build_lattice(2, 2)


@pytest.fixture(scope="session")
def lat23():
    return build_lattice(2, 3)


@pytest.fixture(scope="session")
def lat24():
    return build_lattice(2, 4)


@pytest.fixture(scope="session")
def lat25():
    return build_lattice(2, 5)


@pytest.fixture(scope="session")
def lat34():
    return build_lattice(3, 4)


@pytest.fixture(scope="session")
def lat32():
    return build_lattice(3, 2)


@pytest.fixture(scope="session")
def lat33():
    return build_lattice(3, 3)


@pytest.fixture(scope="session")
def lat43():
    return build_lattice(4, 3)
