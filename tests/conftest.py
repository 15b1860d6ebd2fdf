import pytest

from quadpartitions import Field, GridPool, build_context
from quadpartitions import partition

# The eight fields whose tables the reference fixtures pin down.
TABULATED_D = (2, 3, 5, 6, 7, 13, 17, 21)


@pytest.fixture(scope="session")
def pool():
    return GridPool()


@pytest.fixture(scope="session")
def contexts():
    return {D: build_context(Field(D)) for D in TABULATED_D}


def euler_product(field, X):
    """The columns up to X from the packed Euler product, whichever kernel cone_columns picks."""
    layout, R, _ = partition._cone_costs(field, X)
    return partition._product_columns(field, *layout, R)
