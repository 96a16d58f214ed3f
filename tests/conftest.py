import pytest

from sqrtpoly import census, make_field_ctx


@pytest.fixture(scope="session")
def ctx13():
    return make_field_ctx(13)


@pytest.fixture(scope="session")
def ctx29():
    return make_field_ctx(29)


@pytest.fixture(scope="session")
def ctx41():
    return make_field_ctx(41)


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # run one small census first, so timed tests measure the work and not
    # the first call's imports and numpy set-up
    census.full_census(make_field_ctx(13))
