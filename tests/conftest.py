import pytest

from diracshell import geometry as geo


@pytest.fixture(scope="session")
def circle_curve():
    return geo.build_curve(geo.circle(1.0))


@pytest.fixture(scope="session")
def square_curve():
    return geo.build_curve(geo.square(1.0))


@pytest.fixture(scope="session")
def circle_grid_128(circle_curve):
    return geo.discretize(circle_curve, 128)


@pytest.fixture(scope="session")
def circle_grid_256(circle_curve):
    return geo.discretize(circle_curve, 256)


@pytest.fixture(scope="session")
def circle_grid_512(circle_curve):
    return geo.discretize(circle_curve, 512)
