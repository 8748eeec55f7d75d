import numpy as np
import pytest

from jdisk.diskgrid import DiskMap, make_grid


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def complex_map(grid, fn):
    """Build an n=1 DiskMap from a complex-valued function of z."""
    w = np.asarray(fn(grid.Z), dtype=np.complex128)
    vals = np.stack([w.real, w.imag], axis=-1)
    return DiskMap(grid, vals)


@pytest.fixture
def grid65():
    return make_grid(1.0, 65)


@pytest.fixture
def grid33():
    return make_grid(1.0, 33)
