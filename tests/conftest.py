import numpy as np
import pytest
import scipy.sparse as sp

from jdisk.diskgrid import DiskGrid, DiskMap, make_grid


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def complex_map(grid, fn):
    """Build an n=1 DiskMap from a complex-valued function of z."""
    w = np.asarray(fn(grid.Z), dtype=np.complex128)
    vals = np.stack([w.real, w.imag], axis=-1)
    return DiskMap(grid, vals)


def to_complex(v):
    """The complex vectors (..., n) that real-represented vectors (..., 2n)
    stand for, in interleaved order (x1, y1, ..., xn, yn)."""
    v = np.asarray(v, dtype=np.float64)
    return v[..., 0::2] + 1j * v[..., 1::2]


def cmul(z, v):
    """Real representation of the complex product ``z * v``, broadcast as
    ``z[..., None] * to_complex(v)``: a reference formed in complex
    arithmetic, apart from ``ComplexConvention.mul_i``."""
    w = np.asarray(z, dtype=np.complex128)[..., None] * to_complex(v)
    out = np.empty(w.shape[:-1] + (2 * w.shape[-1],))
    out[..., 0::2], out[..., 1::2] = w.real, w.imag
    return out


def cell_weight(op, dj, dk):
    """The weight ``op`` gives a unit-fraction source cell at index offset
    (dj, dk), target minus source: its kernel entry times its radius scale."""
    N = op.N
    return op._scale * complex(op.kernel[N - 1 + dj, N - 1 + dk])


def lattice_difference_matrix(g, axis):
    """The centred differences along ``axis`` as one ``(N*N, N*N)`` matrix
    over the whole lattice, with empty rows off the interior: a reference
    built apart from the grid's interior-row matrix."""
    N, h = g.N, g.h
    node = np.flatnonzero(g.interior)
    step = N if axis == 0 else 1
    rows = np.concatenate([node, node])
    cols = np.concatenate([node + step, node - step])
    vals = np.repeat([0.5 / h, -0.5 / h], node.size)
    return sp.coo_matrix((vals, (rows, cols)), shape=(N * N, N * N)).tocsr()


def lattice_differences(g, values):
    """The x and y differences of ``values`` over the whole lattice, 0 off
    the interior: the products with the unit-radius lattice matrices,
    divided by r unless r is 1."""
    N = g.N
    unit = DiskGrid(1.0, N)
    out = []
    for axis in (0, 1):
        d = (lattice_difference_matrix(unit, axis) @ values.reshape(N * N, -1)).reshape(values.shape)
        if g.r != 1.0:
            d /= g.r
        out.append(d)
    return out


@pytest.fixture
def grid65():
    return make_grid(1.0, 65)


@pytest.fixture
def grid33():
    return make_grid(1.0, 33)
