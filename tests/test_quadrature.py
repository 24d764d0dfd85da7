import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from conftest import TWO_PI
from vortexloop.circle_forms import CircleDiffeo
from vortexloop.loops import LoopEmbedding
from vortexloop.quadrature import PeriodicCubic, _cyclic_shift, periodic_spline, uniform_grid


@pytest.mark.parametrize("n", [8, 16, 192, 256, 1000, 1024, 4096, 16384])
def test_uniform_grid_is_the_linspace_grid_bit_for_bit(n):
    grid = uniform_grid(n)
    assert np.array_equal(grid, np.linspace(0.0, TWO_PI, n, endpoint=False))
    assert np.array_equal(np.append(grid, TWO_PI), np.linspace(0.0, TWO_PI, n + 1))


@pytest.mark.parametrize("shape", [(7,), (256,), (5, 2), (256, 2)])
@pytest.mark.parametrize("shift", [-1, 0, 1, -3, 261])
def test_cyclic_shift_is_numpy_roll_byte_for_byte(shape, shift):
    a = np.random.default_rng(shape[0]).standard_normal(shape)
    got = _cyclic_shift(a, shift)
    want = np.roll(a, shift, axis=0)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [16, 256, 1000])
def test_sample_grids_are_the_uniform_grid(n):
    grid = uniform_grid(n)
    assert np.array_equal(PeriodicCubic(np.zeros(n), np.zeros(n)).knots, grid)
    assert np.array_equal(LoopEmbedding.circle(n=n).grid, grid)
    assert np.array_equal(CircleDiffeo.rotation(0.3, n).grid, grid)


@pytest.mark.parametrize("n", [16, 256, 4096])
@pytest.mark.parametrize("shape", [(), (2,)])
def test_periodic_spline_matches_scipy(n, shape):
    rng = np.random.default_rng(n + len(shape))
    y = rng.normal(size=(n,) + shape)
    spline = periodic_spline(y)
    knots = np.linspace(0.0, TWO_PI, n + 1)
    ref = CubicSpline(knots, np.concatenate([y, y[:1]]), bc_type="periodic")
    ref_anti = ref.antiderivative()

    nodes = np.arange(n) * (TWO_PI / n)
    assert np.array_equal(spline(nodes), y)
    # scipy's own slope solve drifts by about 6e-13 of the largest slope at
    # n = 4096 (the FFT slopes satisfy the spline equations 1000x closer)
    t = np.concatenate([rng.uniform(-2.0 * TWO_PI, 3.0 * TWO_PI, 2000), nodes])
    winding = np.floor(t / TWO_PI).reshape((-1,) + (1,) * len(shape))
    frac = t - np.floor(t / TWO_PI) * TWO_PI
    want_anti = ref_anti(frac) + winding * ref_anti(TWO_PI)
    for got, want in ((spline(t), ref(t)), (spline(t, 1), ref(t, 1)),
                      (spline.antiderivative(t), want_anti)):
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    # the slope equations m[j-1] + 4 m[j] + m[j+1] = 3 (y[j+1] - y[j-1]) / h
    m = spline(nodes, 1)
    rhs = 3.0 * (np.roll(y, -1, axis=0) - np.roll(y, 1, axis=0)) / (TWO_PI / n)
    resid = np.roll(m, 1, axis=0) + 4.0 * m + np.roll(m, -1, axis=0) - rhs
    assert np.max(np.abs(resid)) <= 1e-14 * np.max(np.abs(rhs))


@pytest.mark.parametrize("nodes", [8, 17, 100, 256, 1024, 2048])
@pytest.mark.parametrize("shape", [(), (2,)])
def test_grid_evaluation_is_the_call_bit_for_bit(nodes, shape):
    # n of the nodes times a power of two is evaluated cell by cell, any other
    # n (other multiples too, whose grid points can round into the cell
    # before their knot) by the call; both give the call's bits
    rng = np.random.default_rng(nodes + len(shape))
    spline = periodic_spline(rng.normal(size=(nodes,) + shape))
    for n in (nodes, 2 * nodes, 3 * nodes, 4 * nodes, 6 * nodes, 8 * nodes, nodes + 1,
              3 * nodes // 2, 4096):
        for nu in (0, 1):
            got = spline._on_uniform_grid(n, nu)
            want = spline(uniform_grid(n), nu)
            assert got.shape == want.shape == (n,) + shape
            assert got.tobytes() == want.tobytes(), (n, nu)
    with pytest.raises(ValueError, match="derivative order"):
        spline._on_uniform_grid(4 * nodes, 2)


def test_antiderivative_table_is_built_on_first_use():
    rng = np.random.default_rng(27)
    for shape in ((256,), (256, 2)):
        spline = periodic_spline(rng.normal(size=shape))
        assert "_cumulative" not in vars(spline)
        t = rng.uniform(-2.0 * TWO_PI, 3.0 * TWO_PI, 100)
        assert spline.antiderivative(t).shape == t.shape + shape[1:]
        # the same table built eagerly from the cell coefficients, bit for bit
        y, m, c, d = spline._coeffs
        h = TWO_PI / shape[0]
        cells = h * (y + h * (m / 2.0 + h * (c / 3.0 + h * d / 4.0)))
        eager = np.concatenate([np.zeros_like(y[:1]), np.cumsum(cells, axis=0)])
        assert vars(spline)["_cumulative"].tobytes() == eager.tobytes()
    # loop splines and circle maps are evaluated, never integrated
    loop = LoopEmbedding.circle(n=256)
    loop.eval(loop.grid + 0.1)
    loop.derivative(loop.grid)
    gamma = CircleDiffeo.from_function(lambda t: t + 0.2 * np.sin(t), 256)
    inverse = gamma.inverse()
    for spline in (loop._spline, gamma._displacement, inverse._displacement):
        assert "_cumulative" not in vars(spline)
