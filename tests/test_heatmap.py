import numpy as np

from curvedlattice.heatmap import cubehelix, cubehelix_rgb, render_ppm
from curvedlattice.observables import LdosGrid


def test_cubehelix_endpoints():
    assert cubehelix(0.0) == (0, 0, 0)
    assert cubehelix(1.0) == (255, 255, 255)
    # clamped outside [0, 1]
    assert cubehelix(-3.0) == (0, 0, 0)
    assert cubehelix(7.0) == (255, 255, 255)


def test_cubehelix_monotone_luminance():
    v = np.linspace(0.0, 1.0, 256)
    rgb = cubehelix_rgb(v).astype(float)
    lum = 0.299 * rgb[:, 0] + 0.587 * rgb[:, 1] + 0.114 * rgb[:, 2]
    assert np.all(np.diff(lum) >= -0.5)  # nondecreasing up to byte rounding
    assert lum[-1] > lum[0]


def test_cubehelix_stays_in_gamut():
    rgb = cubehelix_rgb(np.linspace(0, 1, 1001))
    assert rgb.dtype == np.uint8
    assert rgb.min() >= 0 and rgb.max() <= 255


def test_render_ppm_layout():
    L, nE = 4, 3
    values = np.zeros((L, nE))
    values[2, 2] = 1.0  # site 2, highest energy
    grid = LdosGrid(values, True)
    data = render_ppm(grid)
    assert data.startswith(b"P6\n4 3\n255\n")
    pixels = np.frombuffer(data[len(b"P6\n4 3\n255\n"):], dtype=np.uint8).reshape(3, 4, 3)
    # row 0 = E_max: the bright pixel is at (row 0, col 2)
    assert tuple(pixels[0, 2]) == (255, 255, 255)
    assert tuple(pixels[2, 2]) == (0, 0, 0)
