"""Test helper: the point-mass data distribution at x0.

A point mass is the one-component Gaussian mixture at variance 0, so its
epsilon is (x - alpha_t x0) / sigma_t to rounding.
"""

import numpy as np

from steplab.denoisers import GMDenoiser


def point_mass(sched, x0):
    """The `GMDenoiser` of the point mass at x0, shape (d,)."""
    return GMDenoiser.create(sched, (1.0,),
                             np.asarray(x0, dtype=np.float64)[None, :], (0.0,))
