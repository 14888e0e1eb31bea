"""Test helpers for log-det Jacobians: the taped oracle that the tangent
march in `steplab.evaluate.log_abs_det_jacobian` must match, and a solver
map whose Jacobian is singular in chosen rows."""

import numpy as np

from steplab import engine as en
from steplab.evaluate import JacobianError, solver_map
from steplab.schedule import ve_edm
from steplab.solvers import SolverSpec, coeffs


def taped_log_abs_det_jacobian(map_fn, x):
    """log |det dmap/dx| of a row (d,) or of each row of a batch (B, d).

    One taped march, then one reverse pass per output coordinate j, seeded
    with ones in column j of every row; rows do not interact, so it gives
    row j of each Jacobian.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    tape = en.Tape()
    xv = tape.leaf(x)
    y = map_fn(xv)
    eye = np.eye(d)
    jac = np.stack([tape.backward([(y, np.broadcast_to(eye[j], x.shape))],
                                  [xv])[0] for j in range(d)], axis=-2)
    sign, logdet = np.linalg.slogdet(jac)
    bad = (sign == 0.0) | ~np.isfinite(logdet)
    if np.any(bad):
        row = int(np.argmax(bad))
        raise JacobianError(f"singular Jacobian at row {row}", row)
    return float(logdet) if x.ndim == 1 else logdet


class MaskDenoiser:
    """eps = mask(x) * x, with mask(x) giving one (d,) row per row of x."""

    def __init__(self, mask):
        self.mask = mask

    def step_constants(self, times_c):
        return (times_c,)

    def epsilon(self, x, row, tangents=None):
        m = self.mask(x)
        eps = m * x
        return eps if tangents is None else (eps, tangents * m[..., None, :])


# one Euler step from 80 to 79 under VE has the row [1, -1] exactly, so the
# map is x -> (1 - mask) x: a 1 in the mask zeroes a Jacobian column
VE = ve_edm()
SPEC = SolverSpec(family="euler", order=1, nfe=1)
GRID = np.array([80.0, 79.0])
assert np.array_equal(coeffs(VE, SPEC, GRID), [[1.0, -1.0]])


def collapse_map(mask):
    """A VE solver map x -> (1 - mask(x)) x."""
    return solver_map(MaskDenoiser(mask), VE, SPEC, GRID)
