"""Exact noise predictors for tractable data.

A Gaussian-mixture data distribution admits a closed-form posterior noise
prediction at every noise level, which makes it the ground truth everything
else in this package is judged against. A point mass is the even simpler
edge case: the one-component mixture at variance 0.
"""

import numpy as np

from steplab.denoisers import GMDenoiser
from steplab.schedule import ve_edm

sched = ve_edm()
gm = GMDenoiser.create(sched,
                       weights=np.array([0.5, 0.3, 0.2]),
                       means=np.array([[2.0, 1.0], [-1.4, 1.8], [0.3, -2.2]]),
                       variances=np.array([0.25, 0.16, 0.36]))

print("mixture noise prediction epsilon(x, t):")
for t in (0.01, 1.0, 20.0):
    x = np.array([1.0, 0.5])
    print(f"  t = {t:6.2f}: eps = {gm.epsilon(x, t)}")

# at the mean of an isolated component the posterior noise is ~zero
x_near = np.array([2.0, 1.0]) * gm.sched.alpha_sigma(0.01)[0]
print(f"at a component mean, t = 0.01: |eps| = "
      f"{np.linalg.norm(gm.epsilon(x_near, 0.01)):.2e}")

pt = GMDenoiser.create(sched, weights=(1.0,), means=np.array([[2.0, 1.0]]),
                       variances=(0.0,))
x = np.array([3.0, -1.0])
print(f"point mass: eps = {pt.epsilon(x, 1.0)}  "
      f"((x - alpha x0)/sigma to rounding)")
