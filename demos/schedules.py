"""Walk through the two noise schedules and their log-SNR geometry."""

import numpy as np

from steplab.schedule import ve_edm, vp_linear

for sched in (ve_edm(), vp_linear()):
    print("=" * 60)
    print(f"{sched.family}: t in [{sched.t_min}, {sched.T}], "
          f"sigma_T = {sched.sigma_T:.4f}")
    ts = np.geomspace(sched.t_min, sched.T, 7)
    print(f"{'t':>10} {'alpha':>10} {'sigma':>10} {'lambda':>10}")
    for t in ts:
        print(f"{t:10.4f} {sched.alpha(t):10.6f} {sched.sigma(t):10.6f} "
              f"{sched.lam(t):10.4f}")

    # lambda and sigma are monotone, so both invert in closed form; each
    # inverse takes the whole array in one call
    for name, fwd, inverse in (("lambda", sched.lam, sched.t_of_lambda),
                               ("sigma", sched.sigma, sched.t_of_sigma)):
        back = inverse(fwd(ts))
        print(f"t_of_{name} roundtrip max rel err: "
              f"{np.max(np.abs(back - ts) / ts):.2e}")

    # drift f(t) and squared diffusion g^2(t) drive the probability-flow ODE
    t_mid = float(np.sqrt(sched.t_min * sched.T))
    print(f"at t = {t_mid:.4f}: drift = {sched.drift(t_mid):+.6f}, "
          f"diffusion^2 = {sched.diffusion_sq(t_mid):.6f}")
