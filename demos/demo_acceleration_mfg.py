"""Acceleration-controlled agents converging to Cucker-Smale flocking.

Two agents start at the same point with opposite velocities.  Each
minimizes a discounted energy: a control cost on acceleration (cheap
when the discount rate lambda is large) plus a velocity-misalignment
cost.  As lambda grows the optimal trajectories approach the
Cucker-Smale characteristics, and the Euler-Lagrange residual certifies
each computed equilibrium.

Run:  python3 demos/demo_acceleration_mfg.py      (a few seconds)
"""

import numpy as np

from mfglab import CuckerSmaleKernel, ParticleEnsemble, run_lambda_sweep_acceleration


def main():
    kernel = CuckerSmaleKernel(1.0, 0.0)
    m0 = ParticleEnsemble.equal_weights(np.array([[0.0, 1.0], [0.0, -1.0]]), 1)
    report = run_lambda_sweep_acceleration(kernel, m0, [10.0, 20.0, 40.0], T=1.0, n_intervals=128, dt_reference=1e-3)

    print(f"{'lambda':>8} {'K':>6} {'energy':>10} {'bound':>10} {'EL resid':>10} {'W1 at T/2':>10}")
    for lam, row in zip(report.lambdas, report.rows):
        print(
            f"{lam:8.1f} {row['n_intervals']:6d} {row['energy_total']:10.4f} {row['energy_bound']:10.4f}"
            f" {row['el_residual']:10.2e} {row['w1_at_half_T']:10.4f}"
        )
    ref = report.reference
    print(f"kinetic reference: RK4 at h = T/{round(ref['T'] / ref['h'])}, error estimate {ref['error_estimate']:.1e}")
    print()
    print("energy stays under the 2 c0 M2(v)/lambda bound and the midpoint")
    print("marginal tracks the Cucker-Smale flow ever more closely.")


if __name__ == "__main__":
    main()
