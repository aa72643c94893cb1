"""Velocity alignment in the Cucker-Smale particle system.

Integrates a 64-particle flock with the algebraic communication weight
1/(alpha + |x|^2)^beta and prints the collapse of the velocity spread.
Long-range communication (small beta) aligns the flock; short-range
communication (large beta) may leave stragglers.

Run:  python3 demos/demo_flocking.py
"""

import numpy as np

from mfglab import CuckerSmaleKernel, ParticleEnsemble, moment2, solve_cs


def make_flock(rng, n=64):
    x = 2.0 * rng.standard_normal(n)
    v = rng.standard_normal(n)
    return ParticleEnsemble.equal_weights(np.column_stack([x, v]), 1)


def main():
    rng = np.random.default_rng(1)
    m0 = make_flock(rng)
    for beta in (0.2, 1.5):
        kernel = CuckerSmaleKernel(1.0, beta)
        path = solve_cs(m0, kernel, 10.0, 1e-2, range(0, 1001, 200))
        print(f"beta = {beta}")
        print(f"{'t':>6} {'velocity spread':>16} {'M2 velocity':>14}")
        for t, m in zip(path.times, path.measures):
            spread = float(np.max(m.velocities) - np.min(m.velocities))
            print(f"{t:6.1f} {spread:16.6f} {moment2(m, 'velocity'):14.6e}")
        print()


if __name__ == "__main__":
    main()
