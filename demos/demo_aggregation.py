"""Aggregation dynamics under three interaction kernels.

Runs the particle solver for a repulsive exponential kernel, a Morse
kernel (short-range repulsion, medium-range attraction), and a
repulsive-attractive kernel, then prints how the particle cloud spreads
or locks into an equilibrium lattice.

Run:  python3 demos/demo_aggregation.py
"""

import numpy as np

from mfglab import (
    DriftField,
    ExponentialKernel,
    MorseKernel,
    ParticleEnsemble,
    QuadraticDriftHamiltonian,
    RepulsiveAttractiveKernel,
    solve_aggregation_particles,
)


def spread(m):
    return float(np.max(m.positions) - np.min(m.positions))


def main():
    rng = np.random.default_rng(0)
    ham = QuadraticDriftHamiltonian(DriftField("zero"))
    m0 = ParticleEnsemble.equal_weights(rng.uniform(-0.5, 0.5, (24, 1)), 1)

    print("initial spread: %.4f over %d particles" % (spread(m0), m0.n))
    print()

    cases = [
        ("exponential (pure repulsion)", ExponentialKernel(1.0, 1.0), 5.0),
        ("morse G=0.5 L=2 (lattice)", MorseKernel(0.5, 2.0), 80.0),
        ("repulsive-attractive a=1", RepulsiveAttractiveKernel(1.0), 20.0),
    ]
    for name, kernel, T in cases:
        path = solve_aggregation_particles(ham, kernel, m0, T, 1e-2)
        final = path.measures[-1]
        gaps = np.diff(np.sort(final.positions[:, 0]))
        print(f"{name}: T={T:g}")
        print(f"  spread {spread(m0):.4f} -> {spread(final):.4f}")
        print(f"  nearest-neighbor gaps: min {gaps.min():.4f}, max {gaps.max():.4f}")
        if isinstance(kernel, MorseKernel):
            print(f"  two-body equilibrium gap would be {kernel.equilibrium_gap():.4f}")
        print()


if __name__ == "__main__":
    main()
