"""How the discounted MFG approaches the aggregation equation.

Solves the HJB/Fokker-Planck fixed point for a sweep of discount rates
lambda and compares each equilibrium density path against the aggregation
equation solved by the finite-volume reference.  The printed table shows
the optimality-condition residuals and the Wasserstein-1 gap shrinking
as lambda grows.

Run:  python3 demos/demo_mfg_lambda_sweep.py      (about a minute)
"""

from mfglab import (
    DriftField,
    ExponentialKernel,
    GridDensity,
    PdeConfig,
    QuadraticDriftHamiltonian,
    run_lambda_sweep_classic,
)


def main():
    cfg = PdeConfig(lam=5.0, n_x=256, dt=1e-3)
    m0 = GridDensity.gaussian(0.0, 0.5, -cfg.half_width, cfg.dx, cfg.n_x)
    report = run_lambda_sweep_classic(
        QuadraticDriftHamiltonian(DriftField("zero")),
        ExponentialKernel(1.0, 1.0),
        m0,
        [5.0, 20.0, 80.0],
        base_config=cfg,
        seed=0,
    )

    header = f"{'lambda':>8} {'iters':>6} {'sup|lam u - F|':>15} {'L1 grad resid':>14} {'sup_t W1':>10} {'bounds':>7}"
    print(header)
    print("-" * len(header))
    for lam, row in zip(report.lambdas, report.rows):
        print(
            f"{lam:8.1f} {row['iterations']:6d} {row['residual_lam_u']:15.4e}"
            f" {row['residual_lam_du_l1']:14.4e} {row['w1_sup']:10.4f}"
            f" {'ok' if row['bounds_ok'] else 'FLAG':>7}"
        )
    print()
    ref = report.reference
    print("cross-check of the FV reference against %d particles: W1 = %.4f" % (
        ref["cross_particles"], ref["cross_validation_w1"]))
    print(f"particle march: RK4 at h = {ref['particle_h']:.4g}, error estimate {ref['particle_error_estimate']:.1e}")


if __name__ == "__main__":
    main()
