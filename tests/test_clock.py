"""The one clock of every time march: round(T / dt) steps of dt, node j at time j * dt.

solve_aggregation_fv, solve_aggregation_particles and solve_cs march on
measures._march, and PdeConfig labels its nodes from the same clock, so
the MFG stack and the limit paths share their node times; bad time inputs
fail before any step, naming the argument.
"""

import re

import numpy as np
import pytest

from mfglab import (
    CuckerSmaleKernel,
    DriftField,
    ExponentialKernel,
    GridDensity,
    ParticleEnsemble,
    PdeConfig,
    QuadraticDriftHamiltonian,
    solve_aggregation_fv,
    solve_aggregation_particles,
    solve_cs,
)

HAM = QuadraticDriftHamiltonian(DriftField("zero"))
KERNEL = ExponentialKernel(alpha=1.0, a=1.0)
M0_GRID = GridDensity.gaussian(0.0, 0.5, -4.0, 0.125, 64)
ATOMS = ParticleEnsemble.equal_weights(np.array([-0.5, 0.1, 0.6]), 1)
FLOCK = ParticleEnsemble.equal_weights(np.array([[-0.5, 1.0], [0.2, -0.4], [0.7, -0.6]]), 1)

PATHS = {
    "fv": lambda T, dt: solve_aggregation_fv(HAM, KERNEL, M0_GRID, T, dt),
    "particles": lambda T, dt: solve_aggregation_particles(HAM, KERNEL, ATOMS, T, dt),
    "cs": lambda T, dt: solve_cs(FLOCK, CuckerSmaleKernel(1.0, 0.5), T, dt),
}
ENTRY_POINTS = {**PATHS, "PdeConfig": lambda T, dt: PdeConfig(lam=1.0, T=T, dt=dt)}


@pytest.mark.parametrize("T, dt", [(1.0, 0.003), (0.5, 0.007), (2.5, 1e-3)])
class TestNodesOnTheClock:
    @pytest.mark.parametrize("solver", PATHS)
    def test_path_nodes(self, solver, T, dt):
        times = PATHS[solver](T, dt).times
        n = round(T / dt)
        nodes = np.round(times / dt).astype(int)
        assert np.array_equal(times, dt * nodes)
        assert nodes[0] == 0 and nodes[-1] == n
        # the FV path keeps every node; the particle paths every max(1, n // 512)-th and the last
        gaps = np.diff(nodes)
        assert np.all(gaps == 1) if solver == "fv" else np.all((gaps >= 1) & (gaps <= max(1, n // 512)))

    def test_pde_config_times(self, T, dt):
        cfg = PdeConfig(lam=1.0, T=T, dt=dt)
        assert cfg.n_steps == round(T / dt)
        assert np.array_equal(cfg.times, dt * np.arange(cfg.n_steps + 1))


def test_mfg_nodes_are_the_reference_nodes():
    # T / dt = 333.33: 333 steps of dt end at 0.999, and both label node 333 so
    cfg = PdeConfig(lam=1.0, T=1.0, dt=0.003)
    assert np.array_equal(cfg.times, PATHS["fv"](cfg.T, cfg.dt).times)
    assert cfg.times[-1] == 333 * 0.003


BAD_TIMES = [
    (-1.0, 0.01, "T"),
    (0.0, 0.01, "T"),
    (float("inf"), 0.01, "T"),
    (1e-9, 0.01, "T / dt"),
    (1e-4, 1e-3, "T / dt"),
    (1e308, 1e-308, "T / dt"),
    (1.0, 0.0, "dt"),
    (1.0, -0.01, "dt"),
    (1.0, float("nan"), "dt"),
]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("T, dt, name", BAD_TIMES)
def test_bad_time_input_names_argument(entry, T, dt, name):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must"):
        ENTRY_POINTS[entry](T, dt)


@pytest.mark.parametrize("save_every", [0, -3, float("nan")])
def test_save_every_below_one_raises(save_every):
    with pytest.raises(ValueError, match="^save_every"):
        solve_cs(FLOCK, CuckerSmaleKernel(1.0, 0.5), 1.0, 0.01, save_every=save_every)
