"""The one clock of every time march: round(T / dt) steps of dt, node j at time j * dt.

solve_aggregation_fv, solve_aggregation_particles and solve_cs march on
measures._march, and PdeConfig labels its nodes from the same clock, so
the MFG stack and the limit paths share their node times.  A path keeps
node 0 and the nodes its caller names, by default node 0 and T; bad
time inputs and bad node lists fail before any step, naming the argument.
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
    "fv": lambda T, dt, nodes=None: solve_aggregation_fv(HAM, KERNEL, M0_GRID, T, dt, nodes=nodes),
    "particles": lambda T, dt, nodes=None: solve_aggregation_particles(HAM, KERNEL, ATOMS, T, dt, nodes),
    "cs": lambda T, dt, nodes=None: solve_cs(FLOCK, CuckerSmaleKernel(1.0, 0.5), T, dt, nodes),
}
ENTRY_POINTS = {**PATHS, "PdeConfig": lambda T, dt: PdeConfig(lam=1.0, T=T, dt=dt)}


@pytest.mark.parametrize("T, dt", [(1.0, 0.003), (0.5, 0.007), (2.5, 1e-3)])
class TestNodesOnTheClock:
    @pytest.mark.parametrize("solver", PATHS)
    def test_path_nodes(self, solver, T, dt):
        """By default a path keeps node 0 and node n; named nodes, here every seventh and n, land at j * dt."""
        n = round(T / dt)
        assert np.array_equal(PATHS[solver](T, dt).times, [0.0, dt * n])
        nodes = [*range(0, n, 7), n]
        assert np.array_equal(PATHS[solver](T, dt, nodes).times, dt * np.array(nodes))

    def test_pde_config_times(self, T, dt):
        cfg = PdeConfig(lam=1.0, T=T, dt=dt)
        assert cfg.n_steps == round(T / dt)
        assert np.array_equal(cfg.times, dt * np.arange(cfg.n_steps + 1))


def test_mfg_nodes_are_the_reference_nodes():
    # T / dt = 333.33: 333 steps of dt end at 0.999, and both label node 333 so
    cfg = PdeConfig(lam=1.0, T=1.0, dt=0.003)
    assert np.array_equal(cfg.times, PATHS["fv"](cfg.T, cfg.dt, range(cfg.n_steps + 1)).times)
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


@pytest.mark.parametrize("solver", PATHS)
def test_default_path_is_zero_and_T(solver):
    """Called without nodes, every solver keeps exactly the times 0 and T, and at(T) reads the last."""
    path = PATHS[solver](0.5, 0.01)
    assert np.array_equal(path.times, [0.0, 0.5]) and path.at(0.5) is path.measures[-1]


BAD_NODES = {
    "non-integer": [0, 2.5, 50],
    "repeated": [0, 3, 3],
    "decreasing": [0, 7, 3],
    "negative": [-1, 3],
    "past-n": [0, 51],
}


@pytest.mark.parametrize("solver", PATHS)
@pytest.mark.parametrize("case", BAD_NODES)
def test_bad_nodes_raise(case, solver):
    """Nodes are integers increasing strictly within [0, n], n = 50 here; any other list raises before a step."""
    with pytest.raises(ValueError, match="^nodes must be integers increasing strictly from 0 to n = 50"):
        PATHS[solver](0.5, 0.01, BAD_NODES[case])
