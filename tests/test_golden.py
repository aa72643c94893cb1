"""Exact outputs of the RK4 integrations, the pair sums and every CSV artifact.

The values in data/golden.json were recorded with the two separate RK4
loops (aggregation particles, Cucker-Smale) and the per-artifact CSV
writers that the shared ``_rk4`` stepper and ``_csv_table`` writer
replaced.  The ``acceleration`` and ``validators`` keys were recorded
with the per-module pair sums (``_pair_interaction``, the particle
branches of ``eval_coupling``) that the shared ``kernels._pair_sum`` and
``acceleration._pair_gradients`` replaced.  The floats must stay
bit-identical and the CSV text byte-identical; regenerating the file
would defeat the check.

The Morse particles and the validator constants go through the radial
pair sum, which has two bodies: the dense one they were recorded with
(pinned bit for bit) and the sorted one for 1D exponential sums (pinned
within the roundoff of its different summation order).
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from mfglab import kernels
from mfglab import (
    ConvergenceReport,
    CrowdRadialKernel,
    CuckerSmaleKernel,
    DriftField,
    ExponentialKernel,
    GridDensity,
    MorseKernel,
    ParticleEnsemble,
    QuadraticDriftHamiltonian,
    RepulsiveAttractiveKernel,
    TrajectoryEnsemble,
    ZeroKernel,
    discrete_energy,
    el_residual,
    energy_gradient,
    minimize_energy,
    richardson_order_ratio,
    solve_aggregation_particles,
    solve_cs,
    validate_coupling,
)
from mfglab.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())


def _inputs():
    rng = np.random.default_rng(2024)
    morse_atoms = ParticleEnsemble.equal_weights(rng.uniform(-1.0, 1.0, (50, 1)), 1)
    x, v = rng.standard_normal(24), rng.standard_normal(24)
    cs_atoms = ParticleEnsemble.equal_weights(np.column_stack([x, v]), 1)
    return rng, morse_atoms, cs_atoms


def _cli(args):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(args)


def integrations() -> dict:
    _, morse_atoms, cs_atoms = _inputs()
    ham = QuadraticDriftHamiltonian(DriftField("zero"))
    path = solve_aggregation_particles(ham, MorseKernel(0.5, 2.0), morse_atoms, 0.5, 0.01)
    cs = solve_cs(cs_atoms, CuckerSmaleKernel(1.0, 0.5), 0.2, 0.01)
    return {
        "particles_len": len(path),
        "particles_final": path.measures[-1].points[:, 0].tolist(),
        "cs_len": len(cs),
        "cs_final": cs.measures[-1].points.tolist(),
        "richardson": richardson_order_ratio(cs_atoms, CuckerSmaleKernel(1.0, 0.5), 0.2, 0.02),
    }


def accelerations() -> dict:
    rng = np.random.default_rng(31)
    x0, v0 = rng.standard_normal((24, 1)), rng.standard_normal((24, 1))
    w = rng.uniform(0.5, 1.5, 24)
    ens = TrajectoryEnsemble(x0, v0, 0.3 * rng.standard_normal((24, 16, 1)), 1.0, w / w.sum())
    kernel = CuckerSmaleKernel(1.0, 0.5)
    energy = discrete_energy(ens, kernel, 10.0)
    fit = minimize_energy(ParticleEnsemble.equal_weights(np.hstack([x0, v0]), 1), kernel, 10.0, 1.0, 16)
    return {
        "energy": [energy.control, energy.interaction],
        "gradient": energy_gradient(ens, kernel, 10.0).tolist(),
        "el_residual": el_residual(ens, kernel, 10.0),
        "minimize_controls": fit.ensemble.controls.tolist(),
        "minimize_iterations": fit.iterations,
    }


VALIDATED = {
    "exponential": ExponentialKernel(1.0, 1.0),
    "repulsive_attractive": RepulsiveAttractiveKernel(1.0),
    "morse": MorseKernel(0.5, 2.0),
    "crowd": CrowdRadialKernel(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 0.5, 0.1, 0.0])),
    "zero": ZeroKernel(),
}


def validators() -> dict:
    out = {}
    for name, kernel in VALIDATED.items():
        rep = validate_coupling(kernel, budget=1000, seed=5)
        out[name] = [rep.c0, rep.lipschitz_constant, rep.growth_constant, rep.semiconcavity_constant]
    return out


def csv_artifacts(tmp: Path) -> dict:
    rng, _, cs_atoms = _inputs()
    texts = {
        "grid": GridDensity.gaussian(0.1, 0.5, -2.0, 0.25, 16).to_csv(),
        "phase": ParticleEnsemble.equal_weights(rng.standard_normal((5, 4)), 2).to_csv(),
    }
    controls = rng.standard_normal((3, 4, 1))
    traj = TrajectoryEnsemble(cs_atoms.positions[:3], cs_atoms.velocities[:3], controls, 1.0, np.full(3, 1 / 3))
    texts["trajectories"] = traj.to_csv()
    rows = (
        {"w1_sup": 0.1, "converged": True, "iterations": 7, "flagged": False},
        {"w1_sup": 1 / 3, "converged": False, "iterations": 12, "note": None, "flagged": True},
    )
    texts["report"] = ConvergenceReport("classic", (5.0, 20.0), rows, {}, {}, 0).to_csv()
    (tmp / "cs.ini").write_text(
        "[model]\nkernel = cucker-smale\nalpha = 1.0\nbeta = 0.5\n"
        "[solver]\natoms_x = 0, 0.5, -1\natoms_v = 1, -1, 0.25\nT = 0.5\ndt = 0.01\n"
    )
    assert _cli(["solve-cs", "--config", str(tmp / "cs.ini"), "--out", str(tmp / "cs")]) == 0
    texts["states"] = (tmp / "cs" / "states.csv").read_text()
    (tmp / "mfg.ini").write_text("[model]\nkernel = exponential\n[solver]\nlambda = 5.0\nT = 0.2\nn_x = 32\ndt = 0.01\n")
    _cli(["solve-mfg", "--config", str(tmp / "mfg.ini"), "--out", str(tmp / "mfg")])
    texts["u0"] = (tmp / "mfg" / "u0.csv").read_text()
    texts["m_final"] = (tmp / "mfg" / "m_final.csv").read_text()
    return {
        name: {"sha256": hashlib.sha256(text.encode()).hexdigest(), "head": text.splitlines()[:2]}
        for name, text in texts.items()
    }


def _on_path(path, fn):
    """fn() with every radial pair sum on the dense or on the sorted body."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "dense":
            for cls in (ExponentialKernel, MorseKernel):
                mp.setattr(cls, "_exp_terms", None)
        else:
            mp.setattr(kernels, "_SORTED_MIN_ATOMS", 1)
        return fn()


@pytest.fixture(scope="module")
def computed():
    return _on_path("dense", integrations)


@pytest.fixture(scope="module")
def computed_sorted():
    return _on_path("sorted", integrations)


@pytest.mark.parametrize("key", ["particles_final", "cs_final", "richardson"])
def test_integration_bit_identical(computed, key):
    assert np.array_equal(np.array(computed[key]), np.array(GOLDEN["integrations"][key]))


def test_sorted_path_integrations(computed_sorted):
    # 50 Morse atoms, 50 RK4 steps: positions within 1e-14 absolute; Cucker-Smale does not use the radial sum
    expected = GOLDEN["integrations"]
    assert np.max(np.abs(np.array(computed_sorted["particles_final"]) - expected["particles_final"])) <= 1e-14
    for key in ("particles_len", "cs_len", "cs_final", "richardson"):
        assert computed_sorted[key] == expected[key], key


def test_snapshot_counts(computed):
    assert computed["particles_len"] == GOLDEN["integrations"]["particles_len"]
    assert computed["cs_len"] == GOLDEN["integrations"]["cs_len"]


@pytest.fixture(scope="module")
def accel():
    return accelerations()


@pytest.mark.parametrize("key", ["energy", "gradient", "el_residual", "minimize_controls"])
def test_acceleration_bit_identical(accel, key):
    assert np.array_equal(np.array(accel[key]), np.array(GOLDEN["acceleration"][key]))


def test_minimize_iterations(accel):
    assert accel["minimize_iterations"] == GOLDEN["acceleration"]["minimize_iterations"]


def test_validator_constants_bit_identical():
    assert _on_path("dense", validators) == GOLDEN["validators"]


def test_validator_constants_sorted_path():
    # the semiconcavity ratio divides roundoff by h^2 >= 1e-8, hence 1e-10 relative
    got = _on_path("sorted", validators)
    assert got.keys() == GOLDEN["validators"].keys()
    for name, expected in GOLDEN["validators"].items():
        assert got[name] == pytest.approx(expected, rel=1e-10, abs=0.0), name


def test_csv_artifacts_byte_identical(tmp_path):
    got = csv_artifacts(tmp_path)
    assert got.keys() == GOLDEN["csv"].keys()
    for name, expected in GOLDEN["csv"].items():
        assert got[name]["head"] == expected["head"], name
        assert got[name]["sha256"] == expected["sha256"], name
