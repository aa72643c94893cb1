"""Exact outputs of the RK4 integrations and of every CSV artifact.

The values in data/golden.json were recorded with the two separate RK4
loops (aggregation particles, Cucker-Smale) and the per-artifact CSV
writers that the shared ``_rk4`` stepper and ``_csv_table`` writer
replaced.  The floats must stay bit-identical and the CSV text
byte-identical; regenerating the file would defeat the check.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from mfglab import (
    ConvergenceReport,
    CuckerSmaleKernel,
    DriftField,
    GridDensity,
    MorseKernel,
    ParticleEnsemble,
    QuadraticDriftHamiltonian,
    TrajectoryEnsemble,
    richardson_order_ratio,
    solve_aggregation_particles,
    solve_cs,
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


@pytest.fixture(scope="module")
def computed():
    return integrations()


@pytest.mark.parametrize("key", ["particles_final", "cs_final", "richardson"])
def test_integration_bit_identical(computed, key):
    assert np.array_equal(np.array(computed[key]), np.array(GOLDEN["integrations"][key]))


def test_snapshot_counts(computed):
    assert computed["particles_len"] == GOLDEN["integrations"]["particles_len"]
    assert computed["cs_len"] == GOLDEN["integrations"]["cs_len"]


def test_csv_artifacts_byte_identical(tmp_path):
    got = csv_artifacts(tmp_path)
    assert got.keys() == GOLDEN["csv"].keys()
    for name, expected in GOLDEN["csv"].items():
        assert got[name]["head"] == expected["head"], name
        assert got[name]["sha256"] == expected["sha256"], name
