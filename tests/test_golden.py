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
pair sum, which has two bodies, a dense one and a sorted one for
exponential sums.  They were recorded with the dense body of d-vector
offsets, ``test_pair_sums.d_vector_dense_pair_sum``: on that oracle the
particles stay bit-identical.  The dense body on the line sums the same
values and gradient terms within an ulp each, so on it the validator
constants stay bit-identical and the particles within 1e-14; the sorted
body is pinned within the roundoff of its different summation order.

The ``csv.u0`` and ``csv.m_final`` digests were re-recorded when the
MFG fixed point became Anderson-accelerated and began to stop on every
time node: the loop stops at a different iterate inside the same
tolerance.  ``PICARD_CSV`` keeps the values the damped Picard loop wrote,
and the new files must stay within 1e-7 of them.  The two digests were
re-recorded again when the implicit diffusion solve moved from a sparse
LU to LAPACK pttrf/pttrs, which moves the last digits.

The ``csv.phase`` digest was re-recorded when atoms came to live on the
line only: its ensemble of 5 phase-space atoms in d = 2 (columns
x1,x2,v1,v2,w) became 10 (x, v) atoms on the line from the same draws
(columns x1,v1,w), which keeps the rng stream of the later artifacts.
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
from test_pair_sums import d_vector_dense_pair_sum

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())


# value columns of u0.csv and m_final.csv as the damped Picard fixed point (residual 5.9e-7) wrote them
PICARD_CSV = {
    "u0": [
        0.000503419203999479, 0.0006872788790402274, 0.0009924069211110368, 0.0014427780046783294,
        0.002098924875783018, 0.0030535425026025392, 0.004442069958523288, 0.006461193511491527,
        0.009395303710004226, 0.013650716093965351, 0.01978796776627412, 0.02850612023890337,
        0.04042958120094306, 0.0553703322004088, 0.07088167709223345, 0.08146518835481036,
        0.08146518835481034, 0.07088167709223345, 0.055370332200408795, 0.04042958120094308,
        0.02850612023890338, 0.019787967766274124, 0.013650716093965355, 0.009395303710004231,
        0.006461193511491528, 0.004442069958523291, 0.00305354250260254, 0.0020989248757830184,
        0.0014427780046783298, 0.0009924069211110368, 0.0006872788790402273, 0.0005034192039994786,
    ],
    "m_final": [
        3.3008774524976372e-12, 3.7711018911655364e-11, 4.386719968234633e-10, 4.798006335259457e-09,
        4.893959113737064e-08, 4.612125382431265e-07, 3.97108795420339e-06, 3.081412434544792e-05,
        0.00021190447756921856, 0.001265065985104865, 0.006392560943515497, 0.026524520539727644,
        0.08732959786566889, 0.2205295691485988, 0.41578154154037145, 0.5752632721906578,
        0.5752632721906578, 0.41578154154037145, 0.2205295691485987, 0.08732959786566888,
        0.026524520539727644, 0.006392560943515496, 0.0012650659851048648, 0.0002119044775692186,
        3.081412434544793e-05, 3.971087954203392e-06, 4.6121253824312697e-07, 4.8939591137370684e-08,
        4.798006335259461e-09, 4.3867199682346366e-10, 3.7711018911655396e-11, 3.300877452497639e-12,
    ],
}


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


def _accel_ensemble():
    """24 curves on the line with 16 random controls; the draws are those of the (N, 1) and
    (N, K, 1) arrays the values were recorded with."""
    rng = np.random.default_rng(31)
    x0, v0 = rng.standard_normal(24), rng.standard_normal(24)
    w = rng.uniform(0.5, 1.5, 24)
    return TrajectoryEnsemble(x0, v0, 0.3 * rng.standard_normal((24, 16)), 1.0, w / w.sum())


def accelerations() -> dict:
    ens = _accel_ensemble()
    kernel = CuckerSmaleKernel(1.0, 0.5)
    energy = discrete_energy(ens, kernel, 10.0)
    fit = minimize_energy(ParticleEnsemble.equal_weights(np.column_stack([ens.x0, ens.v0]), 1), kernel, 10.0, 1.0, 16)
    # (N, K) arrays in the recorded (N, K, 1) layout
    return {
        "energy": [energy.control, energy.interaction],
        "gradient": energy_gradient(ens, kernel, 10.0)[1][..., None].tolist(),
        "el_residual": el_residual(ens, kernel, 10.0),
        "minimize_controls": fit.ensemble.controls[..., None].tolist(),
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


def csv_texts(tmp: Path) -> dict:
    rng, _, cs_atoms = _inputs()
    texts = {
        "grid": GridDensity.gaussian(0.1, 0.5, -2.0, 0.25, 16).to_csv(),
        # the 20 draws of the (5, 4) d = 2 ensemble it was recorded with, now as 10 (x, v) atoms
        "phase": ParticleEnsemble.equal_weights(rng.standard_normal((5, 4)).reshape(10, 2), 1).to_csv(),
    }
    controls = rng.standard_normal((3, 4))
    traj = TrajectoryEnsemble(cs_atoms.points[:3, 0], cs_atoms.points[:3, 1], controls, 1.0, np.full(3, 1 / 3))
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
    return texts


def csv_artifacts(tmp: Path) -> dict:
    return {
        name: {"sha256": hashlib.sha256(text.encode()).hexdigest(), "head": text.splitlines()[:2]}
        for name, text in csv_texts(tmp).items()
    }


def _on_path(path, fn):
    """fn() with every radial pair sum on the dense body, on its d-vector oracle or on the sorted body."""
    with pytest.MonkeyPatch.context() as mp:
        if path in ("dense", "oracle"):
            for cls in (ExponentialKernel, MorseKernel):
                mp.setattr(cls, "_exp_terms", None)
        else:
            mp.setattr(kernels, "_SORTED_MIN_ATOMS", 1)
        if path == "oracle":
            mp.setattr(kernels, "_dense_pair_sum", d_vector_dense_pair_sum)
        return fn()


@pytest.fixture(scope="module")
def computed():
    return _on_path("oracle", integrations)


@pytest.fixture(scope="module")
def computed_dense():
    return _on_path("dense", integrations)


@pytest.fixture(scope="module")
def computed_sorted():
    return _on_path("sorted", integrations)


@pytest.mark.parametrize("key", ["particles_final", "cs_final", "richardson"])
def test_integration_bit_identical(computed, key):
    assert np.array_equal(np.array(computed[key]), np.array(GOLDEN["integrations"][key]))


def _near_golden(computed):
    # 50 Morse atoms, 50 RK4 steps: positions within 1e-14 absolute; Cucker-Smale does not use the radial sum
    expected = GOLDEN["integrations"]
    assert np.max(np.abs(np.array(computed["particles_final"]) - expected["particles_final"])) <= 1e-14
    for key in ("particles_len", "cs_len", "cs_final", "richardson"):
        assert computed[key] == expected[key], key


def test_dense_path_integrations(computed_dense):
    _near_golden(computed_dense)


def test_sorted_path_integrations(computed_sorted):
    _near_golden(computed_sorted)


def test_snapshot_counts(computed):
    assert computed["particles_len"] == GOLDEN["integrations"]["particles_len"]
    assert computed["cs_len"] == GOLDEN["integrations"]["cs_len"]


@pytest.fixture(scope="module")
def accel():
    return accelerations()


@pytest.mark.parametrize("key", ["energy", "gradient", "el_residual", "minimize_controls"])
def test_acceleration_bit_identical(accel, key):
    assert np.array_equal(np.array(accel[key]), np.array(GOLDEN["acceleration"][key]))


def test_objective_energy_bit_identical():
    """The energy the L-BFGS objective sees comes from the pass that gives the gradient
    (``kernels._cs_pair_sum``, which replaced ``acceleration._pair_gradients`` and the
    separate value pass); it equals the recorded energy bit for bit."""
    energy, _ = energy_gradient(_accel_ensemble(), CuckerSmaleKernel(1.0, 0.5), 10.0)
    assert [energy.control, energy.interaction] == GOLDEN["acceleration"]["energy"]


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


def test_mfg_csvs_near_damped_picard(tmp_path):
    texts = csv_texts(tmp_path)
    for name, expected in PICARD_CSV.items():
        column = [float(line.split(",")[1]) for line in texts[name].splitlines()[1:]]
        np.testing.assert_allclose(column, expected, rtol=0.0, atol=1e-7, err_msg=name)
