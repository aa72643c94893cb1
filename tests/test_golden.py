"""Exact outputs of the RK4 integrations, the pair sums and every CSV artifact.

The values in data/golden.json were recorded with the two separate RK4
loops (aggregation particles, Cucker-Smale) and the per-artifact CSV
writers that the shared ``_rk4`` stepper and ``_csv_table`` writer
replaced.  The ``acceleration`` values were recorded with the
per-module pair sums (``_pair_interaction``) that
``acceleration._pair_gradients`` replaced.  The floats must stay
bit-identical and the CSV text byte-identical; regenerating the file
would defeat the check.

The Morse particles go through the radial pair sums: the flock with
itself through the dense body or a sorted one for exponential sums.
They were recorded with the dense body of d-vector offsets,
``test_pair_sums.d_vector_dense_pair_sum``: on that oracle they stay
bit-identical.  The dense body on the line sums the same values and
gradient terms within an ulp each, so on it the particles stay within
1e-14; the sorted self body, which the Morse kernel chooses, is pinned
within the roundoff of its different summation order.  The dense and
oracle paths put the self sum on the dense body by patching
``_self_pair_sum`` in ``kernels`` and in ``aggregation``, which imports
it.  The validator constants once pinned here were sampled; the kernels
now state them, and ``test_kernels`` holds their exact table.

The ``csv.u0`` and ``csv.m_final`` digests were re-recorded when the
MFG fixed point became Anderson-accelerated and began to stop on every
time node: the loop stops at a different iterate inside the same
tolerance.  ``PICARD_CSV`` keeps the values the damped Picard loop wrote,
and the new files must stay within 1e-7 of them.  The two digests were
re-recorded again when the implicit diffusion solve moved from a sparse
LU to LAPACK pttrf/pttrs, which moves the last digits, and once more, with
``PICARD_CSV``, when the source of the HJB step became the product
trapezoid (``measures._exp_trapezoid_weights``) on the step's two nodes in
place of F at the step's end: u0 moved by up to 2.0e-4 and m_final by up
to 1.5e-4.

The Cucker-Smale values (``cs_final``, ``richardson`` and the
``csv.states`` digest) were recorded with the alignment acceleration
from the dense pair sum (``dense_cs_pair_sum(grad_v=True)``), kept as
the test oracle ``test_pair_sums.pair_sum_cs_alignment``: on it they
stay bit-identical and byte-identical.  The shipped matrix form
(``_cs_alignment``: the block-upper staircase of the weight matrix,
centred velocities; at the 24 atoms here one block, the full matrix
and one product) sums the same terms in another order, within 4e-16
of the scale per call.  It is pinned
against the same values within 1e-14 absolute on the final states and
on the parsed ``states.csv`` values (the gap is 2.2e-16), and 1e-6
relative on the Richardson ratio (3.0e-8), which divides two
roundoff-sized differences.

The ``acceleration`` values (energy, gradient, EL residual, the
minimizer's controls and its fixed-point steps) are recorded with the
Cucker-Smale pair sum over whole (N, N, K+1) offset arrays, kept as the
test oracle ``test_pair_sums.dense_cs_pair_sum``: patched in for the
shipped pass and for the reported energy's pair sums
(``kernels._cs_pair_pass`` and ``kernels._cs_pair_energy``: each
unordered pair once, on pair differences, in chunks of time nodes), they
stay bit-identical.  The shipped path sums the same terms in another
order.  Its EL residual and the control energy stay bit-identical; the
reported interaction energy (``discrete_energy``, ``kernel.value`` on
the pairs) and the objective's are pinned within 1e-14 relative (gap
3.3e-16), the gradient within 1e-14 of its largest entry (1.4e-16 of
it), the controls within 1e-13 absolute (4.4e-16) and the step count
within one (13 steps on both paths).

The minimizer's controls and steps were re-recorded when the fixed point
of ``minimize_energy`` went from Anderson depth 1 to a depth-4 history
(``acceleration.ANDERSON_DEPTH``): it stops after 13 steps, not 18, at
another iterate within the same 1e-10 control step, and the controls
moved by up to 4.0e-10.  The energy, gradient and EL residual, which
take no fixed point, did not move.

The energy, gradient and controls were re-recorded when the interaction
integral moved from the trapezoid rule to the product trapezoid
(``measures._exp_trapezoid_weights``) and L-BFGS-B gave way to the
Anderson fixed point; the EL residual, which takes no quadrature
weights, did not move.  ``acceleration_trapezoid`` keeps the values
recorded before.  With the trapezoid rule patched back in, the oracle
path gives that energy and gradient bit for bit, and the fixed point
lands within 1e-6 of the L-BFGS-B controls (3.8e-7: L-BFGS-B stopped on
a 2.7e-10 gradient in the preconditioned controls, the fixed point on a
1e-10 control step).  On the product trapezoid the controls move by up
to 0.067 on a scale of 2.5, since lambda dt = 0.625 at K = 16.

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

from mfglab import acceleration, aggregation, cucker_smale, kernels
from mfglab import (
    ConvergenceReport,
    CuckerSmaleKernel,
    DriftField,
    GridDensity,
    MorseKernel,
    ParticleEnsemble,
    QuadraticDriftHamiltonian,
    TrajectoryEnsemble,
    discrete_energy,
    el_residual,
    energy_gradient,
    minimize_energy,
    richardson_order_ratio,
    solve_aggregation_particles,
    solve_cs,
)
from mfglab.cli import main
from test_pair_sums import d_vector_dense_pair_sum, dense_cs_pair_energy, dense_cs_pair_pass, pair_sum_cs_alignment

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())


# value columns of u0.csv and m_final.csv as the damped Picard fixed point (residual 5.7e-07) wrote them
PICARD_CSV = {
    "u0": [
        0.0005021085985915075, 0.0006854862881401046, 0.0009898176037903127, 0.0014390136406379147,
        0.0020934490455192544, 0.0030455778036837236, 0.004430489884398197, 0.006444378916311253,
        0.00937098919037712, 0.013615989281943654, 0.01974005924262236, 0.028445893117251,
        0.040371355056914096, 0.05535648173615382, 0.07097193815821962, 0.08166184374806593,
        0.08166184374806594, 0.07097193815821962, 0.05535648173615381, 0.0403713550569141,
        0.028445893117251, 0.019740059242622367, 0.013615989281943658, 0.00937098919037712,
        0.006444378916311254, 0.004430489884398198, 0.003045577803683724, 0.0020934490455192544,
        0.001439013640637914, 0.000989817603790313, 0.0006854862881401046, 0.0005021085985915074,
    ],
    "m_final": [
        3.3002243290870052e-12, 3.7704129453175114e-11, 4.3860029076262885e-10, 4.797344173142498e-09,
        4.893448255931758e-08, 4.611848200812168e-07, 3.971079922584259e-06, 3.081638795869367e-05,
        0.0002119404380336301, 0.0012654293884062345, 0.0063952268636703, 0.02653846520313424,
        0.08737671604450169, 0.22061055030952856, 0.4157905051133907, 0.5751091971085354,
        0.5751091971085355, 0.41579050511339066, 0.2206105503095286, 0.08737671604450171,
        0.026538465203134243, 0.006395226863670299, 0.001265429388406234, 0.00021194043803363013,
        3.081638795869368e-05, 3.97107992258426e-06, 4.611848200812169e-07, 4.893448255931758e-08,
        4.7973441731424964e-09, 4.386002907626288e-10, 3.770412945317511e-11, 3.3002243290870052e-12,
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
    path = solve_aggregation_particles(ham, MorseKernel(0.5, 2.0), morse_atoms, 0.5, 0.01, range(51))  # every node
    cs = solve_cs(cs_atoms, CuckerSmaleKernel(1.0, 0.5), 0.2, 0.01, range(21))
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


def states_csv(tmp: Path) -> str:
    """states.csv of ``mfglab solve-cs`` on three (x, v) atoms."""
    (tmp / "cs.ini").write_text(
        "[model]\nkernel = cucker-smale\nalpha = 1.0\nbeta = 0.5\n"
        "[solver]\natoms_x = 0, 0.5, -1\natoms_v = 1, -1, 0.25\nT = 0.5\ndt = 0.01\n"
    )
    assert _cli(["solve-cs", "--config", str(tmp / "cs.ini"), "--out", str(tmp / "cs")]) == 0
    return (tmp / "cs" / "states.csv").read_text()


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
    texts["states"] = states_csv(tmp)
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


def _dense_self_sum(kernel, w, gradient=False):
    """``kernels._self_pair_sum`` on the dense body, whatever the kernel: kernels._dense_pair_sum is looked up
    at each call, so the d-vector oracle applies once it is patched in."""
    return lambda pos: kernels._dense_pair_sum(kernel, pos, pos, w, gradient)


def _on_path(path, fn):
    """fn() with every radial pair sum on the dense body or on its d-vector oracle, or with every self sum
    on the body its kernel chooses (sorted for a sum of exponentials); on the oracle path the Cucker-Smale
    alignment takes its dense pair-sum oracle too."""
    with pytest.MonkeyPatch.context() as mp:
        if path in ("dense", "oracle"):
            for module in (kernels, aggregation):
                mp.setattr(module, "_self_pair_sum", _dense_self_sum)
        if path == "oracle":
            mp.setattr(kernels, "_dense_pair_sum", d_vector_dense_pair_sum)
            mp.setattr(cucker_smale, "_cs_alignment", pair_sum_cs_alignment)
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
    # 50 Morse atoms, 50 RK4 steps: positions within 1e-14 absolute; the 24-atom flock on the
    # shipped alignment body within 1e-14 absolute, its Richardson ratio within 1e-6 relative
    expected = GOLDEN["integrations"]
    for key in ("particles_final", "cs_final"):
        assert np.max(np.abs(np.array(computed[key]) - expected[key])) <= 1e-14, key
    assert computed["richardson"] == pytest.approx(expected["richardson"], rel=1e-6, abs=0.0)
    for key in ("particles_len", "cs_len"):
        assert computed[key] == expected[key], key


def test_dense_path_integrations(computed_dense):
    _near_golden(computed_dense)


def test_sorted_path_integrations(computed_sorted):
    _near_golden(computed_sorted)


def test_snapshot_counts(computed):
    assert computed["particles_len"] == GOLDEN["integrations"]["particles_len"]
    assert computed["cs_len"] == GOLDEN["integrations"]["cs_len"]


def _on_dense_cs_pass(fn):
    """fn() with the dense Cucker-Smale pair-sum oracle in place of the shipped pair pass and
    the reported energy's pair sums."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceleration, "_cs_pair_pass", dense_cs_pair_pass)
        mp.setattr(acceleration, "_cs_pair_energy", dense_cs_pair_energy)
        return fn()


@pytest.fixture(scope="module")
def accel():
    return _on_dense_cs_pass(accelerations)


@pytest.fixture(scope="module")
def accel_shipped():
    return accelerations()


@pytest.mark.parametrize("key", ["energy", "gradient", "el_residual", "minimize_controls"])
def test_acceleration_bit_identical(accel, key):
    assert np.array_equal(np.array(accel[key]), np.array(GOLDEN["acceleration"][key]))


def test_acceleration_near_golden(accel_shipped):
    """The shipped pair pass against the recorded values, within the tolerances stated above."""
    expected, got = GOLDEN["acceleration"], accel_shipped
    assert got["energy"][0] == expected["energy"][0]
    assert got["energy"][1] == pytest.approx(expected["energy"][1], rel=1e-14, abs=0.0)
    assert got["el_residual"] == expected["el_residual"]
    gradient = np.array(expected["gradient"])
    assert np.max(np.abs(np.array(got["gradient"]) - gradient)) <= 1e-14 * np.max(np.abs(gradient))
    assert np.max(np.abs(np.array(got["minimize_controls"]) - expected["minimize_controls"])) <= 1e-13
    assert abs(got["minimize_iterations"] - expected["minimize_iterations"]) <= 1


def test_objective_energy_bit_identical():
    """The energy the fixed point's objective sees comes from the pass that gives the gradient; on the
    dense oracle it equals the recorded energy bit for bit, on the shipped pass the control part
    does and the interaction part stays within 1e-14 relative."""
    energy, _ = _on_dense_cs_pass(lambda: energy_gradient(_accel_ensemble(), CuckerSmaleKernel(1.0, 0.5), 10.0))
    assert [energy.control, energy.interaction] == GOLDEN["acceleration"]["energy"]
    energy, _ = energy_gradient(_accel_ensemble(), CuckerSmaleKernel(1.0, 0.5), 10.0)
    control, interaction = GOLDEN["acceleration"]["energy"]
    assert energy.control == control
    assert energy.interaction == pytest.approx(interaction, rel=1e-14, abs=0.0)


def test_minimize_iterations(accel):
    assert accel["minimize_iterations"] == GOLDEN["acceleration"]["minimize_iterations"]


def _trapezoid_weights(times, lam):
    """The trapezoid rule for int e^(-lam t) f(t) dt that the product trapezoid replaced."""
    dt = times[1] - times[0]
    c = np.full(times.size, dt)
    c[0] = c[-1] = 0.5 * dt
    return c * np.exp(-lam * times)


def test_trapezoid_values_cross_check(monkeypatch):
    """The values recorded before the re-pin, within the tolerances stated above."""
    monkeypatch.setattr(acceleration, "_exp_trapezoid_weights", _trapezoid_weights)
    got, expected = _on_dense_cs_pass(accelerations), GOLDEN["acceleration_trapezoid"]
    assert got["energy"] == expected["energy"]
    assert np.array_equal(np.array(got["gradient"]), np.array(expected["gradient"]))
    assert np.max(np.abs(np.array(got["minimize_controls"]) - expected["minimize_controls"])) <= 1e-6


def test_csv_artifacts_byte_identical(tmp_path, monkeypatch):
    # states.csv on the Cucker-Smale oracle; no other artifact runs the alignment
    monkeypatch.setattr(cucker_smale, "_cs_alignment", pair_sum_cs_alignment)
    got = csv_artifacts(tmp_path)
    assert got.keys() == GOLDEN["csv"].keys()
    for name, expected in GOLDEN["csv"].items():
        assert got[name]["head"] == expected["head"], name
        assert got[name]["sha256"] == expected["sha256"], name


def _states(text):
    """The value columns (t, x1, v1, w) of states.csv, one row per atom and snapshot."""
    return np.array([[float(c) for c in line.split(",")[1:]] for line in text.splitlines()[1:]])


def test_states_csv_near_oracle(tmp_path):
    """The shipped alignment body writes states.csv within 1e-14 of the values the
    oracle writes byte for byte (test_csv_artifacts_byte_identical)."""
    (tmp_path / "oracle").mkdir()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cucker_smale, "_cs_alignment", pair_sum_cs_alignment)
        expected = states_csv(tmp_path / "oracle")
    got = states_csv(tmp_path)
    assert got.splitlines()[0] == expected.splitlines()[0]
    np.testing.assert_allclose(_states(got), _states(expected), rtol=0.0, atol=1e-14)


def test_mfg_csvs_near_damped_picard(tmp_path):
    texts = csv_texts(tmp_path)
    for name, expected in PICARD_CSV.items():
        column = [float(line.split(",")[1]) for line in texts[name].splitlines()[1:]]
        np.testing.assert_allclose(column, expected, rtol=0.0, atol=1e-7, err_msg=name)
