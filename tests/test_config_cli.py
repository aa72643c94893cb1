import json
import re
import resource
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mfglab import (
    ConfigError,
    CuckerSmaleKernel,
    DriftField,
    ExponentialKernel,
    MorseKernel,
    ParticleEnsemble,
    PdeConfig,
    RepulsiveAttractiveKernel,
    parse_config,
    richardson_order_ratio,
    run_lambda_sweep_acceleration,
    write_config,
)
from mfglab import mfg_pde
from mfglab.cli import main
from mfglab.config import KERNEL_NAMES
from mfglab.convergence import EL_TOLERANCE, REFERENCE_TOLERANCE
from mfglab.errors import ParameterError


MINIMAL = "[model]\nkernel = exponential\n"

CLASSIC_TINY = "[model]\nkernel = exponential\n[solver]\nT = 0.5\nn_x = 64\ndt = 0.01\n"
FLOCK_TINY = "[model]\nkernel = cucker-smale\nbeta = 0.5\n[solver]\nT = 0.5\ndt = 0.01\nn_intervals = 16\n"

#: command -> (config, JSON artifact, exit status): each writes one JSON artifact; error.json on a bad config
ARTIFACT_CASES = {
    "validate-model": (MINIMAL, "validation.json", 0),
    "solve-mfg": (CLASSIC_TINY, "solution.json", 0),
    "solve-limit": (CLASSIC_TINY, "solution.json", 0),
    "solve-accel": (FLOCK_TINY, "solution.json", 0),
    "solve-cs": (FLOCK_TINY, "solution.json", 0),
    "sweep-classic": (CLASSIC_TINY + "[sweep]\nlambdas = 5, 20\ncross_particles = 20\n", "sweep.json", 0),
    "sweep-accel": (FLOCK_TINY + "[sweep]\nlambdas = 10\n", "sweep.json", 0),
    "error": ("[solver]\nlambda = -3\n", "error.json", 2),
}


class TestParseConfig:
    def test_defaults_applied_and_recorded(self):
        desc = parse_config(MINIMAL)
        assert desc.solver["lambda"] == 10.0
        assert desc.solver["n_x"] == 256
        assert desc.sweep["threads"] == 1
        assert "solver.lambda" in desc.defaults_applied
        assert "model.kernel" not in desc.defaults_applied

    def test_round_trip_identity(self):
        desc = parse_config(
            "[model]\nkernel = morse\nG = 0.5\nL = 2.0\n"
            "[solver]\nlambda = 12.5\nn_x = 64\n"
            "[sweep]\nlambdas = 1, 2, 4\n"
        )
        again = parse_config(write_config(desc))
        assert again == desc
        assert again.defaults_applied == ()

    def test_builders(self):
        desc = parse_config(
            "[model]\nkernel = exponential\nalpha = 2.0\na = 0.5\n"
            "[solver]\nlambda = 7.0\n"
        )
        kernel = desc.build_kernel()
        assert isinstance(kernel, ExponentialKernel)
        assert kernel.phi(0.0) == pytest.approx(2.0)
        assert desc.build_pde_config().lam == 7.0
        m0 = desc.build_m0_grid()
        assert m0.dx * m0.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_atoms_override(self):
        desc = parse_config(
            "[model]\nkernel = cucker-smale\n"
            "[solver]\natoms_x = 0, 0\natoms_v = 1, -1\n"
        )
        m0 = desc.build_m0_atoms()
        assert np.array_equal(m0.points, [[0.0, 1.0], [0.0, -1.0]])

    def test_negative_lambda_names_field(self):
        with pytest.raises(ConfigError, match="solver.lambda"):
            parse_config("[solver]\nlambda = -1\n")

    @pytest.mark.parametrize(
        "field, raw",
        [
            ("solver.lambda", "nan"),
            ("solver.T", "inf"),
            ("solver.dt", "nan"),
            ("solver.half_width", "inf"),
            ("model.beta", "nan"),
            ("solver.m0_center", "nan"),
            ("model.alpha", "-inf"),
            ("solver.nu", "nan"),
            ("sweep.lambdas", "5, inf"),
        ],
    )
    def test_non_finite_floats_name_field(self, field, raw):
        section, key = field.split(".")
        with pytest.raises(ConfigError, match=rf"^{field}: .*finite"):
            parse_config(f"[{section}]\n{key} = {raw}\n")

    def test_nan_lambda_message(self):
        with pytest.raises(ConfigError, match="^solver.lambda: must be finite, got nan$"):
            parse_config("[solver]\nlambda = nan\n")

    def test_morse_parameter_ranges(self):
        with pytest.raises(ConfigError, match="model.G"):
            parse_config("[model]\nkernel = morse\nG = 1.5\n")
        with pytest.raises(ConfigError, match="model.L"):
            parse_config("[model]\nkernel = morse\nL = 0.5\n")

    def test_unknown_kernel_and_option(self):
        with pytest.raises(ConfigError, match="model.kernel"):
            parse_config("[model]\nkernel = gravity\n")
        with pytest.raises(ConfigError, match="unknown option"):
            parse_config("[model]\nmass = 3\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[physics]\nkernel = zero\n")

    def test_negative_viscosity(self):
        with pytest.raises(ConfigError, match="solver.nu"):
            parse_config("[solver]\nnu = -0.5\n")

    def test_lambdas_must_increase(self):
        with pytest.raises(ConfigError, match="sweep.lambdas"):
            parse_config("[sweep]\nlambdas = 5, 5, 10\n")

    def test_unparsable_typed_field(self):
        with pytest.raises(ConfigError, match="solver.dt"):
            parse_config("[solver]\ndt = fast\n")

    @pytest.mark.parametrize(
        "solver, field",
        [
            ("atoms_x = 0.1, 0.2\n", "solver.atoms_v"),
            ("atoms_v = 1, -1\n", "solver.atoms_x"),
            ("atoms_x = 0.1, abc\natoms_v = 1, -1\n", "solver.atoms_x"),
            ("atoms_x = 0.1, 0.2\natoms_v = 1, nan\n", "solver.atoms_v"),
            ("atoms_x = 0.1, 0.2\natoms_v = 1\n", "solver.atoms_v"),
        ],
    )
    def test_partial_atom_lists_name_field(self, solver, field):
        with pytest.raises(ConfigError, match=rf"^{field}: "):
            parse_config(f"[model]\nkernel = cucker-smale\n[solver]\n{solver}")

    @pytest.mark.parametrize(
        "field, raw",
        [
            ("model.beta", "-1.0"),
            ("solver.half_width", "-1.0"),
            # a cell width 2 half_width / n_x that underflows or overflows is the half-width's fault
            ("solver.half_width", "5e-324"),
            ("solver.half_width", "1e-320"),
            ("solver.half_width", "1e308"),
            ("solver.T", "-1.0"),
            ("solver.T", "0.0"),
            ("solver.dt", "0.0"),
            ("solver.max_iterations", "0"),  # a removed key: unknown, and named by its path
            ("sweep.cross_particles", "0"),
        ],
    )
    def test_out_of_range_values_name_field(self, field, raw):
        section, key = field.split(".")
        text = f"[{section}]\n{key} = {raw}\n"
        if section == "model":
            text += "kernel = cucker-smale\n"
        with pytest.raises(ConfigError, match=rf"^{field}: "):
            parse_config(text)

    @pytest.mark.parametrize("key", ["mode", "theta", "tolerance", "max_iterations"])
    def test_removed_fixed_point_options_are_unknown(self, key):
        with pytest.raises(ConfigError, match=rf"^solver.{key}: unknown option"):
            parse_config(f"[solver]\n{key} = 0.5\n")

    @pytest.mark.parametrize("field, raw", [("solver.m0_center", "100.0"), ("solver.m0_sigma", "1e-9")])
    def test_initial_density_off_the_grid_names_field(self, field, raw):
        """A Gaussian m0 that gives no cell centre of the default grid any mass fails at parse time."""
        key = field.split(".")[1]
        with pytest.raises(ConfigError, match=rf"^{field}: .* puts no mass on the cells of \[-6.0, 6.0\]"):
            parse_config(f"[solver]\n{key} = {raw}\n")

    @pytest.mark.parametrize("solver", ["T = 1e-9\ndt = 0.01\n", "T = 1e-4\ndt = 1e-3\n", "T = 1e308\ndt = 1e-308\n"])
    def test_clock_without_a_step_names_dt(self, solver):
        """T / dt must round to at least one step and stay finite: the solvers' clock, checked at parse time."""
        with pytest.raises(ConfigError, match=r"^solver.dt: T / dt must round"):
            parse_config(f"[solver]\n{solver}")

    def test_threads_accepts_only_one(self):
        desc = parse_config("[sweep]\nthreads = 1\n")
        assert parse_config(write_config(desc)) == desc
        with pytest.raises(ConfigError, match="^sweep.threads: "):
            parse_config("[sweep]\nthreads = 2\n")


NAN, INF = float("nan"), float("inf")
FLOCK = ParticleEnsemble.equal_weights(np.array([[0.0, 1.0], [0.0, -1.0]]), 1)

#: (API call, the parameter it names, the same value in a config, the field path it names)
RULES = [
    # accepted by the constructors before they checked finiteness
    (partial(ExponentialKernel, a=NAN), "a", "[model]\nkernel = exponential\na = nan\n", "model.a"),
    (partial(CuckerSmaleKernel, alpha=NAN), "alpha", "[model]\nkernel = cucker-smale\nalpha = nan\n",
     "model.alpha"),
    (partial(CuckerSmaleKernel, beta=INF), "beta", "[model]\nkernel = cucker-smale\nbeta = inf\n",
     "model.beta"),
    (partial(MorseKernel, L=INF), "L", "[model]\nkernel = morse\nL = inf\n", "model.L"),
    (partial(RepulsiveAttractiveKernel, a=INF), "a", "[model]\nkernel = repulsive-attractive\na = inf\n",
     "model.a"),
    (partial(DriftField, "constant", amplitude=NAN), "amplitude",
     "[model]\ndrift = constant\ndrift_amplitude = nan\n", "model.drift_amplitude"),
    # accepted by PdeConfig with a cell width of 0 and of inf
    (partial(PdeConfig, lam=1.0, half_width=5e-324), "half_width", "[solver]\nhalf_width = 5e-324\n",
     "solver.half_width"),
    (partial(PdeConfig, lam=1.0, half_width=1e308), "half_width", "[solver]\nhalf_width = 1e308\n",
     "solver.half_width"),
    # the ranges both sides checked already
    (partial(ExponentialKernel, alpha=INF), "alpha", "[model]\nkernel = exponential\nalpha = inf\n", "model.alpha"),
    (partial(ExponentialKernel, a=0.0), "a", "[model]\nkernel = exponential\na = 0\n", "model.a"),
    (partial(RepulsiveAttractiveKernel, a=-1.0), "a", "[model]\nkernel = repulsive-attractive\na = -1\n", "model.a"),
    (partial(MorseKernel, G=1.5), "G", "[model]\nkernel = morse\nG = 1.5\n", "model.G"),
    (partial(MorseKernel, L=0.5), "L", "[model]\nkernel = morse\nL = 0.5\n", "model.L"),
    (partial(CuckerSmaleKernel, alpha=0.0), "alpha", "[model]\nkernel = cucker-smale\nalpha = 0\n", "model.alpha"),
    (partial(CuckerSmaleKernel, beta=-1.0), "beta", "[model]\nkernel = cucker-smale\nbeta = -1\n", "model.beta"),
    (partial(DriftField, "quadratic"), "variant", "[model]\ndrift = quadratic\n", "model.drift"),
    (partial(DriftField, "sinusoidal", frequency=INF), "frequency",
     "[model]\ndrift = sinusoidal\ndrift_frequency = inf\n", "model.drift_frequency"),
    (partial(PdeConfig, lam=-1.0), "lam", "[solver]\nlambda = -1\n", "solver.lambda"),
    (partial(PdeConfig, lam=NAN), "lam", "[solver]\nlambda = nan\n", "solver.lambda"),
    (partial(PdeConfig, lam=1.0, T=0.0), "T", "[solver]\nT = 0\n", "solver.T"),
    (partial(PdeConfig, lam=1.0, dt=-0.01), "dt", "[solver]\ndt = -0.01\n", "solver.dt"),
    (partial(PdeConfig, lam=1.0, T=1e-9, dt=0.01), "dt", "[solver]\nT = 1e-9\ndt = 0.01\n", "solver.dt"),
    (partial(PdeConfig, lam=1.0, half_width=-1.0), "half_width", "[solver]\nhalf_width = -1\n", "solver.half_width"),
    (partial(PdeConfig, lam=1.0, n_x=4), "n_x", "[solver]\nn_x = 4\n", "solver.n_x"),
    (partial(PdeConfig, lam=1.0, nu=-0.5), "nu", "[solver]\nnu = -0.5\n", "solver.nu"),
    (partial(PdeConfig, lam=1.0, nu=NAN), "nu", "[solver]\nnu = nan\n", "solver.nu"),
    (partial(run_lambda_sweep_acceleration, CuckerSmaleKernel(), FLOCK, [5.0, INF]), "lambdas",
     "[sweep]\nlambdas = 5, inf\n", "sweep.lambdas"),
    (partial(run_lambda_sweep_acceleration, CuckerSmaleKernel(), FLOCK, [5.0, 5.0]), "lambdas",
     "[sweep]\nlambdas = 5, 5\n", "sweep.lambdas"),
]


@pytest.mark.parametrize("api, name, text, path", RULES, ids=[path for *_, path in RULES])
def test_api_and_config_agree(api, name, text, path):
    """Each model object states its rules once: a bad value raises ParameterError naming the parameter
    through the API, and ConfigError on its field path through a config.  A rule the INI layer checks
    first (a non-finite float) gives its own reason; every other gives the object's."""
    with pytest.raises(ParameterError) as raised:
        api()
    assert raised.value.name == name
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: ") as parsed:
        parse_config(text)
    ini_reason = f"must be finite, got {text.split()[-1]}"  # the INI layer's own rule for every float field
    assert str(parsed.value) in (f"{path}: {raised.value.reason}", f"{path}: {ini_reason}")


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# any text one INI line can hold: no control or line-separator characters, no outer whitespace
WORD = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12).filter(
    lambda t: t == t.strip()
)
FIELDS = {
    "model": {
        "kernel": st.sampled_from(KERNEL_NAMES),
        "alpha": POSITIVE,
        "a": POSITIVE,
        "G": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        "L": st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
        "beta": st.floats(min_value=0.0, allow_infinity=False),
        "drift": st.sampled_from(["zero", "constant", "sinusoidal"]),
        "drift_amplitude": FINITE,
        "drift_frequency": FINITE,
    },
    "solver": {
        "lambda": POSITIVE,
        "T": POSITIVE,
        "half_width": POSITIVE,
        "n_x": st.integers(8, 2**40),
        "dt": POSITIVE,
        "nu": st.one_of(st.just("auto"), st.floats(min_value=0.0, allow_infinity=False).map(repr)),
        "m0_center": FINITE,
        "m0_sigma": POSITIVE,
        "n_intervals": st.integers(1, 2**40),
        "n_atoms": st.integers(1, 2**40),
        "atoms_sigma_x": FINITE,
        "atoms_sigma_v": FINITE,
    },
    "sweep": {
        "lambdas": st.lists(POSITIVE, min_size=1, max_size=5, unique=True).map(
            lambda lams: ", ".join(map(repr, sorted(lams)))
        ),
        "threads": st.just(1),
        "cross_particles": st.integers(min_value=1),
    },
    "output": {"prefix": WORD, "seed": st.integers()},
}


@st.composite
def descriptions(draw):
    """Valid INI text over a drawn subset of the fields (the rest defaulted), and the values written."""
    values = {section: draw(st.fixed_dictionaries({}, optional=fields)) for section, fields in FIELDS.items()}
    n_atoms = draw(st.integers(0, 4))
    if n_atoms:
        for key in ("atoms_x", "atoms_v"):
            values["solver"][key] = ", ".join(map(repr, draw(st.lists(FINITE, min_size=n_atoms, max_size=n_atoms))))
    text = "".join(
        f"[{section}]\n" + "".join(f"{k} = {repr(v) if isinstance(v, float) else v}\n" for k, v in fields.items())
        for section, fields in values.items()
    )
    return text, values


class TestConfigRoundTrip:
    @given(descriptions())
    def test_parse_write_parse_is_identity(self, drawn):
        text, values = drawn
        try:
            desc = parse_config(text)
        except ConfigError as exc:
            # the fields are drawn one by one; a draw whose initial density misses every grid cell, whose cells
            # degenerate, or whose T / dt rounds to no step or overflows is invalid
            invalid = ("solver.m0_center: ", "solver.m0_sigma: ", "solver.half_width: ", "solver.dt: ")
            assume(not str(exc).startswith(invalid))
            raise
        for section, fields in values.items():
            assert {k: getattr(desc, section)[k] for k in fields} == fields
        assert parse_config(write_config(desc)) == desc

    def test_percent_sign_is_plain_text(self):
        desc = parse_config("[output]\nprefix = run%1 50%%(x)s\n")
        assert desc.output["prefix"] == "run%1 50%%(x)s"
        assert parse_config(write_config(desc)) == desc


class TestCli:
    def write(self, tmp_path, text, name="exp.ini"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_validate_model_exponential_passes(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "[model]\nkernel = exponential\n")
        out = tmp_path / "run"
        assert main(["validate-model", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "validation.json").read_text())
        assert doc["passed"]
        assert doc["coupling"]["semiconcave_ok"]
        assert "config" in doc and "seed" in doc

    def test_validate_model_reads_stated_constants(self, tmp_path, capsys):
        """validation.json carries the kernel's stated constants: 2 a for the repulsive-attractive
        semiconcavity, and no semiconcavity (null) at the attractive exponential kernel's convex kink."""
        docs = {}
        models = {"ra": "kernel = repulsive-attractive", "attractive": "kernel = exponential\nalpha = -1"}
        for name, model in models.items():
            cfg = self.write(tmp_path, f"[model]\n{model}\n", name=f"{name}.ini")
            status = main(["validate-model", "--config", cfg, "--out", str(tmp_path / name)])
            docs[name] = (status, json.loads((tmp_path / name / "validation.json").read_text()))
        status, doc = docs["ra"]
        assert status == 0 and doc["coupling"]["semiconcavity_constant"] == 2.0 and doc["coupling"]["c0"] == 2.0
        status, doc = docs["attractive"]
        assert status == 3 and doc["coupling"]["semiconcave_ok"] is False
        assert doc["coupling"]["semiconcavity_constant"] is None
        assert "seed" not in doc["coupling"] and "witness" not in doc["coupling"]

    def test_validate_model_psd_block(self, tmp_path, capsys):
        """The psd block is the exact verdict: Morse just past G L = 1 is not PSD (k^(0) = -0.02), the
        default Morse kernel sits on the border (0.0 at xi = 0), and the repulsive exponential kernel
        only approaches its infimum 0 (xi_min inf, null).  The verdict does not enter passed."""
        models = {"past": "kernel = morse\nG = 0.505\nL = 2", "border": "kernel = morse", "exp": "kernel = exponential"}
        psd = {}
        for name, model in models.items():
            cfg = self.write(tmp_path, f"[model]\n{model}\n", name=f"{name}.ini")
            assert main(["validate-model", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            psd[name] = json.loads((tmp_path / name / "validation.json").read_text())["psd"]
        assert set(psd["past"]) == {"label", "is_psd", "min_transform", "xi_min"}
        assert (psd["past"]["label"], psd["past"]["is_psd"], psd["past"]["xi_min"]) == ("NOT-PSD", False, 0.0)
        assert psd["past"]["min_transform"] == pytest.approx(-0.02, abs=1e-14)
        assert psd["border"] == {"label": "PSD", "is_psd": True, "min_transform": 0.0, "xi_min": 0.0}
        assert psd["exp"] == {"label": "PSD", "is_psd": True, "min_transform": 0.0, "xi_min": None}

    def test_solve_cs_two_body_matches_oracle(self, tmp_path, capsys):
        cfg = self.write(
            tmp_path,
            "[model]\nkernel = cucker-smale\nalpha = 1.0\nbeta = 0.0\n"
            "[solver]\natoms_x = 0, 0\natoms_v = 1, -1\nT = 1.0\ndt = 0.001\n",
        )
        out = tmp_path / "run"
        assert main(["solve-cs", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "states.csv").read_text().splitlines()
        assert lines[0] == "atom,t,x1,v1,w"
        last_atom0 = [l for l in lines[1:] if l.startswith("0,")][-1]
        v_final = float(last_atom0.split(",")[3])
        assert v_final == pytest.approx(np.exp(-2.0), abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_solve_cs_reports_step_halving_ratio(self, tmp_path, capsys, seed):
        cfg = self.write(
            tmp_path,
            "[model]\nkernel = cucker-smale\nbeta = 0.5\n[solver]\nn_atoms = 24\nT = 1.0\ndt = 0.001\n",
        )
        out = tmp_path / "run"
        assert main(["solve-cs", "--config", cfg, "--out", str(out), "--seed", str(seed)]) == 0
        doc = json.loads((out / "solution.json").read_text())
        assert 8.0 <= doc["step_halving_ratio"] <= 32.0
        # the error of the probe's finest march, at 2 dt, from the same three marches, as both sweeps state theirs
        desc, finest = parse_config(Path(cfg).read_text()), []
        richardson_order_ratio(desc.build_m0_atoms(seed), desc.build_kernel(), 1.0, 0.008, finest=finest)
        assert doc["error_estimate"] == finest[0][1] and doc["error_tolerance"] == REFERENCE_TOLERANCE
        assert doc["resolved"] is (doc["error_estimate"] <= REFERENCE_TOLERANCE)

    def test_solve_cs_exits_3_outside_the_rk4_window(self, tmp_path, capsys, monkeypatch):
        fake = lambda *args, finest: finest.append((None, 0.0, None)) or 4.0  # noqa: E731
        monkeypatch.setattr("mfglab.cli.richardson_order_ratio", fake)
        cfg = self.write(tmp_path, "[model]\nkernel = cucker-smale\n[solver]\nT = 0.1\ndt = 0.01\n")
        out = tmp_path / "run"
        assert main(["solve-cs", "--config", cfg, "--out", str(out)]) == 3
        assert json.loads((out / "solution.json").read_text())["step_halving_ratio"] == 4.0
        assert (out / "states.csv").exists()

    def test_solve_cs_snapshots_every_third_node_of_2000_steps(self, tmp_path, capsys):
        """T = 2 at dt = 1e-3: solve-cs names every (2000 // 512)-th node and the last, 668 snapshots of
        the default two-atom flock; a run below 1,024 steps names every node."""
        cfg = self.write(tmp_path, "[model]\nkernel = cucker-smale\nbeta = 0.5\n[solver]\nT = 2.0\ndt = 0.001\n")
        out = tmp_path / "run"
        assert main(["solve-cs", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "solution.json").read_text())["n_snapshots"] == 668
        times = [float(line.split(",")[1]) for line in (out / "states.csv").read_text().splitlines()[1::2]]
        assert times == (0.001 * np.array([*range(0, 2000, 3), 2000])).tolist()

    def test_sweep_accel_exits_3_on_an_unresolved_reference(self, tmp_path, capsys):
        """alpha = 0.01, beta = 2 on the default two-atom flock: the dt cap stops the reference ladder
        above its tolerance, so sweep-accel writes its report with "resolved": false and exits 3."""
        cfg = self.write(tmp_path, "[model]\nkernel = cucker-smale\nalpha = 0.01\nbeta = 2\n[sweep]\nlambdas = 10\n")
        out = tmp_path / "run"
        assert main(["sweep-accel", "--config", cfg, "--out", str(out)]) == 3
        ref = json.loads((out / "report.json").read_text())["reference"]
        assert ref["resolved"] is False and ref["error_estimate"] > ref["error_tolerance"]

    def test_sweep_classic_exits_3_on_an_unresolved_cross_check(self, tmp_path, capsys):
        """The attractive exponential kernel (alpha = -5) collapses the 20 cross-check atoms onto each other
        within the window, where the kink of the kernel at 0 makes the drift jump and RK4 loses its order:
        the dt = 0.01 cap stops the particle ladder on its first level with an estimate near 2e-3, so
        sweep-classic writes its report with "particle_resolved": false and exits 3, though no row is
        flagged."""
        model = CLASSIC_TINY.replace("kernel = exponential\n", "kernel = exponential\nalpha = -5\n")
        cfg = self.write(tmp_path, model + "[sweep]\nlambdas = 5\ncross_particles = 20\n")
        out = tmp_path / "run"
        assert main(["sweep-classic", "--config", cfg, "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        ref = report["reference"]
        assert ref["particle_resolved"] is False and ref["particle_error_estimate"] > ref["error_tolerance"]
        assert not any(row["flagged"] for row in report["rows"])

    def test_sweep_classic_refuses_an_odd_mesh(self, tmp_path, capsys):
        """n_x = 63 has no n_x / 2 mesh for the rows' dx companions: sweep-classic exits 2 and error.json
        carries the sweep's message."""
        cfg = self.write(tmp_path, CLASSIC_TINY.replace("n_x = 64", "n_x = 63") + "[sweep]\nlambdas = 5\n")
        out = tmp_path / "run"
        assert main(["sweep-classic", "--config", cfg, "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert (err["error"], err["message"]) == (
            "ParameterError",
            "n_x must be even and at least 16, got 63: each row's dx companion solves on n_x / 2 cells",
        )

    def test_solve_mfg_states_its_sweeps(self, tmp_path, capsys, monkeypatch):
        """solution.json states the HJB sweeps of the solve, the warm start's included, and the FP
        transport steps, n_steps = 50 per sweep: a spy on hjb_backward counts the same sweeps."""
        backward, sweeps = mfg_pde.hjb_backward, []
        monkeypatch.setattr(mfg_pde, "hjb_backward", lambda *args: sweeps.append(1) or backward(*args))
        cfg = self.write(tmp_path, CLASSIC_TINY)
        out = tmp_path / "run"
        assert main(["solve-mfg", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "solution.json").read_text())
        assert doc["hjb_sweeps"] == len(sweeps) == doc["iterations"] + 1 == len(doc["residual_history"]) + 1
        assert doc["fp_steps"] == 50 * len(sweeps)

    def test_solve_limit_writes_density(self, tmp_path, capsys):
        cfg = self.write(
            tmp_path,
            "[model]\nkernel = exponential\n[solver]\nT = 0.2\nn_x = 128\n",
        )
        out = tmp_path / "run"
        assert main(["solve-limit", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "m_final.csv").exists()
        assert (out / "solution.json").exists()

    def test_bad_config_writes_error_json(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "[solver]\nlambda = -3\n")
        out = tmp_path / "run"
        assert main(["solve-mfg", "--config", cfg, "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"
        assert "solver.lambda" in err["message"]

    @pytest.mark.parametrize("case", list(ARTIFACT_CASES))
    def test_json_artifact_carries_its_cost(self, tmp_path, capsys, case):
        """Every JSON artifact states at its top level the process's peak RSS in KiB, as getrusage
        reports it, and the command's wall time; a sweep's rows and reference block stay as they were."""
        text, artifact, status = ARTIFACT_CASES[case]
        cfg = self.write(tmp_path, text + "[output]\nprefix = sweep\n")
        out = tmp_path / "run"
        t0 = time.perf_counter()
        assert main(["solve-mfg" if case == "error" else case, "--config", cfg, "--out", str(out)]) == status
        elapsed = time.perf_counter() - t0
        doc = json.loads((out / artifact).read_text())
        assert isinstance(doc["peak_rss_kb"], int)
        assert 0 < doc["peak_rss_kb"] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert 0.0 < doc["wall_clock_s"] <= elapsed
        for block in doc.get("rows", []) + [doc.get("reference", {})]:
            assert "peak_rss_kb" not in block

    def test_threads_flag_removed(self, tmp_path, capsys):
        cfg = self.write(tmp_path, MINIMAL)
        with pytest.raises(SystemExit):
            main(["sweep-classic", "--config", cfg, "--out", str(tmp_path / "run"), "--threads", "2"])

    def test_accel_requires_cs_kernel(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "[model]\nkernel = exponential\n")
        out = tmp_path / "run"
        assert main(["solve-accel", "--config", cfg, "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert "cucker-smale" in err["message"]

    @pytest.mark.parametrize(
        "command, kernel",
        [
            ("solve-mfg", "cucker-smale"),
            ("solve-limit", "cucker-smale"),
            ("sweep-classic", "cucker-smale"),
            ("solve-accel", "exponential"),
            ("solve-cs", "exponential"),
            ("sweep-accel", "exponential"),
        ],
    )
    def test_wrong_kernel_family_names_field(self, tmp_path, capsys, command, kernel):
        cfg = self.write(tmp_path, f"[model]\nkernel = {kernel}\n")
        out = tmp_path / "run"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"model.kernel: {command} needs ")

    @pytest.mark.parametrize(
        "model, lam, K, status",
        [("beta = 0.5", 10, 224, 0), ("beta = 0.5", 80, 632, 0), ("alpha = 0.01\nbeta = 2", 10, 224, 3)],
        ids=["10-0", "80-0", "stiff-10-3"],
    )
    def test_solve_accel_exits_on_the_certificate(self, tmp_path, capsys, model, lam, K, status):
        """The default two-atom flock at n_intervals = 64, which is a floor: K follows the
        sweep's rule, 70 lambda^(1/2) T rounded up to a multiple of 8, and goes into
        solution.json.  At beta = 0.5 the EL residual certifies at lambda = 10 (1.7e-5) and 80
        (1.3e-5), and the command exits 0, and the fixed point takes no half step.  With alpha = 0.01
        and beta = 2 the map does not contract: the fixed point takes half steps (26 of its 39 steps),
        reaches its evaluation cap at lambda = 10 with EL 122, and the command exits 3.  certified is
        the one verdict in solution.json.  The artifacts are written either way."""
        cfg = self.write(
            tmp_path, f"[model]\nkernel = cucker-smale\n{model}\n[solver]\nlambda = {lam}\nn_intervals = 64\n"
        )
        out = tmp_path / "run"
        assert main(["solve-accel", "--config", cfg, "--out", str(out)]) == status
        doc = json.loads((out / "solution.json").read_text())
        assert doc["n_intervals"] == K
        assert doc["certified"] == (status == 0) and "converged" not in doc
        assert (doc["el_residual"] <= EL_TOLERANCE) == (status == 0)
        assert doc["control_step"] > 0.0 and "gradient_norm" not in doc
        assert (doc["fixed_point_fallbacks"] > 0) == (status == 3)
        assert (out / "trajectories.csv").exists()

    def test_solve_accel_default_config_certifies(self, tmp_path, capsys):
        """The default config (beta = 0.5, lambda = 10, n_intervals = 128) solves at K = 224 and
        exits 0."""
        cfg = self.write(tmp_path, "[model]\nkernel = cucker-smale\nbeta = 0.5\n")
        out = tmp_path / "run"
        assert main(["solve-accel", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "solution.json").read_text())
        assert doc["n_intervals"] == 224 and doc["certified"]

    def test_sweep_classic_tiny(self, tmp_path, capsys):
        cfg = self.write(
            tmp_path,
            "[model]\nkernel = exponential\n"
            "[solver]\nn_x = 64\ndt = 0.01\nT = 0.5\n"
            "[sweep]\nlambdas = 5, 20\ncross_particles = 20\n"
            "[output]\nprefix = sweep\n",
        )
        out = tmp_path / "run"
        assert main(["sweep-classic", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert doc["lambdas"] == [5.0, 20.0]
        assert len(doc["rows"]) == 2 and not any(row["flagged"] for row in doc["rows"])
        lines = (out / "sweep.csv").read_text().splitlines()
        # one column per scalar key of a row; the per-rung clock_ladder list is in the JSON alone
        assert isinstance(doc["rows"][0]["clock_ladder"], list)
        assert lines[0].split(",") == ["lambda", *sorted(k for k in doc["rows"][0] if k != "clock_ladder")]
        assert len(lines) == 3

    def test_sweep_accel_smoke(self, tmp_path, capsys):
        cfg = self.write(
            tmp_path,
            "[model]\nkernel = cucker-smale\nalpha = 1.0\nbeta = 0.0\n"
            "[solver]\natoms_x = 0, 0\natoms_v = 1, -1\nT = 1.0\ndt = 0.001\n"
            "[sweep]\nlambdas = 10\n"
            "[output]\nprefix = sweep\n",
        )
        out = tmp_path / "run"
        assert main(["sweep-accel", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert doc["lambdas"] == [10.0]
        assert (out / "sweep.csv").read_text().count("\n") >= 2
