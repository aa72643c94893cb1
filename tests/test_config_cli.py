import json

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mfglab import ConfigError, ExponentialKernel, MorseKernel, parse_config, write_config
from mfglab.cli import main
from mfglab.config import KERNEL_NAMES


MINIMAL = "[model]\nkernel = exponential\n"


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
            ("solver.tolerance", "inf"),
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
            ("solver.max_iterations", "0"),
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

    @pytest.mark.parametrize("key", ["mode", "theta"])
    def test_removed_fixed_point_options_are_unknown(self, key):
        with pytest.raises(ConfigError, match=rf"^solver.{key}: unknown option"):
            parse_config(f"[solver]\n{key} = 0.5\n")

    @pytest.mark.parametrize("field, raw", [("solver.m0_center", "100.0"), ("solver.m0_sigma", "1e-9")])
    def test_initial_density_off_the_grid_names_field(self, field, raw):
        """A Gaussian m0 that gives no cell centre of the default grid any mass fails at parse time."""
        key = field.split(".")[1]
        with pytest.raises(ConfigError, match=rf"^{field}: .* puts no mass on the cells of \[-6.0, 6.0\]"):
            parse_config(f"[solver]\n{key} = {raw}\n")

    def test_threads_accepts_only_one(self):
        desc = parse_config("[sweep]\nthreads = 1\n")
        assert parse_config(write_config(desc)) == desc
        with pytest.raises(ConfigError, match="^sweep.threads: "):
            parse_config("[sweep]\nthreads = 2\n")


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
        "max_iterations": st.integers(min_value=1),
        "tolerance": FINITE,
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
            # the fields are drawn one by one; a draw whose initial density misses every grid cell is invalid
            assume(not str(exc).startswith(("solver.m0_center: ", "solver.m0_sigma: ")))
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
        ratio = json.loads((out / "solution.json").read_text())["step_halving_ratio"]
        assert 8.0 <= ratio <= 32.0

    def test_solve_cs_exits_3_outside_the_rk4_window(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("mfglab.cli.richardson_order_ratio", lambda *args: 4.0)
        cfg = self.write(tmp_path, "[model]\nkernel = cucker-smale\n[solver]\nT = 0.1\ndt = 0.01\n")
        out = tmp_path / "run"
        assert main(["solve-cs", "--config", cfg, "--out", str(out)]) == 3
        assert json.loads((out / "solution.json").read_text())["step_halving_ratio"] == 4.0
        assert (out / "states.csv").exists()

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
