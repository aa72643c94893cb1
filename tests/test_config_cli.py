import json

import numpy as np
import pytest

from mfglab import ConfigError, ExponentialKernel, MorseKernel, parse_config, write_config
from mfglab.cli import main


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
            ("solver.theta", "nan"),
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

    def test_accel_requires_cs_kernel(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "[model]\nkernel = exponential\n")
        out = tmp_path / "run"
        assert main(["solve-accel", "--config", cfg, "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert "cucker-smale" in err["message"]

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
