"""Experiment configuration: INI text <-> validated description.

One experiment is one config file with sections [model], [solver],
[sweep], [output].  Parsing applies documented defaults, records which
fields were defaulted, and validates everything up front with errors
naming the exact field path (e.g. "solver.lambda").
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .hamiltonians import DriftField, QuadraticDriftHamiltonian
from .kernels import CuckerSmaleKernel, ExponentialKernel, MorseKernel, RepulsiveAttractiveKernel, ZeroKernel
from .measures import GridDensity, ParticleEnsemble
from .mfg_pde import PdeConfig

KERNEL_NAMES = ("zero", "exponential", "repulsive-attractive", "morse", "cucker-smale")

#: (field path, type, default); None means required-when-used
_MODEL_DEFAULTS = {
    "kernel": ("zero", str),
    "alpha": (1.0, float),
    "a": (1.0, float),
    "G": (0.5, float),
    "L": (2.0, float),
    "beta": (0.0, float),
    "drift": ("zero", str),
    "drift_amplitude": (0.0, float),
    "drift_frequency": (1.0, float),
}

_SOLVER_DEFAULTS = {
    "lambda": (10.0, float),
    "T": (1.0, float),
    "half_width": (6.0, float),
    "n_x": (256, int),
    "dt": (1e-3, float),
    "nu": ("auto", str),  # "auto" -> lambda**-0.5 schedule; else a float
    "max_iterations": (200, int),
    "tolerance": (1e-6, float),
    "m0_center": (0.0, float),
    "m0_sigma": (0.5, float),
    "n_intervals": (128, int),
    "n_atoms": (2, int),
    "atoms_x": ("", str),  # comma list; overrides gaussian sampling
    "atoms_v": ("", str),
    "atoms_sigma_x": (1.0, float),
    "atoms_sigma_v": (1.0, float),
}

_SWEEP_DEFAULTS = {
    "lambdas": ("5, 20, 80", str),
    "threads": (1, int),  # accepted for old configs; only 1 is valid
    "cross_particles": (400, int),
}

_OUTPUT_DEFAULTS = {
    "prefix": ("report", str),
    "seed": (0, int),
}

_SECTIONS = {
    "model": _MODEL_DEFAULTS,
    "solver": _SOLVER_DEFAULTS,
    "sweep": _SWEEP_DEFAULTS,
    "output": _OUTPUT_DEFAULTS,
}


@dataclass(frozen=True)
class ExperimentDescription:
    """Fully defaulted, validated experiment setup."""

    model: dict
    solver: dict
    sweep: dict
    output: dict
    # bookkeeping only: a written config is explicit about every field,
    # so the round-trip identity is on the four value sections
    defaults_applied: tuple = field(default=(), compare=False)

    # -- builders -----------------------------------------------------
    def build_kernel(self):
        m = self.model
        name = m["kernel"]
        if name == "zero":
            return ZeroKernel()
        if name == "exponential":
            return ExponentialKernel(alpha=m["alpha"], a=m["a"])
        if name == "repulsive-attractive":
            return RepulsiveAttractiveKernel(a=m["a"])
        if name == "morse":
            return MorseKernel(G=m["G"], L=m["L"])
        return CuckerSmaleKernel(alpha=m["alpha"], beta=m["beta"])

    def build_hamiltonian(self) -> QuadraticDriftHamiltonian:
        m = self.model
        drift = DriftField(m["drift"], amplitude=m["drift_amplitude"], frequency=m["drift_frequency"])
        return QuadraticDriftHamiltonian(drift)

    def build_pde_config(self, lam: float | None = None) -> PdeConfig:
        s = self.solver
        nu = None if s["nu"] == "auto" else float(s["nu"])
        return PdeConfig(
            lam=s["lambda"] if lam is None else lam,
            T=s["T"],
            half_width=s["half_width"],
            n_x=s["n_x"],
            dt=s["dt"],
            nu=nu,
            max_iterations=s["max_iterations"],
            tolerance=s["tolerance"],
        )

    def build_m0_grid(self) -> GridDensity:
        s = self.solver
        dx = 2.0 * s["half_width"] / s["n_x"]
        return GridDensity.gaussian(s["m0_center"], s["m0_sigma"], -s["half_width"], dx, s["n_x"])

    def build_m0_atoms(self, seed: int | None = None) -> ParticleEnsemble:
        s = self.solver
        if s["atoms_x"]:
            points = np.column_stack([_floats(s["atoms_x"]), _floats(s["atoms_v"])])
            return ParticleEnsemble.equal_weights(points, 1)
        rng = np.random.default_rng(self.output["seed"] if seed is None else seed)
        x = s["atoms_sigma_x"] * rng.standard_normal(s["n_atoms"])
        v = s["atoms_sigma_v"] * rng.standard_normal(s["n_atoms"])
        v -= v.mean()  # center the momentum so the flock settles at rest
        return ParticleEnsemble.equal_weights(np.column_stack([x, v]), 1)

    @property
    def lambdas(self) -> tuple:
        return tuple(_floats(self.sweep["lambdas"]))


def _floats(text: str) -> list:
    """A comma list of numbers."""
    return [float(c) for c in text.split(",")]


def parse_config(text: str) -> ExperimentDescription:
    """Parse INI text to a validated, fully defaulted description."""
    cp = configparser.ConfigParser(interpolation=None)  # values are plain text; '%' is not special
    cp.optionxform = str  # keys are case-sensitive (G vs g)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{section}: unknown section")
        for key in cp[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"{section}.{key}: unknown option")

    values = {}
    defaulted = []
    for section, spec in _SECTIONS.items():
        out = {}
        for key, (default, typ) in spec.items():
            if cp.has_option(section, key):
                raw = cp.get(section, key)
                try:
                    out[key] = typ(raw)
                except ValueError as exc:
                    raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as {typ.__name__}") from exc
            else:
                out[key] = default
                defaulted.append(f"{section}.{key}")
        values[section] = out

    _validate(values)
    return ExperimentDescription(
        model=values["model"],
        solver=values["solver"],
        sweep=values["sweep"],
        output=values["output"],
        defaults_applied=tuple(defaulted),
    )


def _validate(values: dict) -> None:
    m, s, sw = values["model"], values["solver"], values["sweep"]
    for section, spec in _SECTIONS.items():
        for key, (_, typ) in spec.items():
            if typ is float and not np.isfinite(values[section][key]):
                raise ConfigError(f"{section}.{key}: must be finite, got {values[section][key]}")
    if m["kernel"] not in KERNEL_NAMES:
        raise ConfigError(f"model.kernel: unknown kernel {m['kernel']!r}; choose from {KERNEL_NAMES}")
    if m["kernel"] == "morse":
        if not 0 < m["G"] < 1:
            raise ConfigError(f"model.G: Morse kernel requires 0 < G < 1, got {m['G']}")
        if m["L"] <= 1:
            raise ConfigError(f"model.L: Morse kernel requires L > 1, got {m['L']}")
    if m["kernel"] == "cucker-smale" and m["alpha"] <= 0:
        raise ConfigError(f"model.alpha: must be positive, got {m['alpha']}")
    if m["kernel"] == "cucker-smale" and m["beta"] < 0:
        raise ConfigError(f"model.beta: must be nonnegative, got {m['beta']}")
    if m["kernel"] in ("exponential", "repulsive-attractive") and m["a"] <= 0:
        raise ConfigError(f"model.a: must be positive, got {m['a']}")
    if m["drift"] not in ("zero", "constant", "sinusoidal"):
        raise ConfigError(f"model.drift: unknown drift {m['drift']!r}")
    for key in ("lambda", "T", "dt", "half_width"):
        if s[key] <= 0:
            raise ConfigError(f"solver.{key}: must be positive, got {s[key]}")
    if s["max_iterations"] < 1:
        raise ConfigError(f"solver.max_iterations: must be at least 1, got {s['max_iterations']}")
    if s["nu"] != "auto":
        try:
            nu = float(s["nu"])
        except ValueError as exc:
            raise ConfigError(f"solver.nu: expected 'auto' or a number, got {s['nu']!r}") from exc
        if not 0 <= nu < np.inf:
            raise ConfigError(f"solver.nu: must be finite and nonnegative, got {nu}")
    if s["n_x"] < 8:
        raise ConfigError(f"solver.n_x: need at least 8 cells, got {s['n_x']}")
    for key in ("m0_sigma", "n_intervals", "n_atoms"):
        if s[key] <= 0:
            raise ConfigError(f"solver.{key}: must be positive, got {s[key]}")
    # build_m0_grid samples N(m0_center, m0_sigma^2) at the cell centres; the one nearest m0_center must get mass
    hw, c = np.float64(s["half_width"]), s["m0_center"]
    with np.errstate(all="ignore"):  # extreme values only decide whether the peak underflows
        dx = 2.0 * hw / s["n_x"]
        nearest = -hw + (np.clip(np.floor((c + hw) / dx), 0, s["n_x"] - 1) + 0.5) * dx
        if not np.exp(-0.5 * ((nearest - c) / s["m0_sigma"]) ** 2) > 0:
            key = "m0_center" if abs(c) >= hw else "m0_sigma"
            raise ConfigError(f"solver.{key}: N({c}, {s['m0_sigma']}^2) puts no mass on the cells of [-{hw}, {hw}]")
    if s["atoms_x"] or s["atoms_v"]:
        lengths = []
        for key, other in (("atoms_x", "atoms_v"), ("atoms_v", "atoms_x")):
            if not s[key]:
                raise ConfigError(f"solver.{key}: required when solver.{other} is set")
            try:
                coords = _floats(s[key])
            except ValueError as exc:
                raise ConfigError(f"solver.{key}: cannot parse {s[key]!r} as a comma list of numbers") from exc
            if not np.all(np.isfinite(coords)):
                raise ConfigError(f"solver.{key}: must be finite, got {s[key]!r}")
            lengths.append(len(coords))
        if lengths[0] != lengths[1]:
            raise ConfigError(f"solver.atoms_v: {lengths[1]} values, but solver.atoms_x has {lengths[0]}")
    try:
        lams = _floats(sw["lambdas"])
    except ValueError as exc:
        raise ConfigError(f"sweep.lambdas: cannot parse {sw['lambdas']!r}") from exc
    if not all(0 < l < np.inf for l in lams):
        raise ConfigError(f"sweep.lambdas: every lambda must be positive and finite, got {lams}")
    if sorted(lams) != lams or len(set(lams)) != len(lams):
        raise ConfigError(f"sweep.lambdas: must be strictly increasing, got {lams}")
    if sw["cross_particles"] < 1:
        raise ConfigError(f"sweep.cross_particles: must be positive, got {sw['cross_particles']}")
    if sw["threads"] != 1:
        raise ConfigError(f"sweep.threads: only 1 is supported (sweeps run serially), got {sw['threads']}")


def write_config(desc: ExperimentDescription) -> str:
    """Serialize a description back to INI text (parse . write = identity)."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    for section in _SECTIONS:
        data = getattr(desc, section)
        cp[section] = {k: repr(v) if isinstance(v, float) else str(v) for k, v in data.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
