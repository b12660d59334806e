"""Experiment harness: config files, presets, problem assembly, outputs.

Config files are flat ``key = value`` text; ``#`` starts a comment and blank
lines are ignored.  Keys are typed against the `ExperimentConfig` schema and
unknown keys are rejected.  `ExperimentConfig` extends `engine.SolverConfig`,
so every setting is declared once, and every range check runs when the
config is made: the subclass appends its choice, count and problem rules
to the base class's finiteness and solver rules, and raises `ConfigError`.
The problem rules hold the relations between fields too (one block for the
PDE problem, both input paths for ``custom-linear``); read and assembly
errors become `ConfigError` in one helper, `_as_config_error`.

The ``ct`` and ``custom-linear`` problems share one block operator,
`tomo.MatrixProblem`: CT splits its rows into runs of whole angles, a custom
matrix into runs of rows as even as possible.  A run writes into its output
directory; each metrics row is formatted once, and trace.csv streams the
rows of metrics.csv back and extends them:

* ``metrics.csv``   one row per outer iterate with the exact column set
  ``n, i_n, residual_norm, mu_tilde, mu, eps_n, inner_iterations,
  rel_error, q_n`` (rel_error left empty without ground truth),
* ``trace.csv``     the same rows plus the Bregman distance to the truth,
* ``recon.pgm``     the final iterate as a binary 8-bit PGM, min-max scaled,
* ``summary.json``  termination status and final figures.

Runs are deterministic: the only randomness is the seeded portable noise
stream, so identical config plus seed reproduces metrics.csv byte for byte
with the same BLAS thread count: the BLAS reductions behind `np.vdot` and
`penalty.norm` round differently across thread counts.
"""

import dataclasses
import json
import operator
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import elliptic, tomo
from .engine import MODES, SolverConfig, run, validate_config
from .penalty import NonnegativityConstraint, QuadraticPenalty, TotalVariationPenalty
from .tomo import MatrixProblem


class ConfigError(Exception):
    """Raised for malformed, unknown, or out-of-range configuration input."""


@contextmanager
def _as_config_error(prefix=""):
    """Re-raise read and parse errors (`OSError`, `ValueError`) as `ConfigError`."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ConfigError(prefix + str(exc)) from exc


_CHOICES = {
    "problem": ("ct", "pde", "custom-linear"),
    "mode": MODES,
    "penalty": ("quadratic", "quadratic+TV"),
    "constraint": ("none", "nonneg"),
}


@dataclass
class ExperimentConfig(SolverConfig):
    """Typed experiment description; fields double as the config-file keys.

    Solver fields and checks are inherited, with another default for n_max.
    n_blocks and noise_rel are problem fields, like ct_q: they set the block
    count and the noise level of the built problem.
    """

    problem: str = "ct"
    mode: str = "plain"
    penalty: str = "quadratic+TV"
    constraint: str = "nonneg"
    mu: float = 1.0
    n_max: int = 1000
    n_blocks: int = 1
    noise_rel: float = 0.0
    seed: int = 1
    ct_q: int = 64
    ct_angles: int = 30
    ct_angle_start: float = 0.0
    ct_angle_step: float = 0.0
    ct_rays: int = 0
    ct_detector_spacing: float = 1.0
    pde_m: int = 40
    matrix_path: str = ""
    truth_path: str = ""
    out_dir: str = "out"
    metric_every: int = 1

    _error = ConfigError

    def _rules(self):
        yield from super()._rules()
        for key, allowed in _CHOICES.items():
            value = getattr(self, key)
            yield value in allowed, f"{key} must be one of {', '.join(allowed)}; got {value!r}"
        yield self.mu > 0.0, "mu must be positive"
        yield self.gap_rule(at_cap=True)
        yield self.noise_rel >= 0.0, "noise_rel must be nonnegative"
        yield self.ct_angle_step >= 0.0, "ct_angle_step must be nonnegative (0 means 180/ct_angles)"
        for key in ("n_blocks", "metric_every", "ct_q", "ct_angles", "ct_rays", "pde_m"):
            yield getattr(self, key) >= (0 if key == "ct_rays" else 1), f"{key} is out of range"
        yield self.problem != "pde" or self.n_blocks == 1, "the PDE problem needs n_blocks = 1"
        yield (self.problem != "custom-linear" or bool(self.matrix_path and self.truth_path),
               "custom-linear needs matrix_path and truth_path")

    def penalty_object(self):
        constraint = NonnegativityConstraint() if self.constraint == "nonneg" else None
        if self.penalty == "quadratic":
            return QuadraticPenalty(mu=self.mu, constraint=constraint)
        return TotalVariationPenalty(mu=self.mu, constraint=constraint)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


# Each preset lists only its departures from the ExperimentConfig defaults.
_PDE_SOLVER = {"problem": "pde", "mu": 20.0, "beta0": 5e-4, "beta1": 2e4, "tau": 1.02,
               "gap_exponent": 1.5}

PRESETS = {
    "ct-paper": {
        "ct_q": 256, "ct_angles": 45, "ct_angle_start": 1.0, "ct_angle_step": 4.0,
        "ct_rays": 367, "noise_rel": 0.01, "n_max": 10000,
    },
    "ct-desk": {"ct_angle_step": 6.0, "noise_rel": 0.01, "n_max": 5000},
    "pde-paper": {**_PDE_SOLVER, "pde_m": 100, "noise_rel": 0.00046, "n_max": 10000},
    "pde-desk": {**_PDE_SOLVER, "n_max": 100},
}


def parse_config_text(text, source="<config>"):
    """Parse flat ``key = value`` lines into a raw string dict (strict)."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def make_config(preset=None, config_path=None, **overrides):
    """Combine preset, config file, and keyword overrides into a config.

    Later sources win: preset values first, then the file, then overrides
    (used for CLI flags such as --seed and --out).  File values are parsed
    to their field's type; overrides are taken as given.
    """
    merged = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        merged.update(PRESETS[preset])
    raw = {}
    if config_path is not None:
        with _as_config_error("cannot read config file: "), open(config_path) as fh:
            text = fh.read()
        raw = parse_config_text(text, source=str(config_path))
    given = [(key, value, True) for key, value in raw.items()]
    given += [(key, value, False) for key, value in overrides.items() if value is not None]
    for key, value, from_text in given:
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        if from_text:
            with _as_config_error(f"config key {key!r}: "):
                value = _FIELD_TYPES[key](value)
        merged[key] = value
    try:
        return ExperimentConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def ct_geometry(cfg):
    angles = tomo.evenly_spaced_angles(
        cfg.ct_angles, cfg.ct_angle_start,
        cfg.ct_angle_step if cfg.ct_angle_step > 0.0 else None,
    )
    with _as_config_error():
        return tomo.TomoGeometry(
            q=cfg.ct_q, angles=angles, n_rays=cfg.ct_rays,
            detector_spacing=cfg.ct_detector_spacing,
        )


def load_grid(path):
    """Read a dense grid: header ``rows cols`` then row-major values."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ConfigError(f"{path}: expected 'rows cols' header")
        r, c = int(header[0]), int(header[1])
        if r < 1 or c < 1:
            raise ConfigError(f"{path}: grid sizes must be at least 1; got {r} {c}")
        values = tomo.read_rows(fh).ravel()
    if values.size != r * c:
        raise ConfigError(f"{path}: expected {r * c} values, found {values.size}")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{path}: grid values must be finite")
    return values.reshape(r, c)


def save_grid(path, grid):
    grid = np.asarray(grid, dtype=float)
    np.savetxt(path, grid, fmt="%.17g", header=f"{grid.shape[0]} {grid.shape[1]}", comments="")


def _noisy(clean, cfg):
    """Noisy data and its absolute level; zero data cannot take relative noise."""
    with _as_config_error(f"noise_rel = {cfg.noise_rel:g}: "):
        return tomo.add_relative_gaussian_noise(clean, cfg.noise_rel, cfg.seed)


def build_problem(cfg):
    """Assemble (problem, truth); the problem's noise_level is the data's exact one."""
    if cfg.problem == "pde":
        mesh, f, g, truth = elliptic.default_problem(cfg.pde_m)
        clean = elliptic.solve_state(truth, mesh, f, g)
        data, delta_abs = _noisy(clean, cfg)
        problem = elliptic.EllipticProblem(mesh, f, g, data)
        problem.noise_level = delta_abs
        return problem, truth
    if cfg.problem == "ct":
        geom = ct_geometry(cfg)
        matrix = tomo.build_parallel_tomo(geom)
        truth = tomo.shepp_logan(cfg.ct_q)
        operator, layout = tomo.TomoProblem, geom
    else:  # custom-linear
        with _as_config_error("cannot load matrix: "):
            matrix = tomo.load_matrix_coo(cfg.matrix_path)
        with _as_config_error("cannot load truth grid: "):
            truth = load_grid(cfg.truth_path)
        if matrix.shape[1] != truth.size:
            raise ConfigError(
                f"matrix has {matrix.shape[1]} columns but the truth grid has {truth.size} cells"
            )
        operator, layout = MatrixProblem, truth.shape
    clean = matrix @ truth.ravel()
    data, delta_abs = _noisy(clean, cfg)
    with _as_config_error():
        problem = operator(matrix, data, layout, n_blocks=cfg.n_blocks)
    problem.noise_level = delta_abs
    return problem, truth


def _csv_cell(value):
    kind = type(value)
    if kind is float:
        return repr(value)
    if kind is int:
        return str(value)
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))  # numpy 2's repr of np.float64 names the type


METRICS_COLUMNS = (
    "n", "i_n", "residual_norm", "mu_tilde", "mu", "eps_n",
    "inner_iterations", "rel_error", "q_n",
)
_metrics_cells = operator.attrgetter(*METRICS_COLUMNS)


def _metrics_rows(records):
    """Each record's metrics.csv row, without its line end."""
    for rec in records:
        yield ",".join(map(_csv_cell, _metrics_cells(rec)))


def _written_rows(path):
    """The rows of the CSV table at `path` below its header, without line ends."""
    with open(path, newline="") as fh:
        next(fh)
        for line in fh:
            yield line[:-1]


def write_metrics(path, trace):
    """Write the per-iterate metrics table with its fixed column set."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(METRICS_COLUMNS) + "\n")
        for row in _metrics_rows(trace.records):
            fh.write(row + "\n")


def write_trace(path, trace, metrics_path=None):
    """Write the metrics columns plus the Bregman distance to the truth.

    Given `metrics_path`, the table `write_metrics` wrote for this trace,
    each row is streamed from that file instead of being formatted again.
    """
    rows = _metrics_rows(trace.records) if metrics_path is None else _written_rows(metrics_path)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(METRICS_COLUMNS) + ",bregman_to_truth\n")
        for rec, row in zip(trace.records, rows, strict=True):
            fh.write(f"{row},{_csv_cell(rec.bregman_to_truth)}\n")


def write_pgm(path, grid):
    """Write a grid as binary 8-bit PGM, affinely scaled to 0..255.

    A constant grid maps to all zeros.
    """
    grid = np.asarray(grid, dtype=float)
    lo, hi = float(grid.min()), float(grid.max())
    if hi > lo:
        scaled = np.round((grid - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(grid)
    data = scaled.astype(np.uint8)
    height, width = grid.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def run_experiment(cfg, out_dir=None):
    """Execute one configured run and write its artifacts.

    Returns (pair, trace, summary).  Output goes to `out_dir` (default
    cfg.out_dir), which is created if missing once the problem is built, so
    a configuration error leaves no directory behind.
    """
    problem, truth = build_problem(cfg)
    out = out_dir if out_dir is not None else cfg.out_dir
    os.makedirs(out, exist_ok=True)
    pen = cfg.penalty_object()
    started = time.perf_counter()
    pair, trace = run(
        problem, pen, cfg, mode=cfg.mode, truth=truth,
        diag_every=cfg.metric_every,
    )
    elapsed = time.perf_counter() - started
    last = trace.records[-1]
    summary = {
        "problem": cfg.problem,
        "mode": cfg.mode,
        "terminated_by": trace.terminated_by,
        "n_final": trace.n_final,
        "delta_abs": problem.noise_level,
        "residual_final": last.residual_norm,
        "eps_final": last.eps_n,
        "rel_error_final": last.rel_error,
        "runtime_seconds": elapsed,
        "records": len(trace.records),
        "seed": cfg.seed,
    }
    metrics_path = os.path.join(out, "metrics.csv")
    write_metrics(metrics_path, trace)
    write_trace(os.path.join(out, "trace.csv"), trace, metrics_path)
    write_pgm(os.path.join(out, "recon.pgm"), pair.x)
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return pair, trace, summary


def validation_lines(cfg):
    """Human-readable admissibility report for a configured experiment."""
    report = validate_config(cfg, c0=cfg.penalty_object().c0)
    if cfg.problem == "pde" and cfg.constraint == "none":
        report.warnings.append("problem = pde with constraint = none: the derivative and "
                               "adjoint ignore the forward map's clamp of the coefficient at "
                               "0, so a negative iterate gets wrong gradients; set nonneg")
    if cfg.mode == "accelerated" and cfg.n_blocks > 1:
        report.warnings.append(f"mode = accelerated with n_blocks = {cfg.n_blocks}: no analysis "
                               "covers this cycle, and ct-desk with 30 blocks diverged to "
                               "relative error 1.70 at its 5000-step cap")
    lines = [
        f"problem = {cfg.problem}, penalty = {cfg.penalty}, mode = {cfg.mode}",
        f"kappa = {report.kappa:g}",
        f"kappa * beta1 * sigma = {report.kappa_beta1_sigma:g} "
        f"({'ok' if report.step_cap_ok else 'VIOLATED'})",
    ]
    if report.c1 is not None:
        lines.append(f"c1 = {report.c1:g} ({'ok' if report.c1_ok else 'not positive'})")
        # c1 = 1/beta - C falls with beta, so it is positive exactly for beta < 1/C
        offset = report.c1_offset
        lines.append(f"c1 > 0 for 1 < beta < {1.0 / offset:.5g}" if offset < 1.0
                     else f"c1 <= {1.0 - offset:.4g} for every beta > 1")
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    if not report.warnings:
        lines.append("no warnings")
    return lines
