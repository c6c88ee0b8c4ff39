"""Run configuration: a strict JSON document.

Unknown keys are rejected at every nesting level so that typos fail
loudly instead of silently running a default.  kd values are given as
multiples of pi (key kd_over_pi), avoiding irrational literals in
config files.  N accepts either an explicit list or an inclusive range
object {"start", "stop", "step"}.  The `solver` section is an
eig.SolverConfig, whose own checks report here as config errors, and
every dense eigenproblem a run needs is checked against the one cap
eig.DENSE_CAP before any work starts.
"""

import hashlib
import json
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .. import eig

EXPERIMENTS = (
    "spectrum",
    "phase-diagram",
    "scaling",
    "defect",
    "disorder",
    "freespace",
    "map-check",
)

# accepted for existing config files; the value selects nothing, since
# full spectra are always dense and every other search is targeted
SOLVER_MODES = ("dense", "si-direct", "si-matfree")

# experiments that use the dimer asymptotics or the defect secular
# equation, both defined for kd < pi/2 (map-check only when N is given)
_HALF_PI_EXPERIMENTS = ("spectrum", "phase-diagram", "scaling", "defect",
                        "disorder")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DisorderSettings:
    delta: float = 0.0  # offsets uniform in [-delta, delta] * d
    samples: int = 0


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    N: tuple = ()
    kd_over_pi: tuple = (0.25,)
    gamma: float = 1.0
    solver: eig.SolverConfig = field(default_factory=eig.SolverConfig)
    disorder: DisorderSettings = field(default_factory=DisorderSettings)
    defect_sites: tuple = ()  # 0-based; empty means central site N//2
    kernel: str = "waveguide"  # waveguide | transverse | parallel
    d_over_lambda0: tuple = (0.35,)  # spacing for free-space kernels
    seed: int = 0
    out: str = "runs"
    jobs: int = 1
    dump_vectors: bool = False
    M: tuple = (1, 2, 5, 10, 30)  # map-check truncations
    Kd_over_pi: tuple = (0.0, 1.0)  # map-check center-of-mass wavenumbers

    @property
    def kd_values(self):
        return tuple(float(x) * np.pi for x in self.kd_over_pi)

    @property
    def Kd_values(self):
        return tuple(float(x) * np.pi for x in self.Kd_over_pi)

    def canonical_dict(self):
        d = asdict(self)
        return json.loads(json.dumps(d, sort_keys=True))

    def run_hash(self):
        blob = json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return hashlib.sha1(blob).hexdigest()[:10]


_TOP_KEYS = {f.name for f in fields(RunConfig)}
# plus the legacy solver.mode, accepted and validated but not stored
_SOLVER_KEYS = {f.name for f in fields(eig.SolverConfig)} | {"mode"}
_DISORDER_KEYS = {f.name for f in fields(DisorderSettings)}
_RANGE_KEYS = {"start", "stop", "step"}


def _reject_unknown(d, allowed, where):
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _as_int(value, where):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{where} must be an integer, not {value!r}")
    return int(value)


def _as_float(value, where):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where} must be a number, not {value!r}")
    return float(value)


def _as_int_list(value, where):
    if isinstance(value, dict):
        _reject_unknown(value, _RANGE_KEYS, where)
        if "start" not in value or "stop" not in value:
            raise ConfigError(f"{where} range needs start and stop")
        step = _as_int(value.get("step", 1), f"{where} step")
        if step <= 0:
            raise ConfigError(f"{where} range step must be positive")
        return tuple(range(_as_int(value["start"], f"{where} start"),
                           _as_int(value["stop"], f"{where} stop") + 1, step))
    if isinstance(value, (list, tuple)):
        return tuple(_as_int(v, where) for v in value)
    return (_as_int(value, where),)


def _as_bool(value, where):
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, not {value!r}")
    return value


def _as_float_list(value, where):
    if isinstance(value, (list, tuple)):
        out = tuple(_as_float(v, where) for v in value)
    else:
        out = (_as_float(value, where),)
    if not out:
        raise ConfigError(f"{where} must not be empty")
    return out


def parse_config(doc, experiment=None):
    """Validate a JSON document (already parsed) into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")

    exp = doc.get("experiment", experiment)
    if exp is None:
        raise ConfigError("experiment is not set (config key or subcommand)")
    if experiment is not None and exp != experiment:
        raise ConfigError(
            f"config experiment {exp!r} does not match subcommand {experiment!r}"
        )
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}; one of {EXPERIMENTS}")

    solver_doc = doc.get("solver", {})
    if not isinstance(solver_doc, dict):
        raise ConfigError("solver must be an object")
    _reject_unknown(solver_doc, _SOLVER_KEYS, "solver")
    if solver_doc.get("mode", "si-direct") not in SOLVER_MODES:
        raise ConfigError(f"solver.mode must be one of {SOLVER_MODES}")
    settings = {}
    for f in fields(eig.SolverConfig):
        if f.name in solver_doc:
            as_type = _as_float if f.type is float else _as_int
            settings[f.name] = as_type(solver_doc[f.name], f"solver.{f.name}")
    try:
        solver = eig.SolverConfig(**settings)
    except ValueError as e:
        raise ConfigError(f"solver.{e}") from e

    dis_doc = doc.get("disorder", {})
    if not isinstance(dis_doc, dict):
        raise ConfigError("disorder must be an object")
    _reject_unknown(dis_doc, _DISORDER_KEYS, "disorder")
    disorder = DisorderSettings(
        delta=_as_float(dis_doc.get("delta", 0.0), "disorder.delta"),
        samples=_as_int(dis_doc.get("samples", 0), "disorder.samples"),
    )
    if disorder.delta < 0 or disorder.delta >= 0.5:
        raise ConfigError("disorder.delta must lie in [0, 0.5)")
    if disorder.samples < 0:
        raise ConfigError("disorder.samples must be nonnegative")

    seed = doc.get("seed")
    if exp == "disorder" and disorder.samples > 0 and seed is None:
        raise ConfigError("seed is mandatory when disorder sampling is requested")
    if seed is None:
        seed = 0
    seed = _as_int(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must fit in an unsigned 64-bit integer")

    gamma = _as_float(doc.get("gamma", 1.0), "gamma")
    if gamma <= 0:
        raise ConfigError("gamma must be positive")

    kernel = str(doc.get("kernel", "waveguide"))
    if kernel not in ("waveguide", "transverse", "parallel"):
        raise ConfigError("kernel must be waveguide, transverse, or parallel")

    jobs = _as_int(doc.get("jobs", 1), "jobs")
    if jobs < 1:
        raise ConfigError("jobs must be at least 1")

    cfg = RunConfig(
        experiment=exp,
        N=_as_int_list(doc.get("N", []), "N"),
        kd_over_pi=_as_float_list(doc.get("kd_over_pi", [0.25]), "kd_over_pi"),
        gamma=gamma,
        solver=solver,
        disorder=disorder,
        defect_sites=_as_int_list(doc.get("defect_sites", []), "defect_sites"),
        kernel=kernel,
        d_over_lambda0=_as_float_list(doc.get("d_over_lambda0", [0.35]),
                                      "d_over_lambda0"),
        seed=seed,
        out=str(doc.get("out", "runs")),
        jobs=jobs,
        dump_vectors=_as_bool(doc.get("dump_vectors", False), "dump_vectors"),
        M=_as_int_list(doc.get("M", [1, 2, 5, 10, 30]), "M"),
        Kd_over_pi=_as_float_list(doc.get("Kd_over_pi", [0.0, 1.0]),
                                  "Kd_over_pi"),
    )
    for kd in cfg.kd_values:
        if not 0.0 < kd < np.pi:
            raise ConfigError("kd_over_pi values must lie in (0, 1)")
    # the relative models take a center-of-mass wavenumber in [0, 2 pi)
    for Kd in cfg.Kd_values:
        if not 0.0 <= Kd < 2.0 * np.pi:
            raise ConfigError("Kd_over_pi values must lie in [0, 2)")
    for d in cfg.d_over_lambda0:
        if not d > 0:
            raise ConfigError("d_over_lambda0 values must be positive")
    if exp in _HALF_PI_EXPERIMENTS or (exp == "map-check" and cfg.N):
        if max(cfg.kd_over_pi) >= 0.5:
            raise ConfigError(f"kd_over_pi values must lie in (0, 0.5) for "
                              f"{exp}: its asymptotics need kd < pi/2")
    if min(cfg.N, default=2) < 2:
        raise ConfigError("N values must be at least 2")
    # defect sites (default N//2): the secular equation needs a neighbour
    # on both sides; a free-space chain takes any site
    if exp in ("defect", "freespace"):
        lo, hi = (1, 2) if exp == "defect" else (0, 1)
        for N in cfg.N:
            for site in cfg.defect_sites or (N // 2,):
                if not lo <= site <= N - hi:
                    raise ConfigError(f"defect site {site} must lie in "
                                      f"{lo}..{N - hi} for {exp} at N={N}")
    if min(cfg.M, default=1) < 1:
        raise ConfigError("M values must be at least 1")
    # dense eigenproblems: the pair sector of spectrum (N(N-1)/2), the
    # missing-site chain (N - 1), and map-check's defect relative model
    # (2M) and profile relative model (M = N - 1)
    dense = {N * (N - 1) // 2: f"N={N}" for N in cfg.N if exp == "spectrum"}
    dense.update({N - 1: f"N={N}" for N in cfg.N
                  if exp in ("defect", "freespace", "map-check")})
    dense.update({2 * M: f"M={M}" for M in cfg.M if exp == "map-check"})
    dim = max(dense, default=0)
    if dim > eig.DENSE_CAP:
        raise ConfigError(f"{exp} at {dense[dim]} needs a dense eigenproblem of "
                          f"dimension {dim}, above the dense cap {eig.DENSE_CAP}")
    if exp == "freespace" and kernel == "waveguide":
        raise ConfigError("freespace needs a free-space kernel: "
                          "transverse or parallel")
    return cfg


def load_config(path, experiment=None, overrides=None):
    """Read and validate a config file, applying CLI overrides.

    overrides: dict with optional keys out, seed, jobs.
    """
    try:
        with open(path, encoding="utf-8") as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"invalid JSON in {path}: {e}") from e
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    overrides = overrides or {}
    if overrides.get("out") is not None:
        doc["out"] = overrides["out"]
    if overrides.get("seed") is not None:
        doc["seed"] = overrides["seed"]
    if overrides.get("jobs") is not None:
        doc["jobs"] = overrides["jobs"]
    return parse_config(doc, experiment=experiment)
