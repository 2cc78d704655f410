"""Run configuration: JSON schema, validation, and model construction.

A config file is a single JSON document with a ``schema`` version field;
every flag but ``--k`` and ``--branch`` (fields of ``initial``) has a file
equivalent.  :meth:`RunConfig.from_file` resolves a CLI run: the file (or
the defaults), then a non-empty ``CURVEDLATTICE_OUTDIR`` for its output
directory, then each flag that is set.  Only then is the run validated,
once, and it keeps the metric that validation built.  Configs are fully
deterministic — no seeds anywhere.
"""

from __future__ import annotations

import json
import numbers
import os
import sys

from .errors import CurvedLatticeError
from .front import AXES, BOUNDARY_CONDITIONS
from .metric import MetricModel

SCHEMA_VERSION = 1
OUTDIR_ENV = "CURVEDLATTICE_OUTDIR"

# the fields each initial-state kind takes; any other field is a config error
_INITIAL_FIELDS = {
    "plane_wave": ("k", "branch"),
    "gaussian": ("center", "width", "k", "branch"),
    "kick": ("site", "component"),
}
_DEFAULT_INITIAL = {"kind": "plane_wave", "k": 0.0, "branch": 1}
_MAX_LENGTH = sys.maxsize // 16  # the most entries whose complex array numpy can index


def _is_real(value) -> bool:
    """A number that a float holds finitely: NaN fails every ordering test
    of `validate`, and an infinite t1 would never end a run."""
    finite = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    return finite and not isinstance(value, bool)


# the JSON type that a field's annotation names, as the test of a value and
# what the error says the field must be; a "<type> | None" field may also be
# None.  `validate` checks the kinds in this order, each in field order.
_TYPES = {
    "float": (_is_real, "a finite number"),
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "list": (lambda v: isinstance(v, list) and all(map(_is_real, v)), "a list of finite numbers"),
}


class ConfigError(CurvedLatticeError):
    """Invalid run configuration."""


def _check_initial_values(initial) -> None:
    """An initial state is an object of finite numbers and a kind."""
    if not (isinstance(initial, dict) and all(_is_real(v) for k, v in initial.items() if k != "kind")):
        raise ConfigError(f"initial must be an object of finite numbers and a kind, got {initial!r}")


def _check_initial(initial: dict) -> None:
    """An initial state whose values passed `_check_initial_values` names a
    known kind and only that kind's fields, a whole number where it counts."""
    kind = initial.get("kind")
    # a JSON kind may be a list or an object, which no dict lookup takes
    if not isinstance(kind, str) or kind not in _INITIAL_FIELDS:
        raise ConfigError(f"initial.kind must be one of {tuple(_INITIAL_FIELDS)}, got {kind!r}")
    foreign = [name for name in initial if name != "kind" and name not in _INITIAL_FIELDS[kind]]
    if foreign:
        raise ConfigError(f"a {kind} initial state has no {' or '.join(foreign)}")
    for name in ("branch", "site", "component"):
        if name in initial and initial[name] != int(initial[name]):
            raise ConfigError(f"initial.{name} must be a whole number, got {initial[name]!r}")


class RunConfig:
    """One run's settings: each annotated name is a field, with its default,
    and its annotation is the JSON type `validate` checks it by (`_TYPES`).
    Built by keyword only; a list or dict default is copied per instance."""

    schema: int = SCHEMA_VERSION
    family: str = "flat"
    q: float | None = None  # default pins the de Sitter horizon to the last site
    r: float = 0.0
    alpha: str | None = None
    beta: str | None = None
    params: dict = {}
    L: int = 500
    a: float = 1.0
    M: float = 0.0
    bc: str = "open"
    gamma: float | None = None
    e_min: float | None = None
    e_max: float | None = None
    n_e: int = 400
    axis: str = "real"
    times: list = [0.0]
    t0: float = 0.0
    t1: float = 1.0
    dt: float = 1e-3
    initial: dict = _DEFAULT_INITIAL
    out_dir: str = "."
    tol: float = 1e-12
    heatmap: bool = False
    check_duality: bool = False
    snapshot_times: list = []

    def __init__(self, **settings):
        unknown = settings.keys() - RunConfig.__annotations__.keys()
        if unknown:
            raise TypeError(f"RunConfig got unknown fields {sorted(unknown)}")
        for name in RunConfig.__annotations__:
            default = getattr(RunConfig, name)
            if isinstance(default, (list, dict)):
                default = default.copy()
            setattr(self, name, settings.get(name, default))

    @property
    def q_value(self) -> float:
        if self.q is not None:
            return float(self.q)
        return 1.0 / ((self.L - 1) * self.a)

    # -- construction --------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """The validated run of exactly the fields in ``data``."""
        unknown = data.keys() - cls.__annotations__.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | None = None, overrides: dict | None = None) -> "RunConfig":
        """The validated run of config file ``path`` (None: the defaults),
        a non-empty ``CURVEDLATTICE_OUTDIR`` and the flags of ``overrides``
        that are set, in this order (see the module docstring)."""
        data = {}
        if path is not None:
            try:
                with open(path, encoding="utf-8") as fh:  # JSON's encoding (RFC 8259)
                    data = json.load(fh)
            except OSError as err:
                raise ConfigError(f"cannot read config {path!r}: {err}") from err
            except UnicodeDecodeError as err:
                raise ConfigError(f"config {path!r} is not UTF-8: {err}") from err
            except json.JSONDecodeError as err:
                raise ConfigError(f"malformed JSON in {path!r}: {err}") from err
            if not isinstance(data, dict):
                raise ConfigError(f"config root must be an object, got {type(data).__name__}")
        if os.environ.get(OUTDIR_ENV):  # empty is unset
            data["out_dir"] = os.environ[OUTDIR_ENV]
        flags = {key: value for key, value in (overrides or {}).items() if value is not None}
        state = {key: flags.pop(key) for key in ("k", "branch") if key in flags}
        data.update(flags)
        initial = data.get("initial", _DEFAULT_INITIAL)
        if isinstance(initial, dict):  # validate names any other value
            data["initial"] = {**initial, **state}
        return cls.from_dict(data)

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        # a config file may hold any JSON type, and a string where a number
        # belongs would end in a TypeError inside a command
        for kind, (test, must_be) in _TYPES.items():
            for name, annotation in RunConfig.__annotations__.items():
                if annotation in (kind, f"{kind} | None"):
                    value = getattr(self, name)
                    if not (test(value) or value is None and annotation != kind):
                        raise ConfigError(f"{name} must be {must_be}, got {value!r}")
        if not (isinstance(self.params, dict) and all(map(_is_real, self.params.values()))):
            raise ConfigError(f"params must map names to finite numbers, got {self.params!r}")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{name} must be an expression string, got {value!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a path string, got {self.out_dir!r}")
        _check_initial_values(self.initial)
        if self.schema != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema version {self.schema} (expected {SCHEMA_VERSION})")
        if self.L < 2:
            raise ConfigError(f"L must be at least 2, got {self.L}")
        for name in ("L", "n_e"):  # numpy refuses a longer array with a ValueError
            if getattr(self, name) > _MAX_LENGTH:
                raise ConfigError(f"{name} must be at most {_MAX_LENGTH}, got {getattr(self, name)}")
        if self.a <= 0:
            raise ConfigError(f"a must be positive, got {self.a}")
        if self.bc not in BOUNDARY_CONDITIONS:
            raise ConfigError(f"bc must be {' or '.join(BOUNDARY_CONDITIONS)}, got {self.bc!r}")
        if self.axis not in AXES:
            raise ConfigError(f"axis must be one of {AXES}, got {self.axis!r}")
        if self.gamma is not None and self.gamma <= 0:
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        if self.n_e < 2:
            raise ConfigError(f"n_e must be at least 2, got {self.n_e}")
        if (self.e_min is None) != (self.e_max is None):
            raise ConfigError("e_min and e_max must be given together")
        if self.e_min is not None and self.e_max <= self.e_min:
            raise ConfigError(f"need e_max > e_min, got [{self.e_min}, {self.e_max}]")
        if self.e_min is not None and self.e_max - self.e_min > sys.float_info.max:
            raise ConfigError(f"energy range [{self.e_min}, {self.e_max}] spans beyond the float range")
        if not self.times:
            raise ConfigError("times must not be empty")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.t1 <= self.t0:
            raise ConfigError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        for t in self.snapshot_times:
            if not self.t0 <= t <= self.t1:
                raise ConfigError(f"snapshot time {t} outside [{self.t0}, {self.t1}]")
        if self.tol <= 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        _check_initial(self.initial)
        # metric-module constraints before any computation; each validation
        # builds the model anew, as a field may have changed, and keeps it
        self._model = self._build_model()

    # -- derived objects ---------------------------------------------------

    def model(self) -> MetricModel:
        """The configured metric, as the last `validate` built and kept it."""
        return self._model

    def _build_model(self) -> MetricModel:
        """Building a metric samples nothing, so every error it raises is a
        setting: a ConfigError with the same text."""
        if self.family == "custom" and not (self.alpha and self.beta):
            raise ConfigError("custom metric needs both alpha and beta expressions")
        try:
            if self.family == "custom":
                return MetricModel.custom(
                    self.alpha, self.beta, L=self.L, a=self.a, params=self.params
                )
            return MetricModel(self.family, self.L, self.a, q=self.q_value, r=self.r)
        except CurvedLatticeError as err:
            raise ConfigError(str(err)) from err

    def initial_state(self):
        """The configured initial field.  A whole-number field is passed as
        given, so an error names it as the config wrote it."""
        from . import evolve

        opts = self.initial
        try:
            if opts["kind"] == "plane_wave":
                return evolve.plane_wave(
                    k=float(opts.get("k", 0.0)),
                    branch=opts.get("branch", 1),
                    L=self.L,
                    a=self.a,
                )
            if opts["kind"] == "gaussian":
                return evolve.gaussian_packet(
                    center=float(opts.get("center", (self.L - 1) * self.a / 2)),
                    width=float(opts.get("width", self.L * self.a / 20)),
                    k=float(opts.get("k", 0.0)),
                    L=self.L,
                    a=self.a,
                    branch=opts.get("branch", 1),
                )
            return evolve.single_site(
                site=opts.get("site", self.L // 2),
                L=self.L,
                component=opts.get("component", 0),
            )
        except evolve.EvolveError as err:
            raise ConfigError(f"invalid initial state: {err}") from err
