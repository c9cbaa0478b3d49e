"""Experiment configuration files: flat INI-style text with the blocks
[model], [region], [run], [chain], [sweep] (optional) and [output].

_GRAMMAR lists every key with the field it sets; an absent key keeps the
field's dataclass default (README gives the grammar with examples).  Any
other block or key is a parse error, and so are a missing family, n or L, a
[region] that gives both two_sided_threshold and constraint_* keys, and
[sweep] values without a parameter.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .estimate import point_errors
from .meanchain import MeanChainConfig
from .model import BUILTIN_FAMILIES, ModelSpec, builtin_model, mean_map
from .pathgen import PathConfig
from .region import ProductRegion, contains, parse_interval_union, two_sided_region


class ConfigParseError(ConfigurationError):
    """The configuration file could not be read or has malformed values."""


@dataclass
class Diagnostic:
    level: str  # "error" | "warning"
    message: str

    def __str__(self):
        return f"{self.level.upper()}: {self.message}"


@dataclass
class ExperimentConfig:
    family: str
    n: int
    L: int
    model_params: dict = field(default_factory=dict)
    d: int = 1
    region_two_sided: Optional[float] = None
    region_constraints: Optional[list[str]] = None
    schemes: list[str] = field(default_factory=lambda: ["adaptive"])
    k_mode: str = "default"
    k: Optional[int] = None
    variant: str = "uniform-step"
    weighting: str = "paired"
    seed: int = 0
    chain: MeanChainConfig = field(default_factory=MeanChainConfig)
    sweep_parameter: Optional[str] = None
    sweep_values: Optional[list] = None
    out_csv: str = "results.csv"
    timing: bool = True

    def sweep_points(self) -> list:
        if self.sweep_parameter is None:
            return [None]
        return list(self.sweep_values)

    def sweep_label(self, sweep_value) -> str:
        """"-" for the unswept point, else e.g. "d=2"; part of the scheme seeds."""
        return "-" if sweep_value is None else f"{self.sweep_parameter}={sweep_value}"

    def instantiate(self, sweep_value=None):
        """(model, region, n, L) for one sweep point."""
        size = {"d": self.d, "n": self.n, "L": self.L}
        if sweep_value is not None:
            size[self.sweep_parameter] = sweep_value
        params = dict(self.model_params)
        if self.family == "gaussian-mean":
            params["d"] = size["d"]
        model = builtin_model(self.family, **params)
        region = self._build_region(model)
        return model, region, size["n"], size["L"]

    def _build_region(self, model: ModelSpec) -> ProductRegion:
        if self.region_two_sided is not None:
            return two_sided_region(self.region_two_sided, model.s)
        if not self.region_constraints:
            raise ConfigurationError(
                "region block must give two_sided_threshold or constraint_* entries")
        unions = [parse_interval_union(text) for text in self.region_constraints]
        if len(unions) != model.s:
            raise ConfigurationError(
                f"region has {len(unions)} constraints but the model has s={model.s}")
        return ProductRegion(tuple(unions))

    def path_config(self) -> PathConfig:
        return PathConfig(k_mode=self.k_mode, k=self.k, variant=self.variant)


def _words(text: str) -> list[str]:
    return [word.strip() for word in text.split(",") if word.strip()]


def _boolean(text: str) -> bool:
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"not a boolean: {text!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


_GAUSSIANS = ("gaussian-mean", "gaussian-mean-and-square")

# The grammar: [block] -> {key: (field, parse)}, keys in configparser's lower
# case.  A field "model_params.x" is builtin_model's parameter x, which only
# the families listed third take; "chain.x" is MeanChainConfig's field x.  An
# absent key keeps its dataclass default.  [region] also takes
# constraint_1..constraint_s (see _constraints).
_GRAMMAR = {
    "model": {"family": ("family", str), "d": ("d", int),
              "mu": ("model_params.mu", float, _GAUSSIANS),
              "sigma": ("model_params.sigma", float, _GAUSSIANS),
              "rate": ("model_params.rate", float, ("exponential-mean",))},
    "region": {"two_sided_threshold": ("region_two_sided", float)},
    "run": {"n": ("n", int), "l": ("L", int), "schemes": ("schemes", _words),
            "k_mode": ("k_mode", str), "k": ("k", lambda text: int(text) if text else None),
            "variant": ("variant", str), "weighting": ("weighting", str),
            "seed": ("seed", int)},
    "chain": {"burn_in": ("chain.burn_in", int), "thinning": ("chain.thinning", int)},
    "sweep": {"parameter": ("sweep_parameter", lambda text: text or None),
              "values": ("sweep_values", lambda text: [int(word) for word in _words(text)])},
    "output": {"csv": ("out_csv", str), "timing": ("timing", _boolean)},
}


def load_config(path: str) -> ExperimentConfig:
    """Parse a configuration file; raises ConfigParseError on malformed input."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigParseError(f"cannot parse {path}: {exc}") from None

    try:
        return _from_parser(parser)
    except (ValueError, KeyError, configparser.Error, ConfigurationError) as exc:
        raise ConfigParseError(f"malformed configuration: {exc}") from None


def _from_parser(parser: configparser.ConfigParser) -> ExperimentConfig:
    """Read every key through _GRAMMAR; ValueError for a block or key it does
    not list, so a misspelt key cannot silently leave its default in place.
    An unknown family may take any family's parameters; validate_config
    reports it."""
    family = parser.get("model", "family", fallback="")
    values = {"model_params": {}, "chain": {}}
    for block in parser.sections():
        if block not in _GRAMMAR:
            raise ValueError(f"unknown block [{block}]")
        for key, text in parser[block].items():
            if block == "region" and key.startswith("constraint"):
                continue
            target, parse, *families = _GRAMMAR[block].get(key, (None, None))
            if target is None or (families and family in BUILTIN_FAMILIES
                                and family not in families[0]):
                raise ValueError(f"unknown key {key!r} in [{block}]")
            group, _, name = target.rpartition(".")
            (values[group] if group else values)[name] = parse(text)

    constraints = _constraints(parser["region"]) if parser.has_section("region") else []
    if constraints:
        if "region_two_sided" in values:
            raise ValueError("[region] takes two_sided_threshold or constraint_* keys, "
                             "not both")
        values["region_constraints"] = constraints
    if "sweep_values" in values and values.get("sweep_parameter") is None:
        raise ValueError("[sweep] values needs a parameter")
    for spec in fields(ExperimentConfig):
        if spec.default is MISSING and spec.default_factory is MISSING \
                and spec.name not in values:
            raise ValueError(f"missing key {spec.name!r}")
    values["chain"] = MeanChainConfig(**values["chain"])
    return ExperimentConfig(**values)


def _constraints(reg) -> list:
    """The values of [region]'s constraint_1..constraint_s keys, in the
    order of their integer suffixes; ValueError for a suffix that is not an
    integer, a repeated one, or a gap in 1..s."""
    by_index = {}
    for key in reg:
        if not key.startswith("constraint"):
            continue
        name, _, suffix = key.partition("_")
        if name != "constraint" or not (suffix.isascii() and suffix.isdigit()):
            raise ValueError(f"constraint key {key!r} needs an integer suffix, as in constraint_1")
        if int(suffix) in by_index:
            raise ValueError(f"constraint keys {by_index[int(suffix)]!r} and {key!r} "
                             f"both give constraint {int(suffix)}")
        by_index[int(suffix)] = key
    missing = next(i for i in range(1, len(by_index) + 2) if i not in by_index)
    if missing <= len(by_index):
        raise ValueError(f"constraint_{missing} is missing: constraint keys must number 1..s")
    return [reg.get(by_index[i]) for i in range(1, missing)]


def validate_config(cfg: ExperimentConfig) -> list[Diagnostic]:
    """Every violated constraint in the configuration, without executing it.

    Past the few checks that instantiate needs, every sweep point is built
    and checked with the estimators' own point_errors.
    """
    diags: list[Diagnostic] = []

    def err(msg):
        diags.append(Diagnostic("error", msg))

    if cfg.family not in BUILTIN_FAMILIES:
        err(f"unknown model family {cfg.family!r}")
        return diags
    if not cfg.schemes:
        err("schemes list must be nonempty")
    if cfg.sweep_parameter is not None:
        if cfg.sweep_parameter not in ("d", "n", "L"):
            err(f"sweep parameter must be one of d, n, L, got {cfg.sweep_parameter!r}")
        if not cfg.sweep_values:
            err("sweep values list must be nonempty")
        if cfg.sweep_parameter == "d" and cfg.family != "gaussian-mean":
            err("sweeping d requires the gaussian-mean family")
    if cfg.d != 1 and cfg.family != "gaussian-mean":
        err(f"d = {cfg.d} requires the gaussian-mean family; {cfg.family} has d = 1")
    if diags:
        return diags

    for sweep_value in cfg.sweep_points():
        label = "" if sweep_value is None else f" (sweep {cfg.sweep_label(sweep_value)})"
        try:
            model, region, n, L = cfg.instantiate(sweep_value)
            path_config = cfg.path_config()
        except ConfigurationError as exc:
            err(f"cannot build model/region{label}: {exc}")
            continue
        messages = dict.fromkeys(
            msg for scheme in cfg.schemes
            for msg in point_errors(model, region, n, L, scheme, path_config,
                                    cfg.weighting))
        for msg in messages:
            err(f"{msg}{label}")
        if not region.is_empty and contains(region, mean_map(model, np.zeros(model.s))):
            diags.append(Diagnostic("warning", "unconditioned mean lies inside the "
                                    f"region{label}; the event is not rare"))
    return diags
