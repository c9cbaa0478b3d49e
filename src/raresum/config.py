"""Experiment configuration files: flat INI-style text with named blocks.

Blocks and keys (see README for the full grammar):

    [model]   family, d, mu, sigma, rate
    [region]  two_sided_threshold  OR  constraint_1..constraint_s
    [run]     n, L, schemes, k_mode, k, variant, seed
    [chain]   burn_in, thinning, proposal_scale, target_kind, restart_prob
    [sweep]   parameter, values          (optional)
    [output]  csv, timing
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
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
    model_params: dict
    d: int
    region_two_sided: Optional[float]
    region_constraints: Optional[list[str]]
    n: int
    L: int
    schemes: list[str]
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
        d, n, L = self.d, self.n, self.L
        if sweep_value is not None:
            if self.sweep_parameter == "d":
                d = int(sweep_value)
            elif self.sweep_parameter == "n":
                n = int(sweep_value)
            elif self.sweep_parameter == "L":
                L = int(sweep_value)
        params = dict(self.model_params)
        if self.family == "gaussian-mean":
            params["d"] = d
        model = builtin_model(self.family, **params)
        region = self._build_region(model)
        return model, region, n, L

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


_MODEL_PARAM_KEYS = {
    "gaussian-mean": ("mu", "sigma"),
    "exponential-mean": ("rate",),
    "gaussian-mean-and-square": ("mu", "sigma"),
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
    if not parser.has_section("model"):
        raise ValueError("missing [model] section")
    if not parser.has_section("run"):
        raise ValueError("missing [run] section")
    model_sec = parser["model"]
    family = model_sec.get("family", "").strip()
    d = model_sec.getint("d", fallback=1)
    params = {}
    for key in _MODEL_PARAM_KEYS.get(family, ()):
        if key in model_sec:
            params[key] = model_sec.getfloat(key)

    region_two_sided = None
    region_constraints = None
    if parser.has_section("region"):
        reg = parser["region"]
        if "two_sided_threshold" in reg:
            region_two_sided = reg.getfloat("two_sided_threshold")
        keys = sorted(k for k in reg.keys() if k.startswith("constraint"))
        if keys:
            region_constraints = [reg.get(k) for k in keys]

    run = parser["run"]
    schemes = [s.strip() for s in run.get("schemes", "adaptive").split(",") if s.strip()]

    chain_kwargs = {}
    if parser.has_section("chain"):
        ch = parser["chain"]
        if "burn_in" in ch:
            chain_kwargs["burn_in"] = ch.getint("burn_in")
        if "thinning" in ch:
            chain_kwargs["thinning"] = ch.getint("thinning")
        if "proposal_scale" in ch:
            chain_kwargs["proposal_scale"] = np.array(
                [float(x) for x in ch.get("proposal_scale").split(",")])
        if "target_kind" in ch:
            chain_kwargs["target_kind"] = ch.get("target_kind").strip()
        if "restart_prob" in ch:
            chain_kwargs["restart_prob"] = ch.getfloat("restart_prob")

    sweep_parameter = None
    sweep_values = None
    if parser.has_section("sweep"):
        sw = parser["sweep"]
        sweep_parameter = sw.get("parameter", "").strip() or None
        if "values" in sw:
            sweep_values = [_sweep_value(tok) for tok in sw.get("values").split(",")
                            if tok.strip()]

    out_csv = "results.csv"
    timing = True
    if parser.has_section("output"):
        out = parser["output"]
        out_csv = out.get("csv", out_csv).strip()
        timing = out.getboolean("timing", fallback=True)

    k_raw = run.get("k", fallback=None)
    return ExperimentConfig(
        family=family,
        model_params=params,
        d=d,
        region_two_sided=region_two_sided,
        region_constraints=region_constraints,
        n=parser.getint("run", "n"),
        L=parser.getint("run", "L"),
        schemes=schemes,
        k_mode=run.get("k_mode", "default").strip(),
        k=int(k_raw) if k_raw not in (None, "") else None,
        variant=run.get("variant", "uniform-step").strip(),
        weighting=run.get("weighting", "paired").strip(),
        seed=run.getint("seed", fallback=0),
        chain=MeanChainConfig(**chain_kwargs) if chain_kwargs else MeanChainConfig(),
        sweep_parameter=sweep_parameter,
        sweep_values=sweep_values,
        out_csv=out_csv,
        timing=timing,
    )


def _sweep_value(token: str):
    tok = token.strip()
    try:
        return int(tok)
    except ValueError:
        return float(tok)


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
                                    cfg.chain, cfg.weighting))
        for msg in messages:
            err(f"{msg}{label}")
        if not region.is_empty and contains(region, mean_map(model, np.zeros(model.s))):
            diags.append(Diagnostic("warning", "unconditioned mean lies inside the "
                                    f"region{label}; the event is not rare"))
    return diags
