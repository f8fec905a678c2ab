"""Declarative run configuration.

A single JSON file drives training, evaluation, and experiments. Every
key is validated against the schema below and unknown keys are rejected,
so typos in hyperparameter sweeps fail loudly. The seed is mandatory:
nothing in the pipeline falls back to wall-clock seeding.

``load_config`` builds the library's own ``ExperimentPlan`` from the
keys the file (or a flag) sets. An omitted setting takes the default of
the dataclass that owns it (``ExperimentPlan``, ``RolloutConfig`` or
``ClassifierConfig``); this module writes no default of its own. Paths
in the file resolve against the file's directory, paths given as flags
against the working directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .corpus import MONO_LABEL, MULTI_LABEL
from .evaluation import ExperimentPlan
from .learn import RolloutConfig
from .policy import ClassifierConfig

__all__ = ["RunConfig", "ConfigError", "load_config"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """A validated config: where the data is, where results go, and the plan."""

    corpus: Path
    output_dir: Path
    plan: ExperimentPlan


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name} must be a positive integer")
    return value


def _distinct_numbers(value, name: str, valid, requirement: str) -> tuple[float, ...]:
    """A non-empty list of distinct numbers, each ``requirement``."""
    if not isinstance(value, (list, tuple)) or not value or not all(_is_number(v) and valid(v) for v in value):
        raise ConfigError(f"{name} must be a non-empty list of numbers {requirement}")
    if len(set(value)) != len(value):
        raise ConfigError(f"{name} must not repeat")
    return tuple(float(v) for v in value)


def _fractions(value, name: str) -> tuple[float, ...]:
    return _distinct_numbers(value, name, lambda f: 0.0 < f < 1.0, "strictly between 0 and 1")


def _lambdas(value, name: str) -> tuple[float, ...]:
    return _distinct_numbers(value, name, lambda v: v > 0, "positive")


def _histogram_fraction(value, name: str) -> float | None:
    if value is not None and not (_is_number(value) and 0.0 < value < 1.0):
        raise ConfigError(f"{name} must be null or a number strictly between 0 and 1")
    return value


# The settings of each section, each with its check. A key's name inside
# its section is the name of the dataclass field it sets.
_TOP_SETTINGS = {"fractions": _fractions, "n_runs": _positive_int, "workers": _positive_int}
_STC_SETTINGS = {
    "n_states": _positive_int,
    "rollouts_per_state": _positive_int,
    "iterations": _positive_int,
    "epochs": _positive_int,
    "lambda_grid": _lambdas,
}
_BASELINE_SETTINGS = {"epochs": _positive_int, "lambda_grid": _lambdas}
_HISTOGRAM_SETTINGS = {"fraction": _histogram_fraction, "bins": _positive_int}
_REQUIRED = ("corpus", "mode", "seed", "output_dir")
_SECTIONS = {"stc": _STC_SETTINGS, "baseline": _BASELINE_SETTINGS, "histogram": _HISTOGRAM_SETTINGS}
_TOP_KEYS = {*_REQUIRED, *_TOP_SETTINGS, *_SECTIONS}


def _reject_unknown(mapping: dict, allowed, where: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _settings(mapping: dict, checks: dict, prefix: str) -> dict:
    """The settings ``mapping`` holds, each passed through its check."""
    return {key: check(mapping[key], prefix + key) for key, check in checks.items() if key in mapping}


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a config file; ``overrides`` (from CLI flags,
    keyed by config key) take precedence over file values, which take
    precedence over the library's defaults."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    sections = {name: raw.get(name, {}) for name in _SECTIONS}
    for name, section in sections.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config.{name} must be an object")
        _reject_unknown(section, _SECTIONS[name], f"config.{name}")
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"missing required key {key!r} in config")

    flags = {key: value for key, value in (overrides or {}).items() if value is not None}
    merged = {**raw, **flags}
    mode, seed = merged["mode"], merged["seed"]
    if mode not in (MONO_LABEL, MULTI_LABEL):
        raise ConfigError(f"mode must be {MONO_LABEL!r} or {MULTI_LABEL!r}, got {mode!r}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("seed must be an integer (wall-clock seeding is not supported)")

    def resolve(key: str) -> Path:
        # A path from the file is relative to the file, one from a flag to
        # the working directory.
        if not isinstance(merged[key], str):
            raise ConfigError(f"{key} must be a path string")
        value = Path(merged[key])
        return value if value.is_absolute() or key in flags else path.parent / value

    corpus = resolve("corpus")
    if not corpus.exists():
        raise ConfigError(f"corpus file does not exist: {corpus}")

    top = _settings(merged, _TOP_SETTINGS, "")
    stc, baseline, histogram = (_settings(sections[name], _SECTIONS[name], f"{name}.") for name in _SECTIONS)

    fractions = top.get("fractions", ExperimentPlan.fractions)
    if histogram.get("fraction") is None:
        preferred = ExperimentPlan.histogram_fraction
        histogram["fraction"] = preferred if preferred in fractions else fractions[0]
    elif histogram["fraction"] not in fractions:
        raise ConfigError(f"histogram.fraction {histogram['fraction']!r} is not one of the fractions")

    stc_grid = stc.pop("lambda_grid", ExperimentPlan.stc_lambda_grid)
    stc_epochs = {"epochs": stc.pop("epochs")} if "epochs" in stc else {}
    baseline_grid = baseline.pop("lambda_grid", ExperimentPlan.baseline_lambda_grid)
    plan = ExperimentPlan(
        mode=mode,
        seed=seed,
        rollout=RolloutConfig(seed=seed, classifier=ClassifierConfig(lam=stc_grid[0], seed=seed, **stc_epochs), **stc),
        stc_lambda_grid=stc_grid,
        baseline=ClassifierConfig(lam=baseline_grid[0], seed=seed, **baseline),
        baseline_lambda_grid=baseline_grid,
        **top,
        **{f"histogram_{key}": value for key, value in histogram.items()},
    )
    return RunConfig(corpus=corpus, output_dir=resolve("output_dir"), plan=plan)
