"""Declarative run configuration.

A single JSON file drives training, evaluation, and experiments. Every
key is validated against the schema below and unknown keys are rejected,
so typos in hyperparameter sweeps fail loudly. The seed is mandatory:
nothing in the pipeline falls back to wall-clock seeding.
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
    """A validated config; ``load_config`` fills every field, defaults included."""

    corpus: Path
    mode: str
    seed: int
    output_dir: Path
    fractions: tuple[float, ...]
    n_runs: int
    workers: int
    stc_n_states: int
    stc_rollouts_per_state: int
    stc_iterations: int
    stc_epochs: int
    stc_lambda_grid: tuple[float, ...]
    baseline_epochs: int
    baseline_lambda_grid: tuple[float, ...]
    histogram_fraction: float | None
    histogram_bins: int

    def rollout_config(self) -> RolloutConfig:
        return RolloutConfig(
            n_states=self.stc_n_states,
            rollouts_per_state=self.stc_rollouts_per_state,
            iterations=self.stc_iterations,
            seed=self.seed,
            classifier=ClassifierConfig(
                lam=self.stc_lambda_grid[0],
                epochs=self.stc_epochs,
                seed=self.seed,
            ),
        )

    def baseline_config(self) -> ClassifierConfig:
        return ClassifierConfig(
            lam=self.baseline_lambda_grid[0],
            epochs=self.baseline_epochs,
            seed=self.seed,
        )

    def experiment_plan(self) -> ExperimentPlan:
        histogram_fraction = self.histogram_fraction
        if histogram_fraction is None:
            histogram_fraction = 0.3 if 0.3 in self.fractions else self.fractions[0]
        return ExperimentPlan(
            mode=self.mode,
            fractions=self.fractions,
            n_runs=self.n_runs,
            seed=self.seed,
            rollout=self.rollout_config(),
            stc_lambda_grid=self.stc_lambda_grid,
            baseline=self.baseline_config(),
            baseline_lambda_grid=self.baseline_lambda_grid,
            histogram_fraction=histogram_fraction,
            histogram_bins=self.histogram_bins,
            workers=self.workers,
        )


_TOP_KEYS = {
    "corpus",
    "mode",
    "seed",
    "output_dir",
    "fractions",
    "n_runs",
    "workers",
    "stc",
    "baseline",
    "histogram",
}
_STC_KEYS = {"n_states", "rollouts_per_state", "iterations", "epochs", "lambda_grid"}
_BASELINE_KEYS = {"epochs", "lambda_grid"}
_HISTOGRAM_KEYS = {"fraction", "bins"}


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return mapping[key]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _distinct_numbers(value, name: str, valid, requirement: str) -> tuple[float, ...]:
    """A non-empty list of distinct numbers, each ``requirement``."""
    if not isinstance(value, (list, tuple)) or not value or not all(_is_number(v) and valid(v) for v in value):
        raise ConfigError(f"{name} must be a non-empty list of numbers {requirement}")
    if len(set(value)) != len(value):
        raise ConfigError(f"{name} must not repeat")
    return tuple(float(v) for v in value)


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a config file; ``overrides`` (from CLI flags)
    take precedence over file values, which take precedence over defaults."""
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

    stc = raw.get("stc", {})
    baseline = raw.get("baseline", {})
    histogram = raw.get("histogram", {})
    for section, allowed, where in (
        (stc, _STC_KEYS, "config.stc"),
        (baseline, _BASELINE_KEYS, "config.baseline"),
        (histogram, _HISTOGRAM_KEYS, "config.histogram"),
    ):
        if not isinstance(section, dict):
            raise ConfigError(f"{where} must be an object")
        _reject_unknown(section, allowed, where)

    merged = {
        "corpus": _require(raw, "corpus", "config"),
        "mode": _require(raw, "mode", "config"),
        "seed": _require(raw, "seed", "config"),
        "output_dir": _require(raw, "output_dir", "config"),
        "fractions": raw.get("fractions", (0.01, 0.05, 0.1, 0.3, 0.5, 0.9)),
        "n_runs": raw.get("n_runs", 5),
        "workers": raw.get("workers", 1),
        "stc_n_states": stc.get("n_states", 10000),
        "stc_rollouts_per_state": stc.get("rollouts_per_state", 1),
        "stc_iterations": stc.get("iterations", 5),
        "stc_epochs": stc.get("epochs", 5),
        "stc_lambda_grid": stc.get("lambda_grid", (1e-3,)),
        "baseline_epochs": baseline.get("epochs", 5),
        "baseline_lambda_grid": baseline.get("lambda_grid", (1e-5, 1e-4, 1e-3)),
        "histogram_fraction": histogram.get("fraction"),
        "histogram_bins": histogram.get("bins", 10),
    }
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                merged[key] = value

    mode = merged["mode"]
    if mode not in (MONO_LABEL, MULTI_LABEL):
        raise ConfigError(f"mode must be {MONO_LABEL!r} or {MULTI_LABEL!r}, got {mode!r}")
    if isinstance(merged["seed"], bool) or not isinstance(merged["seed"], int):
        raise ConfigError("seed must be an integer (wall-clock seeding is not supported)")
    corpus_path = Path(merged["corpus"])
    if not corpus_path.is_absolute():
        corpus_path = path.parent / corpus_path
    if not corpus_path.exists():
        raise ConfigError(f"corpus file does not exist: {corpus_path}")
    fractions = _distinct_numbers(merged["fractions"], "fractions", lambda f: 0.0 < f < 1.0, "strictly between 0 and 1")
    for name in ("n_runs", "workers", "stc.n_states", "stc.rollouts_per_state", "stc.iterations",
                 "stc.epochs", "baseline.epochs", "histogram.bins"):
        value = merged[name.replace(".", "_")]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigError(f"{name} must be a positive integer")
    stc_lambda_grid = _distinct_numbers(merged["stc_lambda_grid"], "stc.lambda_grid", lambda v: v > 0, "positive")
    baseline_lambda_grid = _distinct_numbers(
        merged["baseline_lambda_grid"], "baseline.lambda_grid", lambda v: v > 0, "positive"
    )
    hist_fraction = merged["histogram_fraction"]
    if hist_fraction is not None and not (_is_number(hist_fraction) and 0.0 < hist_fraction < 1.0):
        raise ConfigError("histogram.fraction must be null or a number strictly between 0 and 1")
    if hist_fraction is not None and hist_fraction not in fractions:
        raise ConfigError(f"histogram.fraction {hist_fraction!r} is not one of the fractions")

    output_dir = Path(merged["output_dir"])
    if not output_dir.is_absolute():
        output_dir = path.parent / output_dir

    return RunConfig(
        corpus=corpus_path,
        mode=mode,
        seed=merged["seed"],
        output_dir=output_dir,
        fractions=fractions,
        n_runs=merged["n_runs"],
        workers=merged["workers"],
        stc_n_states=merged["stc_n_states"],
        stc_rollouts_per_state=merged["stc_rollouts_per_state"],
        stc_iterations=merged["stc_iterations"],
        stc_epochs=merged["stc_epochs"],
        stc_lambda_grid=stc_lambda_grid,
        baseline_epochs=merged["baseline_epochs"],
        baseline_lambda_grid=baseline_lambda_grid,
        histogram_fraction=merged["histogram_fraction"],
        histogram_bins=merged["histogram_bins"],
    )
