"""Report containers for estimate experiments and invariant bundles.

Every Monte Carlo assertion in this package is reported with a batch-means
confidence interval and decided only on CI-adjusted margins.  Reports
serialize to a self-describing key-value text document plus a CSV table of
per-checkpoint rows, printed with 17 significant digits so reruns are
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["CheckResult", "EstimateReport", "batch_mean_ci", "bundle_report",
           "format_value"]


def format_value(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


CI_Z = 1.96  # normal quantile of a two-sided 95% interval


def _batch_bounds(path_count: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` bounds of the at most 20 contiguous path batches behind
    every confidence interval; independent paths make any split valid."""
    b = min(20, path_count)
    edges = np.linspace(0, path_count, b + 1).astype(int)
    return list(zip(edges[:-1], edges[1:]))


def batch_mean_ci(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and normal-approximation CI half-width via path-batch means.

    ``samples`` has paths on the first axis and is split by
    ``_batch_bounds``; with a single path the half-width is reported as zero.
    """
    samples = np.asarray(samples, dtype=float)
    mean = samples.mean(axis=0)
    bounds = _batch_bounds(samples.shape[0])
    if len(bounds) < 2:
        return mean, np.zeros_like(mean)
    bm = np.stack([samples[lo:hi].mean(axis=0) for lo, hi in bounds])
    se = bm.std(axis=0, ddof=1) / np.sqrt(len(bounds))
    return mean, CI_Z * se


@dataclass(frozen=True)
class CheckResult:
    """Single named check with its worst margin (nonnegative means pass)."""

    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one estimate experiment.

    ``series`` holds per-checkpoint rows under ``columns`` (written to CSV);
    ``constants`` carries fitted quantities such as smallest admissible
    constants, decay rates and slopes.  ``worst_margin`` is the smallest
    CI-adjusted margin over all checkpoints; the report passes only if it
    is nonnegative.
    """

    name: str
    passed: bool
    worst_margin: float
    constants: dict = field(default_factory=dict)
    columns: tuple = ()
    series: tuple = ()
    notes: tuple = ()

    def to_text(self) -> str:
        lines = [f"report = {self.name}",
                 f"passed = {format_value(self.passed)}",
                 f"worst_margin = {format_value(self.worst_margin)}"]
        for key in sorted(self.constants):
            lines.append(f"constant.{key} = {format_value(self.constants[key])}")
        for i, note in enumerate(self.notes):
            lines.append(f"note.{i} = {note}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.series:
            lines.append(",".join(format_value(x) for x in row))
        return "\n".join(lines) + "\n"

    def write(self, directory, stem: str) -> None:
        """Write the text report and, when a series exists, its CSV."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{stem}.txt").write_text(self.to_text())
        if self.series:
            (directory / f"{stem}.csv").write_text(self.to_csv())


def _implied_constant_report(name: str, parts, total, denom: float,
                             eps: float) -> EstimateReport:
    """Report ``name``: the batch mean and CI of each ``(key, samples)`` of
    ``parts`` and of the constant ``mean(total) / denom`` they imply, which
    passes when it is finite."""
    rows = [(key, *map(float, batch_mean_ci(samples)))
            for key, samples in parts]
    mean, ci = batch_mean_ci(total)
    c_hat = float(mean / denom)
    rows.append(("implied_constant", c_hat, float(ci / denom)))
    constants = {"eps": eps}
    for key, value, half_width in rows:
        constants[key], constants[f"{key}_ci"] = value, half_width
    return EstimateReport(
        name=name,
        passed=bool(np.isfinite(c_hat)),
        worst_margin=c_hat,
        constants=constants,
        columns=("quantity", "value", "ci"),
        series=tuple(rows),
    )


def bundle_report(name: str, checks: list[CheckResult]) -> EstimateReport:
    """Collapse named checks into one report with a margin table."""
    return EstimateReport(
        name=name,
        passed=all(c.passed for c in checks),
        worst_margin=min((c.margin for c in checks), default=0.0),
        columns=("check", "passed", "margin", "detail"),
        series=tuple((c.name, c.passed, c.margin, c.detail) for c in checks),
    )
