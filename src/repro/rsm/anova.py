"""ANOVA decomposition of a response-surface fit.

Splits the total sum of squares into the part explained by the regression
and the residual, with the F statistic for overall model significance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import FitError
from repro.rsm.regression import ols


@dataclass(frozen=True)
class AnovaTable:
    """Classic one-line regression ANOVA."""

    ss_model: float
    ss_residual: float
    ss_total: float
    df_model: int
    df_residual: int
    ms_model: float
    ms_residual: float
    f_statistic: float
    p_value: float

    def to_string(self) -> str:
        """Readable fixed-width table."""
        header = f"{'source':<12}{'SS':>14}{'df':>6}{'MS':>14}{'F':>10}{'p':>10}"
        model = (
            f"{'model':<12}{self.ss_model:>14.4g}{self.df_model:>6}"
            f"{self.ms_model:>14.4g}{self.f_statistic:>10.3f}{self.p_value:>10.4f}"
        )
        resid = (
            f"{'residual':<12}{self.ss_residual:>14.4g}{self.df_residual:>6}"
            f"{self.ms_residual:>14.4g}"
        )
        total = f"{'total':<12}{self.ss_total:>14.4g}{self.df_model + self.df_residual:>6}"
        return "\n".join([header, model, resid, total])


def anova(X: np.ndarray, y: np.ndarray) -> AnovaTable:
    """ANOVA of ``y ~ X`` (X includes the intercept column)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    fit = ols(X, y)
    n, p = X.shape
    ss_total = float(np.sum((y - np.mean(y)) ** 2))
    ss_residual = fit.sse
    ss_model = max(ss_total - ss_residual, 0.0)
    df_model = p - 1
    df_residual = n - p
    if df_model < 1:
        raise FitError("ANOVA needs at least one non-intercept term")
    ms_model = ss_model / df_model
    ms_residual = ss_residual / df_residual if df_residual > 0 else 0.0
    if ms_residual > 0:
        # Imported here: SciPy costs ~0.5 s and ~60 MB at import, and
        # this is its only caller, which no pipeline path reaches.
        from scipy import stats

        f_stat = ms_model / ms_residual
        p_value = float(stats.f.sf(f_stat, df_model, df_residual))
    else:
        f_stat = float("inf")
        p_value = 0.0
    return AnovaTable(
        ss_model=ss_model,
        ss_residual=ss_residual,
        ss_total=ss_total,
        df_model=df_model,
        df_residual=df_residual,
        ms_model=ms_model,
        ms_residual=ms_residual,
        f_statistic=f_stat,
        p_value=p_value,
    )
