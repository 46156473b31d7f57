"""Feature scalers.

Profiling metrics span wildly different magnitudes (instructions per
second vs. page faults per second), so models that rely on distances or
dot products need standardized features.  Two scalers are provided:
classic z-scoring and a robust median/IQR variant that tolerates the
heavy-tailed counters produced by interference spikes.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_2d
from ..errors import NotFittedError, ValidationError

__all__ = ["StandardScaler", "RobustScaler"]


class _BaseScaler:
    center_: np.ndarray
    scale_: np.ndarray

    @property
    def is_fitted(self) -> bool:
        return hasattr(self, "center_")

    def transform(self, X) -> np.ndarray:
        """Apply the fitted affine transform column-wise."""
        if not self.is_fitted:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        Xv = check_2d(X, name="X")
        if Xv.shape[1] != self.center_.size:
            raise ValidationError(
                f"expected {self.center_.size} features, got {Xv.shape[1]}"
            )
        return (Xv - self.center_) / self.scale_

    def fit_transform(self, X) -> np.ndarray:
        """Fit on *X* then transform it."""
        return self.fit(X).transform(X)

    def inverse_transform(self, Z) -> np.ndarray:
        """Undo the transform."""
        if not self.is_fitted:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        Zv = check_2d(Z, name="Z")
        return Zv * self.scale_ + self.center_


class StandardScaler(_BaseScaler):
    """Column-wise z-scoring; zero-variance columns get unit scale."""

    def fit(self, X) -> "StandardScaler":
        Xv = check_2d(X, name="X")
        self.center_ = Xv.mean(axis=0)
        std = Xv.std(axis=0)
        self.scale_ = np.where(std > 0.0, std, 1.0)
        return self


class RobustScaler(_BaseScaler):
    """Median/IQR scaling, insensitive to heavy-tailed counters."""

    def fit(self, X) -> "RobustScaler":
        Xv = check_2d(X, name="X")
        self.center_ = np.median(Xv, axis=0)
        q75, q25 = np.percentile(Xv, [75.0, 25.0], axis=0)
        iqr = q75 - q25
        self.scale_ = np.where(iqr > 0.0, iqr, 1.0)
        return self
