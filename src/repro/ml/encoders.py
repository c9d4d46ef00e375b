"""Label encoding for classifier targets."""

from __future__ import annotations

import numpy as np


class LabelEncoder:
    """Map arbitrary hashable labels to dense integer codes and back.

    The encoder sorts labels lexicographically (as strings) when they are
    not numerically comparable, which keeps the mapping deterministic across
    runs — a requirement for reproducible generated decision-tree headers.
    """

    def __init__(self):
        self.classes_ = None

    def fit(self, labels) -> "LabelEncoder":
        """Learn the label set."""
        unique = sorted(set(labels), key=lambda label: (str(type(label)), str(label)))
        self.classes_ = list(unique)
        self._index = {label: code for code, label in enumerate(self.classes_)}
        return self

    def transform(self, labels) -> np.ndarray:
        """Encode labels as integer codes."""
        self._require_fitted()
        try:
            return np.array([self._index[label] for label in labels], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"unseen label {exc.args[0]!r}") from exc

    def fit_transform(self, labels) -> np.ndarray:
        """Fit on ``labels`` and return their codes."""
        return self.fit(labels).transform(labels)

    def inverse_transform(self, codes):
        """Decode integer codes back to the original labels."""
        self._require_fitted()
        codes = np.asarray(codes, dtype=np.int64).tolist()
        if codes and (min(codes) < 0 or max(codes) >= len(self.classes_)):
            raise ValueError("code out of range")
        return [self.classes_[code] for code in codes]

    def _require_fitted(self) -> None:
        if self.classes_ is None:
            raise RuntimeError("LabelEncoder used before fit()")

    def to_payload(self) -> list:
        """The learned classes as a JSON-serializable list (encoding order)."""
        self._require_fitted()
        return list(self.classes_)

    @classmethod
    def from_classes(cls, classes) -> "LabelEncoder":
        """Rebuild an encoder from a stored class list.

        The given order is preserved verbatim — not re-sorted — so a
        deserialized encoder reproduces the original code mapping exactly.
        """
        encoder = cls()
        encoder.classes_ = list(classes)
        if len(set(encoder.classes_)) != len(encoder.classes_):
            raise ValueError("encoder classes must be unique")
        encoder._index = {label: code for code, label in enumerate(encoder.classes_)}
        return encoder
