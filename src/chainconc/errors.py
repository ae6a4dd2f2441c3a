"""Exception types, global numeric configuration and JSON helpers."""

from __future__ import annotations

import math
import os

import numpy as np

# Absolute tolerance for probability vectors: sums within PROB_TOL of 1 are
# renormalized, anything worse is rejected.
PROB_TOL = 1e-12

DEFAULT_ENUMERATION_CAP = 10**6
DEFAULT_POLICY_CAP = 10**4

CAP_ENV_VAR = "CHAINCONC_CAP"


class ChainconcError(Exception):
    """Base class for all chainconc errors."""


class ValidationError(ChainconcError):
    """Malformed input: bad shapes, negative probabilities, bad row sums."""


class EnumerationCapError(ChainconcError):
    """A requested enumeration exceeds the configured joint-space cap."""


class NoMixError(ChainconcError):
    """The chain admits no mixing time within its horizon."""


def json_int(value, what: str) -> int:
    """value itself if it is a JSON integer; a bool, float or string raises ValidationError."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


class RowStream:
    """A 2-D float array given by a function that yields its rows, 1-D float
    arrays built as they are read. The report writer writes it row by row, and
    json_native and json_default turn it into the array's tolist()."""

    def __init__(self, rows):
        self.rows = rows

    def __iter__(self):
        return iter(self.rows())

    def tolist(self) -> list:
        return [row.tolist() for row in self.rows()]


def json_default(obj):
    """The default of a JSON encoder: an ndarray or a RowStream as its tolist()."""
    if isinstance(obj, (np.ndarray, RowStream)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_native(doc):
    """doc with every ndarray and RowStream, at any depth of dicts, lists and
    tuples, as its tolist() and every tuple as a list: json.dumps writes the
    same bytes of it."""
    if isinstance(doc, (np.ndarray, RowStream)):
        return doc.tolist()
    if isinstance(doc, dict):
        return {key: json_native(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [json_native(value) for value in doc]
    return doc


def size_text(size: int) -> str:
    """A size for a message: in full up to 15 digits, else as 10^log10(size) to 0.1."""
    return str(size) if size < 10**15 else f"10^{math.log10(size):.1f}"


def enumeration_cap(override: int | None = None) -> int:
    """Resolve the enumeration cap: explicit override, else env var, else default.

    A resolved cap below 1 is malformed input. Exceeding the cap is always an
    error, never a silent approximation.
    """
    if override is not None:
        cap = int(override)
    else:
        env = os.environ.get(CAP_ENV_VAR)
        try:
            cap = DEFAULT_ENUMERATION_CAP if env is None else int(env)
        except ValueError as exc:
            raise ValidationError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from exc
    if cap < 1:
        raise ValidationError(f"enumeration cap {cap} must be a positive integer")
    return cap
