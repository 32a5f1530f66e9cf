"""File formats: CSV matrices, JSON subspace data, JSON reports.

Matrices travel as plain row-major CSV.  A dataset of subspaces is a JSON
object

    {"m": 3, "r": 2, "points": [[[...], ...], ...], "weights": [...]}

where points[j] is the j-th m x r basis matrix (nested lists, rows outer)
and weights is optional (uniform when missing).  Reports are dicts of plain
values, written as indented JSON with numpy arrays as nested lists and numpy
scalars as numbers.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DomainError
from .grassmann import Empirical
from .manifold import check_scatter


def read_matrix_csv(path) -> np.ndarray:
    """Load a matrix from comma-separated values (one row per line)."""
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise DomainError(f"malformed CSV matrix in {path}: {exc}") from exc


def write_matrix_csv(path, M) -> None:
    """Write the bytes of ``np.savetxt(path, M, delimiter=",")``: every entry as %.18e,
    a 1-D M as one column; formatted in one operation and written in one call."""
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    if M.ndim != 2:
        raise ValueError(f"Expected 1D or 2D array, got {M.ndim}D array instead")
    row = ",".join(["%.18e"] * M.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(row * M.shape[0] % tuple(M.ravel().tolist()))


def read_scatter_csv(path) -> np.ndarray:
    """Load and validate a unimodular SPD matrix from CSV."""
    return check_scatter(read_matrix_csv(path), name=str(path))


def read_measure_json(path) -> Empirical:
    """Load an empirical subspace measure from its JSON description."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"malformed JSON in {path}: {exc}") from exc
    try:
        m, r = int(doc["m"]), int(doc["r"])
        points = np.asarray(doc["points"], dtype=float)
        weights = doc.get("weights")
        weights = None if weights is None else np.asarray(weights, dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"{path} must carry m, r, points and numeric weights: {exc}") from exc
    if points.ndim != 3 or points.shape[1:] != (m, r):
        raise DomainError(
            f"{path}: points have shape {points.shape}, expected (n, {m}, {r})"
        )
    return Empirical(points, weights)


def write_measure_json(path, meas: Empirical) -> None:
    write_report_json(path, {"m": meas.m, "r": meas.r, "points": meas.points,
                             "weights": meas.weights})


def _plain(obj):
    """A numpy array as nested lists, a numpy scalar as a number; TypeError otherwise."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_report_json(path, doc) -> None:
    """The bytes of ``json.dump(doc, fh, indent=2)`` with numpy arrays and scalars
    made plain, encoded at once (before the file opens) and written in one call."""
    text = json.dumps(doc, indent=2, default=_plain)
    with open(path, "w") as fh:
        fh.write(text)
