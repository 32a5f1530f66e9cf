"""File formats: CSV matrices, JSON subspace data, JSON reports.

Matrices travel as plain row-major CSV.  A dataset of subspaces is a JSON
object

    {"m": 3, "r": 2, "points": [[[...], ...], ...], "weights": [...]}

where points[j] is the j-th m x r basis matrix (nested lists, rows outer),
m and r are JSON integers, the entries are numbers (not strings, true, false
or null),
and weights is optional (uniform when missing).  The file is read as UTF-8
whatever the locale; a file that cannot be decoded or does not have this
form raises DomainError (exit 3 from the CLI).  Reports are dicts of plain
values, written as indented JSON with numpy arrays as nested lists and numpy
scalars as numbers.
"""

from __future__ import annotations

import gc
import json
import operator
from itertools import chain

import numpy as np

from .errors import DomainError
from .grassmann import Empirical


def read_matrix_csv(path) -> np.ndarray:
    """Load a matrix from comma-separated values, one row per line, each entry parsed by
    ``float`` (blank lines and text after # skipped); one row is 1 x k, one column k x 1."""
    try:
        with open(path) as fh:
            M = np.array([list(map(float, t.split(","))) for t in
                          (line.split("#", 1)[0] for line in fh) if t.strip()])
        if M.ndim != 2:
            raise ValueError("no rows")
    except ValueError as exc:       # ragged rows raise ValueError too
        raise DomainError(f"malformed CSV matrix in {path}: {exc}") from exc
    return M


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


def _numbers(values, count: int = -1) -> np.ndarray:
    """The float array of an iterable of JSON numbers.  ``operator.pos`` raises
    TypeError on a string, null, list or object, where float() would parse "1.5"."""
    return np.fromiter(map(operator.pos, values), float, count)


def _parse(path):
    """(parse tree, whether it may hold true or false) of a UTF-8 JSON file.  Every true
    holds a "u" and every false an "l", and no number, NaN, Infinity or required key
    holds either, so only a text with one of them needs the exact test of its entries."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return json.loads(text), "u" in text or "l" in text


def _decode_measure(path):
    """(points, weights) of a dataset file: the (n, m, r) array built from the parse
    tree with ``np.fromiter`` once ``map(len, ...)`` has checked that every atom has
    m rows and every row r entries, and the weights array or None."""
    try:
        doc, literals = _parse(path)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DomainError(f"{path} is not UTF-8 JSON: {exc}") from exc
    try:
        m, r, atoms = doc["m"], doc["r"], doc["points"]
        if type(m) is not int or type(r) is not int:
            raise DomainError(f"{path}: m and r must be integers, got m={m!r}, r={r!r}")
        rows = list(chain.from_iterable(atoms))
        if set(map(len, atoms)) != {m} or set(map(len, rows)) != {r}:
            raise DomainError(f"{path}: points must be a nonempty list of {m} x {r} "
                              "nested lists (rows outer)")
        points = _numbers(chain.from_iterable(rows), len(rows) * r).reshape(len(atoms), m, r)
        weights = doc.get("weights")
        entries = chain(chain.from_iterable(rows), weights or ())
        if literals and any(type(v) is bool for v in entries):   # pos() takes them as 1 / 0
            raise DomainError(f"{path}: the entries of points and weights must be numbers, "
                              "not true or false")
        return points, None if weights is None else _numbers(weights)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{path} must carry m, r, points and numeric weights: {exc}") from exc


def read_measure_json(path) -> Empirical:
    """Load an empirical subspace measure from its JSON description.

    The parse tree holds no reference cycles, so the cyclic collector is paused
    while it is built and turned into arrays (it would otherwise run about 80
    passes over the half-built tree of a (5000, 10, 3) file); the caller's
    collector state is restored once the tree is dropped."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        points, weights = _decode_measure(path)
    finally:
        if enabled:
            gc.enable()
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
