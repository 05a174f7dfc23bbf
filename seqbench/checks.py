"""Output checks, independent of the package's own readers."""

from __future__ import annotations

import hashlib
import math


def check_scores(path, rows: int, places: int) -> list:
    """Problems with a scores CSV: header, row count, query order, predicted
    index within [0, places), confidence finite and within [0, 1]."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return [f"{path}: unreadable: {exc}"]
    if not lines or lines[0] != "query,predicted,confidence":
        return [f"{path}: bad header"]
    if len(lines) - 1 != rows:
        return [f"{path}: {len(lines) - 1} score rows, expected {rows}"]
    for q, line in enumerate(lines[1:]):
        parts = line.split(",")
        try:
            if len(parts) != 3:
                raise ValueError
            query, predicted, confidence = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            return [f"{path}: row {q} is not 'query,predicted,confidence'"]
        if query != q:
            return [f"{path}: row {q} is numbered {query}"]
        if not 0 <= predicted < places:
            return [f"{path}: row {q} predicts place {predicted} of {places}"]
        if not (math.isfinite(confidence) and 0.0 <= confidence <= 1.0):
            return [f"{path}: row {q} confidence {confidence!r} outside [0, 1]"]
    return []


def read_auc(path, radius: float):
    """(AUC at `radius` from an `<out>_auc.csv`, problems)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return None, [f"{path}: unreadable: {exc}"]
    if not lines or lines[0] != "radius,auc":
        return None, [f"{path}: bad header"]
    for line in lines[1:]:
        try:
            r, value = (float(tok) for tok in line.split(","))
        except ValueError:
            return None, [f"{path}: malformed row {line!r}"]
        if r == radius:
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                return None, [f"{path}: AUC {value!r} outside [0, 1]"]
            return value, []
    return None, [f"{path}: no row for radius {radius:g}"]


def digest(paths) -> str:
    """SHA-256 over the bytes of every file, in order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
