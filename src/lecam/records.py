"""Scan records with lossless CSV and JSON round-trips.

One record is one measured quantity at one experiment point.  Floats are
printed with 17 significant digits so that parsing the emitted file
reproduces the in-memory values bit for bit.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError
from .numerics import SlopeFit

FLOAT_FORMAT = ".17g"
# The columns after the weights, in every CSV.
_TAIL = ["quantity", "value", "error", "method"]


@dataclass(frozen=True)
class ScanRecord:
    """One row of a scaling experiment."""

    population: int
    sample_size: int
    dim: int
    weights: tuple[float, ...]
    quantity: str
    value: float
    error: float
    method: str


def format_float(x: float) -> str:
    """Render a float with enough digits for an exact round-trip."""
    return format(x, FLOAT_FORMAT)


def _header(dim: int) -> list[str]:
    return ["N", "n", "d"] + [f"p{i + 1}" for i in range(dim + 1)] + _TAIL


def write_csv(records: Sequence[ScanRecord], path_or_buf) -> None:
    """Write records as UTF-8 CSV with the fixed column order."""
    if not records:
        raise ValidationError("cannot write an empty record list")
    dim = records[0].dim
    if any(r.dim != dim for r in records):
        raise ValidationError("all records in one CSV must share the same dimension")
    with _opened(path_or_buf, "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(_header(dim))
        for r in records:
            if len(r.weights) != dim + 1:
                raise ValidationError("record weights do not match its dimension")
            writer.writerow(
                [r.population, r.sample_size, r.dim]
                + [format_float(w) for w in r.weights]
                + [r.quantity, format_float(r.value), format_float(r.error), r.method]
            )


def read_csv(path_or_buf) -> list[ScanRecord]:
    """Parse a CSV written by :func:`write_csv` back into records."""
    with _opened(path_or_buf, "r") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ValidationError("empty CSV input")
    header = rows[0]
    if len(header) < 8 or header[:3] != ["N", "n", "d"] or header[-4:] != _TAIL:
        raise ValidationError("unrecognized CSV header")
    weight_cols = len(header) - 7
    records = []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != len(header):
            raise ValidationError("CSV row width does not match the header")
        weights = tuple(float(x) for x in row[3 : 3 + weight_cols])
        records.append(
            ScanRecord(
                population=int(row[0]),
                sample_size=int(row[1]),
                dim=int(row[2]),
                weights=weights,
                quantity=row[3 + weight_cols],
                value=float(row[4 + weight_cols]),
                error=float(row[5 + weight_cols]),
                method=row[6 + weight_cols],
            )
        )
    return records


def _opened(path_or_buf, mode: str):
    """A path opened as UTF-8 text for the csv module, closed on leaving the
    ``with``; a buffer as it is, left open."""
    if isinstance(path_or_buf, (str, bytes, os.PathLike)):
        return open(path_or_buf, mode, newline="", encoding="utf-8")
    return contextlib.nullcontext(path_or_buf)


def records_to_json(
    records: Sequence[ScanRecord],
    slope_fits: Mapping[str, SlopeFit] | None = None,
    extra: Mapping | None = None,
) -> str:
    """JSON document carrying the same values as the CSV output."""
    doc: dict = {
        "records": [
            {
                "N": r.population,
                "n": r.sample_size,
                "d": r.dim,
                "p": list(r.weights),
                "quantity": r.quantity,
                "value": _json_float(r.value),
                "error": _json_float(r.error),
                "method": r.method,
            }
            for r in records
        ]
    }
    if slope_fits:
        doc["slope_fits"] = {name: asdict(fit) for name, fit in slope_fits.items()}
    if extra:
        doc.update(extra)
    return _json_text(doc)


def _json_text(doc: Mapping) -> str:
    """The one JSON encoding of every document: indented, with no NaN or
    infinity (see :func:`_json_float`)."""
    return json.dumps(doc, indent=2, allow_nan=False)


def _json_float(x: float):
    # JSON has no NaN/inf literals; flagged rows carry them as strings.
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def records_equal(a: Iterable[ScanRecord], b: Iterable[ScanRecord]) -> bool:
    """Equality that treats NaN values as equal to themselves."""
    la, lb = list(a), list(b)
    if len(la) != len(lb):
        return False
    for ra, rb in zip(la, lb):
        if (ra.population, ra.sample_size, ra.dim, ra.quantity, ra.method) != (
            rb.population,
            rb.sample_size,
            rb.dim,
            rb.quantity,
            rb.method,
        ):
            return False
        if ra.weights != rb.weights:
            return False
        for x, y in ((ra.value, rb.value), (ra.error, rb.error)):
            if math.isnan(x) and math.isnan(y):
                continue
            if x != y:
                return False
    return True
