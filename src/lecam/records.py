"""Scan records with lossless CSV and JSON round-trips.

One record is one measured quantity at one experiment point, built by
``ScanRecord.at``.  Its layout is one column list, ``_columns``: the CSV
header, each CSV row, the CSV parse and each JSON record's keys follow it.
Floats are printed with 17 significant digits so that parsing the emitted
file reproduces the in-memory values bit for bit.  The writer formats every
row before it opens the path, so a refused record writes nothing.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import operator
import os
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError
from .lattice import ExperimentParams
from .numerics import SlopeFit

FLOAT_FORMAT = ".17g"
# The columns after the weights, in every CSV and every JSON record.
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

    @classmethod
    def at(cls, params: ExperimentParams, quantity: str, value: float, error: float,
           method: str) -> ScanRecord:
        """The record of ``quantity`` at the experiment point ``params``."""
        return cls(params.population, params.sample_size, params.dim, params.weights,
                   quantity, value, error, method)


# A record's field values in order: one column each, but for the weights.
_field_values = operator.attrgetter(*(f.name for f in fields(ScanRecord)))


def _columns(weight_columns: list[str]) -> list[str]:
    """The one column layout of a record, its weights under ``weight_columns``:
    p1 ... p(d+1) in a CSV, one list "p" in JSON."""
    return ["N", "n", "d", *weight_columns, *_TAIL]


def format_float(x: float) -> str:
    """Render a float with enough digits for an exact round-trip."""
    return format(x, FLOAT_FORMAT)


def _csv_row(r: ScanRecord) -> list:
    """A record's cells in column order, floats with 17 digits."""
    row = []
    for x in _field_values(r):
        if isinstance(x, tuple):
            row += map(format_float, x)
        else:
            row.append(format_float(x) if isinstance(x, float) else x)
    return row


def write_csv(records: Sequence[ScanRecord], path_or_buf) -> None:
    """Write records as UTF-8 CSV with the fixed column order; every row is
    formatted before the path is opened, so a refused record writes nothing."""
    if not records:
        raise ValidationError("cannot write an empty record list")
    dim = records[0].dim
    if any(r.dim != dim for r in records):
        raise ValidationError("all records in one CSV must share the same dimension")
    rows = [_columns([f"p{i + 1}" for i in range(dim + 1)])]
    rows += map(_csv_row, records)
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValidationError("record weights do not match its dimension")
    with _opened(path_or_buf, "w") as handle:
        csv.writer(handle).writerows(rows)


def read_csv(path_or_buf) -> list[ScanRecord]:
    """Parse a CSV written by :func:`write_csv` back into records."""
    with _opened(path_or_buf, "r") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ValidationError("empty CSV input")
    header, *rows = rows
    weight_columns = header[3:-len(_TAIL)]
    if not weight_columns or header != _columns(weight_columns):
        raise ValidationError("unrecognized CSV header")
    records = []
    for row in filter(None, rows):
        if len(row) != len(header):
            raise ValidationError("CSV row width does not match the header")
        N, n, d, *weights, quantity, value, error, method = row
        try:
            record = ScanRecord(int(N), int(n), int(d), tuple(map(float, weights)),
                                quantity, float(value), float(error), method)
        except ValueError as exc:
            raise ValidationError(f"CSV cell does not parse: {exc}") from None
        if record.dim != len(weights) - 1:
            raise ValidationError(f"CSV row has d={d} but {len(weights)} weight columns")
        records.append(record)
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
    keys = _columns(["p"])
    doc: dict = {"records": [dict(zip(keys, map(_json_value, _field_values(r))))
                             for r in records]}
    if slope_fits:
        doc["slope_fits"] = {name: asdict(fit) for name, fit in slope_fits.items()}
    if extra:
        doc.update(extra)
    return _json_text(doc)


def _json_text(doc: Mapping) -> str:
    """The one JSON encoding of every document: indented, with no NaN or
    infinity (see :func:`_json_value`)."""
    return json.dumps(doc, indent=2, allow_nan=False)


def _json_value(x):
    """``x`` for a JSON document: a NaN or infinity as a string, since JSON
    has no literal for them and flagged rows carry NaN; any other value as it is."""
    if not isinstance(x, float) or math.isfinite(x):
        return x
    return "nan" if math.isnan(x) else "inf" if x > 0 else "-inf"


def records_equal(a: Iterable[ScanRecord], b: Iterable[ScanRecord]) -> bool:
    """Field-by-field equality that treats NaN values as equal to themselves."""
    la, lb = list(a), list(b)
    return len(la) == len(lb) and all(
        x == y or x != x and y != y  # NaN is the one value unequal to itself
        for ra, rb in zip(la, lb) for x, y in zip(_field_values(ra), _field_values(rb)))
