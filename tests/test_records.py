import io
import json
import math

import pytest

from lecam import ScanRecord, ValidationError, read_csv, records_to_json, write_csv
from lecam.numerics import SlopeFit
from lecam.records import format_float, records_equal


def make_record(**overrides) -> ScanRecord:
    base = dict(
        population=64,
        sample_size=8,
        dim=1,
        weights=(0.5, 0.5),
        quantity="tv",
        value=1 / 3,
        error=1e-9,
        method="exact-discrete",
    )
    base.update(overrides)
    return ScanRecord(**base)


class TestCsv:
    def test_header_tracks_dimension(self):
        def header(record):
            buf = io.StringIO()
            write_csv([record], buf)
            return buf.getvalue().splitlines()[0]

        assert header(make_record()) == "N,n,d,p1,p2,quantity,value,error,method"
        wide = make_record(dim=2, weights=(0.25, 0.25, 0.5))
        assert header(wide) == "N,n,d,p1,p2,p3,quantity,value,error,method"

    def test_floats_round_trip_exactly(self, tmp_path):
        values = [1 / 3, math.pi, 1e-300, 0.1 + 0.2, 5.0]
        records = [make_record(value=v, error=v / 7) for v in values]
        path = tmp_path / "scan.csv"
        write_csv(records, path)
        loaded = read_csv(path)
        assert records_equal(records, loaded)
        for r, l in zip(records, loaded):
            assert r.value == l.value
            assert r.error == l.error

    def test_seventeen_digits_in_text(self):
        assert format_float(1 / 3) == "0.33333333333333331"
        assert float(format_float(math.pi)) == math.pi

    def test_mixed_dimensions_rejected(self, tmp_path):
        records = [make_record(), make_record(dim=2, weights=(0.25, 0.25, 0.5))]
        with pytest.raises(ValidationError):
            write_csv(records, tmp_path / "bad.csv")


class TestJson:
    def test_document_shape(self):
        fit = SlopeFit(slope=-0.5, intercept=1.0, r_squared=0.999, points_used=4)
        doc = json.loads(records_to_json([make_record()], {"tv": fit}))
        assert doc["records"][0]["value"] == 1 / 3
        assert doc["slope_fits"]["tv"]["slope"] == -0.5
        assert doc["records"][0]["p"] == [0.5, 0.5]

    def test_non_finite_values_become_strings(self):
        doc = json.loads(
            records_to_json([make_record(value=float("nan"), error=float("inf"))], {})
        )
        assert doc["records"][0]["value"] == "nan"
        assert doc["records"][0]["error"] == "inf"

    def test_json_and_csv_agree(self, tmp_path):
        records = [make_record(value=0.1 + 0.2, error=2 / 7)]
        path = tmp_path / "scan.csv"
        write_csv(records, path)
        from_csv = read_csv(path)[0]
        from_json = json.loads(records_to_json(records, {}))["records"][0]
        assert from_csv.value == from_json["value"]
        assert from_csv.error == from_json["error"]
