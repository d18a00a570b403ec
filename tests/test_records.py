import dataclasses
import io
import json
import math

import pytest

from lecam import (
    ScanRecord,
    ValidationError,
    read_csv,
    records_to_json,
    validate_params,
    write_csv,
)
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

    def test_a_refused_record_writes_nothing(self, tmp_path):
        records = [make_record(), make_record(weights=(1.0,))]
        path = tmp_path / "scan.csv"
        with pytest.raises(ValidationError, match="weights do not match"):
            write_csv(records, path)
        assert not path.exists()
        path.write_bytes(b"kept")
        with pytest.raises(ValidationError):
            write_csv(records, path)
        assert path.read_bytes() == b"kept"

    def test_row_whose_d_disagrees_with_its_weights_is_refused(self):
        text = "N,n,d,p1,p2,quantity,value,error,method\r\n10,3,5,0.5,0.5,x,1,0,m\r\n"
        with pytest.raises(ValidationError, match="d=5 but 2 weight columns"):
            read_csv(io.StringIO(text))
        assert read_csv(io.StringIO(text.replace(",5,", ",1,")))[0].dim == 1

    @pytest.mark.parametrize("row", ["10,3,1,0.5,0.5,x,abc,0,m", "10,3,one,0.5,0.5,x,1,0,m",
                                     "1.5,3,1,0.5,0.5,x,1,0,m"], ids=["value", "d", "N"])
    def test_a_cell_that_does_not_parse_is_refused(self, row):
        text = "N,n,d,p1,p2,quantity,value,error,method\r\n" + row + "\r\n"
        with pytest.raises(ValidationError, match="does not parse"):
            read_csv(io.StringIO(text))

    def test_unrecognized_header_is_refused(self):
        for header in ("N,n,d,quantity,value,error,method",
                       "N,n,dim,p1,p2,quantity,value,error,method",
                       "N,n,d,p1,p2,quantity,value,error"):
            with pytest.raises(ValidationError, match="unrecognized CSV header"):
                read_csv(io.StringIO(header + "\r\n"))


class TestRecords:
    def test_at_an_experiment_point(self):
        params = validate_params(64, 8, (16, 48))
        record = ScanRecord.at(params, "tv", 0.5, 1e-9, "exact-discrete")
        assert record == ScanRecord(64, 8, 1, (0.25, 0.75), "tv", 0.5, 1e-9, "exact-discrete")

    def test_equality_reads_every_field_and_matches_nan(self):
        base = make_record(value=float("nan"), error=float("nan"))
        assert records_equal([base], [make_record(value=float("nan"), error=float("nan"))])
        changes = dict(population=65, sample_size=9, dim=2, weights=(0.5, 0.25),
                       quantity="hellinger", value=0.5, error=0.0, method="quad")
        for name, value in changes.items():
            assert not records_equal([base], [dataclasses.replace(base, **{name: value})]), name
        assert not records_equal([base], [base, base])


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
