"""Tests for trace and result persistence."""

import csv
import json
import math

import numpy as np
import pytest

import repro.io.traceio as traceio
from repro.cli import main
from repro.core.attributes import DEFAULT_SCHEMA
from repro.core.sessions import Session, SessionTable
from repro.io import (
    read_sessions_csv,
    read_sessions_jsonl,
    read_sessions_npz,
    write_sessions_csv,
    write_sessions_jsonl,
    write_sessions_npz,
    write_series_csv,
    write_table_csv,
)
from tests.conftest import BASE_ATTRS, make_session


def _parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ValueError(f"cannot parse boolean from {value!r}")


def _parse_float(value) -> float:
    return float("nan") if value is None else float(value)


def read_row_wise(path, schema=DEFAULT_SCHEMA) -> SessionTable:
    """The readers' reference: one ``Session`` per record (``csv.DictReader``
    or ``json.loads`` per line), then ``SessionTable.from_sessions``."""
    with open(path, encoding="utf-8", newline="") as handle:
        if str(path).endswith(".csv"):
            records = list(csv.DictReader(handle))
        else:
            records = [json.loads(line) for line in handle if line.strip()]
    return SessionTable.from_sessions(
        (
            Session(
                attrs={name: str(record[name]) for name in schema.names},
                start_time=_parse_float(record["start_time"]),
                duration_s=_parse_float(record["duration_s"]),
                buffering_s=_parse_float(record["buffering_s"]),
                join_time_s=_parse_float(record["join_time_s"]),
                bitrate_kbps=_parse_float(record["bitrate_kbps"]),
                join_failed=_parse_bool(record["join_failed"]),
            )
            for record in records
        ),
        schema=schema,
    )


@pytest.fixture()
def sample_table() -> SessionTable:
    return SessionTable.from_sessions(
        [
            make_session(start_time=12.5, duration_s=300.0, buffering_s=4.5,
                         join_time_s=2.25, bitrate_kbps=1600.0, cdn="cdn_x"),
            make_session(start_time=99.0, join_failed=True, asn="AS77"),
        ]
    )


class TestJsonlRoundTrip:
    def test_round_trip(self, sample_table, tmp_path):
        path = tmp_path / "trace.jsonl"
        n = write_sessions_jsonl(sample_table, path)
        assert n == 2
        back = read_sessions_jsonl(path)
        assert len(back) == 2
        original = list(sample_table.rows())
        restored = list(back.rows())
        assert restored[0].attrs == original[0].attrs
        assert restored[0].buffering_s == original[0].buffering_s
        assert restored[1].join_failed is True
        assert math.isnan(restored[1].join_time_s)

    def test_nan_encoded_as_null(self, sample_table, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_sessions_jsonl(sample_table, path)
        lines = path.read_text().splitlines()
        assert '"join_time_s": null' in lines[1]

    def test_blank_lines_skipped(self, sample_table, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_sessions_jsonl(sample_table, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(read_sessions_jsonl(path)) == 2

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            read_sessions_jsonl(path)

    def test_missing_attribute_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"asn": "AS1"}\n')
        with pytest.raises(ValueError, match="missing"):
            read_sessions_jsonl(path)


class TestCsvRoundTrip:
    def test_round_trip(self, sample_table, tmp_path):
        path = tmp_path / "trace.csv"
        n = write_sessions_csv(sample_table, path)
        assert n == 2
        back = read_sessions_csv(path)
        original = list(sample_table.rows())
        restored = list(back.rows())
        assert restored[0].attrs == original[0].attrs
        assert restored[0].bitrate_kbps == original[0].bitrate_kbps
        assert restored[1].join_failed is True

    def test_header(self, sample_table, tmp_path):
        path = tmp_path / "trace.csv"
        write_sessions_csv(sample_table, path)
        with path.open() as handle:
            header = next(csv.reader(handle))
        assert header[:7] == list(sample_table.schema.names)
        assert "join_failed" in header


class TestResultExport:
    def test_write_table(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table_csv(path, ["metric", "value"], [["a", 1], ["b", 2]])
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows == [["metric", "value"], ["a", "1"], ["b", "2"]]

    def test_write_table_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_table_csv(tmp_path / "t.csv", ["a", "b"], [["only_one"]])

    def test_write_series(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series_csv(path, [0, 1], {"y": [0.5, 0.6]}, x_label="hour")
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["hour", "y"]
        assert rows[2] == ["1", "0.6"]

    def test_write_series_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_series_csv(tmp_path / "s.csv", [0, 1], {"y": [1.0]})


class TestGeneratedTraceRoundTrip:
    def test_analysis_identical_after_round_trip(self, tiny_trace, tmp_path):
        from repro.core import analyze_trace
        from repro.core.metrics import JOIN_FAILURE
        from repro.core.pipeline import AnalysisConfig

        path = tmp_path / "trace.jsonl"
        # Subset for speed: first two epochs.
        rows = np.nonzero(tiny_trace.table.start_time < 2 * 3600.0)[0]
        subset = tiny_trace.table.select(rows)
        write_sessions_jsonl(subset, path)
        restored = read_sessions_jsonl(path)
        config = AnalysisConfig(metrics=(JOIN_FAILURE,))
        a1 = analyze_trace(subset, config=config)
        a2 = analyze_trace(restored, config=config)
        e1 = a1["join_failure"].epochs
        e2 = a2["join_failure"].epochs
        assert [e.total_problems for e in e1] == [e.total_problems for e in e2]
        assert [set(e.critical_clusters) for e in e1] == [
            set(e.critical_clusters) for e in e2
        ]


class TestChunkedReaders:
    """The column-wise readers equal the row-wise reference at every
    chunk size."""

    @staticmethod
    def _assert_same(a: SessionTable, b: SessionTable) -> None:
        assert a.vocabs == b.vocabs
        assert np.array_equal(a.codes, b.codes)
        for name in ("start_time", "duration_s", "buffering_s",
                     "join_time_s", "bitrate_kbps", "join_failed"):
            ca, cb = getattr(a, name), getattr(b, name)
            assert np.array_equal(ca, cb, equal_nan=ca.dtype.kind == "f"), name

    @pytest.fixture()
    def varied_table(self) -> SessionTable:
        return SessionTable.from_sessions(
            make_session(
                start_time=37.0 * i,
                asn=f"AS{i % 5}",
                cdn=f"cdn_{i % 3}",
                join_failed=i % 4 == 0,
            )
            for i in range(101)
        )

    @staticmethod
    def _read_in_chunks(monkeypatch, reader, path, chunk_rows):
        """``reader(path)`` with ``chunk_rows``-row chunks, asserting
        the file really was decoded in that many chunks."""
        decoded = []
        chunk_table = traceio._chunk_table

        def counting(columns, schema, source):
            decoded.append(1)
            return chunk_table(columns, schema, source)

        monkeypatch.setattr(traceio, "_CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(traceio, "_chunk_table", counting)
        table = reader(path)
        assert len(decoded) == math.ceil(len(table) / chunk_rows)
        return table

    @pytest.mark.parametrize("chunk_rows", [7, 101, 4096])
    def test_csv_chunked_equals_row_wise(self, tmp_path, varied_table,
                                         chunk_rows, monkeypatch):
        path = tmp_path / "t.csv"
        write_sessions_csv(varied_table, path)
        self._assert_same(
            read_row_wise(path),
            self._read_in_chunks(
                monkeypatch, read_sessions_csv, path, chunk_rows
            ),
        )

    @pytest.mark.parametrize("chunk_rows", [7, 101, 4096])
    def test_jsonl_chunked_equals_row_wise(self, tmp_path, varied_table,
                                           chunk_rows, monkeypatch):
        path = tmp_path / "t.jsonl"
        write_sessions_jsonl(varied_table, path)
        self._assert_same(
            read_row_wise(path),
            self._read_in_chunks(
                monkeypatch, read_sessions_jsonl, path, chunk_rows
            ),
        )

    def test_chunked_preserves_nan_for_failed_joins(self, tmp_path,
                                                    sample_table):
        for writer, reader, name in (
            (write_sessions_csv, read_sessions_csv, "t.csv"),
            (write_sessions_jsonl, read_sessions_jsonl, "t.jsonl"),
        ):
            path = tmp_path / name
            writer(sample_table, path)
            restored = reader(path)
            assert bool(restored.join_failed[1])
            assert math.isnan(restored.join_time_s[1])
            assert math.isnan(restored.bitrate_kbps[1])

    def test_chunked_csv_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("asn,start_time\nAS1,0.0\n")
        with pytest.raises(ValueError, match="missing column"):
            read_sessions_csv(path)

    def test_chunked_csv_ragged_row(self, tmp_path, sample_table):
        path = tmp_path / "bad.csv"
        write_sessions_csv(sample_table, path)
        with path.open("a") as handle:
            handle.write("only,three,fields\n")
        with pytest.raises(ValueError, match="expected .* fields"):
            read_sessions_csv(path)

    def test_chunked_jsonl_invalid_json(self, tmp_path, sample_table):
        path = tmp_path / "bad.jsonl"
        write_sessions_jsonl(sample_table, path)
        with path.open("a") as handle:
            handle.write("{not json\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            read_sessions_jsonl(path)

    def test_chunked_empty_files(self, tmp_path):
        csv_path = tmp_path / "e.csv"
        write_sessions_csv(SessionTable.empty(), csv_path)
        assert len(read_sessions_csv(csv_path)) == 0
        jsonl_path = tmp_path / "e.jsonl"
        jsonl_path.write_text("")
        assert len(read_sessions_jsonl(jsonl_path)) == 0


#: One broken ``Session`` invariant per case: (overrides, bad column).
MALFORMED = {
    "negative_duration": ({"duration_s": -5.0}, "duration_s"),
    "negative_buffering": ({"buffering_s": -1.0}, "buffering_s"),
    "buffering_over_duration": ({"buffering_s": 9999.0}, "buffering_s"),
    "nan_start": ({"start_time": float("nan")}, "start_time"),
}

READERS = {
    "csv": read_sessions_csv,
    "jsonl": read_sessions_jsonl,
    "npz": read_sessions_npz,
}


def write_malformed(tmp_path, fmt: str, overrides: dict):
    """A two-row trace whose second row (row 1) breaks an invariant.

    Written without ``Session`` (which would reject the row): CSV and
    JSONL by hand, NPZ from raw columns. NaN is ``null`` in JSONL.
    """
    good = dict(BASE_ATTRS, start_time=0.0, duration_s=600.0,
                buffering_s=6.0, join_time_s=2.0, bitrate_kbps=2000.0,
                join_failed=False)
    rows = [good, {**good, "start_time": 60.0, **overrides}]
    path = tmp_path / f"bad.{fmt}"
    if fmt == "csv":
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(good))
            writer.writeheader()
            writer.writerows(rows)
    elif fmt == "jsonl":
        path.write_text("".join(
            json.dumps({k: None if isinstance(v, float) and math.isnan(v)
                        else v for k, v in row.items()}) + "\n"
            for row in rows
        ))
    else:
        names = DEFAULT_SCHEMA.names
        write_sessions_npz(SessionTable(
            schema=DEFAULT_SCHEMA,
            vocabs=[[good[name]] for name in names],
            codes=np.zeros((2, len(names)), dtype=np.int32),
            **{col: [row[col] for row in rows]
               for col in ("start_time", "duration_s", "buffering_s",
                           "join_time_s", "bitrate_kbps", "join_failed")},
        ), path)
    return path


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("fmt", sorted(READERS))
class TestMalformedRows:
    """Every reader enforces the ``Session`` invariants."""

    def test_reader_raises(self, tmp_path, fmt, case):
        overrides, column = MALFORMED[case]
        path = write_malformed(tmp_path, fmt, overrides)
        with pytest.raises(ValueError) as exc:
            READERS[fmt](path)
        message = str(exc.value)
        assert str(path) in message
        assert f"row 1: {column}" in message

    def test_analyze_exits_2(self, tmp_path, fmt, case, capsys):
        path = write_malformed(tmp_path, fmt, MALFORMED[case][0])
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and MALFORMED[case][1] in err
        assert len(err.strip().splitlines()) == 1
