"""Tests for Session records and the columnar SessionTable."""

import numpy as np
import pytest

from repro.core.aggregation import KeyCodec
from repro.core.attributes import AttributeSchema
from repro.core.sessions import Session, SessionTable
from tests.conftest import make_session


class TestSession:
    def test_buffering_ratio(self):
        s = make_session(duration_s=100.0, buffering_s=5.0)
        assert s.buffering_ratio == pytest.approx(0.05)

    def test_buffering_ratio_zero_duration(self):
        s = Session(
            attrs=make_session().attrs,
            start_time=0.0,
            duration_s=0.0,
            buffering_s=0.0,
            join_time_s=1.0,
            bitrate_kbps=1000.0,
            join_failed=False,
        )
        assert s.buffering_ratio == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="negative duration"):
            make_session(duration_s=-1.0)

    def test_negative_buffering_rejected(self):
        with pytest.raises(ValueError, match="negative buffering"):
            make_session(buffering_s=-0.1)

    def test_buffering_exceeding_duration_rejected(self):
        with pytest.raises(ValueError, match="exceeds duration"):
            make_session(duration_s=10.0, buffering_s=11.0)

    def test_failed_session_has_nan_metrics(self):
        s = make_session(join_failed=True)
        assert np.isnan(s.join_time_s)
        assert np.isnan(s.bitrate_kbps)


class TestSessionTableConstruction:
    def test_from_sessions_round_trip(self):
        sessions = [
            make_session(cdn="cdn_x", asn="AS9"),
            make_session(cdn="cdn_y", join_failed=True),
        ]
        table = SessionTable.from_sessions(sessions)
        back = list(table.rows())
        assert len(back) == 2
        assert back[0].attrs["cdn"] == "cdn_x"
        assert back[0].attrs["asn"] == "AS9"
        assert back[1].join_failed is True
        assert np.isnan(back[1].join_time_s)

    def test_vocab_codes_are_dense(self):
        sessions = [make_session(cdn=f"cdn_{i % 3}") for i in range(9)]
        table = SessionTable.from_sessions(sessions)
        cdn_col = table.schema.index("cdn")
        assert sorted(table.vocabs[cdn_col]) == ["cdn_0", "cdn_1", "cdn_2"]
        assert set(table.codes[:, cdn_col]) == {0, 1, 2}

    def test_missing_attribute_rejected(self):
        bad = Session(
            attrs={"asn": "AS1"},  # missing the rest
            start_time=0.0,
            duration_s=1.0,
            buffering_s=0.0,
            join_time_s=1.0,
            bitrate_kbps=1.0,
            join_failed=False,
        )
        with pytest.raises(ValueError, match="missing attribute"):
            SessionTable.from_sessions([bad])

    def test_empty_table(self):
        table = SessionTable.empty()
        assert len(table) == 0
        assert table.n_attrs == 7

    def test_column_shape_validation(self):
        table = SessionTable.from_sessions([make_session()])
        with pytest.raises(ValueError, match="column"):
            SessionTable(
                schema=table.schema,
                vocabs=table.vocabs,
                codes=table.codes,
                start_time=np.zeros(2),  # wrong length
                duration_s=table.duration_s,
                buffering_s=table.buffering_s,
                join_time_s=table.join_time_s,
                bitrate_kbps=table.bitrate_kbps,
                join_failed=table.join_failed,
            )

    def test_codes_beyond_vocab_rejected(self):
        table = SessionTable.from_sessions([make_session()])
        bad_codes = table.codes.copy()
        bad_codes[0, 0] = 99
        with pytest.raises(ValueError, match="beyond vocab"):
            SessionTable(
                schema=table.schema,
                vocabs=table.vocabs,
                codes=bad_codes,
                start_time=table.start_time,
                duration_s=table.duration_s,
                buffering_s=table.buffering_s,
                join_time_s=table.join_time_s,
                bitrate_kbps=table.bitrate_kbps,
                join_failed=table.join_failed,
            )

    def test_concat_merges_vocabs(self):
        t1 = SessionTable.from_sessions([make_session(cdn="a"), make_session(cdn="b")])
        t2 = SessionTable.from_sessions([make_session(cdn="b"), make_session(cdn="c")])
        merged = SessionTable.concat([t1, t2])
        assert len(merged) == 4
        cdns = [s.attrs["cdn"] for s in merged.rows()]
        assert cdns == ["a", "b", "b", "c"]

    def test_concat_schema_mismatch_rejected(self):
        t1 = SessionTable.from_sessions([make_session()])
        other = SessionTable.empty(AttributeSchema(names=("x", "y")))
        with pytest.raises(ValueError, match="different schemas"):
            SessionTable.concat([t1, other])

    def test_concat_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SessionTable.concat([])


class TestSessionTableAccess:
    def test_select_boolean_mask(self):
        table = SessionTable.from_sessions(
            [make_session(asn=f"AS{i}") for i in range(5)]
        )
        sub = table.select(table.codes[:, 0] >= 3)
        assert len(sub) == 2
        # vocabs carry over unchanged (codes stay valid)
        assert sub.vocabs == table.vocabs

    def test_buffering_ratio_vector(self):
        table = SessionTable.from_sessions(
            [
                make_session(duration_s=100.0, buffering_s=10.0),
                make_session(join_failed=True),
            ]
        )
        ratios = table.buffering_ratio
        assert ratios[0] == pytest.approx(0.1)
        assert ratios[1] == 0.0  # failed session: duration 0 -> ratio 0

    def test_attr_labels(self):
        table = SessionTable.from_sessions([make_session(browser="opera")])
        assert table.attr_labels("browser") == ["opera"]


class TestKeyPacking:
    """A table's packed-key layout, which :class:`KeyCodec` owns."""

    def test_bit_widths_cover_vocab(self):
        sessions = [make_session(asn=f"AS{i}") for i in range(10)]
        table = SessionTable.from_sessions(sessions)
        widths = KeyCodec.from_table(table).widths
        asn_col = table.schema.index("asn")
        assert widths[asn_col] >= 4  # 10 values need 4 bits

    def test_packed_keys_unique_per_combination(self):
        sessions = [
            make_session(asn=f"AS{i % 4}", cdn=f"c{i % 3}") for i in range(24)
        ]
        table = SessionTable.from_sessions(sessions)
        packed = KeyCodec.from_table(table).pack(table.codes)
        # 12 distinct (asn, cdn) combos; other attrs constant
        assert len(np.unique(packed)) == 12

    def test_field_mask_projection(self):
        sessions = [make_session(asn=f"AS{i % 3}", cdn=f"c{i % 2}") for i in range(6)]
        table = SessionTable.from_sessions(sessions)
        codec = KeyCodec.from_table(table)
        packed = codec.pack(table.codes)
        fm = codec.field_masks()
        asn_mask = 1 << table.schema.index("asn")
        proj = packed & fm[asn_mask]
        assert len(np.unique(proj)) == 3  # only ASN varies after projection

    def test_unpack_key_round_trip(self):
        table = SessionTable.from_sessions(
            [make_session(asn="AS7", cdn="cdn_q", site="s3")]
        )
        codec = KeyCodec.from_table(table)
        packed = int(codec.pack(table.codes)[0])
        mask = table.schema.mask_of(["asn", "site"])
        pairs = codec.decode(mask, packed).pairs
        assert pairs == (("asn", "AS7"), ("site", "s3"))

    def test_unpack_full_mask(self):
        table = SessionTable.from_sessions([make_session()])
        codec = KeyCodec.from_table(table)
        packed = int(codec.pack(table.codes)[0])
        pairs = codec.decode(table.schema.full_mask, packed).as_dict()
        assert pairs == dict(make_session().attrs)
