import json
import pathlib

import numpy as np
import pytest

from gauss_steer import channels as ch
from gauss_steer import jsonio
from gauss_steer import states as st
from gauss_steer import superchannels as sch
from gauss_steer.quantifier import Verdict, VerdictState
from gauss_steer.symplectic import ModePartition

P11 = ModePartition(1, 1)
DOCS_SCHEMAS = pathlib.Path(__file__).resolve().parents[1] / "docs" / "schemas"


class TestRoundTrips:
    def test_state(self):
        s = st.random_state(P11, 4)
        back = jsonio.state_from_dict(jsonio.state_to_dict(s))
        np.testing.assert_array_equal(back.cm, s.cm)
        np.testing.assert_array_equal(back.d, s.d)
        assert back.partition == s.partition

    def test_channel(self):
        c = ch.random_channel(ModePartition(0, 2), 5)
        back = jsonio.channel_from_dict(jsonio.channel_to_dict(c))
        np.testing.assert_array_equal(back.K, c.K)
        np.testing.assert_array_equal(back.M, c.M)

    def test_superchannel(self):
        s = sch.random_superchannel(P11, 6)
        back = jsonio.superchannel_from_dict(jsonio.superchannel_to_dict(s))
        np.testing.assert_array_equal(back.A, s.A)
        np.testing.assert_array_equal(back.E, s.E)
        np.testing.assert_array_equal(back.Y, s.Y)
        np.testing.assert_array_equal(back.nu, s.nu)

    def test_json_text_round_trip(self):
        c = ch.random_channel(P11, 7)
        text = json.dumps(jsonio.channel_to_dict(c))
        back = jsonio.channel_from_dict(jsonio.loads_strict(text))
        np.testing.assert_array_equal(back.K, c.K)


class TestStrictParsing:
    def test_nan_token_rejected(self):
        with pytest.raises(ValueError):
            jsonio.loads_strict('{"x": NaN}')

    def test_infinity_token_rejected(self):
        with pytest.raises(ValueError):
            jsonio.loads_strict('{"x": -Infinity}')

    def test_overflowing_literal_rejected(self):
        # 1e999 parses to inf without a token; the finite walk catches it
        obj = jsonio.loads_strict(
            '{"m": 1, "n": 1, "cm": [[1e999]], "d": [0.0]}'
        )
        with pytest.raises(jsonio.SchemaError):
            jsonio.validate(obj, "state")

    def test_schema_violation_reports_path(self):
        obj = {"m": 1, "n": 1, "K": [[1.0]], "M": [["x"]], "d": [0.0]}
        with pytest.raises(jsonio.SchemaError) as err:
            jsonio.validate(obj, "channel")
        assert "M" in str(err.value)

    def test_missing_field(self):
        with pytest.raises(jsonio.SchemaError):
            jsonio.validate({"m": 1, "n": 1}, "state")

    def test_unknown_field_rejected(self):
        obj = jsonio.state_to_dict(st.vacuum(P11))
        obj["extra"] = 1
        with pytest.raises(jsonio.SchemaError):
            jsonio.validate(obj, "state")


class TestEvidenceSerialization:
    def test_interleaved_witness(self):
        assert jsonio.interleave_complex(np.array([1 + 2j, -3j])) == [
            1.0,
            2.0,
            0.0,
            -3.0,
        ]

    def test_verdict_dict(self):
        v = Verdict(VerdictState.VIOLATED, -0.5, witness=np.array([1j, 0]))
        d = jsonio.verdict_to_dict(v)
        assert d["state"] == "VIOLATED"
        assert d["value"] == -0.5
        assert d["witness"] == [0.0, 1.0, 0.0, 0.0]

    def test_report_dict_and_json(self):
        from gauss_steer.repro import amplifying_lossy_channel

        rep = ch.classify(amplifying_lossy_channel())
        d = jsonio.report_to_dict(rep)
        json.dumps(d)  # must be serializable as-is
        assert d["steering_annihilating"]["state"] == "HOLDS"
        assert d["evidence"]["sa_sufficient"]["min_eigenvalue"] == pytest.approx(
            -0.0609, abs=1e-9
        )

    def test_falsifier_dict(self):
        res = ch.monte_carlo_sa_oracle(ch.identity_channel(P11), 100, seed=0)
        d = jsonio.falsifier_to_dict(res)
        json.dumps(d)
        assert d["violation_found"]


class TestShippedSchemas:
    def test_docs_copies_in_sync(self):
        for kind, schema in jsonio.SCHEMAS.items():
            path = DOCS_SCHEMAS / f"{kind}.schema.json"
            assert path.exists(), f"missing shipped schema {path}"
            assert json.loads(path.read_text()) == schema
