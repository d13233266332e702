import json
import math
import pathlib

import numpy as np
import pytest
from test_cli_fuzz import cell_mutations, generated, shape_mutations

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


def _keywords(schema):
    """Every keyword of ``schema`` and of its subschemas, with its value."""
    for key, value in schema.items():
        yield key, value
    for sub in schema.get("properties", {}).values():
        yield from _keywords(sub)
    if "items" in schema:
        yield from _keywords(schema["items"])


class TestHandWalk:
    """``validate`` interprets ``SCHEMAS`` itself, as jsonschema would."""

    @pytest.mark.parametrize("kind", sorted(jsonio.SCHEMAS))
    def test_schemas_use_only_implemented_keywords(self, kind):
        for key, value in _keywords(jsonio.SCHEMAS[kind]):
            assert key in jsonio.KEYWORDS, key
            if key == "type":
                assert value in jsonio._TYPES, value
            if key == "additionalProperties":
                assert value is False

    @staticmethod
    def corpus(capsys):
        """(kind, document, label) triples, valid and malformed."""
        for kind in ("channel", "superchannel"):
            text = generated(capsys, kind)
            for label, mutant in [*shape_mutations(text), *cell_mutations(text)]:
                try:
                    obj = jsonio.loads_strict(mutant)
                except ValueError:
                    continue  # NaN and Infinity tokens never reach validate
                yield kind, obj, label
        # the malformed (1, 1) channel kinds of the ingest benchmark
        base = {
            "m": 1,
            "n": 1,
            "K": np.eye(4).tolist(),
            "M": np.eye(4).tolist(),
            "d": [0.0] * 4,
        }
        bad = json.loads(json.dumps(base))
        bad["K"][0][0] = str(bad["K"][0][0])
        yield "channel", bad, "ingest schema"
        bad = json.loads(json.dumps(base))
        bad["M"][1][1] = float("nan")
        yield "channel", bad, "ingest nan"
        bad = dict(base, K=np.eye(6).tolist(), M=np.eye(6).tolist())
        yield "channel", bad, "ingest shape"
        yield "channel", dict(base, K=(2 * np.eye(4)).tolist()), "ingest non-CP"
        # one fault per keyword, and faults that compete
        state = jsonio.state_to_dict(st.vacuum(P11))
        for label, change in (
            ("type object", lambda d: [d]),
            ("type array", lambda d: dict(d, cm=1.0)),
            ("type number", lambda d: dict(d, d=[0.0, True])),
            ("type integer", lambda d: dict(d, m=0.5)),
            ("integral float", lambda d: dict(d, m=1.0)),
            ("required", lambda d: {k: v for k, v in d.items() if k != "cm"}),
            ("additionalProperties", lambda d: dict(d, extra=1)),
            ("two extras", lambda d: dict(d, zeta=1, alpha=2)),
            ("items", lambda d: dict(d, cm=[[1.0, 0.0], [0.0, "1"]])),
            ("minItems outer", lambda d: dict(d, cm=[])),
            ("minItems inner", lambda d: dict(d, cm=[[], []])),
            ("minimum", lambda d: dict(d, n=0)),
            ("type and minimum", lambda d: dict(d, m=-1.5)),
            ("required and extra", lambda d: {"extra": 1, "m": 1, "n": 1}),
            ("deep and shallow", lambda d: dict(d, cm=[["x"]], m="1")),
            ("siblings", lambda d: dict(d, cm=[[0.0, "a"], ["b", 0.0]])),
        ):
            yield "state", change(json.loads(json.dumps(state))), label

    def test_parity_with_jsonschema(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        rejected = 0
        for kind, obj, label in self.corpus(capsys):
            try:
                jsonschema.validate(obj, jsonio.SCHEMAS[kind])
                expected = None
            except jsonschema.ValidationError as exc:
                path = "".join(f"[{p!r}]" for p in exc.absolute_path)
                expected = f"{kind} schema violation at ${path}: {exc.message}"
                rejected += 1
            try:
                jsonio.validate(obj, kind)
                got = None
            except jsonio.SchemaError as exc:
                got = str(exc)
            if expected is None and got is not None:
                # finiteness is checked once the schema holds
                assert got.startswith("non-finite number at $."), (label, got)
            else:
                assert got == expected, label
        assert rejected >= 40

    @pytest.mark.parametrize(
        "kind, change, message",
        [
            ("channel", lambda d: d["M"][1].__setitem__(1, math.nan), "$.M[1][1]"),
            ("channel", lambda d: d["d"].__setitem__(2, -math.inf), "$.d[2]"),
            ("superchannel", lambda d: d.update(m=10**400), "$.m"),
            ("superchannel", lambda d: d["A"][3].__setitem__(0, math.inf), "$.A[3][0]"),
        ],
    )
    def test_non_finite_path(self, capsys, kind, change, message):
        obj = json.loads(generated(capsys, kind))
        change(obj)
        with pytest.raises(jsonio.SchemaError) as err:
            jsonio.validate(obj, kind)
        assert str(err.value) == f"non-finite number at {message}"

    def test_schema_fault_outranks_non_finite(self):
        obj = {"m": 1, "n": 1, "cm": [[float("inf")]], "d": "x"}
        with pytest.raises(jsonio.SchemaError) as err:
            jsonio.validate(obj, "state")
        assert str(err.value) == (
            "state schema violation at $['d']: 'x' is not of type 'array'"
        )
