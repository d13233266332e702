import json
import os
import pathlib
import subprocess
import sys

import pytest

from gauss_steer import jsonio
from gauss_steer.cli import build_parser, main
from gauss_steer.symplectic import TOL

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_byte_identical_per_seed(self, capsys):
        code1, out1, _ = run_cli(capsys, "generate", "channel", "--seed", "7")
        code2, out2, _ = run_cli(capsys, "generate", "channel", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize(
        "kind", ["state", "unsteerable-state", "channel", "superchannel"]
    )
    def test_kinds_are_schema_valid(self, capsys, kind):
        code, out, _ = run_cli(capsys, "generate", kind, "--seed", "3")
        assert code == 0
        obj = jsonio.loads_strict(out)
        schema_kind = "state" if kind == "unsteerable-state" else kind
        jsonio.validate(obj, schema_kind)

    def test_modes_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "state", "--modes", "2", "1", "--seed", "0"
        )
        obj = json.loads(out)
        assert (obj["m"], obj["n"]) == (2, 1)
        assert len(obj["cm"]) == 6

    def test_seed_defaults_to_zero(self, capsys):
        _, out_default, _ = run_cli(capsys, "generate", "channel")
        _, out_explicit, _ = run_cli(capsys, "generate", "channel", "--seed", "0")
        assert out_default == out_explicit


class TestClassify:
    def test_round_trip_from_generate(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "generate", "channel", "--seed", "5")
        path = tmp_path / "chan.json"
        path.write_text(out)
        code, report_text, _ = run_cli(capsys, "classify", str(path))
        assert code == 0
        envelope = json.loads(report_text)
        assert envelope["tool"] == "gauss-steer"
        assert envelope["report"]["cp_valid"] is True
        assert envelope["input"] == json.loads(out)

    def test_envelope_deterministic(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "generate", "channel", "--seed", "5")
        path = tmp_path / "chan.json"
        path.write_text(out)
        _, first, _ = run_cli(capsys, "classify", str(path))
        _, second, _ = run_cli(capsys, "classify", str(path))
        assert first == second

    def test_non_cp_channel_exits_2(self, capsys, tmp_path):
        obj = {
            "m": 1,
            "n": 1,
            "K": [[2.0 if i == j else 0.0 for j in range(4)] for i in range(4)],
            "M": [[0.0] * 4 for _ in range(4)],
            "d": [0.0] * 4,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_cli(capsys, "classify", str(path))
        assert code == 2
        assert "completely positive" in err
        assert "-3.0" in err

    def test_malformed_json_exits_1_with_location(self, capsys, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "classify", str(path))
        assert code == 1
        assert "line 1" in err

    def test_schema_error_exits_1_with_path(self, capsys, tmp_path):
        obj = {
            "m": 1,
            "n": 1,
            "K": [[float(i == j) for j in range(4)] for i in range(4)],
            "M": [[0.0] * 4 for _ in range(4)],
            "d": [0.0] * 4,
        }
        obj["M"][1][2] = "0.5"
        path = tmp_path / "one-fault.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_cli(capsys, "classify", str(path))
        assert code == 1
        assert err == (
            "error: channel schema violation at $['M'][1][2]: "
            "'0.5' is not of type 'number'\n"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100000,
            json.dumps(
                {
                    "m": 1,
                    "n": 1,
                    "K": [[float(i == j) for j in range(4)] for i in range(4)],
                    "M": [[0.0] * 4 for _ in range(4)],
                    "d": [0.0] * 4,
                }
            ).replace("[0.0, 0.0, 0.0, 0.0]", "[1" + "0" * 400 + ", 0.0, 0.0, 0.0]", 1),
        ],
        ids=["deep-nesting", "integer-beyond-double"],
    )
    def test_unrepresentable_input_exits_1(self, capsys, tmp_path, text):
        path = tmp_path / "odd.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "classify", str(path))
        assert code == 1
        assert err.startswith("error: ")

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "classify", "/nonexistent/chan.json")
        assert code == 1


class TestSuper:
    def test_reference_fixture(self, capsys, tmp_path):
        from gauss_steer.repro import mixing_superchannel

        path = tmp_path / "sc.json"
        path.write_text(json.dumps(jsonio.superchannel_to_dict(mixing_superchannel())))
        code, out, _ = run_cli(capsys, "super", str(path))
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        assert verdicts["us_sufficient"] is False
        assert verdicts["mus_sufficient"]["state"] == "HOLDS"
        assert "chain_us" not in verdicts
        assert verdicts["chain_mus"] == verdicts["mus_sufficient"]

    def test_non_orthogonal_e_exits_2(self, capsys, tmp_path):
        obj = {
            "m": 1,
            "n": 1,
            "A": [[0.0] * 4 for _ in range(4)],
            "E": [[2.0 if i == j else 0.0 for j in range(4)] for i in range(4)],
            "Y": [[10.0 if i == j else 0.0 for j in range(4)] for i in range(4)],
            "nu": [0.0] * 4,
        }
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_cli(capsys, "super", str(path))
        assert code == 2

    def test_tol_reaches_admissibility(self, capsys, tmp_path):
        # identity superchannel with E orthogonal only up to 1e-6
        eye = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
        e = [row[:] for row in eye]
        e[0][0] = 1.0 + 1e-6
        obj = {"m": 1, "n": 1, "A": eye, "E": e, "Y": [[0.0] * 4] * 4, "nu": [0.0] * 4}
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(obj))
        assert run_cli(capsys, "super", str(path))[0] == 2
        code, out, _ = run_cli(capsys, "super", str(path), "--tol", "1e-3")
        assert code == 0
        assert json.loads(out)["verdicts"]["mus_sufficient"]["state"] == "HOLDS"

    def test_one_admissibility_certificate_per_super(
        self, capsys, tmp_path, monkeypatch
    ):
        from gauss_steer import superchannels as sch

        calls = {"is_psd": 0, "is_valid_superchannel": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        _, out, _ = run_cli(capsys, "generate", "superchannel", "--seed", "3")
        path = tmp_path / "sc.json"
        path.write_text(out)
        for name in calls:
            monkeypatch.setattr(sch, name, counted(name, getattr(sch, name)))
        assert run_cli(capsys, "super", str(path))[0] == 0
        # two admissibility rows and the US row
        assert calls == {"is_psd": 3, "is_valid_superchannel": 1}


class TestRepro:
    def test_all_rows_pass(self, capsys):
        code, out, _ = run_cli(capsys, "repro-paper")
        assert code == 0
        assert "FAIL" not in out

    def test_json_envelope(self, capsys):
        code, out, _ = run_cli(capsys, "repro-paper", "--json")
        assert code == 0
        envelope = json.loads(out)
        assert envelope["all_pass"] is True
        assert all(row["passed"] for row in envelope["rows"])
        assert envelope["tol"] == TOL
        # the one tolerance governs every verdict; there is no solver margin
        assert "solver" not in envelope


@pytest.mark.parametrize("command", ["classify", "super", "repro-paper"])
def test_tol_flag_defaults_to_tol(command):
    argv = [command] if command == "repro-paper" else [command, "in.json"]
    assert build_parser().parse_args(argv).tol == TOL


def _src_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_sweep_script_runs():
    script = ROOT / "scripts" / "sweep_attenuator_regions.py"
    out = subprocess.run(
        [sys.executable, str(script), "--grid", "3"],
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("cos_theta,n_th,unsteerable,")
    assert len(lines) == 1 + 9
    assert all(len(line.split(",")) == 7 for line in lines)


def test_import_leaves_scipy_unloaded():
    # scipy backs only the falsify_grid oracle, which imports it on first use;
    # jsonschema is needed only by the tests.
    env = _src_env()
    probe = "print('scipy' in sys.modules, 'jsonschema' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, gauss_steer.cli; {probe}"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False False"
