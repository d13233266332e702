"""CLI output against the committed golden corpus in tests/golden/.

``scripts/golden.py`` holds the calls and the comparison rules; run it to
see the diff by call, or with ``--write`` to regenerate the corpus.
"""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_cli_output_matches_corpus():
    stored = golden.load()
    assert sum(map(len, stored.values())) >= 250
    lines = golden.diff(stored, golden.build())
    assert not lines, "\n".join(lines)


def test_comparison_rules():
    assert not golden.compare(1.0, 1.0 + 1e-12)
    assert golden.compare(1.0, 1.0 + 1e-6)
    assert golden.compare(True, 1)
    assert golden.compare("HOLDS", "VIOLATED")
    # a printed number may move by one unit of its last digit
    assert not golden.compare("margin 0.009338", "margin 0.009339")
    assert golden.compare("margin 0.009338", "margin 0.009340")
    # a witness is compared up to its global phase
    witness = {"witness": [0.6, 0.0, 0.0, 0.8]}
    assert not golden.compare(witness, {"witness": [0.0, 0.6, -0.8, 0.0]})
    assert golden.compare(witness, {"witness": [0.8, 0.0, 0.0, 0.6]})
