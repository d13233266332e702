"""Malformed input through the CLI: a clean exit code, never a traceback.

Every case mutates the ``generate`` output of a valid channel or
superchannel and feeds it to ``classify`` or ``super`` through ``cli.main``.
The exit code must be 0, 1 or 2, and a failure must say ``error: ...`` on
stderr; an exception escaping ``main`` fails the test.
"""

import json

import pytest

from gauss_steer.cli import main

COMMANDS = {"classify": "channel", "super": "superchannel"}
TRUNCATION_STEP = 97  # bytes between truncation points


def generated(capsys, kind: str) -> str:
    assert main(["generate", kind, "--seed", "1"]) == 0
    return capsys.readouterr().out


def first_matrix(doc: dict) -> str:
    return "K" if "K" in doc else "A"


def vector(doc: dict) -> str:
    return "d" if "d" in doc else "nu"


def cell_mutations(text: str):
    doc = json.loads(text)
    key = first_matrix(doc)
    cell = json.dumps(doc[key][0][0])
    for token in ("NaN", "Infinity", "-Infinity", "1e400", '"0.5"', "true", "null"):
        yield f"cell {token}", text.replace(cell, token, 1)


def shape_mutations(text: str):
    doc = json.loads(text)
    key = first_matrix(doc)

    def mutated(change):
        copy = json.loads(text)
        change(copy)
        return json.dumps(copy)

    yield "unchanged", text
    # an amplified K or A leaves the channel non-CP or the superchannel
    # inadmissible: exit 2
    yield "scaled matrix", mutated(
        lambda d: d.update({key: [[10.0 * x for x in r] for r in d[key]]})
    )
    yield "ragged row", mutated(lambda d: d[key][0].pop())
    yield "missing row", mutated(lambda d: d[key].pop())
    yield "extra row", mutated(lambda d: d[key].append(list(d[key][0])))
    yield "3x3 matrix", mutated(lambda d: d.update({key: [r[:3] for r in d[key][:3]]}))
    yield "flat matrix", mutated(lambda d: d.update({key: d[key][0]}))
    yield "scalar matrix", mutated(lambda d: d.update({key: 1.0}))
    yield "short vector", mutated(lambda d: d[vector(d)].pop())
    for name in doc:
        yield f"missing {name}", mutated(lambda d, name=name: d.pop(name))
    yield "extra key", mutated(lambda d: d.update({"extra": 1}))
    for label, value in (
        ("bool", True),
        ("float", 1.0),
        ("fraction", 1.5),
        ("negative", -1),
        ("zero", 0),
        ("huge", 10**9),
        ("beyond double", 10**400),
        ("string", "1"),
    ):
        for mode in ("m", "n"):
            yield f"{mode} {label}", mutated(
                lambda d, mode=mode, value=value: d.update({mode: value})
            )


DOCUMENTS = ("[]", "1", '"channel"', "null", "true", "{}", "", " ", "{", "[1, 2")


def cases(text: str):
    for cut in range(0, len(text), TRUNCATION_STEP):
        yield f"truncated at {cut}", text[:cut]
    yield from cell_mutations(text)
    yield from shape_mutations(text)
    for doc in DOCUMENTS:
        yield f"document {doc!r}", doc


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_mutated_input_exits_cleanly(capsys, tmp_path, command):
    text = generated(capsys, COMMANDS[command])
    path = tmp_path / "input.json"
    codes = []
    for label, mutant in cases(text):
        path.write_text(mutant)
        code = main([command, str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), label
        if code != 0:
            assert err.startswith("error: "), (label, err)
        codes.append(code)
    assert len(codes) >= 40
    assert set(codes) == {0, 1, 2}
