#!/usr/bin/env python3
"""Golden corpus of CLI outputs: regenerate it, or diff the code against it.

Each entry is one ``gauss-steer`` call with its exit code, stderr lines and
stdout.  The calls are ``generate``, then ``classify`` and ``super`` on the
generated files for seeds 0-4 on (1,1), (1,2) and (2,1) at the default tol,
1e-3 and 1e-10; the tolerance edge cases (K = I with M = diag(b, b, b, -l),
and an identity superchannel with E[0][0] = 1 + 1e-6); ``repro-paper`` as
text and as ``--json`` at seed 0; and every mutant of ``tests/test_cli_fuzz.py``.

Stdout is stored normalised: the envelope's version becomes ``<version>``
and the echoed ``input`` block is dropped.  Exit codes, stderr lines,
booleans and strings must match exactly.  Numbers, also those printed
inside strings, must match within ``RTOL`` relative to ``1 + |x|``, plus one
unit of the last printed digit for a number inside a string, because the
last bits of LAPACK results vary across builds.  Witness vectors are
compared after removing their global phase, which ``eigh`` does not fix.

Usage:
    PYTHONPATH=src python scripts/golden.py           # print the diff, exit 1 if any
    PYTHONPATH=src python scripts/golden.py --write   # regenerate tests/golden/
"""

import argparse
import contextlib
import io
import json
import pathlib
import re
import sys
import tempfile

import numpy as np

from gauss_steer.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "tests"))

from test_cli_fuzz import COMMANDS, cases  # noqa: E402

RTOL = 1e-9
PARTITIONS = ((1, 1), (1, 2), (2, 1))
SEEDS = range(5)
TOLS = (None, "1e-3", "1e-10")
KINDS = {"classify": "channel", "super": "superchannel"}
# (b, l) of the PR 12 and 14 tolerance cases: K = I, M = diag(b, b, b, -l)
TOLERANCE_CASES = ((20.0, 1.5e-7), (100.0, 5e-7), (1000.0, 9e-6))
INPUT = "{input}"


def _identity(dim):
    return [[float(i == j) for j in range(dim)] for i in range(dim)]


def _run(argv, text=None):
    """(exit code, stdout, stderr) of ``gauss-steer argv``; ``text`` becomes {input}."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            path = pathlib.Path(tmp) / "input.json"
            path.write_text(text, encoding="utf-8")
            argv = [str(path) if a == INPUT else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _normalise(stdout):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return stdout.splitlines()
    if isinstance(doc, dict) and "version" in doc:
        doc["version"] = "<version>"
        doc.pop("input", None)
    return doc


def _entry(argv, text=None):
    code, out, err = _run(argv, text)
    return {
        "argv": argv,
        "exit": code,
        "stderr": err.splitlines(),
        "stdout": _normalise(out),
    }


def _tol_flags(tol):
    return [] if tol is None else ["--tol", tol]


def build():
    """Run every call of the corpus; {file stem: {entry key: entry}}."""
    corpus = {"generate": {}, "classify": {}, "super": {}, "repro-paper": {}}
    for command, kind in KINDS.items():
        for part in PARTITIONS:
            for seed in SEEDS:
                modes = [str(part[0]), str(part[1])]
                argv = ["generate", kind, "--modes", *modes, "--seed", str(seed)]
                _, text, _ = _run(argv)
                where = f"({part[0]},{part[1]}) seed {seed}"
                corpus["generate"][f"generate {kind} {where}"] = _entry(argv)
                for tol in TOLS:
                    key = f"{command} {where} tol {tol or 'default'}"
                    argv = [command, INPUT, *_tol_flags(tol)]
                    corpus[command][key] = _entry(argv, text)
    for big, lam in TOLERANCE_CASES:
        m = np.diag([big, big, big, -lam]).tolist()
        doc = {"m": 1, "n": 1, "K": _identity(4), "M": m, "d": [0.0] * 4}
        key = f"classify tolerance M = diag({big:g}, {big:g}, {big:g}, {-lam:g})"
        corpus["classify"][key] = _entry(["classify", INPUT], json.dumps(doc))
    e = _identity(4)
    e[0][0] = 1.0 + 1e-6
    zero = [[0.0] * 4] * 4
    doc = {"m": 1, "n": 1, "A": _identity(4), "E": e, "Y": zero, "nu": [0.0] * 4}
    for tol in (None, "1e-3"):
        key = f"super identity E[0][0] = 1 + 1e-6 tol {tol or 'default'}"
        argv = ["super", INPUT, *_tol_flags(tol)]
        corpus["super"][key] = _entry(argv, json.dumps(doc))
    for label, flags in (("text", []), ("json", ["--json"])):
        argv = ["repro-paper", "--seed", "0", *flags]
        corpus["repro-paper"][f"repro-paper seed 0 {label}"] = _entry(argv)
    for command, kind in sorted(COMMANDS.items()):
        _, text, _ = _run(["generate", kind, "--seed", "1"])
        entries = corpus[f"fuzz-{command}"] = {}
        for label, mutant in cases(text):
            key = f"fuzz {command}: {label}"
            assert key not in entries, key
            entries[key] = _entry([command, INPUT], mutant)
    return corpus


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _printed_unit(token):
    """One unit of the last digit of a printed number."""
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def _close(a, b, slack=0.0):
    return abs(a - b) <= RTOL * (1.0 + max(abs(a), abs(b))) + slack


def _same_text(a, b):
    if _NUMBER.split(a) != _NUMBER.split(b):
        return False
    return all(
        _close(float(s), float(t), max(_printed_unit(s), _printed_unit(t)))
        for s, t in zip(_NUMBER.findall(a), _NUMBER.findall(b))
    )


def _unphased(flat):
    """Interleaved [re, im, ...] vector, its largest component made real positive."""
    z = np.asarray(flat[0::2]) + 1j * np.asarray(flat[1::2])
    top = z[np.argmax(np.abs(z))]
    return z * (abs(top) / top) if top != 0 else z


def compare(old, new, path="$"):
    """Mismatches between two normalised values, as 'path: old != new' lines."""
    if isinstance(old, bool) or isinstance(new, bool) or old is None or new is None:
        same = old is new
    elif isinstance(old, (int, float)) and isinstance(new, (int, float)):
        same = type(old) is type(new) and (
            old == new if isinstance(old, int) else _close(old, new)
        )
    elif isinstance(old, str) and isinstance(new, str):
        same = _same_text(old, new)
    elif isinstance(old, dict) and isinstance(new, dict):
        if set(old) != set(new):
            return [f"{path}: keys {sorted(old)} != {sorted(new)}"]
        return [m for k in sorted(old) for m in compare(old[k], new[k], f"{path}.{k}")]
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [f"{path}: length {len(old)} != {len(new)}"]
        if path.endswith(".witness") and old:
            a, b = _unphased(old), _unphased(new)
            scale = 1.0 + max(np.abs(a).max(), np.abs(b).max())
            same = bool(np.abs(a - b).max() <= RTOL * scale)
        else:
            pairs = enumerate(zip(old, new))
            return [m for i, (x, y) in pairs for m in compare(x, y, f"{path}[{i}]")]
    else:
        same = False
    return [] if same else [f"{path}: {old!r} != {new!r}"]


def load():
    paths = sorted(CORPUS.glob("*.json"))
    return {p.stem: json.loads(p.read_text(encoding="utf-8")) for p in paths}


def diff(stored, fresh):
    """One block of lines per changed, added or removed entry, keyed by its call."""
    out = []
    for stem in sorted(set(stored) | set(fresh)):
        old, new = stored.get(stem, {}), fresh.get(stem, {})
        for key in sorted(set(old) | set(new)):
            if key not in new:
                out.append(f"{key}: removed")
            elif key not in old:
                out.append(f"{key}: added (exit {new[key]['exit']})")
            else:
                lines = [
                    f"{field}: {old[key][field]!r} != {new[key][field]!r}"
                    for field in ("argv", "exit", "stderr")
                    if old[key][field] != new[key][field]
                ] + compare(old[key]["stdout"], new[key]["stdout"], "stdout")
                if lines:
                    out.append(f"{key}:")
                    out.extend(f"    {line}" for line in lines[:8])
                    if len(lines) > 8:
                        out.append(f"    ... {len(lines) - 8} more")
    return out


def write(corpus):
    """One file per command group, one line per entry, so a diff names the call."""
    CORPUS.mkdir(parents=True, exist_ok=True)
    for stem, entries in corpus.items():
        lines = [
            json.dumps(key) + ": " + json.dumps(entries[key], sort_keys=True)
            for key in sorted(entries)
        ]
        text = "{\n" + ",\n".join(lines) + "\n}\n"
        (CORPUS / f"{stem}.json").write_text(text, encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate tests/golden/")
    args = parser.parse_args()
    fresh = build()
    lines = diff(load(), fresh)
    print("\n".join(lines) if lines else "golden corpus: no change")
    if args.write:
        write(fresh)
        return 0
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
