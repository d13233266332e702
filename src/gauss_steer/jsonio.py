"""JSON wire formats: states, channels, superchannels, verdicts, reports.

Matrices travel as row-major nested arrays of finite doubles in the
interleaved quadrature ordering (q1, p1, ..., qN, pN); complex witness
vectors are flattened to interleaved [re, im, re, im, ...] arrays.
Non-finite numbers are rejected at parse time.  Copies of the schemas are
shipped under docs/schemas and kept in sync by a test; ``validate`` walks
the same dicts, with jsonschema's draft 2020-12 semantics and messages.
"""

import json
import numbers
import sys
from typing import Any, Dict

from .channels import (
    PSD_ROWS,
    QUANTIFIED_ROWS,
    ClassificationReport,
    FalsifierResult,
    GaussianChannel,
)
from .errors import GaussSteerError
from .quantifier import Verdict
from .states import GaussianState
from .superchannels import GaussianSuperchannel
from .symplectic import ModePartition, PsdCheck


class SchemaError(GaussSteerError):
    """Input JSON violates the wire schema."""


def _matrix_schema() -> Dict[str, Any]:
    return {
        "type": "array",
        "minItems": 1,
        "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
    }


def _vector_schema() -> Dict[str, Any]:
    return {"type": "array", "items": {"type": "number"}}


def _object_schema(matrices, vectors) -> Dict[str, Any]:
    props: Dict[str, Any] = {
        "m": {"type": "integer", "minimum": 0},
        "n": {"type": "integer", "minimum": 1},
    }
    for name in matrices:
        props[name] = _matrix_schema()
    for name in vectors:
        props[name] = _vector_schema()
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "properties": props,
        "required": ["m", "n"] + list(matrices) + list(vectors),
        "additionalProperties": False,
    }


STATE_SCHEMA = _object_schema(["cm"], ["d"])
CHANNEL_SCHEMA = _object_schema(["K", "M"], ["d"])
SUPERCHANNEL_SCHEMA = _object_schema(["A", "E", "Y"], ["nu"])

SCHEMAS = {
    "state": STATE_SCHEMA,
    "channel": CHANNEL_SCHEMA,
    "superchannel": SUPERCHANNEL_SCHEMA,
}

_MAX_DOUBLE = sys.float_info.max


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token!r} is not accepted")


def loads_strict(text: str) -> Any:
    """Parse JSON, rejecting NaN/Infinity tokens and too-deep nesting outright."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


# Draft 2020-12 types: bool is neither a number nor an integer, and an
# integral float is an integer.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: not isinstance(x, bool)
    and (isinstance(x, int) or (isinstance(x, float) and x.is_integer())),
}

# Every keyword the shipped schemas may use; "$schema" is annotation only.
KEYWORDS = frozenset(
    {"$schema", "type", "properties", "required", "additionalProperties",
     "items", "minItems", "minimum"}
)


def _walk(obj, schema, path, faults, overflows):
    """Append each schema fault of ``obj`` to ``faults`` as (path, message).

    Keywords are read in the schema's order and each acts only on its own
    instance type, as in jsonschema, whose messages these are.  The paths of
    numbers beyond double range go to ``overflows``; JSON integers are
    unbounded, so they are range-checked too (NaN fails ``<=``).
    """
    for key, value in schema.items():
        if key == "type":
            if not _TYPES[value](obj):
                faults.append((path, f"{obj!r} is not of type {value!r}"))
            elif value in ("number", "integer") and not abs(obj) <= _MAX_DOUBLE:
                overflows.append(path)
        elif key == "properties" and isinstance(obj, dict):
            # document order, so the first overflow is the first in the text
            for name, item in obj.items():
                if name in value:
                    _walk(item, value[name], path + (name,), faults, overflows)
        elif key == "required" and isinstance(obj, dict):
            for name in value:
                if name not in obj:
                    faults.append((path, f"{name!r} is a required property"))
        elif key == "additionalProperties" and isinstance(obj, dict):
            # the shipped schemas only ever say ``false``
            extras = sorted(set(obj) - set(schema.get("properties", {})), key=str)
            if extras:
                names = ", ".join(map(repr, extras))
                verb = "was" if len(extras) == 1 else "were"
                message = f"({names} {verb} unexpected)"
                faults.append((path, f"Additional properties are not allowed {message}"))
        elif key == "items" and isinstance(obj, list):
            for i, item in enumerate(obj):
                _walk(item, value, path + (i,), faults, overflows)
        elif key == "minItems" and isinstance(obj, list) and len(obj) < value:
            tail = "should be non-empty" if value == 1 else "is too short"
            faults.append((path, f"{obj!r} {tail}"))
        elif key == "minimum" and _TYPES["number"](obj) and obj < value:
            faults.append((path, f"{obj!r} is less than the minimum of {value!r}"))


def validate(obj: Any, kind: str) -> None:
    """Validate a parsed object against one of the shipped schemas.

    Of several faults the one jsonschema's ``best_match`` picks is reported:
    the shallowest, among those at one depth the largest path, and at one
    path the first found.  Numbers beyond double range are reported only
    once the schema holds.
    """
    faults: list = []
    overflows: list = []
    _walk(obj, SCHEMAS[kind], (), faults, overflows)
    if faults:
        path, message = max(faults, key=lambda fault: (-len(fault[0]), fault[0]))
        where = "$" + "".join(f"[{p!r}]" for p in path)
        raise SchemaError(f"{kind} schema violation at {where}: {message}")
    if overflows:
        where = "$" + "".join(
            f".{p}" if isinstance(p, str) else f"[{p}]" for p in overflows[0]
        )
        raise SchemaError(f"non-finite number at {where}")


def state_to_dict(state: GaussianState) -> Dict[str, Any]:
    return {
        "m": state.partition.m,
        "n": state.partition.n,
        "cm": state.cm.tolist(),
        "d": state.d.tolist(),
    }


def state_from_dict(obj: Dict[str, Any]) -> GaussianState:
    validate(obj, "state")
    return GaussianState(ModePartition(obj["m"], obj["n"]), obj["cm"], obj["d"])


def channel_to_dict(channel: GaussianChannel) -> Dict[str, Any]:
    return {
        "m": channel.partition.m,
        "n": channel.partition.n,
        "K": channel.K.tolist(),
        "M": channel.M.tolist(),
        "d": channel.d.tolist(),
    }


def channel_from_dict(obj: Dict[str, Any]) -> GaussianChannel:
    validate(obj, "channel")
    return GaussianChannel(
        ModePartition(obj["m"], obj["n"]), obj["K"], obj["M"], obj["d"]
    )


def superchannel_to_dict(sc: GaussianSuperchannel) -> Dict[str, Any]:
    return {
        "m": sc.partition.m,
        "n": sc.partition.n,
        "A": sc.A.tolist(),
        "E": sc.E.tolist(),
        "Y": sc.Y.tolist(),
        "nu": sc.nu.tolist(),
    }


def superchannel_from_dict(obj: Dict[str, Any]) -> GaussianSuperchannel:
    validate(obj, "superchannel")
    return GaussianSuperchannel(
        ModePartition(obj["m"], obj["n"]), obj["A"], obj["E"], obj["Y"], obj["nu"]
    )


def interleave_complex(vec) -> list:
    """Complex vector -> [re, im, re, im, ...]."""
    out = []
    for z in vec:
        out.append(float(z.real))
        out.append(float(z.imag))
    return out


def psd_check_to_dict(check: PsdCheck) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "ok": check.ok,
        "min_eigenvalue": check.min_eigenvalue,
        "threshold": check.threshold,
    }
    if check.witness is not None:
        out["witness"] = interleave_complex(check.witness)
    return out


def verdict_to_dict(verdict: Verdict) -> Dict[str, Any]:
    out: Dict[str, Any] = {"state": verdict.state.value, "value": verdict.value}
    out["witness"] = (
        None if verdict.witness is None else interleave_complex(verdict.witness)
    )
    return out


def report_to_dict(report: ClassificationReport) -> Dict[str, Any]:
    out: Dict[str, Any] = {name: getattr(report, name) for name in PSD_ROWS}
    for name in QUANTIFIED_ROWS:
        out[name] = verdict_to_dict(getattr(report, name))
    out["evidence"] = {
        name: psd_check_to_dict(check) for name, check in report.evidence.items()
    }
    return out


def falsifier_to_dict(result: FalsifierResult) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "trials": result.trials,
        "violation_found": result.violation_found,
    }
    if result.violation_found:
        out["trial_index"] = result.trial_index
        out["counterexample"] = state_to_dict(result.counterexample)
        out["output"] = state_to_dict(result.output)
    return out


def dump_schema_files(directory) -> None:
    """Write the shipped schema copies (used to generate docs/schemas)."""
    import pathlib

    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for kind, schema in SCHEMAS.items():
        path = directory / f"{kind}.schema.json"
        path.write_text(json.dumps(schema, indent=2, sort_keys=True) + "\n")
