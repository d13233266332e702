"""JSON wire formats: states, channels, superchannels, verdicts, reports.

Matrices travel as row-major nested arrays of finite doubles in the
interleaved quadrature ordering (q1, p1, ..., qN, pN); complex witness
vectors are flattened to interleaved [re, im, re, im, ...] arrays.
Non-finite numbers are rejected at parse time.  Copies of the schemas are
shipped under docs/schemas and kept in sync by a test.
"""

import json
import sys
from typing import Any, Dict

import jsonschema

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


def _ensure_finite(obj, path="$"):
    # JSON integers are unbounded, so they are range-checked too (NaN fails <=)
    if isinstance(obj, (int, float)) and not abs(obj) <= _MAX_DOUBLE:
        raise SchemaError(f"non-finite number at {path}")
    if isinstance(obj, list):
        for i, item in enumerate(obj):
            _ensure_finite(item, f"{path}[{i}]")
    if isinstance(obj, dict):
        for key, item in obj.items():
            _ensure_finite(item, f"{path}.{key}")


def validate(obj: Any, kind: str) -> None:
    """Validate a parsed object against one of the shipped schemas."""
    try:
        jsonschema.validate(obj, SCHEMAS[kind])
    except jsonschema.ValidationError as exc:
        path = "$" + "".join(f"[{p!r}]" for p in exc.absolute_path)
        raise SchemaError(f"{kind} schema violation at {path}: {exc.message}") from exc
    _ensure_finite(obj)


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
