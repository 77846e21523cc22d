"""Versioned JSON/JSONL serialization for every artifact the pipeline
reads or writes.

Formats carry a ``format`` tag and are rejected on mismatch. The
projection model stores its span factors as base64 of little-endian
float64; every other float goes through Python's shortest-round-trip
repr. Either way save/load pairs are bit-exact; see FORMATS.md for the
full schemas.

The optimizer's types are imported by the loaders that build them, and
the report's only for type checking, so a command that reads no prompt
spec or trace does not load the optimizer.
"""

from __future__ import annotations

import base64
import binascii
from dataclasses import asdict
import json
import math
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .errors import (
    ConfigurationError,
    FormatError,
    InputValidationError,
    require_numbers,
    require_utf8,
)
from .metric import (
    ClusterSimilarityMatrix,
    LabeledDocument,
    ProjectionModel,
    TrainConfig,
    TrainingLog,
)
from .pca import PcaModel, PerspectivePoint

if TYPE_CHECKING:
    from .evaluation import SimilarityReport
    from .optimizer import PromptSpec, SearchTrace

MODEL_FORMAT = "pdial-proj-v2"
PCA_FORMAT = "pdial-pca-v1"
TRAIN_LOG_FORMAT = "pdial-train-log-v1"
REPORT_FORMAT = "pdial-report-v1"


def _read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``; an unreadable file or one that is not
    valid UTF-8 is a FormatError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str | Path) -> dict:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object at top level")
    return data


def _read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """The line number and object of each non-blank line of a JSON Lines
    file; a line that is not a JSON object is a FormatError naming the
    file and the line.

    Lines end at ``\n`` only (the text is read with universal newlines):
    ``str.splitlines`` would also split inside a string holding U+0085 or
    U+2028, which ``json.dumps(..., ensure_ascii=False)`` writes as is."""
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(
                f"{path}:{lineno}: invalid JSON at column {exc.colno}: {exc.msg}"
            ) from exc
        except RecursionError as exc:
            raise FormatError(f"{path}:{lineno}: JSON nested too deeply") from exc
        if not isinstance(obj, dict):
            raise FormatError(f"{path}:{lineno}: expected a JSON object")
        yield lineno, obj


def _string(value: object, where: str) -> str:
    """``value`` if it is a JSON string that UTF-8 can hold, else a
    FormatError naming ``where``."""
    if not isinstance(value, str):
        raise FormatError(f"{where} must be a JSON string, got {type(value).__name__}")
    return require_utf8(value, FormatError, where)


def _list(value: object, where: str) -> list:
    """``value`` if it is a JSON list, else a FormatError naming ``where``."""
    if not isinstance(value, list):
        raise FormatError(f"{where} must be a JSON list, got {type(value).__name__}")
    return value


def _strings(value: object, where: str) -> list[str]:
    """``value`` if it is a JSON list of strings, each checked as by
    ``_string``."""
    return [_string(v, where) for v in _list(value, where)]


def _count(value: object, what: str, least: int = 0) -> int:
    """``value`` if it is a JSON integer of at least ``least``, else
    ValueError; a JSON ``true`` is not an integer."""
    if type(value) is not int or value < least:
        raise ValueError(f"{what} must be a JSON integer >= {least}, got {value!r}")
    return value


def _finite(value: object, what: str) -> float:
    """``value`` as a float if it is a finite JSON number, else ValueError
    (OverflowError for an integer too large for a float)."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite JSON number, got {value!r}")
    return float(value)


def _check_format(data: dict, expected: str, path: str | Path) -> None:
    tag = data.get("format")
    if tag != expected:
        raise FormatError(
            f"{path}: format tag is {tag!r}, this reader expects {expected!r}"
        )


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to a temporary file next to ``path``, then
    rename it over ``path``.

    Readers see the old file or the new one, never a truncated one. An
    error while encoding or writing leaves any existing file as it was
    and removes the temporary file; a process killed mid-write also
    leaves the existing file intact. Without an fsync this does not
    guard against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: str | Path, data: dict) -> None:
    """Write ``json.dumps(data, indent=2, ensure_ascii=False) + "\\n"``,
    built by ``_json_text``; a non-finite float is a ValueError, as with
    ``allow_nan=False``, and nothing is written."""
    write_text_atomic(path, _json_text(data, "") + "\n")


# The bytes that json writes as they are inside a string: ASCII from the
# space up (DEL too), but the quote and the backslash.
_PLAIN = bytes(sorted(set(range(0x20, 0x80)) - set(b'"\\')))


def _json_text(value: object, indent: str) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False, allow_nan=False)``
    with ``indent`` before every line but the first, from C-level string
    operations where the value allows: a string that needs no escape goes
    between quotes as it is, and a list of finite floats is joined from
    ``float.__repr__``, the repr that json uses. Everything else is
    json's own text; it holds no raw newline but those of its layout."""
    kind = type(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is str:
        if value.isascii() and not value.encode().translate(None, _PLAIN):
            return f'"{value}"'
    elif kind is dict and value and set(map(type, value)) == {str}:
        body = sep.join(
            f"{_json_text(k, inner)}: {_json_text(v, inner)}" for k, v in value.items()
        )
        return f"{{\n{inner}{body}\n{indent}}}"
    elif kind is list and value:
        if set(map(type, value)) != {float}:
            body = sep.join(_json_text(v, inner) for v in value)
            return f"[\n{inner}{body}\n{indent}]"
        body = sep.join(map(float.__repr__, value))
        if "n" not in body:  # else a "nan" or "inf", which json refuses below
            return f"[\n{inner}{body}\n{indent}]"
    text = json.dumps(value, indent=2, ensure_ascii=False, allow_nan=False)
    return text.replace("\n", "\n" + indent)


def _encode_array(a: np.ndarray) -> str:
    raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def _decode_array(
    data: dict, name: str, rows: int, cols: int, path: str | Path
) -> np.ndarray:
    """Field ``name`` of a model file as a finite rows x cols array."""
    try:
        raw = base64.b64decode(data[name], validate=True)
    except KeyError as exc:
        raise FormatError(f"{path}: malformed model file: no {name!r}") from exc
    except (binascii.Error, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {name} is not valid base64: {exc}") from exc
    if len(raw) != rows * cols * 8:
        raise FormatError(
            f"{path}: {name} holds {len(raw)} bytes, expected {rows} x {cols} "
            f"float64 ({rows * cols * 8} bytes)"
        )
    a = np.frombuffer(raw, dtype="<f8").reshape(rows, cols)
    if not np.isfinite(a).all():
        raise FormatError(f"{path}: {name} contains non-finite values")
    return a


def save_model(path: str | Path, model: ProjectionModel, cfg: TrainConfig) -> None:
    """Store ``model`` as its span factors."""
    _write_json(
        path,
        {
            "format": MODEL_FORMAT,
            "d_in": model.d_in,
            "d_out": model.d_out,
            "n": len(model.coef),
            "base": None if model.base is None else _encode_array(model.base),
            "coef": _encode_array(model.coef),
            "basis": _encode_array(model.basis),
            "train_config": asdict(cfg),
        },
    )


def load_model(path: str | Path) -> tuple[ProjectionModel, TrainConfig]:
    """Read a model file and rebuild ``W`` once from its span factors."""
    data = _read_json(path)
    _check_format(data, MODEL_FORMAT, path)
    try:
        d_in = _count(data["d_in"], "d_in", 1)
        d_out = _count(data["d_out"], "d_out", 1)
        n = _count(data["n"], "n")
        base = data["base"]
        config = data["train_config"]
        keys = asdict(TrainConfig()).keys()
        if not isinstance(config, dict) or config.keys() != keys:
            raise ValueError(f"train_config must hold exactly the keys {sorted(keys)}")
        cfg = TrainConfig(**config)
    except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed model file: {exc}") from exc
    if base is not None:
        base = _decode_array(data, "base", d_out, d_in, path)
    coef = _decode_array(data, "coef", n, d_out, path)
    basis = _decode_array(data, "basis", n, d_in, path)
    try:
        return ProjectionModel(coef, basis, base), cfg
    except InputValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_pca(path: str | Path, model: PcaModel) -> None:
    _write_json(
        path,
        {
            "format": PCA_FORMAT,
            "mean": model.mean.tolist(),
            "components": model.components.tolist(),
            "explained_variance": model.explained_variance.tolist(),
        },
    )


def load_pca(path: str | Path) -> PcaModel:
    data = _read_json(path)
    _check_format(data, PCA_FORMAT, path)
    try:
        return PcaModel(
            *(require_numbers(data[name], ValueError, name)
              for name in ("mean", "components", "explained_variance"))
        )
    except (InputValidationError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed PCA file: {exc}") from exc


def load_dataset(path: str | Path) -> list[LabeledDocument]:
    """JSON Lines, one ``{"id", "text", "cluster"}`` object per line.

    Duplicate ids are rejected with both line numbers, and a file that
    holds no document is a FormatError.
    """
    docs: list[LabeledDocument] = []
    seen: dict[str, int] = {}
    for lineno, obj in _read_jsonl(path):
        fields = {}
        for name in ("id", "text", "cluster"):
            if name not in obj:
                raise FormatError(f"{path}:{lineno}: missing field {name!r}")
            fields[name] = _string(obj[name], f"{path}:{lineno}: {name}")
        try:
            doc = LabeledDocument(**fields)
        except InputValidationError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        if doc.id in seen:
            raise FormatError(
                f"{path}: duplicate id {doc.id!r} on lines {seen[doc.id]} "
                f"and {lineno}"
            )
        seen[doc.id] = lineno
        docs.append(doc)
    if not docs:
        raise FormatError(f"{path}: dataset file holds no documents")
    return docs


def load_matrix(path: str | Path) -> ClusterSimilarityMatrix:
    data = _read_json(path)
    try:
        return ClusterSimilarityMatrix(
            clusters=_strings(data["clusters"], f"{path}: clusters"),
            sim=require_numbers(data["sim"], ValueError, "sim"),
        )
    except (InputValidationError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed cluster matrix: {exc}") from exc


def load_prompt_spec(path: str | Path) -> PromptSpec:
    from .optimizer import PromptSpec

    data = _read_json(path)
    try:
        slots = _list(data.get("slots", []), f"{path}: slots")
        return PromptSpec(
            base_phrases=_strings(data["base_phrases"], f"{path}: base_phrases"),
            slots=[_strings(s, f"{path}: slot {i}") for i, s in enumerate(slots)],
            joiner=_string(data.get("joiner", " "), f"{path}: joiner"),
        )
    except (InputValidationError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: malformed prompt spec: {exc}") from exc


def load_mock_table(path: str | Path) -> dict[str, str]:
    """The mock LLM's prompt-to-response table: one JSON object mapping
    strings to strings."""
    table = _read_json(path)
    for key, value in table.items():
        _string(key, f"{path}: mock table key")
        _string(value, f"{path}: mock table value")
    return table


def save_train_log(path: str | Path, log: TrainingLog) -> None:
    _write_json(
        path,
        {
            "format": TRAIN_LOG_FORMAT,
            "pair_count": log.pair_count,
            "epoch_mean_loss": log.epoch_mean_loss,
            "epoch_skipped_pairs": log.epoch_skipped_pairs,
        },
    )


def save_report(path: str | Path, report: SimilarityReport) -> None:
    _write_json(
        path,
        {
            "format": REPORT_FORMAT,
            "clusters": list(report.clusters),
            "pre": {
                "mean": report.pre_mean.tolist(),
                "std": report.pre_std.tolist(),
            },
            "post": {
                "mean": report.post_mean.tolist(),
                "std": report.post_std.tolist(),
            },
            "std_kind": "population",
        },
    )


def _trace_objects(trace: SearchTrace) -> list[dict]:
    """The JSON object of each line of ``trace``'s file: one per
    evaluation, then the summary with the mode, target and best."""
    objects = []
    improved = set(trace.improvements)
    for i, ev in enumerate(trace.evaluations):
        if i in improved:
            best_so_far = ev.loss
        objects.append({
            "index": i,
            "assignment": {
                "base_index": ev.assignment.base_index,
                "choices": list(ev.assignment.choices),
            },
            "prompt": ev.prompt,
            "outputs": list(ev.outputs),
            "point": [ev.point.x, ev.point.y],
            "loss": ev.loss,
            "best_so_far": best_so_far,
        })
    best = trace.best_evaluation
    objects.append({
        "summary": True,
        "mode": trace.mode,
        "target": [trace.target.x, trace.target.y],
        "evaluations": len(trace.evaluations),
        "best_index": trace.best,
        "best_prompt": best.prompt,
        "best_loss": best.loss,
    })
    return objects


def save_trace(path: str | Path, trace: SearchTrace) -> None:
    """JSON Lines: one evaluation per line, then the mode, target and best.
    A non-finite number raises ValueError before the file is touched."""
    write_text_atomic(path, "".join(
        json.dumps(obj, ensure_ascii=False, allow_nan=False) + "\n"
        for obj in _trace_objects(trace)
    ))


def _canonical(value: object) -> str:
    """``value`` as JSON with sorted keys, so that equal JSON values give
    equal strings and ``true``, ``1`` and ``1.0`` three different ones."""
    return json.dumps(value, sort_keys=True, ensure_ascii=False)


def _point(value: object) -> PerspectivePoint:
    """A trace's ``[x, y]`` as a point; anything but two finite JSON
    numbers raises ValueError, OverflowError or InputValidationError."""
    if not (
        isinstance(value, list)
        and len(value) == 2
        and all(type(v) in (int, float) for v in value)
    ):
        raise ValueError(f"expected [x, y] as two numbers, got {value!r}")
    return PerspectivePoint(x=float(value[0]), y=float(value[1]))


_BAD_VALUE = (InputValidationError, KeyError, OverflowError, TypeError, ValueError)


def load_trace(path: str | Path) -> SearchTrace:
    """The trace ``save_trace`` wrote; errors come in line order, then a
    missing summary line (the empty file has none either) or evaluation
    lines, then the first line that is not the one ``save_trace`` writes
    for the trace rebuilt from the evaluation lines and summary."""
    from .optimizer import Evaluation, PromptAssignment, SearchTrace

    evaluations = []
    summary = None
    lines = []
    for lineno, obj in _read_jsonl(path):
        lines.append((lineno, obj))
        where = f"{path}:{lineno}"
        if obj.get("summary"):
            try:
                target = _point(obj.get("target"))
            except _BAD_VALUE as exc:
                raise FormatError(
                    f"{where}: malformed trace summary: target {exc}"
                ) from exc
            mode = _string(obj.get("mode"), f"{where}: malformed trace summary: mode")
            summary = (mode, target)
            continue
        try:
            assignment = obj["assignment"]
            base_index = _count(assignment["base_index"], "base_index")
            choices = _list(assignment["choices"], f"{where}: choices")
            evaluations.append(
                Evaluation(
                    assignment=PromptAssignment(
                        base_index, [_count(c, "choice") for c in choices]
                    ),
                    prompt=_string(obj["prompt"], f"{where}: prompt"),
                    outputs=tuple(_strings(obj["outputs"], f"{where}: outputs")),
                    point=_point(obj["point"]),
                    loss=_finite(obj["loss"], "loss"),
                )
            )
        except _BAD_VALUE as exc:
            raise FormatError(f"{where}: malformed trace line: {exc}") from exc
    if summary is None:
        raise FormatError(f"{path}: trace file has no summary line")
    if not evaluations:
        raise FormatError(f"{path}: trace file has no evaluation lines")
    trace = SearchTrace(*summary)
    for ev in evaluations:
        trace.record(ev)
    # The derived fields (index, best_so_far, the summary's best) must be
    # those of the rebuilt trace: each line is the one save_trace writes.
    # A line beyond the last object (a second summary) meets the {}.
    for (lineno, obj), want in zip(lines, _trace_objects(trace) + [{}]):
        if _canonical(obj) == _canonical(want):
            continue
        where = f"{path}:{lineno}"
        if not want:
            raise FormatError(f"{where}: a trace line after the summary")
        for key in (*want, *obj):
            if key not in obj:
                raise FormatError(f"{where}: missing field {key!r}")
            if key not in want:
                raise FormatError(f"{where}: unexpected field {key!r}")
            if _canonical(obj[key]) != _canonical(want[key]):
                raise FormatError(
                    f"{where}: {key!r} is {_canonical(obj[key])}, the "
                    f"evaluations give {_canonical(want[key])}"
                )
    return trace
