"""Versioned JSON/JSONL serialization for every artifact the pipeline
reads or writes.

Formats carry a ``format`` tag and are rejected on mismatch. The
projection model stores its span factors as base64 of little-endian
float64; every other float goes through Python's shortest-round-trip
repr. Either way save/load pairs are bit-exact; see FORMATS.md for the
full schemas.
"""

from __future__ import annotations

import base64
import binascii
from dataclasses import asdict
import json
import logging
import os
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    FormatError,
    InputValidationError,
    require_utf8,
)
from .evaluation import SimilarityReport, render_report_text
from .metric import (
    ClusterSimilarityMatrix,
    LabeledDocument,
    ProjectionModel,
    SpanFactors,
    TrainConfig,
    TrainingLog,
)
from .optimizer import Evaluation, PromptAssignment, PromptSpec, SearchTrace
from .pca import PcaModel, PerspectivePoint

logger = logging.getLogger(__name__)

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
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object at top level")
    return data


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
    write_text_atomic(path, json.dumps(data, indent=2, ensure_ascii=False) + "\n")


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
    """Store ``model`` as its span factors; a model without factors is
    stored as ``base = W`` with no rows."""
    f = model.factors or SpanFactors(
        base=model.W,
        coef=np.empty((0, model.d_out)),
        basis=np.empty((0, model.d_in)),
    )
    _write_json(
        path,
        {
            "format": MODEL_FORMAT,
            "d_in": model.d_in,
            "d_out": model.d_out,
            "n": len(f.coef),
            "base": None if f.base is None else _encode_array(f.base),
            "coef": _encode_array(f.coef),
            "basis": _encode_array(f.basis),
            "train_config": asdict(cfg),
        },
    )


def load_model(path: str | Path) -> tuple[ProjectionModel, TrainConfig]:
    """Read a model file and rebuild ``W`` once from its span factors."""
    data = _read_json(path)
    _check_format(data, MODEL_FORMAT, path)
    try:
        d_in = int(data["d_in"])
        d_out = int(data["d_out"])
        n = int(data["n"])
        base = data["base"]
        cfg = TrainConfig(**data["train_config"])
    except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed model file: {exc}") from exc
    if d_in < 1 or d_out < 1 or n < 0:
        raise FormatError(
            f"{path}: bad model shape d_in={d_in}, d_out={d_out}, n={n}"
        )
    if base is None and d_in != d_out:
        raise FormatError(
            f"{path}: base is null (the identity) but d_in={d_in} != d_out={d_out}"
        )
    factors = SpanFactors(
        base=None if base is None else _decode_array(data, "base", d_out, d_in, path),
        coef=_decode_array(data, "coef", n, d_out, path),
        basis=_decode_array(data, "basis", n, d_in, path),
    )
    try:
        model = ProjectionModel(
            d_in=d_in, d_out=d_out, W=factors.weights(), factors=factors
        )
    except InputValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return model, cfg


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
            mean=np.asarray(data["mean"], dtype=np.float64),
            components=np.asarray(data["components"], dtype=np.float64),
            explained_variance=np.asarray(
                data["explained_variance"], dtype=np.float64
            ),
        )
    except (InputValidationError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed PCA file: {exc}") from exc


def load_dataset(path: str | Path) -> list[LabeledDocument]:
    """JSON Lines, one ``{"id", "text", "cluster"}`` object per line.

    Duplicate ids are rejected with both line numbers; an empty file is
    allowed but logged as a warning.
    """
    lines = _read_text(path).splitlines()
    docs: list[LabeledDocument] = []
    seen: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(
                f"{path}:{lineno}: invalid JSON at column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(obj, dict):
            raise FormatError(f"{path}:{lineno}: expected a JSON object")
        try:
            doc = LabeledDocument(
                id=str(obj["id"]), text=str(obj["text"]), cluster=str(obj["cluster"])
            )
        except KeyError as exc:
            raise FormatError(
                f"{path}:{lineno}: missing field {exc.args[0]!r}"
            ) from exc
        except InputValidationError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        for name in ("id", "text", "cluster"):
            require_utf8(getattr(doc, name), FormatError, f"{path}:{lineno}: {name}")
        if doc.id in seen:
            raise FormatError(
                f"{path}: duplicate id {doc.id!r} on lines {seen[doc.id]} "
                f"and {lineno}"
            )
        seen[doc.id] = lineno
        docs.append(doc)
    if not docs:
        logger.warning("%s: dataset file is empty", path)
    return docs


def load_matrix(path: str | Path) -> ClusterSimilarityMatrix:
    data = _read_json(path)
    try:
        return ClusterSimilarityMatrix(
            clusters=list(data["clusters"]),
            sim=np.asarray(data["sim"], dtype=np.float64),
        )
    except (InputValidationError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed cluster matrix: {exc}") from exc


def load_prompt_spec(path: str | Path) -> PromptSpec:
    data = _read_json(path)

    def text(value: object, name: str = "phrase") -> str:
        return require_utf8(str(value), FormatError, f"{path}: {name}")

    try:
        return PromptSpec(
            base_phrases=tuple(text(p) for p in data["base_phrases"]),
            slots=tuple(
                tuple(text(c) for c in slot) for slot in data.get("slots", [])
            ),
            joiner=text(data.get("joiner", " "), "joiner"),
        )
    except (InputValidationError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: malformed prompt spec: {exc}") from exc


def load_mock_table(path: str | Path) -> dict[str, str]:
    """The mock LLM's prompt-to-response table: one JSON object mapping
    strings to strings."""
    table = _read_json(path)
    if not all(isinstance(v, str) for v in table.values()):
        raise FormatError(f"{path}: mock table must map strings to strings")
    for key, value in table.items():
        require_utf8(key, FormatError, f"{path}: mock table key")
        require_utf8(value, FormatError, f"{path}: mock table value")
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


def save_report_text(path: str | Path, report: SimilarityReport) -> None:
    write_text_atomic(path, render_report_text(report))


def _evaluation_to_obj(index: int, ev: Evaluation, best_so_far: float) -> dict:
    return {
        "index": index,
        "assignment": {
            "base_index": ev.assignment.base_index,
            "choices": list(ev.assignment.choices),
        },
        "prompt": ev.prompt,
        "outputs": list(ev.outputs),
        "point": [ev.point.x, ev.point.y],
        "loss": ev.loss,
        "best_so_far": best_so_far,
    }


def save_trace(
    path: str | Path,
    trace: SearchTrace,
    mode: str,
    target: PerspectivePoint,
) -> None:
    """JSON Lines: one evaluation per line, then one summary object."""
    lines = []
    best_so_far = float("inf")
    for i, ev in enumerate(trace.evaluations):
        best_so_far = min(best_so_far, ev.loss)
        lines.append(
            json.dumps(_evaluation_to_obj(i, ev, best_so_far), ensure_ascii=False)
        )
    best = trace.best_evaluation
    lines.append(
        json.dumps(
            {
                "summary": True,
                "mode": mode,
                "target": [target.x, target.y],
                "evaluations": len(trace.evaluations),
                "best_index": trace.best,
                "best_prompt": best.prompt,
                "best_loss": best.loss,
            },
            ensure_ascii=False,
        )
    )
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_trace(path: str | Path) -> tuple[SearchTrace, dict]:
    """Read back a trace JSONL file; returns the trace and the summary."""
    lines = _read_text(path).splitlines()
    trace = SearchTrace()
    summary: dict = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(
                f"{path}:{lineno}: invalid JSON at column {exc.colno}: {exc.msg}"
            ) from exc
        if obj.get("summary"):
            summary = obj
            continue
        try:
            trace.record(
                Evaluation(
                    assignment=PromptAssignment(
                        base_index=int(obj["assignment"]["base_index"]),
                        choices=tuple(obj["assignment"]["choices"]),
                    ),
                    prompt=str(obj["prompt"]),
                    outputs=tuple(obj["outputs"]),
                    point=PerspectivePoint(
                        x=float(obj["point"][0]), y=float(obj["point"][1])
                    ),
                    loss=float(obj["loss"]),
                )
            )
        except (
            InputValidationError, KeyError, TypeError, ValueError, IndexError
        ) as exc:
            raise FormatError(
                f"{path}:{lineno}: malformed trace line: {exc}"
            ) from exc
    if not summary and trace.evaluations:
        raise FormatError(f"{path}: trace file has no summary line")
    return trace, summary
