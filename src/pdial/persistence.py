"""Versioned serialization for every artifact the pipeline reads or
writes.

The two numeric artifacts, the projection model and the PCA plane, are
one line of compact JSON (a ``format`` tag, the shapes and the small
fields) followed by their arrays as raw little-endian float64, the
layout of NumPy's ``.npy`` files. A loader checks the tag, the header
and the payload's byte count before it takes the arrays as views of
the payload. Every other artifact is JSON or JSON Lines, floats in
Python's shortest-round-trip repr. Either way save/load pairs are
bit-exact; see FORMATS.md for the full schemas.

The optimizer's types are imported by the loaders that build them, and
the report's only for type checking, so a command that reads no prompt
spec or trace does not load the optimizer.
"""

from __future__ import annotations

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
    require_count,
    require_text,
)
from .metric import (
    ClusterSimilarityMatrix,
    LabeledDocument,
    ProjectionModel,
    TrainConfig,
    TrainingLog,
)
from .pca import PCA_AXES, PcaModel, PerspectivePoint

if TYPE_CHECKING:
    from .evaluation import SimilarityReport
    from .optimizer import PromptSpec, SearchTrace

MODEL_FORMAT = "pdial-proj-v3"
PCA_FORMAT = "pdial-pca-v2"
TRAIN_LOG_FORMAT = "pdial-train-log-v1"
REPORT_FORMAT = "pdial-report-v1"


def _read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``, its line ends as they are; an
    unreadable file or one that is not valid UTF-8 is a FormatError
    naming it."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _json_object(text: str, where: str) -> dict:
    """The JSON object ``text`` holds; anything else is a FormatError
    naming ``where``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        at = f"line {exc.lineno} column" if exc.lineno > 1 else "column"
        raise FormatError(
            f"{where}: invalid JSON at {at} {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer of more digits than int() reads
        raise FormatError(f"{where}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"{where}: JSON nested too deeply") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected a JSON object")
    return obj


def _read_json(path: str | Path) -> dict:
    return _json_object(_read_text(path), str(path))


def _read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """The line number and object of each non-blank line of a JSON Lines
    file; a line that is not a JSON object is a FormatError naming the
    file and the line.

    Lines end at ``\n`` only, and the text is read without newline
    translation: a ``\r`` is JSON whitespace, so a ``\r\n`` ending and a
    lone ``\r`` between tokens both stay inside their line.
    ``str.splitlines`` would also split inside a string holding U+0085 or
    U+2028, which ``json.dumps(..., ensure_ascii=False)`` writes as is."""
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        if line.strip():
            yield lineno, _json_object(line, f"{path}:{lineno}")


def _check_format(data: dict, expected: str, path: str | Path) -> None:
    tag = data.get("format")
    if tag != expected:
        raise FormatError(
            f"{path}: format tag is {tag!r}, this reader expects {expected!r}"
        )


def write_bytes_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to a temporary file next to ``path``, then rename it
    over ``path``.

    Readers see the old file or the new one, never a truncated one. An
    error while writing leaves any existing file as it was and removes
    the temporary file; a process killed mid-write also leaves the
    existing file intact. Without an fsync this does not guard against
    power loss. A target that cannot be written (its directory is
    missing, it is a directory, the disk is full) is a
    ConfigurationError naming it.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        try:
            with open(tmp, "xb") as f:
                f.write(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        # strerror: the message of exc names the random temporary file
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_text_atomic(path: str | Path, text: str) -> None:
    """``write_bytes_atomic`` of ``text`` as UTF-8; text that UTF-8 cannot
    hold raises before any file is touched."""
    write_bytes_atomic(path, text.encode("utf-8"))


def _write_json(path: str | Path, data: dict) -> None:
    """Write ``data`` as indented JSON; a non-finite float is a ValueError
    and nothing is written."""
    write_text_atomic(
        path, json.dumps(data, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    )


def _header_line(header: dict) -> bytes:
    """``header`` as one line of compact JSON, without its newline."""
    return json.dumps(header, separators=(",", ":"), allow_nan=False).encode()


def _write_arrays(path: str | Path, header: dict, arrays: list[np.ndarray]) -> None:
    """Write the header line, then each array's little-endian float64
    values in row-major order, back to back."""
    write_bytes_atomic(path, b"".join([
        _header_line(header),
        b"\n",
        *(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays),
    ]))


def _read_header(path: str | Path, expected: str) -> tuple[dict, bytes, bytes]:
    """The header object, header line and payload of a file that
    ``_write_arrays`` wrote, once its tag is ``expected``."""
    try:
        with open(path, "rb") as f:
            line = f.readline().removesuffix(b"\n")
            # Read to the end into a bytes object of its own, so its views
            # start aligned: numpy hands only aligned arrays to BLAS, and
            # the bits of every projection depend on which code sums them.
            payload = f.read(os.fstat(f.fileno()).st_size)
        text = line.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        header = _json_object(text, f"{path}:1")
    except FormatError:
        # The JSON layouts before this one put one object over many
        # lines, so their first line is no header: name their tag.
        try:
            old = json.loads((line + b"\n" + payload).decode("utf-8"))
        except (ValueError, RecursionError):
            old = None
        if isinstance(old, dict):
            _check_format(old, expected, path)
        raise
    _check_format(header, expected, path)
    return header, line, payload


def _arrays(
    payload: bytes, shapes: dict[str, tuple[int, ...]], path: str | Path
) -> dict[str, np.ndarray]:
    """The arrays of ``shapes``, in order, as views of ``payload``, which
    must hold exactly their float64 values; the byte count is checked
    before any array is built. The holder they are handed to checks
    their values."""
    sizes = [math.prod(shape) for shape in shapes.values()]
    if len(payload) != 8 * sum(sizes):
        layout = ", ".join(
            f"{name} {' x '.join(map(str, shape))}" for name, shape in shapes.items()
        )
        raise FormatError(
            f"{path}: payload holds {len(payload)} bytes, expected "
            f"{8 * sum(sizes)} for float64 {layout}"
        )
    flat = np.frombuffer(payload, dtype="<f8")
    arrays = {}
    start = 0
    for (name, shape), size in zip(shapes.items(), sizes):
        arrays[name] = flat[start:start + size].reshape(shape)
        start += size
    return arrays


def _check_header(line: bytes, header: dict, path: str | Path) -> None:
    """The header line must be the one saving the loaded values writes,
    so that every file that loads saves back to its own bytes."""
    want = _header_line(header)
    if line != want:
        raise FormatError(
            f"{path}:1: the header is not the one its values are saved with, "
            f"{want.decode()}"
        )


def _model_header(model: ProjectionModel, cfg: TrainConfig) -> dict:
    return {
        "format": MODEL_FORMAT,
        "d_in": model.d_in,
        "d_out": model.d_out,
        "n": len(model.coef),
        "base": model.base is not None,
        "train_config": asdict(cfg),
    }


def save_model(path: str | Path, model: ProjectionModel, cfg: TrainConfig) -> None:
    """Store ``model`` as its span factors: ``base`` (when it is not the
    identity), ``coef``, then ``basis``."""
    arrays = [model.coef, model.basis]
    if model.base is not None:
        arrays.insert(0, model.base)
    _write_arrays(path, _model_header(model, cfg), arrays)


def load_model(path: str | Path) -> tuple[ProjectionModel, TrainConfig]:
    """Read a model file and build the model from its span factors."""
    header, line, payload = _read_header(path, MODEL_FORMAT)
    try:
        d_in = require_count(header["d_in"], ValueError, "d_in", 1)
        d_out = require_count(header["d_out"], ValueError, "d_out", 1)
        n = require_count(header["n"], ValueError, "n")
        base = header["base"]
        if type(base) is not bool:
            raise ValueError(f"base must be true or false, got {base!r}")
        config = header["train_config"]
        keys = asdict(TrainConfig()).keys()
        if not isinstance(config, dict) or config.keys() != keys:
            raise ValueError(f"train_config must hold exactly the keys {sorted(keys)}")
        cfg = TrainConfig(**config)
    except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed model file: {exc}") from exc
    shapes = {"base": (d_out, d_in)} if base else {}
    arrays = _arrays(payload, {**shapes, "coef": (n, d_out), "basis": (n, d_in)}, path)
    try:
        model = ProjectionModel(arrays["coef"], arrays["basis"], arrays.get("base"))
    except InputValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    _check_header(line, _model_header(model, cfg), path)
    return model, cfg


def _pca_header(model: PcaModel) -> dict:
    return {
        "format": PCA_FORMAT,
        "dim": model.dim,
        "explained_variance": model.explained_variance.tolist(),
    }


def save_pca(path: str | Path, model: PcaModel) -> None:
    """Store ``model``'s ``mean``, then its ``components``. Every
    ``PcaModel`` keeps the sign rule (see there), so every PCA file that
    saves also loads."""
    _write_arrays(path, _pca_header(model), [model.mean, model.components])


def load_pca(path: str | Path) -> PcaModel:
    header, line, payload = _read_header(path, PCA_FORMAT)
    where = f"{path}: malformed PCA file"
    dim = require_count(header.get("dim"), FormatError, f"{where}: dim", 1)
    arrays = _arrays(payload, {"mean": (dim,), "components": (PCA_AXES, dim)}, path)
    try:
        pca = PcaModel(*arrays.values(), header.get("explained_variance"))
    except InputValidationError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    _check_header(line, _pca_header(pca), path)
    return pca


def load_dataset(path: str | Path) -> list[LabeledDocument]:
    """JSON Lines, one ``{"id", "text", "cluster"}`` object per line.

    ``LabeledDocument`` checks the fields, and its error names the file
    and line here. Duplicate ids are rejected with both line numbers, and
    a file that holds no document is a FormatError.
    """
    docs: list[LabeledDocument] = []
    seen: dict[str, int] = {}
    for lineno, obj in _read_jsonl(path):
        try:
            doc = LabeledDocument(obj["id"], obj["text"], obj["cluster"])
        except KeyError as exc:
            raise FormatError(f"{path}:{lineno}: missing field {exc}") from exc
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
        return ClusterSimilarityMatrix(clusters=data["clusters"], sim=data["sim"])
    except (InputValidationError, KeyError) as exc:
        raise FormatError(f"{path}: malformed cluster matrix: {exc}") from exc


def load_prompt_spec(path: str | Path) -> PromptSpec:
    from .optimizer import PromptSpec

    data = _read_json(path)
    try:
        return PromptSpec(
            base_phrases=data["base_phrases"],
            slots=data.get("slots", []),
            joiner=data.get("joiner", " "),
        )
    except (InputValidationError, KeyError) as exc:
        raise FormatError(f"{path}: malformed prompt spec: {exc}") from exc


def load_mock_table(path: str | Path) -> dict[str, str]:
    """The mock LLM's prompt-to-response table: one JSON object mapping
    strings to strings."""
    table = _read_json(path)
    for key, value in table.items():
        require_text(key, FormatError, f"{path}: mock table key")
        require_text(value, FormatError, f"{path}: mock table value")
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


def _point(value: object, what: str) -> PerspectivePoint:
    """A trace's ``[x, y]`` as a point: anything but a list of two values
    is a ValueError naming ``what``, and ``PerspectivePoint`` checks the
    values."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"{what} expected [x, y] as two numbers, got {value!r}")
    return PerspectivePoint(*value)


def load_trace(path: str | Path) -> SearchTrace:
    """The trace ``save_trace`` wrote; errors come in line order, then a
    missing summary line (the empty file has none either) or evaluation
    lines, then the first line that is not the one ``save_trace`` writes
    for the trace rebuilt from the evaluation lines and summary."""
    from .optimizer import Evaluation, PromptAssignment, SearchTrace

    evaluations = []
    trace = None
    lines = []
    for lineno, obj in _read_jsonl(path):
        lines.append((lineno, obj))
        where = f"{path}:{lineno}"
        if obj.get("summary"):
            try:
                target = _point(obj.get("target"), "target")
                trace = SearchTrace(obj.get("mode"), target)
            except (InputValidationError, ValueError) as exc:
                raise FormatError(f"{where}: malformed trace summary: {exc}") from exc
            continue
        try:
            a = obj["assignment"]
            evaluations.append(Evaluation(
                PromptAssignment(a["base_index"], a["choices"]), obj["prompt"],
                obj["outputs"], _point(obj["point"], "point"), obj["loss"],
            ))
        except (InputValidationError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{where}: malformed trace line: {exc}") from exc
    if trace is None:
        raise FormatError(f"{path}: trace file has no summary line")
    if not evaluations:
        raise FormatError(f"{path}: trace file has no evaluation lines")
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
