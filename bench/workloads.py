"""The benchmark workloads: inputs, CLI stages and output checks.

Every workload runs the same four ``pdial`` commands (``train --pca-out``,
``eval``, ``optimize --mode gcd``, ``optimize --mode brute``) on its own
inputs, so every end-to-end metric exists on every workload:

* ``fixture-d768``: the bundled 15-document fixture, acceptance recipe
  (5 epochs), CLI default ``--dim 768``, hashed embeddings, mock LLM.
  N << d, so the d x d work in ``metric`` and the 768 x 768 covariance in
  ``pca`` dominate.
* ``corpus-dense``: a seeded corpus of 180 train and 60 test documents at
  d = 128 (N > d, full-rank covariance), hashed embeddings, mock LLM over
  the seeded 27-combination spec. Per-step overhead and a dense Jacobi
  dominate.
* ``steer-http``: fixture at d = 64 with ``--embedding http`` and
  ``--llm http --samples-n 2`` against the latency stub (one process,
  50 ms per request). Latency-bound: one CLI caller waits for every reply
  (closed loop, one client).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from pdial import persistence
from pdial.cli import main
from pdial.embedding import hashed_embed

from . import inputs
from .stub_server import StubProcess

# The acceptance recipe, at 5 epochs instead of 50 so that a run holds
# about ten train samples at d = 768. On corpus-dense, lr 0.05 collapses
# the projection within one epoch and leaves a rank-deficient covariance,
# so it trains one epoch at lr 0.002.
FIXTURE_RECIPE = ["--loss", "contrastive", "--margin", "1.0", "--lr", "0.05", "--seed", "7", "--epochs", "5"]
CORPUS_RECIPE = ["--loss", "contrastive", "--margin", "1.0", "--lr", "0.002", "--seed", "7", "--epochs", "1"]
TARGET_CLUSTER = "pro-barca"
STEER_SAMPLES = 2
EIGENVALUE_TOL = 1e-8


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Stage:
    name: str
    argv: list[str]
    outputs: list[Path]


@dataclass
class Prepared:
    """A workload ready to run: its stages, inputs summary and stub."""

    files: inputs.FixtureFiles
    stages: dict[str, Stage]
    info: dict
    check: Callable[["Prepared"], list[str]]
    stub: StubProcess | None = None
    stub_totals: dict = field(default_factory=dict)

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None


def _stages(
    work: Path, files: inputs.FixtureFiles, dim: int, recipe: list[str],
    embed_flags: list[str], llm_flags: list[str],
) -> dict[str, Stage]:
    out = {n: work / n for n in ("model.json", "model.log.json", "pca.json", "report.json", "report.txt")}
    dim_flags = ["--dim", str(dim)] + embed_flags
    stages = {
        "train": Stage(
            "train",
            ["train", "--data", str(files.train), "--matrix", str(files.matrix), *recipe,
             "--out", str(out["model.json"]), "--pca-out", str(out["pca.json"]),
             *dim_flags],
            [out["model.json"], out["model.log.json"], out["pca.json"]],
        ),
        "eval": Stage(
            "eval",
            ["eval", "--model", str(out["model.json"]), "--train", str(files.train), "--test", str(files.test),
             "--out-json", str(out["report.json"]), "--out-text", str(out["report.txt"]), *dim_flags],
            [out["report.json"], out["report.txt"]],
        ),
    }
    for mode in ("gcd", "brute"):
        trace = work / f"trace_{mode}.jsonl"
        stages[f"optimize_{mode}"] = Stage(
            f"optimize_{mode}",
            ["optimize", "--model", str(out["model.json"]), "--pca", str(out["pca.json"]),
             "--prompts", str(files.prompts), "--mode", mode, "--target-cluster", TARGET_CLUSTER,
             "--data", str(files.train), "--out-trace", str(trace), *llm_flags, *dim_flags],
            [trace],
        )
    return stages


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def read_trace(path: Path) -> tuple[list[dict], dict]:
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    return lines[:-1], lines[-1]


def best_assignment(path: Path) -> dict:
    evaluations, summary = read_trace(path)
    return evaluations[summary["best_index"]]["assignment"]


def _load_inputs(files: inputs.FixtureFiles) -> None:
    """Load the inputs through the program's own parsers (part of set-up)."""
    persistence.load_dataset(files.train)
    persistence.load_dataset(files.test)
    persistence.load_matrix(files.matrix)
    persistence.load_prompt_spec(files.prompts)


# -- fixture-d768 ----------------------------------------------------------


def setup_fixture(root: Path, work: Path, seed: int, tiny: bool) -> Prepared:
    files = inputs.write_fixture_inputs(root / "tests" / "fixtures", work / "inputs", seed)
    _load_inputs(files)
    dim = 64 if tiny else 768
    llm = ["--llm", "mock", "--mock-table", str(files.table)]
    stages = _stages(work, files, dim, FIXTURE_RECIPE, [], llm)
    info = {"n_train": 15, "n_test": 9, "d": dim}
    return Prepared(files, stages, info, _check_fixture)


def _check_fixture(p: Prepared) -> list[str]:
    failures = _check_report_diagonal(p) + _check_eigenvalues(p)[1]
    spec = json.loads(p.files.prompts.read_text(encoding="utf-8"))
    barca = next(i for i, b in enumerate(spec["base_phrases"]) if "barcelona" in b)
    brute = best_assignment(p.stages["optimize_brute"].outputs[0])
    gcd = best_assignment(p.stages["optimize_gcd"].outputs[0])
    if brute["base_index"] != barca:
        failures.append(f"{TARGET_CLUSTER} target selected base {brute['base_index']}, expected {barca}")
    if gcd != brute:
        failures.append(f"gcd best assignment {gcd} differs from brute force {brute}")
    return failures


def _check_report_diagonal(p: Prepared) -> list[str]:
    report = json.loads(p.stages["eval"].outputs[0].read_text(encoding="utf-8"))
    post = np.asarray(report["post"]["mean"])
    return [
        f"report row {c!r}: largest post-train similarity is not on the diagonal"
        for i, c in enumerate(report["clusters"])
        if int(np.argmax(post[i])) != i
    ]


# -- corpus-dense ----------------------------------------------------------


def setup_corpus(root: Path, work: Path, seed: int, tiny: bool) -> Prepared:
    shape = inputs.CORPUS_TINY if tiny else inputs.CORPUS_FULL
    ranks = []

    def full_rank(texts: list[str]) -> bool:
        base = np.array([hashed_embed(t, shape.dim) for t in texts])
        ranks.append(int(np.linalg.matrix_rank(inputs.covariance(base))))
        return ranks[-1] == shape.dim

    files, info = inputs.write_corpus_inputs(
        root / "tests" / "fixtures", work / "inputs", seed, shape, full_rank
    )
    info["base_covariance_rank"] = ranks[-1]
    _load_inputs(files)
    llm = ["--llm", "mock", "--mock-table", str(files.table)]
    stages = _stages(work, files, shape.dim, CORPUS_RECIPE, [], llm)
    return Prepared(files, stages, info, _check_corpus)


def _embed(dataset: Path, dim: int) -> np.ndarray:
    return np.array([hashed_embed(d.text, dim) for d in persistence.load_dataset(dataset)])


def _check_eigenvalues(p: Prepared) -> tuple[np.ndarray, list[str]]:
    """The top-2 PCA eigenvalues against ``numpy.linalg.eigh`` of the
    covariance of the projected train embeddings; returns that covariance."""
    model, _ = persistence.load_model(p.stages["train"].outputs[0])
    pca = persistence.load_pca(p.stages["train"].outputs[2])
    cov = inputs.covariance(_embed(p.files.train, model.d_in) @ model.W.T)
    reference = np.linalg.eigh(cov)[0][::-1][:2]
    error = float(np.max(np.abs(reference - pca.explained_variance)))
    p.info["top2_eigenvalue_error"] = error
    if not error <= EIGENVALUE_TOL:
        return cov, [f"top-2 PCA eigenvalues differ from numpy.linalg.eigh by {error:.3e}"]
    return cov, []


def _check_corpus(p: Prepared) -> list[str]:
    cov, failures = _check_eigenvalues(p)
    p.info["post_covariance_rank"] = int(np.linalg.matrix_rank(cov))
    if p.info["post_covariance_rank"] != cov.shape[0]:
        failures.append(f"post-train covariance has rank {p.info['post_covariance_rank']} < {cov.shape[0]}")
    brute_evals, brute = read_trace(p.stages["optimize_brute"].outputs[0])
    _, gcd = read_trace(p.stages["optimize_gcd"].outputs[0])
    if len(brute_evals) != 27:
        failures.append(f"brute force made {len(brute_evals)} evaluations, expected 27")
    if brute["best_loss"] != min(e["loss"] for e in brute_evals) or brute["best_loss"] > gcd["best_loss"]:
        failures.append("brute force best loss is not the minimum over the grid")
    return failures


# -- steer-http ------------------------------------------------------------


def setup_steer(root: Path, work: Path, seed: int, tiny: bool) -> Prepared:
    files = inputs.write_steer_inputs(root / "tests" / "fixtures", work / "inputs", seed)
    _load_inputs(files)
    dim = 16 if tiny else 64
    latency_ms = 1.0 if tiny else 50.0
    connections = nproc()
    fan_out = min(4, connections)
    stub = StubProcess(dim, files.table, latency_ms, connections, cwd=root)
    embed = ["--embedding", "http", "--embedding-url", stub.embed_url, "--fan-out", str(fan_out)]
    llm = ["--llm", "http", "--llm-url", stub.chat_url, "--samples-n", str(STEER_SAMPLES)]
    stages = _stages(work, files, dim, FIXTURE_RECIPE, embed, llm)
    info = {"n_train": 15, "n_test": 9, "d": dim, "combinations": 27, "samples_n": STEER_SAMPLES,
            "latency_ms": latency_ms, "fan_out": fan_out, "stub_max_connections": connections}
    return Prepared(files, stages, info, _check_steer, stub=stub)


def implied_requests(trace: Path, samples: int, centroid_docs: int = 5, batch_size: int = 32) -> dict:
    """Requests the current search code makes: one chat request per sample
    per evaluation, one embedding request per output, plus the centroid."""
    evaluations, _ = read_trace(trace)
    n = len(evaluations)
    return {"llm_requests": n * samples, "embed_requests": n * samples - (-centroid_docs // batch_size)}


def _check_steer(p: Prepared) -> list[str]:
    """Both traces equal the same searches with the mock LLM and hashed
    embeddings, and the stub never served more connections than its limit.
    Non-200 replies are counted per request by the caller."""
    failures = []
    p.info["implied_requests"] = {}
    for mode in ("gcd", "brute"):
        stage = p.stages[f"optimize_{mode}"]
        p.info["implied_requests"][stage.name] = implied_requests(stage.outputs[0], STEER_SAMPLES)
        reference = stage.outputs[0].with_name(f"reference_{mode}.jsonl")
        argv = _replace_flags(
            stage.argv,
            {"--llm": "mock", "--embedding": "hashed", "--out-trace": str(reference)},
            drop=("--llm-url", "--embedding-url"),
        ) + ["--mock-table", str(p.files.table)]
        if quiet_call(main, argv) != 0:
            failures.append(f"reference {mode} search with the mock LLM failed")
        elif reference.read_bytes() != stage.outputs[0].read_bytes():
            failures.append(f"{mode} trace over http differs from the mock/hashed reference")
    if p.stub_totals.get("max_open_connections", 0) > p.info["stub_max_connections"]:
        failures.append("stub served more connections at once than its limit")
    return failures


def _replace_flags(argv: list[str], values: dict[str, str], drop: tuple[str, ...]) -> list[str]:
    out = []
    it = iter(argv)
    for arg in it:
        if arg in drop:
            next(it)
        elif arg in values:
            next(it)
            out += [arg, values[arg]]
        else:
            out.append(arg)
    return out


def quiet_call(fn: Callable[[list[str]], int], argv: list[str]) -> int:
    """Call a CLI entry point with its stdout and stderr captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return fn(argv)


WORKLOADS: dict[str, Callable[[Path, Path, int, bool], Prepared]] = {
    "fixture-d768": setup_fixture,
    "corpus-dense": setup_corpus,
    "steer-http": setup_steer,
}
