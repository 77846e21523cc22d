"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and of the bundled fixture
files under ``tests/fixtures``: the same seed writes the same bytes. The
program under test only ever sees the files written here.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CLUSTERS = ("pro-madrid", "neutral", "pro-barca")
_TOKEN_RE = re.compile(r"[0-9a-z]+")

# Extra slot phrases for the 27-combination spec, assembled from fixture
# vocabulary; the seed picks two of them for the second slot.
_SLOT2_POOL = (
    "mention the champions league",
    "mention the camp nou",
    "mention a fair draw",
    "talk about la masia",
    "talk about the bernabeu nights",
    "praise the league quality",
    "end with visca barca",
    "end with hala madrid",
)

# Each non-empty slot candidate appends this many seeded words of the
# pro-madrid cluster. That pushes outputs away from the pro-barca target by
# a wide margin, so GCD takes the same path (7 evaluations) for every seed.
_PULL_CLUSTER = "pro-madrid"
_PULL_WORDS = 12


@dataclass(frozen=True)
class FixtureFiles:
    """Paths of one generated input set, relative names under a directory."""

    train: Path
    test: Path
    matrix: Path
    prompts: Path
    table: Path


def _read_lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, docs: list[dict]) -> None:
    path.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")


def _fixture_docs(fixtures: Path, split: str) -> list[dict]:
    return [json.loads(line) for line in _read_lines(fixtures / f"{split}.jsonl")]


def tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def write_fixture_inputs(fixtures: Path, out: Path, seed: int) -> FixtureFiles:
    """The bundled fixture, with the test lines in a seeded order.

    The documents, cluster matrix, prompt spec and mock table are the
    bundled ones. The train split keeps its order, so the SGD trajectory
    and with it the training work are the same for every seed.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    files = FixtureFiles(
        train=out / "train.jsonl",
        test=out / "test.jsonl",
        matrix=out / "matrix.json",
        prompts=out / "prompts.json",
        table=out / "mock_table.json",
    )
    lines = _read_lines(fixtures / "test.jsonl")
    rng.shuffle(lines)
    files.test.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    for name, path in (
        ("train.jsonl", files.train),
        ("matrix.json", files.matrix),
        ("prompts.json", files.prompts),
        ("mock_table.json", files.table),
    ):
        path.write_bytes((fixtures / name).read_bytes())
    return files


def write_steer_inputs(fixtures: Path, out: Path, seed: int) -> FixtureFiles:
    """Fixture splits plus a 27-combination prompt spec and its chat table.

    The spec is the fixture's three base phrases, the fixture slot, and a
    second slot of ``""`` plus two seeded phrases from fixture vocabulary.
    Each prompt's response is the fixture response for its base phrase
    followed by seeded pro-madrid words for every chosen non-empty phrase,
    so all 27 outputs differ while the shape of the search landscape, and
    with it the number of GCD evaluations, stays the same across seeds.
    """
    files = write_fixture_inputs(fixtures, out, seed)
    rng = random.Random(seed ^ 0x5EED)
    spec = json.loads((fixtures / "prompts.json").read_text(encoding="utf-8"))
    base_table = json.loads((fixtures / "mock_table.json").read_text(encoding="utf-8"))
    slot2 = [""] + rng.sample(_SLOT2_POOL, 2)
    spec["slots"] = [list(spec["slots"][0]), slot2]

    vocab = cluster_vocabulary(_fixture_docs(fixtures, "train"))
    pulls: dict[str, list[str]] = {}
    for slot in spec["slots"]:
        for phrase in slot[1:]:
            pulls[phrase] = rng.sample(vocab[_PULL_CLUSTER], _PULL_WORDS)

    table = {}
    joiner = spec["joiner"]
    for base in spec["base_phrases"]:
        for a in spec["slots"][0]:
            for b in spec["slots"][1]:
                prompt = joiner.join(p for p in (base, a, b) if p)
                words = [base_table[base]]
                for phrase in (a, b):
                    if phrase:
                        words.extend(pulls[phrase])
                table[prompt] = " ".join(words)
    _write_json(files.prompts, spec)
    _write_json(files.table, table)
    return files


def cluster_vocabulary(docs: list[dict]) -> dict[str, list[str]]:
    """Tokens of each cluster's documents, sorted, for seeded sampling."""
    vocab: dict[str, set[str]] = {c: set() for c in CLUSTERS}
    for doc in docs:
        vocab[doc["cluster"]].update(tokens(doc["text"]))
    return {c: sorted(v) for c, v in vocab.items()}


@dataclass(frozen=True)
class CorpusShape:
    train_per_cluster: int
    test_per_cluster: int
    dim: int
    extra_tokens: int


CORPUS_FULL = CorpusShape(train_per_cluster=60, test_per_cluster=20, dim=128, extra_tokens=1024)
CORPUS_TINY = CorpusShape(train_per_cluster=10, test_per_cluster=3, dim=16, extra_tokens=128)


CORPUS_ATTEMPTS = 10


def _pseudo_word(rng: random.Random) -> str:
    return "".join(rng.choice("bcdfghjklmnpqrstvwxz") + rng.choice("aeiou") for _ in range(3))


def write_corpus_inputs(
    fixtures: Path, out: Path, seed: int, shape: CorpusShape,
    accept: Callable[[list[str]], bool],
) -> tuple[FixtureFiles, dict]:
    """A synthetic three-cluster corpus with more documents than dimensions.

    Each document mixes words of its cluster's fixture vocabulary, words
    shared by all clusters, and seeded pseudo-words owned by the cluster,
    so the vocabulary exceeds ``shape.dim`` and the base-embedding
    covariance is full rank. The prompt spec and chat table are the
    steer-http ones for the same seed. A hashed bucket that no train
    document reaches leaves the covariance rank-deficient, so the train
    split is redrawn (deterministically) until ``accept`` takes its
    texts, at most CORPUS_ATTEMPTS times. Returns the files and a summary
    (N, d, vocabulary size, draws).
    """
    files = write_steer_inputs(fixtures, out, seed)
    rng = random.Random(seed)
    vocab = cluster_vocabulary(_fixture_docs(fixtures, "train"))
    shared = sorted(set.intersection(*(set(v) for v in vocab.values())))

    def make(split: str, per_cluster: int, owned: dict[str, list[str]]) -> list[dict]:
        docs = []
        for cluster in CLUSTERS:
            for i in range(per_cluster):
                words = (
                    rng.sample(vocab[cluster], rng.randint(4, 7))
                    + rng.sample(shared, rng.randint(1, 3))
                    + rng.sample(owned[cluster], rng.randint(8, 12))
                )
                rng.shuffle(words)
                docs.append(
                    {"id": f"{split}-{cluster}-{i}", "text": " ".join(words), "cluster": cluster}
                )
        rng.shuffle(docs)
        return docs

    for attempt in range(1, CORPUS_ATTEMPTS + 1):
        extra: set[str] = set()
        while len(extra) < shape.extra_tokens:
            extra.add(_pseudo_word(rng))
        extra_sorted = sorted(extra)
        rng.shuffle(extra_sorted)
        owned = {c: extra_sorted[i :: len(CLUSTERS)] for i, c in enumerate(CLUSTERS)}
        train_docs = make("train", shape.train_per_cluster, owned)
        if accept([d["text"] for d in train_docs]):
            break
    else:
        raise RuntimeError(f"no accepted corpus-dense train split in {CORPUS_ATTEMPTS} draws")
    test_docs = make("test", shape.test_per_cluster, owned)
    _write_jsonl(files.train, train_docs)
    _write_jsonl(files.test, test_docs)
    used = set()
    for doc in train_docs + test_docs:
        used.update(tokens(doc["text"]))
    summary = {"n_train": len(train_docs), "n_test": len(test_docs), "d": shape.dim, "vocabulary": len(used), "draws": attempt}
    return files, summary


def covariance(points: np.ndarray) -> np.ndarray:
    """Unbiased covariance of row vectors, symmetrised as ``fit_pca`` does."""
    centered = points - points.mean(axis=0)
    cov = (centered.T @ centered) / (points.shape[0] - 1)
    return (cov + cov.T) / 2.0
