"""Acceptance gate: every criterion below runs at its stated tolerance
and prints one PASS/FAIL line (visible with ``pytest -s`` or in captured
output). The synthetic corpus lives in tests/fixtures: 3 clusters x 5
short documents, hashed embedding backend at dimension 64.
"""

import functools
import math
import time

import numpy as np

from pdial.cli import main
from pdial.embedding import EmbeddingBackendConfig
from pdial.evaluation import cluster_similarity_report
from pdial.llm_client import LlmBackendConfig
from pdial.metric import (
    ProjectionModel,
    TrainConfig,
    generate_pairs,
    train,
)
from pdial.optimizer import (
    PerspectiveSpace,
    PromptAssignment,
    PromptSpec,
    brute_force_search,
    cluster_texts,
    gcd_search,
    render_prompt,
)
from pdial.pca import PcaModel, PerspectivePoint, fit_pca, jacobi_eigh

from conftest import (
    FIXTURES, FIXTURE_BACKEND, FIXTURE_TRAIN_CFG, loss_gradient,
)


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------


def _fd_gradient(W, a, b, y, cfg, h=1e-5):
    grad = np.zeros_like(W)
    for idx in np.ndindex(W.shape):
        Wp = W.copy()
        Wp[idx] += h
        Wm = W.copy()
        Wm[idx] -= h
        grad[idx] = (
            loss_gradient(ProjectionModel.from_weights(Wp), a, b, y, cfg)[0]
            - loss_gradient(ProjectionModel.from_weights(Wm), a, b, y, cfg)[0]
        ) / (2 * h)
    return grad


@criterion(1, "gradient correctness vs finite differences")
def test_criterion_1_gradients():
    started = time.monotonic()
    rng = np.random.default_rng(20240901)
    for loss_kind in ("cosine", "contrastive"):
        cfg = TrainConfig(loss_kind=loss_kind, margin_m=1.0)
        checked = 0
        while checked < 100:
            d_in = int(rng.integers(3, 9))
            d_out = int(rng.integers(2, 5))
            W = rng.normal(0, 1.0 / np.sqrt(d_in), size=(d_out, d_in))
            a = rng.normal(size=d_in)
            b = rng.normal(size=d_in)
            y = float(rng.uniform())
            if loss_kind == "contrastive":
                # keep finite differences away from the hinge kink
                d = np.linalg.norm(W @ (a - b))
                if abs(d - cfg.margin_m) < 0.05:
                    continue
            model = ProjectionModel.from_weights(W)
            _, analytic = loss_gradient(model, a, b, y, cfg)
            numeric = _fd_gradient(W, a, b, y, cfg)
            denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
            rel = np.linalg.norm(analytic - numeric) / denom
            assert rel < 1e-4, f"{loss_kind}: relative error {rel:.2e}"
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s, limit 10s"


# ---------------------------------------------------------------------------
# 2. Separation: diagonal dominance of the post-train report
# ---------------------------------------------------------------------------


@criterion(2, "post-train separation on the fixture")
def test_criterion_2_separation(
    fixture_train_docs, fixture_test_docs, fixture_matrix, fixture_train_embeddings
):
    started = time.monotonic()
    model, _ = train(
        fixture_train_docs, fixture_matrix, fixture_train_embeddings,
        FIXTURE_TRAIN_CFG,
    )
    report = cluster_similarity_report(
        fixture_train_docs, fixture_test_docs, model, FIXTURE_BACKEND
    )
    n = len(report.clusters)
    for i in range(n):
        diag = report.post_mean[i, i]
        for j in range(n):
            if j != i:
                assert diag > report.post_mean[i, j], (
                    f"row {report.clusters[i]}: diagonal {diag:.3f} not above "
                    f"off-diagonal {report.post_mean[i, j]:.3f}"
                )
        assert diag > report.pre_mean[i, i], (
            f"{report.clusters[i]}: post-train diagonal {diag:.3f} did not "
            f"improve on pre-train {report.pre_mean[i, i]:.3f}"
        )
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s, limit 60s"


# ---------------------------------------------------------------------------
# 3. Label scheme fidelity
# ---------------------------------------------------------------------------


@criterion(3, "pair labels follow the 1 / 0.35 / 0 scheme")
def test_criterion_3_label_scheme(fixture_train_docs, fixture_matrix):
    pairs = generate_pairs(fixture_train_docs, fixture_matrix, seed=7)
    labels = sorted({p.label_y for p in pairs})
    assert labels == [0.0, 0.35, 1.0]
    counts = {0.0: 0, 0.35: 0, 1.0: 0}
    for p in pairs:
        counts[p.label_y] += 1
    # closed form for 3 clusters x 5 documents:
    #   same-cluster 3 * C(5,2) = 30; center-vs-pole 2 * 5 * 5 = 50;
    #   pole-vs-pole 5 * 5 = 25; total C(15,2) = 105
    assert counts[1.0] == 30
    assert counts[0.35] == 50
    assert counts[0.0] == 25
    assert len(pairs) == 105


# ---------------------------------------------------------------------------
# 4. PCA oracle
# ---------------------------------------------------------------------------


@criterion(4, "Jacobi eigensolver matches reference within 1e-8")
def test_criterion_4_pca_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(4)
    for _ in range(20):
        X = rng.normal(size=(40, 6)) * rng.uniform(0.2, 3.0, size=6)
        C = X.T @ X / (X.shape[0] - 1)
        C = (C + C.T) / 2.0
        eigvals, eigvecs = jacobi_eigh(C)
        ref_vals, ref_vecs = np.linalg.eigh(C)
        np.testing.assert_allclose(eigvals, ref_vals[::-1], atol=1e-8)
        np.testing.assert_allclose(
            eigvecs @ eigvecs.T, np.eye(6), atol=1e-8
        )
        for i in range(6):
            overlap = abs(np.dot(eigvecs[i], ref_vecs[:, ::-1][:, i]))
            assert overlap > 1.0 - 1e-8
        assert abs(eigvals.sum() - np.trace(C)) < 1e-8
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.1f}s, limit 5s"


# ---------------------------------------------------------------------------
# 5. Search optimality on 27 combinations
# ---------------------------------------------------------------------------


def _fnv_oracle(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _search_world(losses: dict[tuple[int, int, int], float]):
    """Mock world whose loss for each of the 27 assignments is exactly the
    table value: each assignment answers with a unique single token whose
    one-hot embedding is placed at distance losses[combo] from the target."""
    dim = 64
    spec = PromptSpec(
        base_phrases=("ask alpha", "ask beta", "ask gamma"),
        slots=(("tone calm", "tone sharp", "tone warm"),
               ("len short", "len medium", "len long")),
    )
    tokens, used = [], set()
    i = 0
    while len(tokens) < 27:
        tok = f"resp{i}"
        idx = _fnv_oracle(tok.encode()) % dim
        if idx not in used:
            used.add(idx)
            tokens.append((tok, idx))
        i += 1
    spare = [j for j in range(dim) if j not in used][:2]
    c0 = np.zeros(dim)
    c1 = np.zeros(dim)
    table = {}
    for combo, (tok, idx) in zip(sorted(losses), tokens):
        c0[idx] = losses[combo]
        prompt = render_prompt(
            spec, PromptAssignment(base_index=combo[0], choices=combo[1:])
        )
        table[prompt] = tok
    c0[spare[0]] = math.sqrt(1.0 - float(np.sum(c0**2)))
    c1[spare[1]] = 1.0
    proj = ProjectionModel.from_weights(np.eye(dim))
    pca = PcaModel(
        mean=np.zeros(dim),
        components=np.vstack([c0, c1]),
        explained_variance=np.array([1.0, 0.5]),
    )
    return (
        spec,
        PerspectivePoint(0.0, 0.0),
        PerspectiveSpace(
            proj, pca, EmbeddingBackendConfig(kind="hashed", dimension=dim)
        ),
        LlmBackendConfig(kind="mock", mock_table=table),
    )


def _assert_monotone_best(trace):
    best = math.inf
    for ev in trace.evaluations:
        assert min(best, ev.loss) <= best
        best = min(best, ev.loss)


@criterion(5, "brute force and GCD search optimality on 27 combinations")
def test_criterion_5_search_optimality():
    started = time.monotonic()

    # non-separable general instance for brute force
    rng = np.random.default_rng(5)
    general = {
        (b, s1, s2): round(float(rng.uniform(0.01, 0.15)), 4)
        for b in range(3) for s1 in range(3) for s2 in range(3)
    }
    spec, target, space, llm = _search_world(general)
    trace = brute_force_search(spec, target, space, llm)
    assert len(trace.evaluations) == 27
    # hand enumeration: independent argmin over the loss table
    oracle_best = min(general, key=lambda k: (general[k], k))
    got = trace.best_evaluation.assignment
    assert (got.base_index, *got.choices) == oracle_best
    for ev in trace.evaluations:
        key = (ev.assignment.base_index, *ev.assignment.choices)
        assert ev.loss == general[key]
    _assert_monotone_best(trace)

    # additively separable variant: GCD must reach the brute-force argmin
    g0, g1, g2 = [0.05, 0.02, 0.03], [0.011, 0.007, 0.013], [0.004, 0.009, 0.001]
    separable = {
        (b, s1, s2): g0[b] + g1[s1] + g2[s2]
        for b in range(3) for s1 in range(3) for s2 in range(3)
    }
    spec, target, space, llm = _search_world(separable)
    brute = brute_force_search(spec, target, space, llm)
    gcd = gcd_search(spec, target, space, llm)
    assert gcd.best_evaluation.assignment == brute.best_evaluation.assignment
    assert len(gcd.evaluations) <= 27
    _assert_monotone_best(brute)
    _assert_monotone_best(gcd)

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.1f}s, limit 5s"


# ---------------------------------------------------------------------------
# 6. Cluster-targeted searches select the matching base query
# ---------------------------------------------------------------------------


@criterion(6, "each cluster-centroid target selects its base phrase, 3/3")
def test_criterion_6_correct_phrase(
    fixture_train_docs, fixture_matrix, fixture_train_embeddings
):
    from pdial.persistence import load_mock_table, load_prompt_spec

    model, _ = train(
        fixture_train_docs, fixture_matrix, fixture_train_embeddings,
        FIXTURE_TRAIN_CFG,
    )
    pca = fit_pca([model.W @ e for e in fixture_train_embeddings])
    spec = load_prompt_spec(FIXTURES / "prompts.json")
    llm = LlmBackendConfig(
        kind="mock", mock_table=load_mock_table(FIXTURES / "mock_table.json")
    )
    space = PerspectiveSpace(model, pca, FIXTURE_BACKEND)
    cluster_to_base = {"pro-madrid": 0, "neutral": 1, "pro-barca": 2}
    hits = 0
    for cluster, base_index in cluster_to_base.items():
        target = cluster_texts(fixture_train_docs, cluster)
        trace = brute_force_search(spec, target, space, llm)
        if trace.best_evaluation.assignment.base_index == base_index:
            hits += 1
    assert hits == 3, f"only {hits}/3 targets selected the matching base phrase"


# ---------------------------------------------------------------------------
# 7. Determinism: byte-identical artifacts on repeated runs
# ---------------------------------------------------------------------------


def _run_pipeline(workdir):
    model = str(workdir / "model.json")
    pca = str(workdir / "pca.json")
    argv_common = ["--dim", "64"]
    assert main([
        "train",
        "--data", str(FIXTURES / "train.jsonl"),
        "--matrix", str(FIXTURES / "matrix.json"),
        "--loss", "contrastive", "--margin", "1.0",
        "--lr", "0.05", "--epochs", "50", "--seed", "7",
        "--out", model, "--pca-out", pca, *argv_common,
    ]) == 0
    assert main([
        "eval",
        "--model", model,
        "--train", str(FIXTURES / "train.jsonl"),
        "--test", str(FIXTURES / "test.jsonl"),
        "--out-json", str(workdir / "report.json"),
        "--out-text", str(workdir / "report.txt"), *argv_common,
    ]) == 0
    assert main([
        "optimize",
        "--model", model, "--pca", pca,
        "--prompts", str(FIXTURES / "prompts.json"),
        "--mode", "brute", "--llm", "mock",
        "--mock-table", str(FIXTURES / "mock_table.json"),
        "--target-cluster", "pro-madrid",
        "--data", str(FIXTURES / "train.jsonl"),
        "--out-trace", str(workdir / "trace.jsonl"), *argv_common,
    ]) == 0
    assert main([
        "plot",
        "--pca", pca, "--model", model,
        "--data", str(FIXTURES / "train.jsonl"),
        "--trace", str(workdir / "trace.jsonl"),
        "--out", str(workdir / "plot.svg"), *argv_common,
    ]) == 0


@criterion(7, "repeated runs give byte-identical artifacts")
def test_criterion_7_determinism(tmp_path):
    from pdial.persistence import save_trace

    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    _run_pipeline(run_a)
    _run_pipeline(run_b)
    for name in (
        "model.json",
        "model.log.json",
        "pca.json",
        "report.json",
        "report.txt",
        "trace.jsonl",
        "plot.svg",
    ):
        a = (run_a / name).read_bytes()
        b = (run_b / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"

    # criterion-5 world traces are byte-stable too
    rng = np.random.default_rng(5)
    general = {
        (b, s1, s2): round(float(rng.uniform(0.01, 0.15)), 4)
        for b in range(3) for s1 in range(3) for s2 in range(3)
    }
    spec, target, space, llm = _search_world(general)
    for name in ("t1.jsonl", "t2.jsonl"):
        trace = gcd_search(spec, target, space, llm)
        save_trace(tmp_path / name, trace)
    assert (tmp_path / "t1.jsonl").read_bytes() == (tmp_path / "t2.jsonl").read_bytes()
