"""The fixture recipe, run end to end in process, against the values
committed in ``tests/fixtures/recipe_expected.json``.

The recipe trains at ``--dim`` 64 and 768, square and ``--d-out 8``
(``train --epochs 5 --lr 0.05 --seed 7 --pca-out --log-out``), and runs
``eval``, ``optimize`` gcd and brute (``--samples-n 2 --target-cluster
pro-barca --llm mock --mock-table``) and ``plot --data --trace`` on each
model. Discrete content must match exactly: each trace's evaluation
order, prompts, outputs and best index, the report's cluster order, the
training log's counts and each SVG's element count. Each float array
must lie within ``REL_TOL`` times its largest |entry| of the expected
one: the PCA's mean, components and variances, the trace points, targets
and losses, the report's means and stds and the training log's losses.
The model files are left out: every value above depends on them.

A change meant to move these values regenerates the file with
``PYTHONPATH=src python tests/fixtures/make_recipe_expected.py`` and
says in CHANGES.md which values moved.
"""

import contextlib
import io
import json
from pathlib import Path
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from pdial.cli import main
from pdial.persistence import load_pca

FIXTURES = Path(__file__).parent / "fixtures"
EXPECTED = FIXTURES / "recipe_expected.json"
# name -> (--dim, --d-out or None for square)
SHAPES = {
    "d64": (64, None), "d64-d8": (64, 8), "d768": (768, None), "d768-d8": (768, 8),
}
MODES = ("gcd", "brute")
REL_TOL = 1e-12


def _run(*argv: object) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    if code != 0:
        raise AssertionError(f"pdial {argv[0]} exited {code}")


def _trace(path: Path) -> tuple[dict, dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    *evaluations, summary = (json.loads(line) for line in lines)
    exact = {
        "assignments": [
            [ev["assignment"]["base_index"], *ev["assignment"]["choices"]]
            for ev in evaluations
        ],
        "prompts": [ev["prompt"] for ev in evaluations],
        "outputs": [ev["outputs"] for ev in evaluations],
        "best_index": summary["best_index"],
    }
    close = {
        "points": [ev["point"] for ev in evaluations],
        "losses": [ev["loss"] for ev in evaluations],
        "target": summary["target"],
    }
    return exact, close


def _summary(prefix: Path) -> dict:
    """What the expected file holds for one trained shape."""
    log = json.loads(Path(f"{prefix}.log.json").read_text(encoding="utf-8"))
    report = json.loads(Path(f"{prefix}.report.json").read_text(encoding="utf-8"))
    pca = load_pca(f"{prefix}.pca")
    exact = {
        "report_clusters": report["clusters"],
        "log_pair_count": log["pair_count"],
        "log_skipped_pairs": log["epoch_skipped_pairs"],
    }
    close = {
        "pca_mean": pca.mean.tolist(),
        "pca_components": pca.components.tolist(),
        "pca_explained_variance": pca.explained_variance.tolist(),
        "log_epoch_mean_loss": log["epoch_mean_loss"],
        **{
            f"report_{stage}_{stat}": report[stage][stat]
            for stage in ("pre", "post") for stat in ("mean", "std")
        },
    }
    for mode in MODES:
        trace_exact, trace_close = _trace(Path(f"{prefix}.{mode}.trace"))
        exact[f"{mode}_trace"] = trace_exact
        close.update({f"{mode}_{key}": value for key, value in trace_close.items()})
        svg = ET.parse(f"{prefix}.{mode}.svg").getroot()
        exact[f"{mode}_svg_elements"] = sum(1 for _ in svg.iter())
    return {"exact": exact, "close": close}


def run_recipe(out: Path) -> dict:
    """Run the recipe into the directory ``out``; returns each shape's
    summary, the content of the expected file."""
    data, test_data = FIXTURES / "train.jsonl", FIXTURES / "test.jsonl"
    summaries = {}
    for name, (dim, d_out) in SHAPES.items():
        prefix = out / name
        model, pca = f"{prefix}.model", f"{prefix}.pca"
        width = ["--dim", dim]
        _run(
            "train", "--data", data, "--matrix", FIXTURES / "matrix.json",
            "--out", model, "--log-out", f"{prefix}.log.json", "--pca-out", pca,
            "--epochs", 5, "--lr", 0.05, "--seed", 7, *width,
            *([] if d_out is None else ["--d-out", d_out]),
        )
        _run(
            "eval", "--model", model, "--train", data, "--test", test_data,
            "--out-json", f"{prefix}.report.json",
            "--out-text", f"{prefix}.report.txt", *width,
        )
        for mode in MODES:
            trace = f"{prefix}.{mode}.trace"
            _run(
                "optimize", "--model", model, "--pca", pca,
                "--prompts", FIXTURES / "prompts.json", "--mode", mode,
                "--target-cluster", "pro-barca", "--data", data,
                "--out-trace", trace, "--samples-n", 2, "--llm", "mock",
                "--mock-table", FIXTURES / "mock_table.json", *width,
            )
            _run(
                "plot", "--pca", pca, "--model", model, "--data", data,
                "--trace", trace, "--out", f"{prefix}.{mode}.svg", *width,
            )
        summaries[name] = _summary(prefix)
    return summaries


@pytest.fixture(scope="module")
def recipe(tmp_path_factory):
    """(got, expected) summaries of the recipe, run once for the module."""
    got = run_recipe(tmp_path_factory.mktemp("recipe"))
    return got, json.loads(EXPECTED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("shape", SHAPES)
def test_discrete_content_is_exact(recipe, shape):
    got, expected = recipe
    assert got[shape]["exact"] == expected[shape]["exact"]


@pytest.mark.parametrize("shape", SHAPES)
def test_floats_within_the_tolerance_of_each_array(recipe, shape):
    got, expected = recipe
    have, want = got[shape]["close"], expected[shape]["close"]
    assert have.keys() == want.keys()
    for key in want:
        a, b = np.array(have[key]), np.array(want[key])
        assert a.shape == b.shape, key
        bound = REL_TOL * np.abs(b).max()
        worst = np.abs(a - b).max()
        assert worst <= bound, f"{shape} {key}: off by {worst:.3g}, bound {bound:.3g}"
