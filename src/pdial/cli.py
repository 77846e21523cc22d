"""Command-line driver for the full pipeline.

Subcommands: ``train`` (fit the projection head, optionally fit the PCA
reduction), ``eval`` (cluster similarity report), ``optimize`` (prompt
search toward a target point), ``plot`` (SVG scatter of the perspective
space). Exit codes: 0 success, 2 usage/config errors, 3 numeric or
protocol failures.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import _http, persistence
from .embedding import EmbeddingBackendConfig, embed_batch
from .errors import (
    BackendError,
    ConfigurationError,
    InputValidationError,
    NumericError,
    PdialError,
    ProtocolError,
)
from .evaluation import cluster_similarity_report, render_report_text
from .llm_client import LlmBackendConfig
from .metric import TrainConfig, train
from .optimizer import (
    brute_force_search,
    cluster_centroid,
    gcd_search,
    perspective_points,
)
from .pca import PerspectivePoint, fit_pca
from .plotting import PointGroup, render_scatter_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _add_embedding_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("embedding backend")
    group.add_argument(
        "--embedding", choices=["hashed", "http"], default="hashed",
        help="embedding backend kind (default: hashed, offline)",
    )
    group.add_argument("--embedding-url", default="", help="http endpoint URL")
    group.add_argument("--embedding-model", default="", help="http model name")
    group.add_argument(
        "--dim", type=int, default=768,
        help="embedding dimension (default: 768)",
    )
    group.add_argument("--batch-size", type=int, default=32)
    group.add_argument("--timeout", type=float, default=30.0)
    group.add_argument(
        "--fan-out", type=int, default=4,
        help="max concurrent backend requests (shared limit)",
    )


def _embedding_cfg(args: argparse.Namespace) -> EmbeddingBackendConfig:
    _http.set_fan_out(args.fan_out)
    return EmbeddingBackendConfig(
        kind=args.embedding,
        endpoint_url=args.embedding_url,
        model_name=args.embedding_model,
        dimension=args.dim,
        batch_size=args.batch_size,
        timeout=args.timeout,
    )


def _add_llm_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("llm backend")
    group.add_argument(
        "--llm", choices=["mock", "http"], default="mock",
        help="llm backend kind (default: mock, offline)",
    )
    group.add_argument("--llm-url", default="")
    group.add_argument("--llm-model", default="")
    group.add_argument("--mock-table", default="", help="mock table JSON path")
    group.add_argument("--temperature", type=float, default=0.0)
    group.add_argument("--samples-n", type=int, default=1)
    group.add_argument(
        "--llm-timeout", type=float, default=60.0,
        help="seconds per http llm request (default: 60)",
    )


def _llm_cfg(args: argparse.Namespace) -> LlmBackendConfig:
    return LlmBackendConfig(
        kind=args.llm,
        endpoint_url=args.llm_url,
        model_name=args.llm_model,
        temperature=args.temperature,
        samples_n=args.samples_n,
        timeout=args.llm_timeout,
        mock_table=(
            persistence.load_mock_table(args.mock_table)
            if args.mock_table
            else None
        ),
    )


def cmd_train(args: argparse.Namespace) -> int:
    if args.pca_data and not args.pca_out:
        raise ConfigurationError("--pca-data needs --pca-out")
    backend_cfg = _embedding_cfg(args)
    cfg = TrainConfig(
        loss_kind=args.loss,
        margin_m=args.margin,
        learning_rate=args.lr,
        epochs=args.epochs,
        seed=args.seed,
        binarize_threshold=args.binarize_threshold,
    )
    dataset = persistence.load_dataset(args.data)
    matrix = persistence.load_matrix(args.matrix)
    docs = list(dataset)
    for extra in args.pca_data:
        docs.extend(persistence.load_dataset(extra))
    embeddings = embed_batch([d.text for d in docs], backend_cfg)
    model, log = train(
        dataset, matrix, embeddings[: len(dataset)], cfg, d_out=args.d_out
    )
    persistence.save_model(args.out, model, cfg)
    log_path = args.log_out or str(Path(args.out).with_suffix(".log.json"))
    persistence.save_train_log(log_path, log)
    print(f"model written to {args.out}, training log to {log_path}")

    if args.pca_out:
        pca = fit_pca([model.W @ e for e in embeddings])
        persistence.save_pca(args.pca_out, pca)
        print(f"pca written to {args.pca_out}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    backend_cfg = _embedding_cfg(args)
    model, _ = persistence.load_model(args.model)
    train_docs = persistence.load_dataset(args.train)
    test_docs = persistence.load_dataset(args.test)
    report = cluster_similarity_report(train_docs, test_docs, model, backend_cfg)
    persistence.save_report(args.out_json, report)
    persistence.save_report_text(args.out_text, report)
    print(render_report_text(report), end="")
    return EXIT_OK


def _resolve_target(
    args: argparse.Namespace, model, pca, backend_cfg
) -> PerspectivePoint:
    if args.target_cluster:
        if not args.data:
            raise ConfigurationError(
                "--target-cluster needs --data to compute the centroid"
            )
        dataset = persistence.load_dataset(args.data)
        return cluster_centroid(
            dataset, args.target_cluster, model, pca, backend_cfg
        )
    if args.target_x is None or args.target_y is None:
        raise ConfigurationError(
            "give either --target-cluster or both --target-x and --target-y"
        )
    return PerspectivePoint(x=args.target_x, y=args.target_y)


def cmd_optimize(args: argparse.Namespace) -> int:
    backend_cfg = _embedding_cfg(args)
    llm_cfg = _llm_cfg(args)
    model, _ = persistence.load_model(args.model)
    pca = persistence.load_pca(args.pca)
    spec = persistence.load_prompt_spec(args.prompts)
    target = _resolve_target(args, model, pca, backend_cfg)

    if args.mode == "brute":
        trace = brute_force_search(spec, target, model, pca, llm_cfg, backend_cfg)
    else:
        trace = gcd_search(
            spec, target, model, pca, llm_cfg, backend_cfg,
            max_sweeps=args.max_sweeps,
        )
    persistence.save_trace(args.out_trace, trace, args.mode, target)
    best = trace.best_evaluation
    print(f"best prompt: {best.prompt}")
    print(f"best loss: {best.loss:.6f} over {len(trace.evaluations)} evaluations")
    return EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    if (args.target_x is None) != (args.target_y is None):
        raise ConfigurationError("give both --target-x and --target-y, or neither")
    backend_cfg = _embedding_cfg(args)
    pca = persistence.load_pca(args.pca)
    groups: list[PointGroup] = []
    target = None
    path_points = None

    if args.data:
        if not args.model:
            raise ConfigurationError("--data needs --model to project documents")
        model, _ = persistence.load_model(args.model)
        dataset = persistence.load_dataset(args.data)
        if not dataset:
            raise ConfigurationError(f"{args.data}: dataset is empty")
        points = perspective_points(
            [d.text for d in dataset], model, pca, backend_cfg
        )
        by_cluster: dict[str, list] = {}
        for doc, point in zip(dataset, points):
            by_cluster.setdefault(doc.cluster, []).append(point)
        for cluster, points in by_cluster.items():
            groups.append(PointGroup(label=cluster, points=tuple(points)))

    if args.trace:
        trace, summary = persistence.load_trace(args.trace)
        by_base: dict[int, list] = {}
        for ev in trace.evaluations:
            by_base.setdefault(ev.assignment.base_index, []).append(ev.point)
        for base_index in sorted(by_base):
            groups.append(
                PointGroup(
                    label=f"base[{base_index}]",
                    points=tuple(by_base[base_index]),
                )
            )
        if summary.get("target"):
            target = PerspectivePoint(
                x=float(summary["target"][0]), y=float(summary["target"][1])
            )
        best_so_far = float("inf")
        path = []
        for ev in trace.evaluations:
            if ev.loss < best_so_far:
                best_so_far = ev.loss
                path.append(ev.point)
        path_points = path

    if args.target_x is not None:
        target = PerspectivePoint(x=args.target_x, y=args.target_y)

    if not groups:
        raise ConfigurationError(
            "nothing to plot: give --data and/or --trace"
        )
    svg = render_scatter_svg(groups, target=target, path_points=path_points)
    persistence.write_text_atomic(args.out, svg)
    print(f"plot written to {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``pdial`` parser, built once per process.

    Building it leaves cyclic garbage (argparse makes a help formatter
    per argument) that the collector frees whenever it next runs, often
    in the middle of a later command, amid the freed d x d matrices; that
    moved the peak RSS of a process running many commands by about 5 MB
    from one run to the next. Parsing does not change the parser.
    """
    parser = argparse.ArgumentParser(
        prog="pdial",
        description="Perspective metric training and LLM output steering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train the projection head")
    p_train.add_argument("--data", required=True, help="training JSONL")
    p_train.add_argument("--matrix", required=True, help="cluster matrix JSON")
    p_train.add_argument("--out", required=True, help="model output path")
    p_train.add_argument("--log-out", default="", help="training log path")
    p_train.add_argument(
        "--loss", choices=["cosine", "contrastive"], default="contrastive"
    )
    p_train.add_argument("--margin", type=float, default=1.0)
    p_train.add_argument("--lr", type=float, default=0.01)
    p_train.add_argument("--epochs", type=int, default=10)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--binarize-threshold", type=float, default=0.5)
    p_train.add_argument(
        "--d-out", type=int, default=None,
        help="projection output dimension (default: same as --dim)",
    )
    p_train.add_argument(
        "--pca-out", default="",
        help="also fit the 2-D PCA on the projected corpus and write it here",
    )
    p_train.add_argument(
        "--pca-data", action="append", default=[],
        help="extra JSONL file(s) to include in the PCA fit",
    )
    _add_embedding_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="cluster similarity report")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--train", required=True, help="train split JSONL")
    p_eval.add_argument("--test", required=True, help="test split JSONL")
    p_eval.add_argument("--out-json", required=True)
    p_eval.add_argument("--out-text", required=True)
    _add_embedding_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_opt = sub.add_parser("optimize", help="prompt search toward a target")
    p_opt.add_argument("--model", required=True)
    p_opt.add_argument("--pca", required=True)
    p_opt.add_argument("--prompts", required=True, help="prompt spec JSON")
    p_opt.add_argument("--mode", choices=["gcd", "brute"], default="gcd")
    p_opt.add_argument("--target-x", type=float, default=None)
    p_opt.add_argument("--target-y", type=float, default=None)
    p_opt.add_argument("--target-cluster", default="")
    p_opt.add_argument(
        "--data", default="",
        help="training JSONL (for --target-cluster centroids)",
    )
    p_opt.add_argument("--out-trace", required=True, help="trace JSONL path")
    p_opt.add_argument("--max-sweeps", type=int, default=10)
    _add_llm_flags(p_opt)
    _add_embedding_flags(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_plot = sub.add_parser("plot", help="SVG scatter of perspective space")
    p_plot.add_argument("--pca", required=True)
    p_plot.add_argument("--model", default="")
    p_plot.add_argument("--data", default="", help="dataset JSONL to plot")
    p_plot.add_argument("--trace", default="", help="trace JSONL to plot")
    p_plot.add_argument("--target-x", type=float, default=None)
    p_plot.add_argument("--target-y", type=float, default=None)
    p_plot.add_argument("--out", required=True, help="SVG output path")
    _add_embedding_flags(p_plot)
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, InputValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, ProtocolError, BackendError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PdialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
