"""Command-line driver for the full pipeline.

Subcommands: ``train`` (fit the projection head, optionally fit the PCA
reduction), ``eval`` (cluster similarity report), ``optimize`` (prompt
search toward a target point), ``plot`` (SVG scatter of the perspective
space). Exit codes: 0 success, 2 usage/config errors, 3 numeric or
protocol failures.

Each command imports the modules it uses when it runs, so a run loads
only what its command needs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigurationError, InputValidationError, PdialError
from .metric import TrainConfig, train

if TYPE_CHECKING:
    from .embedding import EmbeddingBackendConfig
    from .llm_client import LlmBackendConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _add_embedding_flags(parser: argparse.ArgumentParser) -> None:
    from . import _http
    from .embedding import EmbeddingBackendConfig

    cfg = EmbeddingBackendConfig()
    group = parser.add_argument_group("embedding backend")
    group.add_argument(
        "--embedding", choices=["hashed", "http"], default=cfg.kind,
        help="embedding backend kind (default: hashed, offline)",
    )
    group.add_argument("--embedding-url", default="", help="http endpoint URL")
    group.add_argument("--embedding-model", default="", help="http model name")
    group.add_argument(
        "--dim", type=int, default=cfg.dimension,
        help=f"embedding dimension (default: {cfg.dimension})",
    )
    group.add_argument("--batch-size", type=int, default=cfg.batch_size)
    group.add_argument("--timeout", type=float, default=cfg.timeout)
    group.add_argument(
        "--fan-out", type=int, default=_http.DEFAULT_FAN_OUT,
        help="max concurrent backend requests (shared limit)",
    )


def _embedding_cfg(args: argparse.Namespace) -> EmbeddingBackendConfig:
    from . import _http
    from .embedding import EmbeddingBackendConfig

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
    from . import persistence
    from .llm_client import LlmBackendConfig

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


def _check_paths(inputs: list[str], outputs: list[str]) -> None:
    """Refuse an output that resolves to another output or to an input,
    so that a command never writes over its own files; a blank path is a
    flag not given."""
    seen = {os.path.realpath(p): f"input {p}" for p in inputs if p}
    for path in filter(None, outputs):
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigurationError(
                f"output {path} and {seen[real]} are the same file"
            )
        seen[real] = f"output {path}"


def cmd_train(args: argparse.Namespace) -> int:
    from . import persistence
    from .embedding import embed_batch

    if args.pca_data and not args.pca_out:
        raise ConfigurationError("--pca-data needs --pca-out")
    log_path = args.log_out or str(Path(args.out).with_suffix(".log.json"))
    _check_paths(
        [args.data, args.matrix, *args.pca_data], [args.out, log_path, args.pca_out]
    )
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
    # Fit before the first write, so a PCA that cannot be fit leaves no files.
    pca = None
    if args.pca_out:
        from .pca import fit_pca

        pca = fit_pca([model.project(e) for e in embeddings])
    persistence.save_model(args.out, model, cfg)
    persistence.save_train_log(log_path, log)
    print(f"model written to {args.out}, training log to {log_path}")

    if pca is not None:
        persistence.save_pca(args.pca_out, pca)
        print(f"pca written to {args.pca_out}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    from . import persistence
    from .evaluation import cluster_similarity_report, render_report_text

    _check_paths([args.model, args.train, args.test], [args.out_json, args.out_text])
    backend_cfg = _embedding_cfg(args)
    model, _ = persistence.load_model(args.model)
    train_docs = persistence.load_dataset(args.train)
    test_docs = persistence.load_dataset(args.test)
    report = cluster_similarity_report(train_docs, test_docs, model, backend_cfg)
    persistence.save_report(args.out_json, report)
    text = render_report_text(report)
    persistence.write_text_atomic(args.out_text, text)
    print(text, end="")
    return EXIT_OK


def _check_target_flags(args: argparse.Namespace) -> None:
    """Reject a target given twice, or in part, and a --data nothing reads."""
    xy = (args.target_x, args.target_y)
    if args.target_cluster:
        if xy != (None, None):
            raise ConfigurationError(
                "give either --target-cluster or --target-x and --target-y, "
                "not both"
            )
        if not args.data:
            raise ConfigurationError(
                "--target-cluster needs --data to compute the centroid"
            )
    elif None in xy:
        raise ConfigurationError(
            "give either --target-cluster or both --target-x and --target-y"
        )
    elif args.data:
        raise ConfigurationError("--data is read only with --target-cluster")


def cmd_optimize(args: argparse.Namespace) -> int:
    from . import persistence
    from .optimizer import (
        PerspectiveSpace,
        brute_force_search,
        cluster_texts,
        gcd_search,
    )
    from .pca import PerspectivePoint

    if args.mode == "brute" and args.max_sweeps is not None:
        raise ConfigurationError("--max-sweeps is read only with --mode gcd")
    if args.mock_table and args.llm != "mock":
        raise ConfigurationError("--mock-table is read only with --llm mock")
    _check_target_flags(args)
    _check_paths(
        [args.model, args.pca, args.prompts, args.data, args.mock_table],
        [args.out_trace],
    )
    backend_cfg = _embedding_cfg(args)
    llm_cfg = _llm_cfg(args)
    model, _ = persistence.load_model(args.model)
    pca = persistence.load_pca(args.pca)
    spec = persistence.load_prompt_spec(args.prompts)
    space = PerspectiveSpace(model, pca, backend_cfg)
    if args.target_cluster:
        # the search embeds the cluster's texts with its first batch
        dataset = persistence.load_dataset(args.data)
        target = cluster_texts(dataset, args.target_cluster)
    else:
        target = PerspectivePoint(x=args.target_x, y=args.target_y)

    if args.mode == "brute":
        trace = brute_force_search(spec, target, space, llm_cfg)
    elif args.max_sweeps is None:
        trace = gcd_search(spec, target, space, llm_cfg)
    else:
        trace = gcd_search(spec, target, space, llm_cfg, max_sweeps=args.max_sweeps)
    persistence.save_trace(args.out_trace, trace)
    best = trace.best_evaluation
    print(f"best prompt: {best.prompt}")
    print(f"best loss: {best.loss:.6f} over {len(trace.evaluations)} evaluations")
    return EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    from . import persistence
    from .optimizer import PerspectiveSpace
    from .pca import PerspectivePoint
    from .plotting import PointGroup, render_scatter_svg

    if (args.target_x is None) != (args.target_y is None):
        raise ConfigurationError("give both --target-x and --target-y, or neither")
    if args.model and not args.data:
        raise ConfigurationError("--model is read only with --data")
    if args.data and not args.model:
        raise ConfigurationError("--data needs --model to project documents")
    if not (args.data or args.trace):
        raise ConfigurationError("nothing to plot: give --data and/or --trace")
    _check_paths([args.pca, args.model, args.data, args.trace], [args.out])
    backend_cfg = _embedding_cfg(args)
    pca = persistence.load_pca(args.pca)
    groups: list[PointGroup] = []
    target = None
    path_points = None

    if args.data:
        model, _ = persistence.load_model(args.model)
        dataset = persistence.load_dataset(args.data)
        points = PerspectiveSpace(model, pca, backend_cfg).points(
            [d.text for d in dataset]
        )
        by_cluster: dict[str, list] = {}
        for doc, point in zip(dataset, points):
            by_cluster.setdefault(doc.cluster, []).append(point)
        for cluster, points in by_cluster.items():
            groups.append(PointGroup(label=cluster, points=tuple(points)))

    if args.trace:
        trace = persistence.load_trace(args.trace)
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
        target = trace.target
        path_points = [trace.evaluations[i].point for i in trace.improvements]

    if args.target_x is not None:
        target = PerspectivePoint(x=args.target_x, y=args.target_y)

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
    cfg = TrainConfig()
    p_train.add_argument(
        "--loss", choices=["cosine", "contrastive"], default=cfg.loss_kind
    )
    p_train.add_argument("--margin", type=float, default=cfg.margin_m)
    p_train.add_argument("--lr", type=float, default=cfg.learning_rate)
    p_train.add_argument("--epochs", type=int, default=cfg.epochs)
    p_train.add_argument("--seed", type=int, default=cfg.seed)
    p_train.add_argument(
        "--binarize-threshold", type=float, default=cfg.binarize_threshold
    )
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
    p_opt.add_argument(
        "--max-sweeps", type=int,
        help="GCD sweep limit (default: 10)",
    )
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
    except PdialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ConfigurationError, InputValidationError)):
            return EXIT_CONFIG
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
