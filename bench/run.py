"""Benchmark of the pdial CLI on three seeded workloads.

Run from the repository root::

    python3 bench/run.py --workload fixture-d768 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each workload runs ``pdial train --pca-out``, ``eval`` and ``optimize``
(gcd and brute) in process through ``pdial.cli.main`` on inputs generated
from ``--seed`` (see ``bench/workloads.py``), checks every output, and
prints each metric by name and unit. The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: end-to-end
metrics with ``--trace 0``, per-layer metrics from wrapped pdial
functions with ``--trace 1``. Full results, the environment and (when
tracing) the spans go to ``bench/results/``. ``--workload all`` runs
every workload in its own fresh process. ``BENCHMARK.json`` lists
fixture-d768 and steer-http; corpus-dense runs on request, as the
regime check for changes that exploit N << d.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("fixture-d768", "corpus-dense", "steer-http")
SETUP_REPEATS = 7
MIN_SAMPLES = 2
SAMPLE_FLOOR_S = 0.5  # least time a sample is charged when stages share a run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 900

# numpy, pdial and the bench modules that import them are imported inside
# functions: the thread caps and the path to this checkout's sources must
# be in place first.


def cap_threads() -> None:
    """Run BLAS/OpenMP on one thread, which is at most nproc.

    The benchmark's matrices are at most 768 wide: a second BLAS thread
    only adds hand-offs there, and on a 2-vCPU host its spinning made
    stage times swing by a third between runs. Must run before numpy is
    imported.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def prepare_imports() -> None:
    """Put this checkout's ``src`` first on the path; exit if it is missing."""
    if not (ROOT / "src" / "pdial" / "__init__.py").is_file():
        sys.exit(f"error: no pdial sources under {ROOT / 'src'}; run from a full checkout")
    if not (ROOT / "tests" / "fixtures" / "train.jsonl").is_file():
        sys.exit(f"error: bundled fixtures missing under {ROOT / 'tests' / 'fixtures'}")
    for path in (str(ROOT), str(ROOT / "src")):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)


def summarize(values: list[float]) -> dict:
    """The median (the reported value), the fastest sample, and the
    highest of p99/p95/p90/p75 that has at least ten samples beyond it
    (else the maximum), with the count and the samples."""
    ordered = sorted(values)
    n = len(ordered)
    out: dict = {"min": ordered[0], "median": statistics.median(ordered), "count": n}
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            out[f"p{q}"] = ordered[min(n - 1, int(n * q / 100))]
            break
    else:
        out["max"] = ordered[-1]
    out["samples"] = values
    return out


def cpu_time() -> float:
    """CPU seconds of this process and of its waited-for children."""
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def environment() -> dict:
    import numpy as np

    rev = "unknown"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or rev
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_rev": rev,
    }


class Run:
    """One workload in this process: set-up, measured stages, checks."""

    def __init__(self, workload: str, seed: int, seconds: float, tiny: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.work = BENCH / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.prepared = None
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.raw_samples: dict[str, list[float]] = {}
        self.requests: dict[str, list[dict]] = {}
        self.digests: dict[str, str] = {}
        self.spans: list = []
        self.setup_times: list[float] = []
        self.probe = None  # a bench.speed.SpeedProbe during untraced runs

    def close(self) -> None:
        if self.prepared is not None:
            self.prepared.close()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- set-up --------------------------------------------------------------
    def setup_once(self, i: int):
        """One set-up: a fresh interpreter importing ``pdial.cli``, input
        generation, loading the inputs, the stub server start (steer-http)
        and the corpus rank check (corpus-dense). Returns the prepared
        workload and its time."""
        from bench.workloads import WORKLOADS

        code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import pdial.cli"
        if self.probe is not None:
            self.probe.calibrate()
        start, cpu = time.perf_counter(), cpu_time()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        prepared = WORKLOADS[self.workload](ROOT, self.work / f"setup{i}", self.seed, self.tiny)
        return prepared, self.elapsed("setup", start, cpu)

    def setup(self) -> None:
        """The set-up the stages run on; further ones are timed during
        :meth:`measure`."""
        self.prepared, elapsed = self.setup_once(0)
        self.setup_times.append(elapsed)

    def extra_setup(self) -> None:
        """Time one more set-up and close it at once."""
        prepared, elapsed = self.setup_once(len(self.setup_times))
        prepared.close()
        self.setup_times.append(elapsed)

    # -- stages --------------------------------------------------------------
    def elapsed(self, name: str, start: float, cpu: float) -> float:
        """Time since ``start``, corrected to the reference core speed
        (``bench/speed.py``) while the run has a probe; the time as
        measured is kept in ``raw_samples[name]``. ``cpu`` is
        :func:`cpu_time` at ``start``."""
        end = time.perf_counter()
        if self.probe is None:
            return end - start
        self.raw_samples.setdefault(name, []).append(end - start)
        return self.probe.corrected(start, end, cpu_time() - cpu)

    def run_stage(self, name: str, tracer=None) -> float:
        """Run one CLI command, count it, and check its outputs repeat."""
        from pdial.cli import main

        from bench.stub_server import request_counts
        from bench.workloads import digest, quiet_call

        stage = self.prepared.stages[name]
        stub = self.prepared.stub
        if stub is not None:
            stub.reset()
        call = lambda: quiet_call(main, stage.argv)  # noqa: E731
        start, cpu = time.perf_counter(), cpu_time()
        try:
            code = tracer.command(f"cli.{name}", call) if tracer else call()
        except Exception as exc:  # a crash counts as a failed command
            code = f"{type(exc).__name__}: {exc}"
        elapsed = self.elapsed(name, start, cpu)
        self.attempted += 1
        if stub is not None:
            stats = stub.stats()
            counts = request_counts(stats)
            self.requests.setdefault(name, []).append(counts)
            totals = self.prepared.stub_totals
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value
            totals["max_open_connections"] = stats["max_open_connections"]
            self.attempted += counts["llm_requests"] + counts["embed_requests"]
        if code != 0:
            self.failures.append(f"{name}: exit {code}")
            return elapsed
        got = digest(stage.outputs)
        if self.digests.setdefault(name, got) != got:
            self.failures.append(f"{name}: outputs differ from the first repeat in this run")
        return elapsed

    def run_pass(self, tracer=None) -> float:
        """Every stage once, in order; returns the time of the pass."""
        return sum(self.run_stage(name, tracer) for name in self.prepared.stages)

    def measure(self) -> None:
        """Sample every stage all through ``seconds``.

        The next stage is always the one charged least so far, where a
        sample is charged its time but at least SAMPLE_FLOOR_S. Short stages
        so collect many samples, long ones still get several, and the
        samples of every stage are spread over the whole run, and so are
        the further timed set-ups (SETUP_REPEATS in all, two when tiny).
        Every time is corrected to the reference core speed (see
        :meth:`elapsed`).
        """
        charged = dict.fromkeys(self.prepared.stages, 0.0)
        setups = 2 if self.tiny else SETUP_REPEATS
        start = time.perf_counter()
        while not self.failures:
            done = (time.perf_counter() - start) / self.seconds
            if len(self.setup_times) < setups and done * setups >= len(self.setup_times):
                self.extra_setup()
            if done >= 1 and all(len(self.samples.get(n, ())) >= MIN_SAMPLES for n in charged):
                break
            name = min(charged, key=charged.get)
            self.samples.setdefault(name, []).append(self.run_stage(name))
            charged[name] += max(self.raw_samples[name][-1], SAMPLE_FLOOR_S)
        while not self.failures and len(self.setup_times) < setups:
            self.extra_setup()

    def measure_traced(self) -> dict:
        """Alternate untraced and traced passes until ``seconds`` have
        passed. Per-layer metrics are medians over the traced passes; the
        overhead is the traced minus the untraced median pass time."""
        from bench.tracing import Tracer, layer_metrics, span_problems

        start = time.perf_counter()
        plain: list[float] = []
        traced: list[float] = []
        per_pass: list[dict] = []
        while not self.failures and (not traced or time.perf_counter() - start < self.seconds):
            plain.append(self.run_pass())
            with Tracer() as tracer:
                traced.append(self.run_pass(tracer))
            self.failures += span_problems(tracer.spans)
            if self.failures:
                break
            metrics = layer_metrics(tracer.spans, tracer.counts)
            self._add_artifact_metrics(metrics)
            per_pass.append(metrics)
            self.spans.extend(tracer.spans)
        if not per_pass:
            return {}
        out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        out["trace.pass_s"] = statistics.median(traced)
        out["trace.untraced_pass_s"] = statistics.median(plain)
        out["trace.overhead_s"] = out["trace.pass_s"] - out["trace.untraced_pass_s"]
        return out

    def _add_artifact_metrics(self, m: dict) -> None:
        """Per-layer figures of the last pass read from its written
        artifacts and from the stub's counts."""
        from bench.workloads import read_trace

        stages = self.prepared.stages
        log = json.loads(stages["train"].outputs[1].read_text(encoding="utf-8"))
        skipped = sum(log["epoch_skipped_pairs"])
        steps = log["pair_count"] * len(log["epoch_skipped_pairs"]) - skipped
        m["metric.sgd_steps"] = steps
        m["metric.skipped_pairs"] = skipped
        m["metric.step_us"] = m["metric.train.self_s"] / steps * 1e6 if steps else 0.0
        evaluations = sum(
            read_trace(stages[s].outputs[0])[1]["evaluations"] for s in ("optimize_gcd", "optimize_brute")
        )
        m["optimizer.evaluations"] = evaluations
        m["optimizer.memo_hits"] = m["optimizer.visits"] - evaluations
        m["optimizer.memo_hit_ratio"] = m["optimizer.memo_hits"] / m["optimizer.visits"] if m["optimizer.visits"] else 0.0
        last = {name: counts[-1] for name, counts in self.requests.items()}
        m["llm_requests"] = sum(last[s]["llm_requests"] for s in ("optimize_gcd", "optimize_brute") if s in last)
        m["embed_requests"] = sum(last[s]["embed_requests"] for s in ("optimize_gcd", "optimize_brute") if s in last)
        stub_posts = sum(c["llm_requests"] + c["embed_requests"] for c in last.values())
        m["http.retries"] = stub_posts - m["http.post_json.calls"] if last else 0

    def check(self) -> None:
        """Workload output checks; skipped when a command already failed."""
        if self.failures:
            return
        self.attempted += 1
        self.failures += self.prepared.check(self.prepared)


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(args: argparse.Namespace) -> int:
    run = Run(args.workload, args.seed, args.seconds, args.size == "tiny")
    result: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "size": args.size, "env": environment()}
    try:
        layers: dict = {}
        if args.trace:
            run.setup()
            layers = run.measure_traced()
        else:
            from bench.speed import PROBE_INTERVAL_S, SpeedProbe

            # Probes come every PROBE_INTERVAL_S of CPU time: a run of one
            # thread makes at most seconds / interval, plus the overrun.
            with SpeedProbe(capacity=int(4 * args.seconds / PROBE_INTERVAL_S) + 5000) as run.probe:
                run.setup()
                run.measure()
            run.probe = None
        run.check()
        info, stub = run.prepared.info, dict(run.prepared.stub_totals)
    finally:
        run.close()
    failed = len(run.failures) + stub.get("non_200", 0)
    attempted = max(run.attempted, 1)
    timings = {"setup_s": summarize(run.setup_times)}
    timings.update({f"{name}_s": summarize(v) for name, v in run.samples.items()})
    result.update(
        inputs=info, stub=stub, timings=timings,
        raw_timings={f"{name}_s": summarize(v) for name, v in run.raw_samples.items()},
        requests_per_command={name: counts[0] for name, counts in run.requests.items()},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=attempted, failed=failed, error_rate=failed / attempted,
        failures=run.failures, per_layer=layers,
    )
    print_human(result)

    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        from bench.tracing import write_spans

        write_spans(results_dir / f"{stem}-spans.jsonl", run.spans)
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": t["median"], "unit": "s"} for k, t in timings.items()}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def print_human(r: dict) -> None:
    env = r["env"]
    print(f"== {r['workload']}  seed={r['seed']} seconds={r['seconds']} trace={r['trace']} size={r['size']}")
    print(f"   env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} threads={env['blas_threads']} rev={env['git_rev']}")
    print(f"   inputs: {json.dumps(r['inputs'], sort_keys=True)}")
    for name, t in r["timings"].items():
        tail = ", ".join(f"{k} {v:.4f}" for k, v in t.items() if k not in ("min", "median", "count", "samples"))
        raw = r["raw_timings"].get(name)
        measured = f"; as measured: median {raw['median']:.4f}, fastest {raw['min']:.4f}" if raw else ""
        print(f"   {name:<18} {t['median']:.4f} s    (median of {t['count']}; fastest {t['min']:.4f}, {tail}{measured})")
    req = r["requests_per_command"]
    implied = r["inputs"].get("implied_requests", {})
    for key in ("llm_requests", "embed_requests"):
        parts = []
        for stage in ("optimize_gcd", "optimize_brute"):
            got = req.get(stage, {}).get(key, 0)
            exp = implied.get(stage, {}).get(key)
            parts.append(f"{stage}={got}" + (f" (implied {exp})" if exp is not None else ""))
        print(f"   {key:<18} {'  '.join(parts)} count per command")
    print(f"   {'peak_rss_mb':<18} {r['peak_rss_mb']:.1f} MB")
    print(f"   {'error_rate':<18} {r['error_rate']:.4f} ratio ({r['failed']} failed / {r['attempted']} attempted)")
    for name, value in r["per_layer"].items():
        print(f"   {name:<44} {value:.6g} {_layer_unit(name)}")
    for failure in r["failures"]:
        print(f"   FAILED: {failure}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh process; a combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"== {name}: no result (exit {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="pdial CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every workload for smoke tests")
    args = parser.parse_args(argv)
    cap_threads()
    prepare_imports()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
