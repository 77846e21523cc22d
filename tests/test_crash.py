"""A command killed at any moment leaves each of its artifacts as it was
or complete.

Each command runs in a fresh interpreter over a directory that holds the
artifacts of its previous run. The random case sends SIGKILL after a
seeded random delay within the command's measured run time. The
deterministic case wraps ``os.replace`` in the child, which kills itself
right before its first replace and right after its k-th, for every k the
command reaches, so every gap between two artifacts is hit on every run.
An artifact is complete when it loads and saving what was loaded gives
its bytes again. A killed write may leave its ``.NAME.<hex>.tmp`` file
behind.
"""

import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pdial import persistence
from pdial.evaluation import SimilarityReport, render_report_text
from pdial.metric import TrainingLog

from conftest import FIXTURES

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs SIGKILL"
)

SRC = Path(__file__).resolve().parents[1] / "src"
KILLS_PER_COMMAND = 5
TMP_FILE = re.compile(r"\.(.+)\.[0-9a-f]{16}\.tmp")
ARTIFACTS = {
    "model.json", "model.log.json", "pca.json", "r.json", "r.txt", "trace.jsonl",
}
# The files each command replaces, one os.replace each.
REPLACES = {"train": 3, "eval": 2, "optimize": 1}
# Runs pdial.cli with os.replace wrapped: argv[1] = k kills the process
# right after its k-th replace, and k = 0 right before its first.
KILL_PRELUDE = """
import os, signal, sys
from pdial.cli import main
kill_after, done, real = int(sys.argv.pop(1)), [], os.replace
def replace(*args, **kwargs):
    if not kill_after:
        os.kill(os.getpid(), signal.SIGKILL)
    real(*args, **kwargs)
    done.append(args)
    if len(done) == kill_after:
        os.kill(os.getpid(), signal.SIGKILL)
os.replace = replace
sys.exit(main(sys.argv[1:]))
"""


def _argv(command, seed):
    fx = FIXTURES
    return {
        "train": [
            "train", "--data", fx / "train.jsonl", "--matrix", fx / "matrix.json",
            "--out", "model.json", "--pca-out", "pca.json", "--seed", seed,
        ],
        "eval": [
            "eval", "--model", "model.json", "--train", fx / "train.jsonl",
            "--test", fx / "test.jsonl", "--out-json", "r.json",
            "--out-text", "r.txt",
        ],
        "optimize": [
            "optimize", "--model", "model.json", "--pca", "pca.json",
            "--prompts", fx / "prompts.json", "--mode", "gcd", "--llm", "mock",
            "--mock-table", fx / "mock_table.json", "--target-cluster",
            "pro-barca", "--data", fx / "train.jsonl", "--out-trace", "trace.jsonl",
        ],
    }[command] + ["--dim", "64"]


def _start(cwd, command, seed, kill_after=None):
    """Run ``command`` in a fresh interpreter; with ``kill_after`` set, under
    ``KILL_PRELUDE``."""
    head = ["-m", "pdial.cli"]
    if kill_after is not None:
        head = ["-c", KILL_PRELUDE, str(kill_after)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    env.pop("PD_API_KEY", None)
    return subprocess.Popen(
        [sys.executable, *head, *map(str, _argv(command, seed))],
        cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _report(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    return SimilarityReport(
        tuple(data["clusters"]), data["pre"]["mean"], data["pre"]["std"],
        data["post"]["mean"], data["post"]["std"],
    )


def _saved_again(path, scratch):
    """The bytes of ``path``'s artifact loaded and saved again."""
    name = path.name
    if name == "r.txt":
        return render_report_text(_report(path.with_name("r.json"))).encode()
    if name == "model.json":
        persistence.save_model(scratch, *persistence.load_model(path))
    elif name == "pca.json":
        persistence.save_pca(scratch, persistence.load_pca(path))
    elif name == "trace.jsonl":
        persistence.save_trace(scratch, persistence.load_trace(path))
    elif name == "r.json":
        persistence.save_report(scratch, _report(path))
    else:
        data = json.loads(path.read_text(encoding="utf-8"))
        del data["format"]
        persistence.save_train_log(scratch, TrainingLog(**data))
    return scratch.read_bytes()


def _snapshot(directory):
    """Bytes and identity (inode, mtime) of each artifact."""
    snapshot = {}
    for path in directory.iterdir():
        if not TMP_FILE.fullmatch(path.name):
            stat = path.stat()
            snapshot[path.name] = (path.read_bytes(), (stat.st_ino, stat.st_mtime_ns))
    return snapshot


def test_a_killed_command_leaves_old_or_complete_artifacts(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    rng = random.Random(0)
    run_time = {}
    for command in ("train", "eval", "optimize"):  # the previous run
        start = time.perf_counter()
        assert _start(work, command, 0).wait(timeout=120) == 0
        run_time[command] = time.perf_counter() - start
    artifacts = set(_snapshot(work))
    assert artifacts == ARTIFACTS

    killed = late = 0
    for command in ("train", "eval", "optimize"):
        for run in range(KILLS_PER_COMMAND):
            before = _snapshot(work)
            # a new seed per run, so that a new model differs from the old
            proc = _start(work, command, 1 + run)
            try:
                proc.wait(timeout=rng.uniform(0.0, run_time[command]))
            except subprocess.TimeoutExpired:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=120)
            after = _snapshot(work)
            assert set(after) == artifacts
            if proc.returncode == -signal.SIGKILL:
                killed += 1
                late += any(after[n][1] != before[n][1] for n in artifacts)
            for name, (data, _) in after.items():
                if data != before[name][0]:
                    assert data == _saved_again(work / name, tmp_path / name), name
    left = [p.name for p in work.iterdir() if TMP_FILE.fullmatch(p.name)]
    print(
        f"{killed} of {3 * KILLS_PER_COMMAND} runs killed, {late} of them after "
        f"an artifact was replaced; {len(left)} temporary files left"
    )


def test_a_command_killed_at_each_replace_leaves_old_or_complete_artifacts(
    tmp_path,
):
    work = tmp_path / "work"
    work.mkdir()
    for command in REPLACES:  # the previous run
        assert _start(work, command, 0).wait(timeout=120) == 0
    assert set(_snapshot(work)) == ARTIFACTS

    seed = 0
    for command, replaces in REPLACES.items():
        # k = replaces + 1 is never reached: the command finishes.
        for k in range(replaces + 2):
            before = _snapshot(work)
            seed += 1  # so that a new model differs from the old
            status = _start(work, command, seed, kill_after=k).wait(timeout=120)
            after = _snapshot(work)
            assert set(after) == ARTIFACTS
            replaced = [n for n in ARTIFACTS if after[n][1] != before[n][1]]
            if k <= replaces:
                assert status == -signal.SIGKILL, (command, k)
                assert len(replaced) == k, (command, k, replaced)
            else:
                assert status == 0, (command, k)
                assert len(replaced) == replaces, (command, replaced)
            for name, (data, _) in after.items():
                if data != before[name][0]:
                    assert data == _saved_again(work / name, tmp_path / name), name
