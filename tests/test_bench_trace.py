"""The benchmark calls the package: its worker runs ``run_experiment`` with
the arguments it passes, and the traced benchmark wraps package functions
by name; the names it looks up must exist, and removing the wrappers must
restore every original."""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_span_recorder_installs_and_restores(monkeypatch):
    import graphspde.config  # noqa: F401  (the worker imports it first)

    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    recorder = spans.SpanRecorder("t")
    try:
        recorder.install()
        patched = list(recorder._originals)
    finally:
        recorder.restore()
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
    assert not recorder._originals


def test_worker_runs_a_workload_against_this_checkout(tmp_path):
    # One untraced repetition, as bench/run.py starts it: the worker imports
    # graphspde from src/ next to bench/ and calls
    # run_experiment(cfg, out, threads=N).
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload",
         "energy-path16-fd0.3", "--seed", "0", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    for key in ("setup_s", "experiment_s", "peak_rss_mb"):
        assert result[key] > 0, key
