"""graphspde benchmark: time to verdict of three experiment workloads.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the program is imported from ``src/`` of the checkout
this file sits in.  Each repetition runs ``run_experiment`` in a fresh
interpreter (``worker.py``), one at a time, with the BLAS thread count
fixed to one.  The launcher and its repetitions are pinned to one CPU,
where the sampler of ``calibrate.py`` times a fixed kernel 50 times a
second; each timed interval is reported at the kernel's reference speed.
Repetitions continue until the next one would end after ``--seconds``.
Every repetition is checked: it must exit 0, its artifact set must be
byte-identical to the other repetitions', and its headline report
constants must match ``reference.json``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of
``spans.py`` (medians over traced repetitions; exact counts must agree
between them).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Environment, every
repetition and the result are also written to
``.bench_out/<workload>/result.json``; spans of traced repetitions go next
to it.  ``--write-reference`` regenerates ``reference.json`` instead, for the
given workload or for all of them.
METRICS.md documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

# One BLAS thread for the repetitions, which inherit this environment.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

from calibrate import REFERENCE_S, Sampler  # noqa: E402
from spans import EXACT_COUNTS  # noqa: E402
from workloads import INPUTS, WORKLOADS, config_size  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
# Relative and absolute tolerance of the headline constants: loose enough
# for a solver change within the Newton tolerance, tight enough to catch a
# changed estimator or simulation.
RTOL, ATOL = 1e-6, 1e-9
# Stop starting repetitions after this many seconds, whatever --seconds says.
DEADLINE_S = 150.0


def environment(workload: str, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "input": seed % INPUTS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "git_sha": git_sha(),
        "src_sha256": tree_digest(ROOT / "src", "*.py"),
    }


def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def tree_digest(directory: Path, pattern: str = "*") -> str:
    """sha256 over the sorted relative paths and contents of the files."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob(pattern) if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def headline(workload: str, out: Path) -> dict:
    """Headline constants of an artifact directory, keyed ``stem:key``."""
    values = {}
    for pattern, key in WORKLOADS[workload][1]:
        for txt in sorted(out.glob(pattern + "*.txt")):
            if key.startswith("last."):
                lines = txt.with_suffix(".csv").read_text().splitlines()
                column = lines[0].split(",").index(key[5:])
                value = lines[-1].split(",")[column]
            else:
                prefix = f"constant.{key} = "
                value = next(line[len(prefix):]
                             for line in txt.read_text().splitlines()
                             if line.startswith(prefix))
            values[f"{txt.stem}:{key}"] = float(value)
    return values


def reference_problems(got: dict, expected: dict | None) -> list[str]:
    if expected is None:
        return ["no reference constants for this input"]
    if set(got) != set(expected):
        return [f"headline constants {sorted(got)} != {sorted(expected)}"]
    return [f"{k} = {got[k]!r}, reference {expected[k]!r}"
            for k in sorted(got)
            if not abs(got[k] - expected[k]) <= RTOL * abs(expected[k]) + ATOL]


def run_worker(workload: str, seed: int, out: Path, spans: Path | None,
               timeout: float) -> tuple[dict | None, str]:
    """One repetition; returns (its JSON result or None, error text)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"repetition exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        return None, (f"worker exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def write_reference(workloads) -> int:
    """Record the headline constants of every input of ``workloads``."""
    scratch = ROOT / ".bench_out" / "reference"
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for workload in workloads:
        table[workload] = {}
        for index in range(INPUTS):
            shutil.rmtree(scratch, ignore_errors=True)
            result, error = run_worker(workload, index, scratch, None, 600.0)
            if result is None:
                print(f"{workload} input {index}: {error}", file=sys.stderr)
                return 1
            table[workload][str(index)] = headline(workload, scratch)
            print(f"{workload} input {index}: {result['experiment_s']:.2f} s",
                  file=sys.stderr)
    shutil.rmtree(scratch, ignore_errors=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so that subprocess.run kills the
    # repetition it is waiting for before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "graphspde" / "__init__.py").is_file():
        print(f"no graphspde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Build step: byte-compile the sources so that no repetition pays for it.
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        print("byte-compiling src failed", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference([args.workload] if args.workload
                               else list(WORKLOADS))
    if args.workload is None or args.seconds < 1:
        parser.error("--workload and a positive --seconds are required")

    workload, seed = args.workload, args.seed
    references = json.loads(REFERENCE.read_text())[workload]
    expected = references.get(str(seed % INPUTS))
    out_root = ROOT / ".bench_out" / workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    env = environment(workload, seed)
    # Pin the launcher, and so every repetition and the sampler, to one
    # CPU: on a shared host each CPU's speed changes on its own, and the
    # sampler must see the CPU the repetitions run on.
    env["bench_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["bench_cpu"]})
    sampler = Sampler(out_root / "samples.txt")
    try:
        return measure(args, workload, seed, expected, out_root, env, sampler)
    finally:
        sampler.stop()


def measure(args, workload: str, seed: int, expected: dict | None,
            out_root: Path, env: dict, sampler: Sampler) -> int:
    reps, digests, longest = [], [], 0.0
    start = time.perf_counter()
    min_reps = 4 if args.trace else 3
    while True:
        k = len(reps)
        began = time.perf_counter()
        traced = bool(args.trace) and k % 2 == 1
        out = out_root / f"rep{k}"
        spans = out_root / f"spans-rep{k}.json" if traced else None
        remaining = DEADLINE_S + 25.0 - (time.perf_counter() - start)
        result, error = run_worker(workload, seed, out, spans,
                                   max(remaining, 5.0))
        rep = {"rep": k, "traced": traced, "result": result, "problems": []}
        if result is None:
            rep["problems"].append(error)
            digests.append(None)
        else:
            digests.append(tree_digest(out))
            rep["problems"] += reference_problems(headline(workload, out),
                                                  expected)
            if traced:
                result["layers"]["config.artifact_bytes"] = sum(
                    p.stat().st_size for p in out.rglob("*") if p.is_file())
        shutil.rmtree(out, ignore_errors=True)
        if result is not None:
            # Mean kernel time inside set-up and inside the experiment.
            t0, t1, t2 = result["clock"]
            result["kernel_s"] = [sampler.mean(t0, t1), sampler.mean(t1, t2)]
        reps.append(rep)
        now = time.perf_counter()
        longest = max(longest, now - began)
        # Start no repetition that would end after --seconds.
        if (len(reps) >= min_reps and now + longest - start > args.seconds) \
                or now - start >= DEADLINE_S:
            break

    # Byte identity: the most common artifact digest is the run's reference.
    seen = [d for d in digests if d is not None]
    common = max(set(seen), key=seen.count) if seen else None
    for rep, digest in zip(reps, digests):
        if digest is not None and digest != common:
            rep["problems"].append("artifacts differ from the other "
                                   "repetitions of this run")
    # Exact counts must agree between traced repetitions.
    counts = None
    for rep in reps:
        if rep["traced"] and not rep["problems"]:
            mine = {k: rep["result"]["layers"][k] for k in EXACT_COUNTS}
            counts = counts or mine
            if mine != counts:
                rep["problems"].append(f"exact counts differ: {mine} != {counts}")

    failed = sum(1 for r in reps if r["problems"])
    for rep in reps:
        for problem in rep["problems"]:
            print(f"rep {rep['rep']}: {problem}", file=sys.stderr)

    def usable(traced: bool) -> list[dict]:
        # Repetitions that passed the gate; if none did, those that at
        # least finished (the run then reports "correct": false).
        done = [r for r in reps if r["traced"] == traced and r["result"]]
        return ([r["result"] for r in done if not r["problems"]]
                or [r["result"] for r in done])

    plain, traced_runs = usable(False), usable(True)
    if not plain or (args.trace and not traced_runs):
        print("no repetition finished", file=sys.stderr)
        return 1

    # Timed metrics are reported in seconds at the sampler kernel's
    # reference speed (calibrate.py): each interval is scaled by
    # REFERENCE_S / (mean kernel time sampled inside it).
    def normalized(runs: list[dict], key: str, index: int) -> float:
        return statistics.median(r[key] * REFERENCE_S / r["kernel_s"][index]
                                 for r in runs)

    experiment_s = normalized(plain, "experiment_s", 1)
    paths, steps, levels = config_size(workload)
    e2e = {
        "experiment_s": experiment_s,
        "setup_s": normalized(plain, "setup_s", 0),
        "path_steps_per_s": paths * steps * levels / experiment_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    if args.trace:
        values = {name: statistics.median(r["layers"][name]
                                          for r in traced_runs)
                  for name in traced_runs[0]["layers"]}
        values["trace.overhead_ratio"] = normalized(
            traced_runs, "experiment_s", 1) / experiment_s
    else:
        values = e2e
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace
                                        else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}

    summary = {"correct": failed == 0, "attempted": len(reps),
               "failed": failed, "metrics": metrics}
    (out_root / "result.json").write_text(json.dumps(
        {"environment": env, "reference_kernel_s": REFERENCE_S,
         "repetitions": reps, "result": summary}, indent=1) + "\n")
    print("environment " + json.dumps(env))
    print(f"{workload}: {len(plain)} untraced samples, "
          f"failed_ops_ratio {failed / len(reps):g}")
    print(f"  raw medians: experiment "
          f"{statistics.median(r['experiment_s'] for r in plain):.4g} s, "
          f"setup {statistics.median(r['setup_s'] for r in plain):.4g} s, "
          f"sampled kernel "
          f"{statistics.median(r['kernel_s'][1] for r in plain) * 1e3:.4g} ms "
          f"(reference {REFERENCE_S * 1e3:g} ms)")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
