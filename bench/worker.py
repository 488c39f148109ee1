"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Times ``import graphspde`` plus ``parse_config`` (set-up; under tracing
it also covers installing the recorder) and
``run_experiment`` (the experiment, artifacts included), optionally under
the span recorder, and prints one JSON line: the times, the peak RSS
and the ``perf_counter`` clock at the start, the end of set-up and the
end of the experiment.  Exits with the experiment's
status: 0 exactly when every report passed.

    python3 bench/worker.py --workload <name> --seed <n> --out <artifact dir>
        [--spans <file>]

The program is imported from ``src/`` next to this file's directory and
runs with ``threads`` = the number of CPUs this process may use.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="trace the run; write spans here")
    args = parser.parse_args()

    src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import graphspde.config

    if src not in Path(graphspde.__file__).resolve().parents:
        print(f"graphspde imported from {graphspde.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    from workloads import config_size, config_text

    recorder = None
    if args.spans:
        from spans import SpanRecorder

        recorder = SpanRecorder(f"{args.workload}:{args.seed}:{Path(args.out).name}")
        recorder.install()
    try:
        cfg = graphspde.config.parse_config(config_text(args.workload, args.seed))
        t1 = time.perf_counter()
        status = graphspde.config.run_experiment(
            cfg, args.out, threads=len(os.sched_getaffinity(0)))
        t2 = time.perf_counter()
    finally:
        if recorder is not None:
            recorder.restore()

    result = {
        "setup_s": t1 - t0,
        "experiment_s": t2 - t1,
        "clock": [t0, t1, t2],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        from spans import layer_metrics

        result["layers"] = layer_metrics(recorder.spans,
                                         config_size(args.workload)[2])
        with open(args.spans, "w") as fh:
            json.dump(recorder.records(), fh)
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
