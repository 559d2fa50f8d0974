"""Benchmark of the chainopt CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates the workload's seeded inputs with the program's own
generator (timed as ``setup_s``), then launches the workload's CLI
command in a fresh Python process, one at a time, until S seconds have
passed, checking every command's outputs against independent oracles.
With ``--trace 1`` it then makes one more, traced run of the command and
reports per-layer metrics instead of end-to-end ones. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

from checks import Chain, check_outputs, cross_check  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")

# What the installed ``chainopt`` console script runs.
LAUNCH = "import sys; from chainopt.cli import main; sys.exit(main())"
COMMAND_TIMEOUT_S = 60.0

END_TO_END = {
    "wall_s": "s",
    "quotes_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def launch(argv: list[str], log_path: str) -> tuple[float, float, int]:
    """Run one command to its end: (wall seconds, peak RSS in MB, exit code)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _log_tail(path: str) -> str:
    with open(path) as handle:
        return handle.read()[-2000:]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    if not os.path.isfile(os.path.join(SRC, "chainopt", "cli.py")):
        print(f"error: no chainopt sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run_dir = os.path.join(WORK_DIR, workload.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = generate(workload, args.seed, os.path.join(run_dir, "inputs"))
    setup_s = time.perf_counter() - _PROCESS_START
    if not sys.modules["chainopt"].__file__.startswith(SRC + os.sep):
        print("error: chainopt was not imported from this checkout", file=sys.stderr)
        return 2

    chain = Chain(inputs)
    out_dir = os.path.join(run_dir, "out")
    log_path = os.path.join(run_dir, "command.log")
    argv = [sys.executable, "-c", LAUNCH,
            *workload.cli_args(inputs.chain_path, inputs.spot_path, out_dir)]
    walls, rss, problems = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        shutil.rmtree(out_dir, ignore_errors=True)
        wall, peak, code = launch(argv, log_path)
        attempted += 1
        if code != 0:
            failed += 1
            print(f"command exited {code}:\n{_log_tail(log_path)}", file=sys.stderr)
        else:
            walls.append(wall)
            rss.append(peak)
            problems += check_outputs(out_dir, chain, workload)
        if time.perf_counter() >= deadline:
            break
    if not walls:
        print("error: no command completed", file=sys.stderr)
        return 2
    wall_s = statistics.median(walls)
    print(f"{workload.name}: {len(walls)} runs of `chainopt {workload.command}` on "
          f"{inputs.quotes} quotes, median {wall_s:.4f} s, "
          f"each {' '.join(f'{w:.3f}' for w in walls)}", file=sys.stderr)

    if args.trace:
        traced_out = os.path.join(run_dir, "traced")
        spans_path = os.path.join(run_dir, "spans.json")
        traced_argv = [sys.executable, os.path.join(BENCH_DIR, "trace_cli.py"), spans_path,
                       *workload.cli_args(inputs.chain_path, inputs.spot_path, traced_out)]
        traced_wall, _, code = launch(traced_argv, log_path)
        attempted += 1
        if code != 0:
            print(f"traced command exited {code}:\n{_log_tail(log_path)}", file=sys.stderr)
            return 2
        problems += check_outputs(traced_out, chain, workload)
        with open(spans_path) as handle:
            trace = json.load(handle)
        problems += cross_check(traced_out, trace, inputs, workload)
        values = layer_metrics(trace, inputs.quotes, traced_wall - wall_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {
            "wall_s": wall_s,
            "quotes_per_s": inputs.quotes / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(rss),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
