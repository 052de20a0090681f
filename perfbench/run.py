"""uepsim benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload web-polar --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Workloads are defined in
`perfbench/workloads.py`. The load is a closed loop with one client: a
worker process runs one `uepsim` CLI invocation (`--parallel 1`, BLAS and
OpenMP pinned to one thread) at a time, until the measured span ends as near
to `--seconds` as it can (and at least two invocations), always on the same
config and the same `--seed`, so every invocation does the same work and
must write the same bytes.

Host speed: on a shared host the speed of one core drifts by tens of percent
over minutes. The worker therefore times a fixed reference kernel of the
benchmark's own (`worker.REFERENCE_KERNELS`; the workload names the one
that resembles its code) after each set-up and between invocations, and
every time reported is scaled to a host on which that kernel takes
REFERENCE_S seconds: a set-up's wall time is multiplied by REFERENCE_S over
the reference time measured right after it, and an invocation's over the
mean of the reference times measured just before and just after it (before
the first invocation, the mean over the set-ups). The program cannot change
the kernel, so a faster or slower program moves the scaled time as it moves
the wall time; the wall times are printed beside them.

With `--trace 0` the result reports the end-to-end metrics:

  run_s        median over the run's invocations of the scaled wall seconds
               of one invocation, from the call into the CLI until its
               outputs are written
  setup_s      median over fresh processes of the scaled seconds of
               interpreter start, `import uepsim.cli` and building the code
               spec or loading the gain table
  peak_rss_mb  peak resident memory of the worker process

With `--trace 1` untraced and traced invocations alternate, and the result
reports the per-layer metrics of the traced ones (see layertrace.PER_LAYER)
plus the tracing overhead; it also checks that exactly the layers the
workload should use were called.

Every invocation's output rows are checked; `failed` counts the rows (and,
traced, the layers) that fail their checks, and failed_frac = failed /
attempted. The SHA-256 of every output file and the machine facts are
printed beside the metrics, for information. The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import LAYERS, WORKLOADS, check_output, make_config  # noqa: E402

MIN_INVOCATIONS = 2  # per run; a traced run alternates untraced and traced ones
SETUPS = 3  # fresh set-up processes per untraced run; the last one does the work
# seconds each of the worker's reference kernels takes on the reference host;
# times are reported at that host's speed (see "Host speed" above)
REFERENCE_S = {"python": 0.4, "numpy": 0.2}
REFERENCE_SHARE = 0.05
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Worker:
    """One `worker.py` process; its set-up time is measured from spawn to ready."""

    def __init__(self, checkout: Path, command: str, config: Path, seed: int, trace: int):
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **THREAD_ENV)
        argv = [sys.executable, str(HERE / "worker.py"), "--command", command,
                "--config", str(config), "--seed", str(seed), "--trace", str(trace)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=checkout, env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            self.ready = self._recv()["ready"]
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def reference(self, kernel: str, repeats: int = 1) -> float:
        """Mean seconds the worker takes for a fixed reference kernel, run
        `repeats` times back to back now."""
        return self.ask({"cmd": "reference", "kernel": kernel,
                         "repeats": repeats})["reference_s"]

    def ask(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._recv()

    def _recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> dict:
        try:
            reply = self.ask({"cmd": "exit"})
            self.proc.wait(timeout=30)
            return reply
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


def _digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def run(args) -> dict:
    checkout = Path.cwd()
    workload = WORKLOADS[args.workload]
    if not (checkout / "src" / "uepsim" / "cli.py").is_file():
        raise FileNotFoundError(f"no uepsim sources under {checkout / 'src'}")
    cfg = make_config(workload, checkout, tiny=args.size == "tiny")
    work = checkout / "perfbench" / ".work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(cfg, indent=1) + "\n")

    kernel = workload.reference
    nominal = REFERENCE_S[kernel]
    setups, invocations = [], []
    worker = None
    try:
        for _ in range(1 if args.trace else SETUPS):
            if worker is not None:
                worker.close()
            worker = Worker(checkout, workload.command, config, args.seed, args.trace)
            ref = worker.reference(kernel)
            setups.append({"wall_s": worker.setup_s, "reference_s": ref,
                           "setup_s": worker.setup_s * nominal / ref})
        # the invocations' first reference time: the mean over the set-ups
        ref = statistics.mean(s["reference_s"] for s in setups)
        start = time.perf_counter()
        while True:
            i = len(invocations)
            traced = args.trace == 1 and i % 2 == 1
            out = work / f"out{i}"
            reply = worker.ask({"cmd": "run", "out": str(out), "trace": int(traced)})
            # time the reference for about REFERENCE_SHARE of an invocation
            repeats = max(1, round(REFERENCE_SHARE * reply["run_s"] / nominal))
            ref_after = worker.reference(kernel, repeats)
            checked, failed, problems = check_output(workload, cfg, out)
            invocations.append({**reply, "traced": traced, "checked": checked,
                                "failed": failed, "problems": problems,
                                "digests": _digests(out) if out.is_dir() else {},
                                "wall_s": reply["run_s"],
                                "run_s": reply["run_s"] * nominal / ((ref + ref_after) / 2)})
            ref = ref_after
            # stop where the measured span ends nearest to --seconds
            elapsed = time.perf_counter() - start
            typical = statistics.median(inv["wall_s"] for inv in invocations) + ref * repeats
            if elapsed + typical / 2 >= args.seconds and i + 1 >= MIN_INVOCATIONS:
                break
        final = worker.close()
    finally:
        if worker is not None:
            worker.kill()

    plain = [inv["run_s"] for inv in invocations if not inv["traced"]]
    attempted = sum(inv["checked"] for inv in invocations)
    failed = sum(inv["failed"] for inv in invocations)
    problems = [p for inv in invocations for p in inv["problems"]]
    if args.trace:
        import layertrace

        layer_runs = [inv["layers"] for inv in invocations if inv["traced"]]
        traced_s = [inv["run_s"] for inv in invocations if inv["traced"]]
        setup_layers = worker.ready["setup_layers"]
        overhead = statistics.median(traced_s) / statistics.median(plain) - 1.0
        values = layertrace.layer_metrics(layer_runs, setup_layers, overhead)
        units = {name: unit for name, unit, _ in layertrace.PER_LAYER}
        calls = layertrace.layer_calls(layer_runs, setup_layers)
        for layer in LAYERS:
            if (calls[layer] > 0) != (layer in workload.active):
                failed += 1
                problems.append(f"layer {layer}: {calls[layer]} calls, expected "
                                + ("some" if layer in workload.active else "none"))
        attempted += len(LAYERS)
    else:
        values = {
            "run_s": statistics.median(plain),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": final["peak_rss_mb"],
        }
        units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    digests = invocations[0]["digests"]
    return {
        "correct": failed == 0 and all(inv["rc"] == 0 for inv in invocations),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": round(v) if units[name] == "count" else v,
                           "unit": units[name]} for name, v in values.items()},
        "info": {
            "workload": workload.name,
            "why": workload.why,
            "seed": args.seed,
            "invocations": len(invocations),
            "untraced_run_s": plain,
            "wall_run_s": [inv["wall_s"] for inv in invocations if not inv["traced"]],
            "setups": setups,
            "failed_frac": failed / attempted,
            "problems": problems[:10],
            "sha256": digests,
            "outputs_identical": all(inv["digests"] == digests for inv in invocations),
            "machine": final["machine"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes, not for measurement")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (OSError, RuntimeError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    info = result.pop("info")
    print(f"workload {info['workload']}: {info['why']}")
    print(f"seed {info['seed']}, {info['invocations']} invocations; untraced, at reference "
          f"speed: run_s {[round(s, 4) for s in info['untraced_run_s']]}, "
          f"setup_s {[round(s['setup_s'], 4) for s in info['setups']]}")
    print(f"wall clock: run_s {[round(s, 4) for s in info['wall_run_s']]}, "
          f"setup_s {[round(s['wall_s'], 4) for s in info['setups']]}, "
          f"reference kernel after set-up {[round(s['reference_s'], 4) for s in info['setups']]}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {info['failed_frac']:.6g} fraction "
          f"({result['failed']} of {result['attempted']} checks)")
    for problem in info["problems"]:
        print(f"  check failed: {problem}")
    print(f"sha256 {json.dumps(info['sha256'])} identical across invocations: "
          f"{info['outputs_identical']}")
    print(f"machine {json.dumps(info['machine'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
