"""Benchmark worker: one fresh process that sets a workload up once, then runs
`uepsim.cli.main` on it each time the benchmark asks.

Set-up is interpreter start, `import uepsim.cli`, and building the
workload's code spec or loading its gain table. The CLI rebuilds both on
every invocation, so the worker replaces `uepsim.cli._build_code` and
`uepsim.cli._load_table` with functions that return a fresh copy of the
object built at set-up: the timed invocation then runs everything else the
CLI does, with lazy per-spec state (decoder caches) starting empty as in a
real run, and set-up time does not overlap invocation time.

Protocol, one JSON object per line: the worker writes {"ready": ...} once
set up, then answers each {"cmd": "run", "out": DIR, "trace": 0|1} with
{"rc", "run_s", "layers"}, each {"cmd": "reference", "kernel": NAME,
"repeats": N} with {"reference_s"}, and {"cmd": "exit"} with
{"peak_rss_mb", "machine"}. Anything the CLI prints goes to standard error.
"""

from __future__ import annotations

import argparse
import copy
import gzip
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def python_kernel() -> None:
    """Pure-Python dict lookups and float arithmetic, as in the scheduler,
    the Monte Carlo loop and the polar SC recursion's bookkeeping."""
    table = {i: i * 0.5 for i in range(256)}
    acc = 0.0
    for i in range(5_000_000):
        acc += table[i & 255] * 1.0001


def numpy_kernel() -> None:
    """Gathers, segment sums and tanh/log on 256 x 3072 float64 arrays (6 MB,
    larger than the caches), as in LDPC belief propagation over the edges of
    a (1024, 512) code."""
    import numpy as np

    edges = np.linspace(0.1, 3.0, 256 * 3072).reshape(256, 3072)
    perm = (np.arange(3072) * 7) % 3072
    starts = np.arange(0, 3072, 6)
    row_of_edge = np.arange(3072) // 6
    for _ in range(8):
        mags = -np.log(np.tanh(0.5 * np.clip(edges, 1e-12, None)))
        sums = np.add.reduceat(mags, starts, axis=1)
        edges = np.minimum(np.abs(sums[:, row_of_edge] - mags)[:, perm] * 0.5 + 0.1, 3.0)


REFERENCE_KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


def reference_s(kernel: str, repeats: int) -> float:
    """Mean seconds the named reference kernel takes now, over `repeats`
    back-to-back runs: the host's current speed for that kind of code."""
    fn = REFERENCE_KERNELS[kernel]
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def _set_up(cli, command: str, cfg: dict) -> None:
    """Build the workload's code spec or gain table and make the CLI reuse it."""
    if command == "schedule":
        table = cli._load_table(cfg)

        def load_table(c):
            if c["gain_table"] != cfg["gain_table"]:
                raise ValueError(f"worker was set up for gain table {cfg['gain_table']}")
            return copy.deepcopy(table)

        cli._load_table = load_table
        return
    # the spec cmd_transmit asks for: polar codes carry the default CRC
    want = {**cfg, "crc_len": cli.fec.DEFAULT_CRC_LEN if cfg["code"] == "polar" else None}
    key = _code_key(want)
    spec = cli._build_code(want)

    def build_code(c):
        if _code_key(c) != key:
            raise ValueError(f"worker was set up for code {key}, asked for {_code_key(c)}")
        return copy.deepcopy(spec)

    cli._build_code = build_code


def _code_key(cfg: dict) -> tuple:
    return tuple(cfg.get(k) for k in ("code", "n_total", "k_info", "crc_len", "ldpc_seed"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--command", required=True, choices=("transmit", "schedule"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    proto = sys.stdout
    sys.stdout = sys.stderr

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
    t0 = time.perf_counter()
    import uepsim.cli as cli

    src = (Path.cwd() / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"uepsim was imported from {cli.__file__}, not from {src}")
    t1 = time.perf_counter()
    cfg = dict(cli._DEFAULTS[args.command])
    cfg.update(json.loads(Path(args.config).read_text()))
    if tracer:
        tracer.install(setup=True)
    _set_up(cli, args.command, cfg)
    t2 = time.perf_counter()
    span_path = Path(args.config).with_name("spans.csv.gz")
    setup_layers = {}
    if tracer:
        tracer.uninstall()
        with gzip.open(span_path, "wt", compresslevel=1) as fh:
            fh.write("run_id,span,parent,name,start,end\n")
            setup_layers = layertrace.summarize(tracer.drain(fh))
    _send(proto, {"ready": {"import_s": t1 - t0, "build_s": t2 - t1,
                            "setup_layers": setup_layers}})

    for line in sys.stdin:
        msg = json.loads(line)
        if msg["cmd"] == "reference":
            _send(proto, {"reference_s": reference_s(msg["kernel"], msg["repeats"])})
            continue
        if msg["cmd"] == "exit":
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            _send(proto, {"peak_rss_mb": peak_kb / 1024.0, "machine": machine_facts()})
            return 0
        argv = [args.command, "--config", args.config, "--seed", str(args.seed),
                "--out", msg["out"], "--parallel", "1"]
        traced = tracer is not None and msg["trace"]
        if traced:
            tracer.run_id = Path(msg["out"]).name
            tracer.install()
        start = time.perf_counter()
        rc = cli.main(argv)
        run_s = time.perf_counter() - start
        layers = None
        if traced:
            tracer.uninstall()
            with gzip.open(span_path, "at", compresslevel=1) as fh:
                layers = layertrace.summarize(tracer.drain(fh))
        _send(proto, {"rc": rc, "run_s": run_s, "layers": layers})
    return 1


def _send(out, obj) -> None:
    out.write(json.dumps(obj) + "\n")
    out.flush()


if __name__ == "__main__":
    sys.exit(main())
