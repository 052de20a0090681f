"""Layer tracing for the benchmark's traced run.

`Tracer.install` replaces each layer's public function with a wrapper at the
name its caller looks up (for example `uepsim.uep.transmit_batch`, which
`uep` imported from `channel`), so the program's own files stay untouched.
Each wrapped call records one span: name, start, end, parent span and run
id. Spans stay in memory during an invocation and are written out after it.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

# a decode or encode call of fewer rows than this counts as "small": the
# retransmission tail, as opposed to characterization and first rounds
SMALL_ROWS = 64

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [
        (f"fec.{kind}.decode.{field}", unit, better)
        for kind, ok in (("polar", "crc_pass_frac"), ("ldpc", "converged_frac"))
        for field, unit, better in (
            ("calls", "count", "lower"),
            ("rows", "count", "lower"),
            ("busy_s", "s", "lower"),
            ("bulk_busy_s", "s", "lower"),
            ("small_busy_s", "s", "lower"),
            (ok, "fraction", "higher"),
        )
    ]
    + [
        (f"fec.{kind}.{field}", unit, "lower")
        for kind in ("polar", "ldpc")
        for field, unit in (("encode.rows", "count"), ("encode.busy_s", "s"),
                            ("construct_s", "s"))
    ]
    + [
        ("channel.transmit_batch.rows", "count", "lower"),
        ("channel.transmit_batch.busy_s", "s", "lower"),
        ("channel.transmit_keyed.rows", "count", "lower"),
        ("channel.transmit_keyed.busy_s", "s", "lower"),
        ("uep.characterize.trials", "count", "higher"),
        ("uep.characterize.busy_s", "s", "lower"),
        ("uep.characterize.self_s", "s", "lower"),
        ("uep.characterize.trials_per_s", "1/s", "higher"),
        ("approxtx.transfer.calls", "count", "lower"),
        ("approxtx.transfer.codewords", "count", "higher"),
        ("approxtx.transfer.rounds", "count", "lower"),
        ("approxtx.transfer.retransmissions", "count", "lower"),
        ("approxtx.transfer.busy_s", "s", "lower"),
        ("approxtx.transfer.self_s", "s", "lower"),
        ("approxtx.transfer.useful_frac", "fraction", "higher"),
        ("approxtx.quality.ms_ssim.calls", "count", "lower"),
        ("approxtx.quality.ms_ssim.busy_s", "s", "lower"),
        ("montecarlo.run_simulation.calls", "count", "higher"),
        ("montecarlo.run_simulation.jobs", "count", "higher"),
        ("montecarlo.run_simulation.busy_s", "s", "lower"),
        ("montecarlo.run_simulation.self_s", "s", "lower"),
        ("montecarlo.run_simulation.jobs_per_s", "1/s", "higher"),
        ("montecarlo.gain_lookup.calls", "count", "lower"),
        ("montecarlo.gain_lookup.busy_s", "s", "lower"),
        ("montecarlo.sample_workload.busy_s", "s", "lower"),
        ("sched.assign.calls", "count", "higher"),
        ("sched.assign.busy_s", "s", "lower"),
        ("sched.compute_metrics.busy_s", "s", "lower"),
        ("trace.overhead_frac", "fraction", "lower"),
    ]
)


def _code_kind(spec) -> str:
    return "polar" if type(spec).__name__ == "PolarCodeSpec" else "ldpc"


def _rows(arr) -> int:
    return arr.shape[0] if arr.ndim > 1 else 1


# (module, attribute, span name or name(args), counts(args, kwargs, result))
_SETUP_POINTS = (
    ("uepsim.fec", "construct_polar_code", "fec.polar.construct", None),
    ("uepsim.fec", "generate_ldpc_code", "fec.ldpc.construct", None),
)
_RUN_POINTS = (
    ("uepsim.fec", "encode_batch", lambda a: f"fec.{_code_kind(a[0])}.encode",
     lambda a, k, r: {"rows": _rows(a[1])}),
    ("uepsim.fec", "decode_batch", lambda a: f"fec.{_code_kind(a[0])}.decode",
     lambda a, k, r: {"rows": _rows(a[1]), "ok": int(r[1].sum())}),
    ("uepsim.uep", "transmit_batch", "channel.transmit_batch",
     lambda a, k, r: {"rows": _rows(a[0])}),
    ("uepsim.approxtx.transfer", "transmit_keyed", "channel.transmit_keyed",
     lambda a, k, r: {"rows": _rows(a[0])}),
    ("uepsim.uep", "characterize", "uep.characterize",
     lambda a, k, r: {"trials": r.trials}),
    ("uepsim.approxtx.transfer", "retransmit_until_clean", "approxtx.transfer",
     lambda a, k, r: {"codewords": _rows(a[0]), "retransmissions": r[0]}),
    ("uepsim.approxtx", "ms_ssim", "approxtx.quality.ms_ssim", None),
    ("uepsim.approxtx.quality", "ms_ssim", "approxtx.quality.ms_ssim", None),
    ("uepsim.montecarlo", "run_simulation", "montecarlo.run_simulation",
     lambda a, k, r: {"jobs": r[0].n_jobs}),
    ("uepsim.montecarlo.GainTable", "gain", "montecarlo.gain_lookup", None),
    ("uepsim.montecarlo", "sample_workload", "montecarlo.sample_workload", None),
    ("uepsim.sched", "wftm_assign", "sched.assign", None),
    ("uepsim.sched", "smab_assign", "sched.assign", None),
    ("uepsim.sched", "random_assign", "sched.assign", None),
    ("uepsim.sched", "minqueue_assign", "sched.assign", None),
    ("uepsim.sched", "compute_metrics", "sched.compute_metrics", None),
)


def _resolve(path: str):
    """Import `a.b.C` as module `a.b` attribute `C`, or `a.b` as a module."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Span recorder for one worker process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, run id, counts)
        self.run_id = "setup"
        self._stack = []
        self._patched = []

    def install(self, setup: bool = False) -> None:
        for owner_path, attr, name, counts in _SETUP_POINTS if setup else _RUN_POINTS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counts))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, counts):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = counts(args, kwargs, result) if counts and result is not None else None
                spans[idx] = (span_name, start, end, parent, self.run_id, extra)

        return traced

    def drain(self, out) -> list:
        """Write the recorded spans as CSV rows to ``out`` and forget them."""
        spans = list(self.spans)
        for i, (name, start, end, parent, run_id, _) in enumerate(spans):
            out.write(f"{run_id},{i},{parent},{name},{start:.9f},{end:.9f}\n")
        self.spans.clear()
        return spans


def summarize(spans) -> dict:
    """Per layer name: calls, busy and self seconds, summed counts, and busy
    seconds split into bulk and small (< SMALL_ROWS rows) calls."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        layer = out[name]
        dur = end - start
        layer["calls"] += 1
        layer["busy_s"] += dur
        layer["self_s"] += dur - child[i]
        for key, value in (extra or {}).items():
            layer[key] += value
        if extra and "rows" in extra:
            layer["small_busy_s" if extra["rows"] < SMALL_ROWS else "bulk_busy_s"] += dur
        if name == "channel.transmit_keyed" and parent >= 0 \
                and spans[parent][0] == "approxtx.transfer":
            out["approxtx.transfer"]["rounds"] += 1
    return {name: dict(v) for name, v in out.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(invocations: list, setup: dict, overhead_frac: float) -> dict:
    """Every PER_LAYER metric, in order, from the per-invocation summaries of
    the traced invocations (median over invocations) and the worker's set-up
    summary. A layer a workload never calls reads 0."""
    def value(layer, field):
        return statistics.median(s.get(layer, {}).get(field, 0.0) for s in invocations)

    m = {}
    for name, _, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        m[name] = value(layer, field)
    for kind, ok in (("polar", "crc_pass_frac"), ("ldpc", "converged_frac")):
        dec = f"fec.{kind}.decode"
        m[f"{dec}.{ok}"] = _ratio(value(dec, "ok"), m[f"{dec}.rows"])
        m[f"fec.{kind}.construct_s"] = setup.get(f"fec.{kind}.construct", {}).get("busy_s", 0.0)
    char, tx, sim = "uep.characterize", "approxtx.transfer", "montecarlo.run_simulation"
    m[f"{char}.trials_per_s"] = _ratio(m[f"{char}.trials"], m[f"{char}.busy_s"])
    m[f"{tx}.useful_frac"] = _ratio(
        m[f"{tx}.codewords"], m[f"{tx}.codewords"] + m[f"{tx}.retransmissions"]
    )
    m[f"{sim}.jobs_per_s"] = _ratio(m[f"{sim}.jobs"], m[f"{sim}.busy_s"])
    m["trace.overhead_frac"] = overhead_frac
    return m


def layer_calls(invocations: list, setup: dict) -> dict:
    """Calls per layer over set-up and every traced invocation."""
    calls = defaultdict(int)
    for summary in [setup, *invocations]:
        for name, fields in summary.items():
            calls[name] += int(fields["calls"])
    return calls
