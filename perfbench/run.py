"""epiforecast benchmark: tuned backtests and forecast serving.

Run from the repository root:

    python3 perfbench/run.py --workload lstm_tune --seed 0 --seconds 20 --trace 0

Each run is one process with one caller in a closed loop. It sets the
program up several times (``setup_s`` is the median), then issues requests
for ``--seconds`` and checks every output. With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` spans are recorded at
the layer boundaries named in ``spans.BOUNDARIES`` and the last line carries
the per-layer metrics. The line before it holds the run's details (machine,
candidate accounting, digests, sample counts); both are also written under
``.bench_out/``. Exits 2 without a result when the package sources are absent.
"""

from __future__ import annotations

import os

# One BLAS thread. On a 2-vCPU Xeon VM, five repeated ARIMA backtests took
# 5.6 s to 8.5 s with two OpenBLAS threads and 6.4 s to 6.7 s with one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import logging
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


# Every time a run reports is scaled by NOMINAL_REF_S over the reference
# kernel's median time around it (see Probe.scales). On a shared 2-vCPU Xeon
# VM, other guests slowed one process by up to 2x, for seconds to minutes at
# a time. Over ten runs per workload there, the quartile spread of raw wall
# times reached 0.16 (lstm_tune p50), 0.17 (classic_tune p50 and p90) and
# 0.33 (forecast_serve p90), and 0.36 for setup_s; scaled, 0.03, 0.18, 0.09
# and 0.11 (BASELINE.json, raw_time_spread). NOMINAL_REF_S is the kernel's
# median on that VM when it was quiet. Raw times are in the details line.
NOMINAL_REF_S = 0.0015
_REF_W = np.linspace(-0.08, 0.08, 17 * 64).reshape(17, 64)
_REF_X = np.linspace(0.0, 1.0, 32 * 17).reshape(32, 17)


def reference_kernel():
    """Fixed work in the program's mix of small NumPy calls and Python loops."""
    start = time.perf_counter()
    h = _REF_X
    for _ in range(40):
        a = h @ _REF_W
        gates = 1.0 / (1.0 + np.exp(-a[:, :48]))
        c = gates[:, :16] * np.tanh(a[:, 48:])
        h = np.concatenate([h[:, :1], gates[:, 16:32] * np.tanh(c)], axis=1)
    acc = 0.0
    for t in range(3000):
        acc = 0.5 * acc + t * 1e-6
    return time.perf_counter() - start


class Probe:
    """Times the reference kernel before each timed region, after the last
    one and after each ``backtest.mse`` call (one per grid candidate), so long
    requests are sampled while they run. Probe time inside a timed region is
    subtracted from it."""

    def __init__(self):
        self.samples = []
        self.marks = []  # index of the sample taken just before each region
        self.spent = 0.0

    def sample(self):
        elapsed = reference_kernel()
        self.samples.append(elapsed)
        self.spent += elapsed

    def after(self, original):
        def probed(*args, **kwargs):
            value = original(*args, **kwargs)
            self.sample()
            return value

        return probed

    def timed(self, fn):
        """Returns fn()'s value and its duration without the probes it ran."""
        self.sample()
        self.marks.append(len(self.samples) - 1)
        spent, start = self.spent, time.perf_counter()
        value = fn()
        return value, time.perf_counter() - start - (self.spent - spent)

    def scales(self):
        """One factor per timed region: NOMINAL_REF_S over the median probe
        time from two samples before the region to two after its end, so the
        speed of the host while the region ran is divided out."""
        self.sample()
        ends = self.marks[1:] + [len(self.samples) - 1]
        return [
            NOMINAL_REF_S / statistics.median(self.samples[max(0, a - 2) : b + 3])
            for a, b in zip(self.marks, ends)
        ]


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class LogSink(logging.Handler):
    """Formats and counts the package's log records instead of printing them."""

    def __init__(self):
        super().__init__()
        self.records = 0
        self.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))

    def emit(self, record):
        self.format(record)
        self.records += 1


def import_package(accounting, tracer, probe):
    """Fresh import of the package with the wrappers installed."""
    for name in [m for m in sys.modules if m == "epiforecast" or m.startswith("epiforecast.")]:
        del sys.modules[name]
    cli = importlib.import_module("epiforecast.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported {cli.__file__}, not the package under {SRC}")
    accounting.install()
    if tracer is not None:
        tracer.install()
    # Last, so traced and untraced runs sample the probe at the same points.
    spans.patch("epiforecast.backtest", "mse", probe.after)
    return cli


def call(cli, argv):
    """One command as a user would type it; its stdout is captured and dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def default_seed_reference(workload, machine):
    """The default seed's details recorded in BASELINE.json, which that seed
    must reproduce exactly, and why they are or are not checked. They are not
    on another seed, nor on another CPU model, NumPy or BLAS than the
    baseline's, whose floating-point results may differ in the last bits."""
    if machine["seed"] != DEFAULT_SEED:
        return None, "not the default seed"
    baseline = json.loads((Path(__file__).parent / "BASELINE.json").read_text())
    for key in ("cpu_model", "numpy", "blas", "blas_version"):
        if machine[key] != baseline["machine"][key]:
            return None, f"skipped: {key} differs from the baseline's"
    return baseline["default_seed"][workload], "checked"


def machine_info(seed):
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read_lines("/proc/cpuinfo") if line.startswith("model name")),
        platform.processor() or None,
    )
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def _read_lines(path):
    try:
        return Path(path).read_text().splitlines()
    except OSError:
        return []


def _git_sha():
    """HEAD's commit read from .git without running git; None outside a clone."""
    head = _read_lines(ROOT / ".git" / "HEAD")
    if not head:
        return None
    if not head[0].startswith("ref: "):
        return head[0]
    ref = head[0][5:]
    loose = _read_lines(ROOT / ".git" / ref)
    if loose:
        return loose[0]
    for line in _read_lines(ROOT / ".git" / "packed-refs"):
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    for line in _read_lines("/proc/self/maps"):
        path = line.split()[-1]
        if "openblas" not in path.lower() or not path.endswith(".so") and ".so." not in path:
            continue
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run(args):
    sys.path.insert(0, str(SRC))
    accounting = spans.Accounting()
    tracer = spans.Tracer() if args.trace else None
    sink = LogSink()
    root_logger = logging.getLogger()
    root_logger.addHandler(sink)
    root_logger.setLevel(logging.INFO)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        machine = machine_info(args.seed)
        expected, reference_check = default_seed_reference(args.workload, machine)
        workload = WORKLOADS[args.workload](work, args.seed, accounting, expected)
        bundled = (SRC / "epiforecast" / "datasets" / "iran_covid.csv").read_text()
        workload.prepare(bundled)

        setup_times, problems, probe = [], [], Probe()
        for _ in range(workload.setup_repeats):
            def set_up():
                cli = import_package(accounting, tracer, probe)
                problems.extend(workload.setup(lambda argv: call(cli, argv)))
                return cli

            cli, elapsed = probe.timed(set_up)
            setup_times.append(elapsed)
        if tracer is not None:
            tracer.request = "reference"
        problems.extend(workload.after_setup(lambda argv: call(cli, argv)))

        latencies, failed, failures = [], 0, []
        log_start = sink.records
        deadline = time.perf_counter() + args.seconds
        for i, argv in enumerate(workload.requests()):
            if tracer is not None:
                tracer.request = i

            def request():
                try:
                    return call(cli, argv)
                except Exception:  # a crash is one failed request, not the end of the run
                    failures.append(traceback.format_exc(limit=3))
                    return None

            rc, elapsed = probe.timed(request)
            latencies.append(elapsed)
            found = workload.check(argv, rc) if rc is not None else ["request raised"]
            if found:
                failed += 1
                failures.extend(found[:3])
            if time.perf_counter() >= deadline:
                break
        requests = len(latencies)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        scales = probe.scales()
        setup_s = [t * f for t, f in zip(setup_times, scales)]
        latency_s = [t * f for t, f in zip(latencies, scales[len(setup_times):])]
        p90 = percentile(latency_s, 90)
        details = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine,
            "default_seed_reference": reference_check,
            "time_scale": statistics.median(scales),
            "reference_kernel": {"median_ms": statistics.median(probe.samples) * 1000,
                                 "samples": len(probe.samples)},
            "requests": requests,
            "requests_beyond_p90": sum(x > p90 for x in latency_s),
            "latency_ms": {"p50": statistics.median(latency_s) * 1000, "p90": p90 * 1000},
            "raw_latency_ms": {"p50": statistics.median(latencies) * 1000,
                               "p90": percentile(latencies, 90) * 1000},
            "setup_s": statistics.median(setup_s),
            "raw_setup_s": statistics.median(setup_times),
            "log_records_per_request": (sink.records - log_start) / requests,
            "setup_problems": problems,
            "failures": failures[:10],
            **workload.details(),
        }
        if tracer is None:
            metrics = {
                "latency_ms_p50": (details["latency_ms"]["p50"], "ms"),
                "latency_ms_p90": (details["latency_ms"]["p90"], "ms"),
                "setup_s": (details["setup_s"], "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            metrics = layer_metrics(tracer.summary(), requests, details)
            (OUT / f"{tag}.spans.json").write_text(json.dumps({
                "fields": ["name", "start", "end", "parent", "request", "ok", "work"],
                "spans": tracer.spans,
            }))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": failed == 0 and not problems,
        "attempted": requests,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    samples = {"latency_s": latencies, "setup_s": setup_times, "scales": scales,
               "reference_s": probe.samples}
    (OUT / f"{tag}.json").write_text(
        json.dumps({"details": details, "result": result, "samples": samples}, indent=1)
    )
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


def layer_metrics(summary, requests, details):
    """Per-layer numbers from the spans of the timed loop (set-up spans only
    for ``serialize.save_model`` and, with the loop's, ``data.parse_csv``).
    ``.s`` is seconds per request, ``.ms`` milliseconds per call; span times
    are scaled by the run's median time scale."""
    loop, setup = summary.get("loop", {}), summary.get("setup", {})
    scale = details["time_scale"]

    def total(name, key, phases=(loop,)):
        value = sum(phase.get(name, {}).get(key, 0) for phase in phases)
        return value * scale if key in ("s", "self_s") else value

    def per_request(name, key="s"):
        return total(name, key) / requests

    def ms_per_call(name, phases=(loop,), key="s"):
        calls = total(name, "calls", phases)
        return 1000 * total(name, key, phases) / calls if calls else 0.0

    def us_per_unit(name):
        work = total(name, "work")
        return 1e6 * total(name, "s") / work if work else 0.0

    m = {
        "lstm.train_lstm.s": (per_request("lstm.train_lstm"), "s"),
        "lstm.train_lstm.calls": (per_request("lstm.train_lstm", "calls"), "count"),
        "lstm.minibatches": (per_request("lstm.train_lstm", "work"), "count"),
        "lstm.minibatch_us": (us_per_unit("lstm.train_lstm"), "us"),
        "lstm.forecast_lstm.ms": (ms_per_call("lstm.forecast_lstm"), "ms"),
        "arima.fit_arima.s": (per_request("arima.fit_arima"), "s"),
        "arima.fit_arima.self_s": (per_request("arima.fit_arima", "self_s"), "s"),
        "arima.fit_arima.calls": (per_request("arima.fit_arima", "calls"), "count"),
        "arima.fit_arima.failed": (per_request("arima.fit_arima", "failed"), "count"),
        "arima.css_residuals.s": (per_request("arima.css_residuals"), "s"),
        "arima.css_residuals.calls": (per_request("arima.css_residuals", "calls"), "count"),
        "mlp.fit_mlp.s": (per_request("mlp.fit_mlp"), "s"),
        "mlp.epoch_us": (us_per_unit("mlp.fit_mlp"), "us"),
        "mlp.forecast_mlp.ms": (ms_per_call("mlp.forecast_mlp"), "ms"),
        "additive.fit_additive.s": (per_request("additive.fit_additive"), "s"),
        "additive.forecast_additive.s": (per_request("additive.forecast_additive"), "s"),
        "autoreg.fit_autoreg.s": (per_request("autoreg.fit_autoreg"), "s"),
        "autoreg.forecast_autoreg.s": (per_request("autoreg.forecast_autoreg"), "s"),
        "backtest.compare_models.s": (per_request("backtest.compare_models"), "s"),
        "backtest.grid_search.s": (per_request("backtest.grid_search"), "s"),
        "serialize.load_model.ms": (ms_per_call("serialize.load_model"), "ms"),
        "serialize.save_model.ms": (ms_per_call("serialize.save_model", (setup,)), "ms"),
        "cli.cmd_forecast.self_ms": (ms_per_call("cli.cmd_forecast", key="self_s"), "ms"),
        "cli.log_records": (details["log_records_per_request"], "count"),
        "data.parse_csv.ms": (ms_per_call("data.parse_csv", (loop, setup)), "ms"),
        "transform.make_windows.s": (per_request("transform.make_windows"), "s"),
        "transform.difference_values.s": (per_request("transform.difference_values"), "s"),
        "traced.latency_ms_p50": (details["latency_ms"]["p50"], "ms"),
        "traced.latency_ms_p90": (details["latency_ms"]["p90"], "ms"),
        "traced.raw_latency_ms_p50": (details["raw_latency_ms"]["p50"], "ms"),
        "probe.reference_kernel_ms": (details["reference_kernel"]["median_ms"], "ms"),
    }
    candidates = details.get("candidates", {})
    attempted = sum(c["attempted"] for c in candidates.values())
    m["backtest.grid_search.candidates"] = (attempted, "count")
    m["backtest.grid_search.failed"] = (sum(c["failed"] for c in candidates.values()), "count")
    for family in spans.FAMILIES:
        counts = candidates.get(family, {})
        m[f"{family}.grid.attempted"] = (counts.get("attempted", 0), "count")
        m[f"{family}.grid.failed"] = (counts.get("failed", 0), "count")
        m[f"{family}.test_mse"] = (details.get("test_mse", {}).get(family, 0.0), "1")
    m["arima.grid.root_flagged"] = (candidates.get("arima", {}).get("root_flagged", 0), "count")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "epiforecast" / "cli.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
