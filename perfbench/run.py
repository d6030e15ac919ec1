"""Benchmark of the descriptor_minimax CLI. Run from the repository root:

    python3 perfbench/run.py --workload oneshot_ladder --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --baseline

Workloads (see BENCHMARK.json): ``oneshot_ladder`` and
``recursive_long``. Each run is one closed-loop client in this
process, with ``src`` on the import path and OpenBLAS, OpenMP, MKL and
the package's oracle pinned to one thread. In order: time ``import
descriptor_minimax`` in fresh interpreters (set-up), send one untimed
request of each request class, send the workload's fixed number of
rounds one request at a time, each only after the previous one
returned, time the set-up again and check every answer. A round's
seeded inputs are written before the round starts, outside the timed
requests.

A round sends each of the workload's request slots once, on a freshly
drawn instance. A slot's latency is the median over its rounds: the
host is shared, and its speed changes within a second and drifts over
minutes, so one request is a noisy sample of it. The time metrics are
taken over the slots: ``requests_per_s`` is the slot count over the
summed slot latencies, ``latency_p50_s`` their median and
``latency_tail_s`` the slot at the highest percentile with ten slots
beyond it, or the slowest slot where there are fewer than eleven.

``--seconds`` caps the timed loop: no round starts once that many seconds
of requests are spent. A run that cannot send all its rounds fails, so
the slot count, and with it the percentile behind ``latency_tail_s``,
is the same on every commit.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics. With ``--trace 1`` the rounds run plainly
and then the first round again, on the same instances, with the
package's public functions wrapped in spans, and the line carries the
per-layer metrics. Lines before it describe the run: environment, slot
count, tail percentile, per-class median latencies and any failed
checks. Generated inputs live in
``.bench_work/`` and are removed after the run; the spans of a traced
run stay there.

``--baseline`` prints the size ladder of the ROADMAP baseline next to
the figures quoted there.
"""

from __future__ import annotations

import os
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "descriptor_minimax", "__init__.py")):
    sys.exit("error: run from the repository root: src/descriptor_minimax is missing")

# One thread for the BLAS and for the oracle's sampling pool. The BLAS
# reads its thread count once, when numpy is first imported, so these are
# set before any import of numpy; the set-up probes inherit them. With two
# sampling threads, which malloc arena takes which chunk varies from run
# to run, and the peak RSS of `validate` with it (228 or 264 MB).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DESCRIPTOR_MINIMAX_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import baseline  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# Set-up probes per window. One window runs before the warm-up and one
# after the timed loop: import time drifts with the host over seconds,
# and the median over two windows about a minute apart drifts less.
PROBES = 3
PROBE_CODE = "import descriptor_minimax.cli\nprint('ready', flush=True)\n"


def setup_probes():
    """Wall times from spawning a fresh interpreter to the package imported."""
    argv = [sys.executable, "-c", PROBE_CODE]
    times = []
    for _ in range(PROBES):
        started = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - started)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return times


def send(request, tracer=None, request_id=None):
    """One closed-loop request: returns (latency, outcome or exception)."""
    if tracer is not None:
        tracer.request = request_id
    started = time.perf_counter()
    try:
        outcome = request.call()
    except Exception as exc:  # a crash is a failed request, not a failed run
        outcome = exc
    return time.perf_counter() - started, outcome


def run_rounds(workload, seed, work, cap, rounds, tracer=None, tag="r"):
    """Send ``rounds`` rounds; none starts once ``cap`` seconds are spent.

    Round ``i`` draws its instances from the seed ``[seed, i]``, so a
    traced round repeats the plain round's inputs. Returns the (request,
    latency, outcome) triples and the rounds sent.
    """
    sent = []
    spent = 0.0
    index = 0
    while index < rounds and spent < cap:
        rng = np.random.default_rng([seed, index])
        for request in workload.round_requests(rng, work, f"{tag}{index}", index):
            latency, outcome = send(request, tracer, len(sent))
            spent += latency
            sent.append((request, latency, outcome))
        index += 1
    return sent, index


def slot_latencies(sent):
    """Median latency over the rounds of each slot, as (request, latency) pairs."""
    rounds = {}
    for request, latency, _ in sent:
        rounds.setdefault(request.slot, (request, []))[1].append(latency)
    return [(request, statistics.median(times)) for request, times in rounds.values()]


def check_all(sent):
    """Failed requests as (class, reason); a wrong exit code or answer fails."""
    failures = []
    for request, _, outcome in sent:
        if isinstance(outcome, Exception):
            failures.append((request.cls, f"raised {outcome!r}"))
            continue
        try:
            request.check(outcome)
        except Exception as exc:
            failures.append((request.cls, f"{type(exc).__name__}: {exc}"))
    return failures


def tail(latencies):
    """Latency at the highest percentile with at least 10 samples beyond it.

    Returns (value, percentile). With fewer than 11 samples no percentile
    qualifies and the slowest sample is returned.
    """
    ordered = sorted(latencies)
    index = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def scaling_exponent(slots):
    """Log-log slope of median n=2 one-shot estimate slot latency against N."""
    by_size = {}
    for request, latency in slots:
        if request.size:
            by_size.setdefault(request.size, []).append(latency)
    if len(by_size) < 2:
        return None
    sizes = sorted(by_size)
    x = np.log(sizes)
    y = np.log([statistics.median(by_size[s]) for s in sizes])
    return float(np.polyfit(x, y, 1)[0])


def class_medians(sent):
    by_class = {}
    for request, latency, _ in sent:
        by_class.setdefault(request.cls, []).append(latency)
    return {c: (statistics.median(v), len(v)) for c, v in sorted(by_class.items())}


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads_env": {k: os.environ[k] for k in THREAD_VARS},
    }


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0, help="cap on the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", action="store_true", help="print the ROADMAP baseline ladder")
    args = ap.parse_args(argv)

    if args.baseline:
        baseline.main()
        return 0
    if args.workload is None:
        return fail("--workload is required")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    out_dir = os.path.join(ROOT, ".bench_work")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = tempfile.mkdtemp(prefix=f"inputs-{stem}-", dir=out_dir)
    workload = workloads.WORKLOADS[args.workload]()
    try:
        probes = [] if args.trace else setup_probes()

        warm = workload.warmup(np.random.default_rng([args.seed, 2**21]), work)
        warm_failures = check_all([(r,) + send(r) for r in warm])

        sent, rounds = run_rounds(workload, args.seed, work, args.seconds, workload.ROUNDS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        slots = slot_latencies(sent)
        latencies = [latency for _, latency in slots]
        tail_value, tail_pct = tail(latencies)
        scaling = scaling_exponent(slots)

        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced_sent, traced_rounds = run_rounds(workload, args.seed, work, args.seconds, 1, tracer, "t")
            finally:
                tracer.uninstall()
            traced = sum(latency for _, latency, _ in traced_sent)
            untraced = sum(latency for _, latency, _ in sent[: len(traced_sent)])
            metrics = tracer.metrics(traced_rounds)
            metrics["trace.overhead_ratio"] = traced / untraced - 1.0
            metrics["oneshot.scaling_exp"] = scaling if scaling is not None else 0.0
            tracer.dump(os.path.join(out_dir, f"spans-{stem}.json"))
            sent = sent + traced_sent
        else:
            probes += setup_probes()
            metrics = {
                "setup_s": statistics.median(probes),
                "requests_per_s": len(latencies) / sum(latencies),
                "latency_p50_s": statistics.median(latencies),
                "latency_tail_s": tail_value,
                "peak_rss_mb": peak_rss_mb,
            }
        failures = check_all(sent)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if rounds != workload.ROUNDS or round(tail_pct, 1) != workload.TAIL_PERCENTILE:
        return fail(
            f"{rounds} of {workload.ROUNDS} rounds sent within {args.seconds} s: latency_tail_s "
            f"would be p{tail_pct:.1f} of {len(latencies)} slots, not p{workload.TAIL_PERCENTILE}"
        )
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not measured: {missing}")

    print(f"# environment: {json.dumps(environment())}")
    print(f"# rounds={rounds} setup probes (s)={[round(t, 4) for t in probes]}")
    print(f"# latency_tail_s is p{tail_pct:.1f} of {len(latencies)} slots, each the median of {rounds} rounds")
    if scaling is not None:
        print(f"# one-shot estimate time ~ N^{scaling:.3f} (n=2 ladder)")
    if args.trace and tracer.absent:
        print(f"# absent (reported as 0): {tracer.absent}")
    for cls, (median, count) in class_medians(sent).items():
        print(f"# median {median:.6f} s over {count:3d}  {cls}")
    for cls, reason in failures[:20] + warm_failures:
        print(f"# FAILED {cls}: {reason}")
    print(
        json.dumps(
            {
                "correct": not failures and not warm_failures,
                "attempted": len(sent),
                "failed": len(failures),
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
