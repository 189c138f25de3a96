"""Outside-in benchmark of splatlab: one workload per process.

    python3 bench/run.py --workload train --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and from nowhere else. The process pins BLAS to one thread
before numpy loads and starts no threads or processes of its own.

--trace 0 times the ops untraced and prints the end-to-end metrics, in
seconds at a reference machine speed (see speedprobe.py). --trace 1
alternates untraced and traced ops (see layertrace.py) and prints the
per-layer metrics; the untraced half gives the tracing overhead. The last
stdout line is the result object; the line before it is the full record
(environment, wall and scaled times, exact counts, every failed check).
"""

from time import perf_counter

T_START = perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
GOLDEN_SEED = 20261017


def _import_package():
    """Import splatlab from this checkout's src/, or exit 1 without a result."""
    if not (SRC / "splatlab" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'splatlab'} not found; run from the root of a splatlab checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import splatlab

    if SRC.resolve() not in Path(splatlab.__file__).resolve().parents:
        sys.exit(f"error: imported splatlab from {splatlab.__file__}, not from {SRC}")


def _git_commit() -> str | None:
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


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "splatlab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _environment(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _per_layer(trace, traced: list, untraced_scaled: list, counts: dict) -> dict:
    """Per-op figures of the traced ops, from (wall, scaled) op times; functions never called read 0."""
    n = len(traced)
    per_op = {f"{layer}.self_s": secs / n for layer, secs in trace.layer_self_s().items()}
    for qual in trace.spans:
        per_op[f"{qual}.self_s"] = trace.self_s[qual] / n
        per_op[f"{qual}.calls"] = trace.calls[qual] / n
    fwd_s = trace.total_s["splatting.splat_forward"]
    per_op["splatting.forward_points_per_s"] = trace.tally["splatting.forward_points"] / fwd_s if fwd_s else 0.0
    per_op["trace.covered_frac"] = trace.covered_s / sum(wall for wall, _ in traced)
    per_op["trace.overhead_frac"] = (statistics.median(s for _, s in traced)
                                     / statistics.median(untraced_scaled) - 1.0)
    per_op.update(counts)
    return per_op


def _check_counts_repeat(counts: dict, key: str) -> list[str]:
    """Compare exact counts with an earlier run of the same code, workload and seed."""
    store = ROOT / ".bench_work" / "counts" / f"{key}.json"
    store.parent.mkdir(parents=True, exist_ok=True)
    seen = json.loads(store.read_text()) if store.is_file() else {}
    problems = [f"exact count {k} = {v} here, {seen[k]} in an earlier run"
                for k, v in counts.items() if k in seen and seen[k] != v]
    if not problems:
        tmp = store.with_name(f"{store.name}.{os.getpid()}")
        tmp.write_text(json.dumps({**seen, **counts}, sort_keys=True))
        os.replace(tmp, store)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke test's small inputs")
    args = parser.parse_args(argv)

    _import_package()
    import numpy as np

    import layertrace
    import speedprobe
    import workloads

    t_import = perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size][args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(args, np, layertrace, speedprobe, cls, size, workdir, t_import)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, np, layertrace, speedprobe, cls, size, workdir, t_import) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    failures: list[tuple[str, str]] = []  # (op label, problem); an op fails on any problem
    attempted = 0

    def settle(label, problems):
        failures.extend((label, p) for p in problems)

    def attempt(label, wl, inp, first=False, tracer=None):
        """Run one op and check it; returns (seconds, record or None)."""
        nonlocal attempted
        attempted += 1
        with tracer.active() if tracer else contextlib.nullcontext():
            t0 = perf_counter()
            try:
                out = wl.run(inp)
            except Exception:  # the benchmark boundary: an op that raises is a failed op
                out = None
            dt = perf_counter() - t0
        if out is None:
            settle(label, [traceback.format_exc()])
            return dt, None
        rec = wl.record(inp, out, first)
        settle(label, rec["problems"])
        return dt, rec

    # the speed probe runs before the set-ups and after each set-up and op,
    # outside their timings; speedprobe.rescale turns wall times into
    # seconds at the reference speed
    probe = speedprobe.SpeedProbe()
    setup_probes = [probe()]

    # set-up, repeated: inputs, input files and one warm-up op on op 0's input
    setup_s, warm = [], []
    for rep in range(SETUP_REPS):
        t0 = perf_counter()
        wl = cls(size, args.seed, workdir / f"setup{rep}")
        inp = wl.make_input(0)
        prepare_s = perf_counter() - t0
        dt, rec = attempt(f"warm-up {rep}", wl, inp)
        setup_s.append(prepare_s + dt)
        setup_probes.append(probe())
        if rec is not None:
            warm.append(rec)
        del inp

    # timed ops; with --trace 1 every second op is traced
    trace = layertrace.LayerTrace() if args.trace else None
    if trace and trace.missing:
        print(f"warning: no count hook for {', '.join(trace.missing)}", file=sys.stderr)
    times, traced, recs, trace_counts = [], [], [], []
    probes = [setup_probes[-1]]
    while (sum(times) < args.seconds or not times
           or (trace and not 0 < sum(traced) < len(times))):
        k = len(times)
        on = bool(trace) and k % 2 == 1
        before = trace.exact_counts() if on else None
        dt, rec = attempt(f"op {k}", wl, wl.make_input(k), k == 0, trace if on else None)
        times.append(dt)
        probes.append(probe())
        traced.append(on)
        recs.append(rec)
        if on:
            after = trace.exact_counts()
            trace_counts.append({name: after[name] - before[name] for name in after})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = speedprobe.rescale(times, probes)
    setup_scaled = speedprobe.rescale(setup_s, setup_probes)
    import_scaled = speedprobe.rescale([t_import], setup_probes)[0]

    # checks that need the whole run, outside the timed region
    first = recs[0]
    if first is not None:
        settle("op 0", wl.check_first(first))
        for rep, rec in enumerate(warm):
            problems = []
            if rec["exact"] != first["exact"]:
                problems.append("output differs from op 0 on the same input")
            if rec["counts"] != first["counts"]:
                problems.append(f"exact counts {rec['counts']} differ from op 0's {first['counts']}")
            settle(f"warm-up {rep}", problems)
    for i, tc in enumerate(trace_counts[1:], start=1):
        if tc != trace_counts[0]:
            settle(f"op {2 * i + 1}", [f"traced counts {tc} differ from the first traced op's {trace_counts[0]}"])

    recorded = json.loads((HERE / "golden.json").read_text()).get(args.size, {}).get(args.workload)
    gwl = cls(size, GOLDEN_SEED, workdir / "reference")
    _, grec = attempt("reference op", gwl, gwl.make_input(0))
    if grec is not None:
        settle("reference op", gwl.compare(grec["summary"], recorded) if recorded else ["no recorded reference"])

    counts = {"fileio.bytes_written": 0}  # only analyze writes files
    counts.update(first["counts"] if first else {})
    if trace_counts:
        counts.update(trace_counts[0])
    # run-level problems are charged to op 0, whose counts and metrics they concern
    settle("op 0", _check_counts_repeat(
        counts, f"{args.size}-{args.workload}-{args.seed}-{_source_digest()[:16]}"))

    ok = [t for t, rec in zip(scaled, recs) if rec is not None]
    plain = [t for t, on, rec in zip(scaled, traced, recs) if rec is not None and not on]
    if trace:
        hot = [(t, ts) for t, ts, on, rec in zip(times, scaled, traced, recs) if rec is not None and on]
        values = _per_layer(trace, hot, plain, counts) if hot and plain else {}
    else:
        values = {
            "ops_per_s": len(ok) / sum(ok) if ok else 0.0,
            "op_p50_s": statistics.median(plain) if plain else float("nan"),
            "setup_s": import_scaled + statistics.median(setup_scaled),
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            value = values[m["name"]]
        else:
            settle("op 0", [f"{m['name']} was not measured"])
            value = float("nan")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    failed = len({label for label, _ in failures})
    problems = [f"{label}: {p}" for label, p in failures]
    record = {
        "workload": args.workload, "size": args.size, "trace": args.trace,
        "env": _environment(np, args.seed),
        "op_samples": len(times), "traced_samples": sum(traced),
        "op_wall_s": times, "op_scaled_s": scaled, "setup_wall_s": setup_s,
        "setup_scaled_s": setup_scaled, "import_wall_s": t_import,
        "setup_probe_s": setup_probes, "op_probe_s": probes,
        "peak_rss_mb": peak_rss_mb, "failed_frac": failed / attempted,
        "exact_counts": counts, "failures": problems,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    for line in problems:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
