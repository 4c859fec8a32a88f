"""Benchmark of the regencodes CLI flow, end to end and layer by layer.

    python3 bench/run.py --workload layered-n14 --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source tree that has src/regencodes next to
bench/. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. The lines before it list
every metric with its unit and sample count, plus the environment. A full
result, and with --trace 1 the spans (gzipped JSON lines), go to .bench_out/
at the root of the tree; --profile adds a cProfile pass and writes its
pstats there too.
"""

from __future__ import annotations

import argparse
import cProfile
import gzip
import io
import json
import os
import platform
import pstats
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from statistics import mean, median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SCRATCH = ROOT / ".bench_tmp"

SETUP_PROBES = 9  # fresh processes per run; setup_s is their median
MIN_CYCLES = 11  # so each codec op has a tail value (stats.TAIL_BEYOND + 1)


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json, which names what a run reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", action="store_true", help="add a cProfile pass")
    return ap.parse_args(argv)


# -- set-up ----------------------------------------------------------------------


def _probe_setup(workload: str, runs: int) -> list[dict]:
    """Time import + first code build in fresh processes; the first is a warm-up."""
    env = {k: v for k, v in os.environ.items() if k != "REGENCODES_OUT_DIR"}
    env["PYTHONPATH"] = str(SRC)
    out = []
    for _ in range(runs + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out[1:]


def _setup_seconds(probe: dict) -> float:
    return probe["import_s"] + probe["build_s"]


# -- phases ------------------------------------------------------------------------


def _run_cycles(client, seconds: float, min_cycles: int = 1) -> range:
    """Whole rounds of cycles, for at least `seconds` and `min_cycles`."""
    first = client.cycles
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or client.cycles - first < min_cycles
           or (client.cycles - first) % client.round_length):
        client.cycle()
    return range(first, client.cycles)


def _cycle_seconds(client, cycles: range) -> float:
    per_cycle = defaultdict(float)
    for rec in client.ops:
        if rec.cycle in cycles:
            per_cycle[rec.cycle] += rec.normalized_seconds
    return median(per_cycle.values())


def _round_means(client, per_cycle: list[float]) -> list[float]:
    """Means over whole rounds, to which every failure pattern and subset contributes."""
    n = client.round_length
    return [mean(per_cycle[i:i + n]) for i in range(0, len(per_cycle), n)]


def _pattern_p50(recs, wall: bool) -> tuple[float, int]:
    """Mean over patterns of each pattern's median time in ms, and the pattern count.

    A plain median would sit on one pattern's time, and a slowdown confined
    to the other patterns would not move it.
    """
    by_pattern = defaultdict(list)
    for rec in recs:
        by_pattern[rec.pattern].append(rec.seconds if wall else rec.normalized_seconds)
    return mean(median(v) for v in by_pattern.values()) * 1e3, len(by_pattern)


def _latencies(client, cycles: range, kind: str, wall: bool) -> list[float]:
    """Per cycle, the mean time in ms of that cycle's ops of one kind."""
    per_cycle = defaultdict(list)
    for rec in client.ops:
        if rec.cycle in cycles and rec.kind == kind:
            per_cycle[rec.cycle].append(rec.seconds if wall else rec.normalized_seconds)
    return [mean(per_cycle[c]) * 1e3 for c in cycles]


def _end_to_end(client, cycles: range, setup: list[dict],
                rss_mb: float) -> tuple[dict, dict, dict]:
    """End-to-end values (times drift-normalized, see calibrate.py), wall times, samples.

    Run after client.finish_checks(), so that ok_ops_ratio counts oracle failures.
    """
    from calibrate import NOMINAL_S
    from stats import tail
    from workloads import KINDS

    measured = [rec for rec in client.ops if rec.cycle in cycles]
    wall = {"setup_s": median(_setup_seconds(p) for p in setup)}
    values = {"setup_s": median(_setup_seconds(p) * NOMINAL_S / p["loop_s"] for p in setup)}
    samples = {"setup_s": len(setup)}
    for kind in KINDS:
        # the tail is over per-cycle means, so that each of the ladder's nine
        # commands weighs in every sample
        recs = [rec for rec in measured if rec.kind == kind]
        for out, is_wall in ((values, False), (wall, True)):
            out[f"{kind}_p50_ms"], patterns = _pattern_p50(recs, is_wall)
            out[f"{kind}_tail_ms"], pct = tail(_latencies(client, cycles, kind, is_wall))
        samples[f"{kind}_p50_ms"] = f"{len(recs)} ops, {patterns} patterns"
        samples[f"{kind}_tail_ms"] = f"{len(cycles)} cycles, p{pct:.1f}"
    values["ops_per_s"] = len(measured) / sum(rec.normalized_seconds for rec in measured)
    wall["ops_per_s"] = len(measured) / sum(rec.seconds for rec in measured)
    samples["ops_per_s"] = len(measured)
    values["ok_ops_ratio"] = sum(rec.ok for rec in client.ops) / len(client.ops)
    samples["ok_ops_ratio"] = len(client.ops)
    values["peak_rss_mb"] = rss_mb
    samples["peak_rss_mb"] = 1
    # no successful encode leaves no ratio; the run then reports correct: false
    values["stored_bytes_per_user_byte"] = median(client.stored_ratios or [0.0])
    samples["stored_bytes_per_user_byte"] = len(client.stored_ratios)
    return values, wall, samples


def _span_targets():
    from regencodes import bandwidth, designs, layered, mds, precoded, tradeoff

    return [
        (designs, "verify_steiner", "designs.verify_steiner", None),
        (designs, "complete_design", "designs.complete_design", None),
        (layered.LayeredCode, "__init__", "layered.build", None),
        (layered.LayeredCode, "encode", "layered.encode", None),
        (layered.LayeredCode, "repair", "layered.repair",
         lambda args, result: sum(nc.alpha for nc in result[0])),
        (layered.LayeredCode, "reconstruct", "layered.reconstruct", None),
        (layered, "node_contents_from_text", "layered.node_parse", None),
        (layered, "node_contents_to_text", "layered.node_format", None),
        (mds.MdsCodec, "encode", "mds.encode", None),
        (mds.MdsCodec, "decode", "mds.decode", lambda args, result: len(args[1])),
        (precoded, "build_precoded", "precoded.build", None),
        (precoded.PrecodedCode, "encode", "precoded.encode", None),
        (precoded.PrecodedCode, "reconstruct", "precoded.reconstruct", None),
        (precoded, "linearized_eval", "precoded.linearized_eval", None),
        (tradeoff, "corner_points", "tradeoff.corner_points", None),
        (tradeoff, "achievable_points_c1", "tradeoff.achievable_points_c1", None),
        (tradeoff, "achievable_points_general", "tradeoff.achievable_points_general", None),
        (tradeoff, "csv_rows", "tradeoff.csv_rows", None),
        (bandwidth, "beta_formula", "bandwidth.beta_formula", None),
    ]


def _count_targets():
    from regencodes import extfield, gf

    return [
        (gf.BinaryField, "mul", "gf.mul.calls"),
        (gf.BinaryField, "inv", "gf.inv.calls"),
        (extfield.BinaryExtensionField, "mul", "extfield.mul.calls"),
        (extfield.BinaryExtensionField, "inv", "extfield.inv.calls"),
        (extfield.BinaryExtensionField, "frobenius", "extfield.frobenius.calls"),
    ]


def _span_metrics(client, tracer, cycles: range) -> dict[int, dict[str, float]]:
    """Per-cycle sums of span time, self time, calls and measured sizes."""
    from tracing import self_times

    spans = tracer.spans
    selfs = self_times(spans)
    per_cycle: dict[int, dict[str, float]] = {c: defaultdict(float) for c in cycles}
    for sp, own in zip(spans, selfs):
        agg = per_cycle[client.ops[sp.op].cycle]
        agg[sp.name + "_s"] += sp.end - sp.start
        agg[sp.name + ".self_s"] += own
        agg[sp.name + ".calls"] += 1
        if sp.name == "mds.decode":
            agg["mds.decode.symbols_in"] += sp.value
            parent = sp.parent
            while parent >= 0 and spans[parent].name != "layered.repair":
                parent = spans[parent].parent
            if parent >= 0:
                agg["layered.repair.symbols_read"] += sp.value
        elif sp.name == "layered.repair":
            agg["layered.repair.symbols_rebuilt"] += sp.value
    for agg in per_cycle.values():
        if agg["layered.repair.symbols_rebuilt"]:
            agg["layered.repair.read_per_rebuilt"] = (
                agg["layered.repair.symbols_read"] / agg["layered.repair.symbols_rebuilt"])
    return per_cycle


def _traced_run(client, seconds: float, setup: list[dict]) -> tuple[dict, dict, list]:
    from tracing import Instrument, Tracer, count_wrapper, package_modules, span_wrapper

    plain = _run_cycles(client, seconds / 4)

    tracer = Tracer()
    inst = Instrument(package_modules())
    for owner, attr, name, measure in _span_targets():
        inst.patch(owner, attr, span_wrapper(tracer, name, measure))
    client.tracer = tracer
    try:
        spanned = _run_cycles(client, seconds / 2)
    finally:
        client.tracer = None
        inst.restore()

    counter = Tracer()
    for owner, attr, name in _count_targets():
        inst.patch(owner, attr, count_wrapper(counter, name))
    counts = []  # one round: counts differ between failure patterns
    first = client.cycles
    try:
        for _ in range(client.round_length):
            client.cycle()
            counts.append(dict(counter.counters))
            counter.counters.clear()
    finally:
        inst.restore()
    counted = range(first, client.cycles)

    # each metric is per cycle: the median over the span phase's rounds of
    # the round's mean, or for counts the mean over the counted round
    per_cycle = _span_metrics(client, tracer, spanned)
    names = _units("per_layer")
    values = {name: median(_round_means(client, [per_cycle[c].get(name, 0.0) for c in spanned]))
              for name in names}
    samples = dict.fromkeys(names, f"{len(spanned) // client.round_length} rounds")
    for *_, name in _count_targets():
        values[name] = mean(c.get(name, 0) for c in counts)
        samples[name] = f"{len(counts)} cycles"
    values["extfield.build_s"] = median(p["extfield_s"] for p in setup)
    samples["extfield.build_s"] = len(setup)
    for key in ("naive", "msmr"):
        totals = [float(Fraction(*t[key])) for t in client.repair_totals if t and t.get(key)]
        values[f"layered.repair.{key}_total"] = median(totals or [0.0])
        samples[f"layered.repair.{key}_total"] = len(totals)
    base = _cycle_seconds(client, plain)
    values["trace.span_overhead_ratio"] = _cycle_seconds(client, spanned) / base
    values["trace.count_overhead_ratio"] = _cycle_seconds(client, counted) / base
    samples["trace.span_overhead_ratio"] = f"{len(spanned)} vs {len(plain)} cycles"
    samples["trace.count_overhead_ratio"] = f"{len(counted)} vs {len(plain)} cycles"
    return values, samples, tracer.spans


def _profile(client, path: Path) -> str:
    prof = cProfile.Profile()
    prof.enable()
    try:
        client.cycle()
    finally:
        prof.disable()
    prof.dump_stats(path)
    buf = io.StringIO()
    pstats.Stats(str(path), stream=buf).sort_stats("tottime").print_stats(12)
    return buf.getvalue()


# -- reporting --------------------------------------------------------------------


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "regencodes" / "__init__.py").is_file():
        print(f"error: no regencodes source tree at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("REGENCODES_OUT_DIR", None)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Client

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    setup = _probe_setup(wl.name, SETUP_PROBES)

    OUT.mkdir(exist_ok=True)
    SCRATCH.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=stem + "-", dir=SCRATCH)
    home = os.getcwd()
    client = Client(wl, args.seed)
    profile_text = None
    try:
        os.chdir(workdir)  # relative paths keep node files and manifests location-free
        client.cycle()  # warm-up: lazy caches fill, first-call costs are paid
        if args.trace:
            values, samples, spans = _traced_run(client, args.seconds, setup)
            wall = {}
        else:
            measured = _run_cycles(client, args.seconds, MIN_CYCLES)
            # ru_maxrss is in KiB on Linux; read before the oracle checks run
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.profile:
            profile_text = _profile(client, OUT / f"{stem}.pstats")
        client.finish_checks()
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        values, wall, samples = _end_to_end(client, measured, setup, rss_mb)

    units = _units("per_layer" if args.trace else "end_to_end")
    failed = sum(not rec.ok for rec in client.ops)
    result = {
        "correct": failed == 0,
        "attempted": len(client.ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail = dict(result, environment=_environment(args), samples=samples, wall=wall,
                  failed_ops_ratio=failed / len(client.ops), cycles=client.cycles,
                  failures=client.notes[:20],
                  ops=[[r.kind, r.pattern, r.cycle, r.seconds, r.loop_s, r.ok]
                       for r in client.ops])
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")
    if args.trace:
        with gzip.open(OUT / f"{stem}.spans.jsonl.gz", "wt") as fh:
            for sp in spans:
                fh.write(json.dumps(sp.__dict__) + "\n")

    print(f"# {wl.name}, seed {args.seed}, {client.cycles} cycles")
    for name, unit in units.items():
        raw = f"  wall {wall[name]:.6g}" if name in wall else ""
        print(f"{name:38s} {values[name]:14.6g} {unit:6s} ({samples[name]}){raw}")
    print(f"{'failed_ops_ratio':38s} {detail['failed_ops_ratio']:14.6g} ratio  "
          f"({failed} of {len(client.ops)} ops)")
    for note in client.notes[:20]:
        print(f"FAILED {note}")
    if profile_text:
        print(profile_text)
    print("# environment " + json.dumps(detail["environment"], sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
