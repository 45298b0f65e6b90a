"""Closed-loop benchmark of sofic-lab: one process, one op in flight.

    python3 perfbench/run.py --workload exact-count --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the run times ops for ``--seconds`` and
prints the end-to-end metrics; with ``--trace 1`` it runs every op once
plainly and once with a span around every call into a library layer, and
prints the per-layer metrics computed from those spans.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Set-up is timed from a fresh import until warm-up ops have filled the lazy
caches (planted type tables, per-k monotonicity checks).  The run repeats
it in SETUP_PROBES fresh interpreters and reports the median.

Times in the end-to-end metrics are scaled to a reference speed.  On a
host whose cores are shared, the speed of the same code swings by half
within seconds, so raw wall times of one run say more about the
neighbours than about the code.  A fixed pure-Python loop (the speed
probe) is timed between ops, and each op's wall time is multiplied by
REFERENCE_PROBE_S over the mean of the probes just before and after it:
every op is reported as if the core ran at the speed where the probe
takes REFERENCE_PROBE_S.  Set-up is scaled the same way with probes taken just
before and after it.  The raw wall figures are printed beside the metrics.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer, self_times, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("exact-count", "rate-scan", "core-density", "sofic-census")
SETUP_PROBES = 2  # fresh interpreters timed besides this one
PROBE_TIMEOUT_S = 150
# The speed probe's time on an idle core of the host the bounds in
# BENCHMARK.json were measured on (x86-64, 2 vCPUs, CPython 3.11).
REFERENCE_PROBE_S = 0.0005
_PROBE_DATA = list(range(64))
# the traced run's work counts cover this many ops, whatever the window holds
TRACE_COUNT_OPS = 40

LAYERS = ("samplers", "hypergraph", "group_model", "exact_count",
          "analytics", "structure", "tree_markov", "harness")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    **{"%s.self_s" % layer: "s" for layer in LAYERS},
    "exact_count.full.self_s": "s",
    "exact_count.distance.self_s": "s",
    "exact_count.moment.self_s": "s",
    "exact_count.leaves": "count",
    "exact_count.leaves_per_s": "1/s",
    "analytics.points_per_s": "1/s",
    "analytics.first_call_s": "s",
    "analytics.fixed_point_levels": "count",
    "samplers.vertices_per_s": "1/s",
    "samplers.uniform.self_s": "s",
    "samplers.uniform.vertices_per_s": "1/s",
    "samplers.planted.self_s": "s",
    "samplers.planted.vertices_per_s": "1/s",
    "samplers.table_build_s": "s",
    "tree_markov.root_samples_per_s": "1/s",
    "tree_markov.census_vertices_per_s": "1/s",
    "structure.subsets_per_s": "1/s",
    "structure.peel_levels": "count",
    "group_model.vertex_word_pairs_per_s": "1/s",
    "harness.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this interpreter, print it and exit")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_library():
    """Import the checkout's own sofic_lab; refuse any other copy."""
    if not (SRC / "sofic_lab" / "__init__.py").is_file():
        sys.exit("perfbench: no sofic_lab sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import sofic_lab

    if Path(sofic_lab.__file__).resolve().parent != SRC / "sofic_lab":
        sys.exit("perfbench: imported sofic_lab from %s, not %s" % (sofic_lab.__file__, SRC))
    import workloads

    return workloads


def speed_probe(repeats=2):
    """Fastest of ``repeats`` runs of a fixed pure-Python loop, in seconds."""
    best = math.inf
    for _ in range(repeats):
        start = perf_counter()
        data = _PROBE_DATA
        table = {}
        acc = 0
        for i in range(4000):
            acc += data[i & 63] * i % 7
            table[i & 255] = acc
        best = min(best, perf_counter() - start)
    return best


def set_up(args, tracer=None):
    """Import, build the workload and run its warm-up ops.

    Returns the module, the workload, and the set-up time raw and scaled
    to the reference speed.
    """
    before = speed_probe(3)
    start = perf_counter()
    workloads = import_library()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    lib = workloads.make_lib(tracer)
    for j, inp in enumerate(workload.warm_inputs()):
        if tracer is not None:
            tracer.op = -1 - j
        workload.run(lib, inp)
    raw = perf_counter() - start
    scaled = raw * REFERENCE_PROBE_S / ((before + speed_probe(3)) / 2)
    return workloads, workload, raw, scaled


def run_ops(workload, lib, indices, scalar_errors, tracer=None, probe=False, check=True):
    """Run ops one at a time, each checked after it unless ``check`` is off.

    Returns (index, ok, seconds, probe seconds or None) per op.  With
    ``probe`` the speed probe runs between ops, and each op gets the mean of
    the probes just before and just after it.
    """
    records = []
    probes = []
    for i in indices:
        inp = workload.input(i)
        if tracer is not None:
            tracer.op = i
        if probe:
            probes.append(speed_probe())
        start = perf_counter()
        try:
            if tracer is not None:
                with tracer.span("op"):
                    out = workload.run(lib, inp)
            else:
                out = workload.run(lib, inp)
        except scalar_errors:
            out = None
        seconds = perf_counter() - start
        ok = out is not None and (not check or workload.check(i, inp, out))
        records.append((i, ok, seconds, None))
    if not probe:
        return records
    probes.append(speed_probe())
    return [r[:3] + ((before + after) / 2,)
            for r, before, after in zip(records, probes, probes[1:])]


def timed_indices(seconds, minimum=1):
    """Op indices 0, 1, ... until ``seconds`` have passed and at least
    ``minimum`` indices were handed out."""
    deadline = perf_counter() + seconds
    i = 0
    while i < minimum or perf_counter() < deadline:
        yield i
        i += 1


def setup_probe(args):
    """Time set-up in a fresh interpreter running this script."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("perfbench: set-up probe failed: %s" % proc.stderr.strip()[-500:])
    raw, scaled = proc.stdout.split()[-2:]
    return float(raw), float(scaled)


def end_to_end(args):
    workloads, workload, *setup = set_up(args)
    lib = workloads.make_lib()
    errors = (workloads.ScaleRefusal, ValueError)
    start = perf_counter()
    records = run_ops(workload, lib, timed_indices(args.seconds), errors, probe=True)
    wall = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(1 for r in records if not r[1])
    run_failures = workload.run_checks()
    setups = [setup] + [setup_probe(args) for _ in range(SETUP_PROBES)]

    raw_ms = [r[2] * 1000.0 for r in records]
    scaled_ms = [r[2] * 1000.0 * REFERENCE_PROBE_S / r[3] for r in records]
    pct, tail_ms, beyond = tail_percentile(scaled_ms)
    attempted = len(records)
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "ops_per_s": 1000.0 * attempted / sum(scaled_ms),
        "op_p50_ms": statistics.median(scaled_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }
    notes = {
        "setup_s": "median of %d fresh set-ups; raw %.3f s"
        % (len(setups), statistics.median(r for r, _ in setups)),
        "ops_per_s": "raw %d ops in %.2f s wall; probe median %.3f ms"
        % (attempted, wall, 1000.0 * statistics.median(r[3] for r in records)),
        "op_p50_ms": "of %d ops; raw %.3f ms" % (attempted, statistics.median(raw_ms)),
        "op_tail_ms": "p%g of %d ops, %d beyond; raw %.3f ms"
        % (pct, attempted, beyond, tail_percentile(raw_ms)[1]),
    }
    return attempted, failed, run_failures, metrics, END_TO_END_UNITS, notes


def cold_minus_warm(spans, name, key):
    """Sum over keys of (first call - fastest later call) for set-up spans."""
    groups = {}
    for s in spans:
        if s.phase == "setup" and s.name == name:
            groups.setdefault(tuple(s.counts.get(f) for f in key), []).append(s.duration)
    return sum(d[0] - min(d[1:]) for d in groups.values() if len(d) > 1)


def layer_metrics(tracer):
    timed = [(s, t) for s, t in zip(tracer.spans, self_times(tracer.spans))
             if s.phase == "ops"]
    spans = [s for s, _ in timed]

    def self_s(prefix):
        return sum(t for s, t in timed
                   if s.name == prefix or s.name.startswith(prefix + "."))

    def count(name, key, ops=math.inf):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name and s.op < ops)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m = {"%s.self_s" % layer: self_s(layer) for layer in LAYERS if layer != "harness"}
    full = self_s("exact_count.count_proper")
    distance = self_s("exact_count.count_at_distance")
    leaves = count("exact_count.count_proper", "leaves") + count(
        "exact_count.count_at_distance", "leaves")
    # plain counts cover a fixed op prefix, so they repeat exactly for a seed
    exact = TRACE_COUNT_OPS
    m.update({
        "exact_count.full.self_s": full,
        "exact_count.distance.self_s": distance,
        "exact_count.moment.self_s": self_s("exact_count.exact_first_moment")
        + self_s("exact_count.exact_planted_distance_moment"),
        "exact_count.leaves": count("exact_count.count_proper", "leaves", exact)
        + count("exact_count.count_at_distance", "leaves", exact),
        "exact_count.leaves_per_s": rate(leaves, full + distance),
        "analytics.points_per_s": rate(count("analytics.distance_rate_scan", "points"),
                                       self_s("analytics.distance_rate_scan")),
        "analytics.first_call_s": cold_minus_warm(
            tracer.spans, "analytics.distance_rate_scan", ("k", "points")),
        "analytics.fixed_point_levels": count("analytics.core_fixed_point", "levels", exact),
        "samplers.table_build_s": cold_minus_warm(
            tracer.spans, "samplers.sample_planted_hom", ("n", "k", "d")),
        "tree_markov.root_samples_per_s": rate(
            count("tree_markov.core_density_estimate", "root_samples"),
            self_s("tree_markov.core_density_estimate")),
        "tree_markov.census_vertices_per_s": rate(
            count("tree_markov.local_pattern_census", "census_vertices"),
            self_s("tree_markov.local_pattern_census")),
        "structure.subsets_per_s": rate(count("structure.expansivity_scan", "subsets"),
                                        self_s("structure.expansivity_scan")),
        "structure.peel_levels": count("structure.density_report", "peel_levels", exact),
        "group_model.vertex_word_pairs_per_s": rate(
            count("group_model.check_sofic", "vertex_word_pairs"),
            self_s("group_model.check_sofic")),
    })
    vertices = {}
    for kind in ("uniform", "planted"):
        name = "samplers.sample_%s_hom" % kind
        m["samplers.%s.self_s" % kind] = self_s(name)
        vertices[kind] = count(name, "vertices")
        m["samplers.%s.vertices_per_s" % kind] = rate(vertices[kind], self_s(name))
    m["samplers.vertices_per_s"] = rate(sum(vertices.values()), m["samplers.self_s"])
    return m


def harness_overhead(workload, tracer):
    """(through-harness minus direct seconds, bytes written) over the
    workload's harness jobs; each side is recorded as a span."""
    OUT_DIR.mkdir(exist_ok=True)
    tracer.phase = "harness"
    extra = 0.0
    written = 0
    for j, (through, direct, files) in enumerate(workload.harness_jobs(str(OUT_DIR))):
        tracer.op = j
        direct()  # same caches on both sides
        with contextlib.redirect_stdout(io.StringIO()):
            with tracer.span("harness.through") as h:
                through()
        with tracer.span("harness.direct") as d:
            direct()
        extra += h.duration - d.duration
        written += sum(os.path.getsize(f) for f in files)
    return extra, written


def traced(args):
    tracer = Tracer()
    workloads, workload, *_ = set_up(args, tracer)
    errors = (workloads.ScaleRefusal, ValueError)
    tracer.phase = "ops"
    # each op runs untraced and traced, alternating which goes first, so
    # both sides see the same inputs and the same machine state
    plain, records = [], []
    sides = ((plain, workloads.make_lib(), None),
             (records, workloads.make_lib(tracer), tracer))
    for i in timed_indices(args.seconds, TRACE_COUNT_OPS):
        for sink, lib, t in (sides if i % 2 == 0 else sides[::-1]):
            sink.extend(run_ops(workload, lib, [i], errors, t, check=t is not None))
    failed = sum(1 for r in records if not r[1])
    run_failures = workload.run_checks()
    metrics = layer_metrics(tracer)
    metrics["harness.self_s"], metrics["harness.bytes_written"] = harness_overhead(
        workload, tracer)
    untraced_s = sum(r[2] for r in plain)
    metrics["trace.overhead_frac"] = sum(r[2] for r in records) / untraced_s - 1
    tracer.write_jsonl(str(OUT_DIR / ("spans-%s-%d.jsonl" % (args.workload, args.seed))))
    notes = {"trace.overhead_frac": "%d ops, %.2f s untraced" % (len(records), untraced_s)}
    return len(records), failed, run_failures, metrics, PER_LAYER_UNITS, notes


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        print("%.9f %.9f" % set_up(args)[2:])
        return 0
    attempted, failed, run_failures, metrics, units, notes = (
        traced(args) if args.trace else end_to_end(args))
    missing = set(units) - set(metrics)
    if missing:
        raise AssertionError("metrics not computed: %s" % sorted(missing))
    for message in run_failures:
        print("check failed: %s" % message, file=sys.stderr)
    for name in units:
        note = notes.get(name)
        print("%-40s %16.6f %-6s %s" % (name, metrics[name], units[name],
                                           "(%s)" % note if note else ""))
    result = {
        "correct": failed == 0 and not run_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
