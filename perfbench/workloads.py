"""The four benchmark workloads and the library facade they call through.

Every op reaches the library only through ``lib``, a namespace holding the
public functions of each layer.  In the traced run ``make_lib`` wraps each
of them in a span named ``<module>.<function>`` and attaches the work the
call did as counts, so the per-layer numbers come from the same op code the
timed run executes.

An op returns its outputs; ``check`` verifies them right after the op, by
a route independent of it and outside the op's timing, and keeps what
``run_checks`` needs to test what only holds across a whole run.  Outputs
are dropped after their check, so memory does not grow with the op count.  Inputs come from ``RngState(seed, stream)`` with the op index as
the stream, so a seed fixes every input of a run.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp

from sofic_lab import (
    ScaleRefusal,
    analytics,
    exact_count,
    group_model,
    hypergraph,
    samplers,
    structure,
    tree_markov,
)
from sofic_lab.analytics import degrees_from_offset, working_precision
from sofic_lab.exact_count import count_at_distance, count_equitable
from sofic_lab.group_model import ModelParams, generator_pair_words, generator_words
from sofic_lab.harness import ExperimentConfig, cli_dispatch, run_experiment
from sofic_lab.hypergraph import Coloring
from sofic_lab.samplers import RngState
from sofic_lab.structure import core_decomposition, core_decomposition_reference
from sofic_lab.tree_markov import count_proper_patterns, enumerate_proper_patterns

# Streams at and above this offset feed warm-up, tree and harness draws, so
# they never repeat the input of a timed op.
AUX_STREAM = 1 << 40
# replicas per experiment in the harness comparison of the traced run
HARNESS_REPLICAS = 2


def _model_counts(hom, params, *args, **kwargs):
    return {"vertices": params.n * params.d, "n": params.n, "k": params.k, "d": params.d}


def _leaves(report, *args, **kwargs):
    return {"leaves": report.value}


def _subsets(report, graph, chi, t_max, *args, **kwargs):
    return {"subsets": sum(math.comb(graph.n, t) for t in range(1, t_max + 1))}


# module -> {public function: counter(result, *args, **kwargs) or None}
LAYER_FUNCTIONS = {
    samplers: {
        "sample_uniform_hom": _model_counts,
        "sample_planted_hom": _model_counts,
    },
    hypergraph: {"build_hypergraph": None},
    group_model: {
        "check_sofic": lambda report, hom, words, delta: {
            "vertex_word_pairs": hom.params.n * len(words) ** 2
        },
    },
    exact_count: {
        "count_proper": _leaves,
        "count_at_distance": _leaves,
        "exact_first_moment": None,
        "exact_planted_distance_moment": None,
    },
    analytics: {
        "distance_rate_scan": lambda scan, d, k, **kw: {"points": len(scan.rows), "k": k},
        "core_fixed_point": lambda trace, *a, **kw: {"levels": len(trace.p)},
    },
    structure: {
        "density_report": lambda density, graph, chi, level: {"peel_levels": level},
        "expansivity_scan": _subsets,
    },
    tree_markov: {
        "core_density_estimate": lambda est, *a, **kw: {"root_samples": est.samples},
        "local_pattern_census": lambda census, *a, **kw: {"census_vertices": census.n},
    },
}


def make_lib(tracer=None):
    """The public layer functions by name, each in a span when traced."""
    lib = SimpleNamespace()
    for module, functions in LAYER_FUNCTIONS.items():
        layer = module.__name__.rsplit(".", 1)[-1]
        for name, counter in functions.items():
            fn = getattr(module, name)
            if tracer is not None:
                fn = tracer.wrap("%s.%s" % (layer, name), fn, counter)
            setattr(lib, name, fn)
    return lib


def _mean_stderr(values):
    m = len(values)
    mean = math.fsum(values) / m
    if m < 2:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in values) / (m - 1)
    return mean, math.sqrt(var / m)


class ExactCount:
    """Uniform draws counted in full, planted draws counted at distance 1/4."""

    PARAMS = ModelParams(d=4, k=3, n=24)
    DELTA = Fraction(1, 4)
    # every DEEP_EVERY-th op index gets the count_equitable cross-check
    DEEP_EVERY = 32

    def __init__(self, seed):
        self.seed = seed
        self.chi = Coloring.equitable_split(self.PARAMS.n)

    def input(self, i):
        if i == 0:
            return ("moments", None)
        kind = "uniform" if i % 2 else "planted"
        return (kind, RngState(self.seed, i))

    def warm_inputs(self):
        return _two_kind_warm_inputs(self.seed)

    def run(self, lib, inp):
        kind, rng = inp
        p = self.PARAMS
        if kind == "moments":
            return (lib.exact_first_moment(p),
                    lib.exact_planted_distance_moment(p, Fraction(0)),
                    lib.exact_planted_distance_moment(p, self.DELTA))
        if kind == "uniform":
            graph = lib.build_hypergraph(lib.sample_uniform_hom(p, rng))
            return graph, lib.count_proper(graph).value
        graph = lib.build_hypergraph(lib.sample_planted_hom(p, self.chi, rng))
        return graph, lib.count_at_distance(graph, self.chi, self.DELTA).value

    def check(self, i, inp, out):
        kind = inp[0]
        if kind == "moments":
            first, at_zero, at_delta = out
            # only chi itself sits at distance 0 from chi
            return first > 0 and at_zero == 1 and at_delta > 0
        graph, value = out
        if kind == "uniform":
            # swapping colors is a bijection without fixed points
            return value > 0 and value % 2 == 0
        if i % self.DEEP_EVERY != 2:
            return value >= 0
        n = self.PARAMS.n
        by_distance = [count_at_distance(graph, self.chi, Fraction(f, n)).value
                       for f in range(0, n + 1, 2)]
        return (by_distance[round(self.DELTA * n) // 2] == value
                and sum(by_distance) == count_equitable(graph).value)

    def run_checks(self):
        return []

    def harness_jobs(self, out_dir):
        return _replica_jobs(self, out_dir, (("first-moment", "uniform", {}),
                                             ("planted-distance", "planted", {"delta": "1/4"})))


class RateScan:
    """distance_rate_scan and core_fixed_point, cycling k through KS."""

    KS = (17, 19, 21, 23, 25)
    ETA = Fraction("0.12")
    WARM_GRID = 33

    def __init__(self, seed):
        self.seed = seed
        self.degree = {k: degrees_from_offset(k, self.ETA).d for k in self.KS}
        order = RngState(seed, AUX_STREAM).generator().permutation(len(self.KS))
        self.order = [self.KS[j] for j in order]

    def input(self, i):
        # odd grids keep 1/2 on the grid
        grid = 2 * int(RngState(self.seed, i).generator().integers(16, 25)) + 1
        return self.order[i % len(self.order)], grid

    def warm_inputs(self):
        # a cold and a warm call per k: the difference is the first-call cost
        return [(k, self.WARM_GRID) for k in self.KS for _ in range(2)]

    def run(self, lib, inp):
        k, grid = inp
        d = self.degree[k]
        return lib.distance_rate_scan(d, k, grid_points=grid), lib.core_fixed_point(d, k)

    def check(self, i, inp, out):
        k, grid = inp
        scan, trace = out
        rates = [row.planted_rate for row in scan.rows]
        mid = (grid - 1) // 2
        with working_precision():
            ok = (len(rates) == grid
                  and max(range(grid), key=rates.__getitem__) == mid
                  and abs(scan.argmax_delta - mp.mpf(1) / 2) < mp.mpf(10) ** -30
                  and scan.margin > 0)
            # psi0(delta) = psi0(1 - delta) on the symmetric grid
            tol = mp.mpf(10) ** -9
            ok = ok and all(abs(rates[j] - rates[grid - 1 - j]) <= tol for j in range(mid))
            lambda0 = 1 / (mp.mpf(2) ** (k - 1) - 1)
            lam = self.degree[k] * lambda0
            lower = lambda0 * (1 - lam**2 * mp.e ** (1 - lam)) ** (k - 1)
            return ok and trace.converged and lower <= trace.p_inf <= lambda0

    def run_checks(self):
        return []

    def harness_jobs(self, out_dir):
        k, grid = self.KS[-1], self.WARM_GRID
        path = out_dir + "/scan.csv"
        argv = ["analytic", "scan", "--k", str(k), "--eta", str(self.ETA),
                "--grid-points", str(grid), "--output", path]
        d = self.degree[k]
        return [(lambda: cli_dispatch(argv),
                 lambda: analytics.distance_rate_scan(d, k, grid_points=grid),
                 [path])]


class CoreDensity:
    """Planted d=20 instances peeled to level 4 next to tree Monte Carlo."""

    PARAMS = ModelParams(d=20, k=6, n=120)
    SMALL = ModelParams(d=20, k=6, n=60)
    LEVEL = 4
    TREE_BATCH = 100
    EXPANSIVITY_EVERY = 4
    DEEP_EVERY = 4

    def __init__(self, seed):
        self.seed = seed
        self.chi = Coloring.equitable_split(self.PARAMS.n)
        self.chi_small = Coloring.equitable_split(self.SMALL.n)
        self.densities = []
        self.tree_samples = 0
        self.tree_rigid = 0

    def input(self, i):
        return i, i % self.EXPANSIVITY_EVERY == self.EXPANSIVITY_EVERY - 1

    def warm_inputs(self):
        return [(AUX_STREAM + j, True) for j in range(2)]

    def run(self, lib, inp):
        i, expansivity = inp
        p = self.PARAMS
        graph = lib.build_hypergraph(lib.sample_planted_hom(p, self.chi, RngState(self.seed, i)))
        density = lib.density_report(graph, self.chi, self.LEVEL)
        estimate = lib.core_density_estimate(
            p.d, p.k, self.LEVEL, self.TREE_BATCH, RngState(self.seed, 2 * AUX_STREAM + i))
        report = None
        if expansivity:
            small = lib.build_hypergraph(lib.sample_planted_hom(
                self.SMALL, self.chi_small, RngState(self.seed, 3 * AUX_STREAM + i)))
            report = lib.expansivity_scan(small, self.chi_small, 3)
        return graph, density, estimate, report

    def check(self, i, inp, out):
        graph, density, estimate, report = out
        self.densities.append(float(density))
        self.tree_samples += estimate.samples
        self.tree_rigid += estimate.core_count + estimate.attached_count - estimate.overlap_count
        ok = 0 <= density <= 1 and estimate.samples == self.TREE_BATCH
        if report is not None:
            ok = ok and report.exhaustive_cap == 3
        if i % self.DEEP_EVERY == 0:
            fast = core_decomposition(graph, self.chi)
            slow = core_decomposition_reference(
                graph.n, graph.k, [e for _, e in graph.edges], self.chi)
            ok = ok and fast == slow and density == Fraction(
                len(slow.rigid_set(self.LEVEL)), graph.n)
        return ok

    def run_checks(self):
        """The finite rigid density agrees with the pooled tree estimate
        within 3 combined standard errors, as in the A08 criterion."""
        if not self.densities:
            return ["no op completed"]
        mean, stderr = _mean_stderr(self.densities)
        tree = self.tree_rigid / self.tree_samples
        combined = math.sqrt(stderr**2 + tree * (1 - tree) / self.tree_samples)
        ok = mean == tree if combined == 0 else abs(mean - tree) <= 3 * combined
        return [] if ok else ["finite density %.6g vs tree %.6g (SE %.3g)" % (mean, tree, combined)]

    def harness_jobs(self, out_dir):
        p, seed = self.PARAMS, self.seed
        params = {"n": p.n, "k": p.k, "d": p.d, "level": self.LEVEL, "tree_samples": 1,
                  "seed": seed, "stream": AUX_STREAM, "replicas": HARNESS_REPLICAS}
        lib = make_lib()

        def direct():
            return [lib.density_report(
                lib.build_hypergraph(lib.sample_planted_hom(p, self.chi, RngState(seed, AUX_STREAM + j))),
                self.chi, self.LEVEL) for j in range(HARNESS_REPLICAS)]

        return [_experiment(ExperimentConfig("density", params, out_dir + "/density"), direct)]


class SoficCensus:
    """Uniform n=600 draws through check_sofic, planted ones through the census."""

    PARAMS = ModelParams(d=2, k=3, n=600)
    DELTA = Fraction(1, 10)
    MIN_SOFIC = Fraction(99, 100)
    CENSUS_TOLERANCE = Fraction(3, 100)

    def __init__(self, seed):
        self.seed = seed
        p = self.PARAMS
        self.chi = Coloring.equitable_split(p.n)
        self.words = generator_words(p) + generator_pair_words(p)
        edge_params = ModelParams(d=p.d, k=p.k, n=p.k)
        self.domain = tree_markov.single_edge_domain(edge_params)
        self.patterns = list(enumerate_proper_patterns(self.domain))
        self.target = Fraction(1, count_proper_patterns(self.domain))
        self.sofic = []
        self.frequency_sums = dict.fromkeys(self.patterns, Fraction(0))
        self.censuses = 0

    def input(self, i):
        return ("uniform" if i % 2 == 0 else "planted", RngState(self.seed, i))

    def warm_inputs(self):
        return _two_kind_warm_inputs(self.seed)

    def run(self, lib, inp):
        kind, rng = inp
        p = self.PARAMS
        if kind == "uniform":
            hom = lib.sample_uniform_hom(p, rng)
            return hom, lib.check_sofic(hom, self.words, self.DELTA)
        hom = lib.sample_planted_hom(p, self.chi, rng)
        return hom, lib.local_pattern_census(hom, self.chi, self.domain)

    def check(self, i, inp, out):
        hom, result = out
        n = self.PARAMS.n
        if inp[0] == "planted":
            self.censuses += 1
            for pattern in self.patterns:
                self.frequency_sums[pattern] += result.frequency(pattern)
            # chi is proper, so every single-edge pullback is proper
            return (result.n == n and result.improper_count == 0
                    and sum(result.counts.values()) == n)
        self.sofic.append(result.is_sofic)
        # the trace statistic recomputed from the raw images
        images = hom.images
        moved = 0
        for v in range(n):
            if all(img[v] != v for img in images) and all(
                a[b[v]] != v
                for x, a in enumerate(images) for y, b in enumerate(images) if x != y
            ):
                moved += 1
        return result.mult_fraction == 1 and result.trace_fraction == Fraction(moved, n)

    def run_checks(self):
        if not self.sofic or not self.censuses:
            return ["a run needs both op kinds to complete"]
        failures = []
        sofic = Fraction(sum(self.sofic), len(self.sofic))
        if sofic < self.MIN_SOFIC:
            failures.append("sofic fraction %s below %s" % (sofic, self.MIN_SOFIC))
        for pattern in self.patterns:
            mean = self.frequency_sums[pattern] / self.censuses
            if abs(mean - self.target) >= self.CENSUS_TOLERANCE:
                failures.append("census frequency %.4f vs %s" % (float(mean), self.target))
        return failures

    def harness_jobs(self, out_dir):
        return _replica_jobs(self, out_dir, (("sofic", "uniform", {}),
                                             ("local-convergence", "planted", {})))


def _two_kind_warm_inputs(seed):
    """Two ops of each kind: the first fills the caches, the second is warm."""
    return [(kind, RngState(seed, AUX_STREAM + j))
            for j, kind in enumerate(("uniform", "planted") * 2)]


def _experiment(config, direct):
    """(through the harness, the same replicas called directly, files written)."""
    return (lambda: run_experiment(config),
            direct,
            [config.output + ".csv", config.output + ".json"])


def _replica_jobs(workload, out_dir, experiments):
    """Harness jobs for (experiment kind, op kind, extra params) triples,
    whose replicas are the workload's op of that kind on the same streams."""
    p, seed = workload.PARAMS, workload.seed
    states = [RngState(seed, AUX_STREAM + j) for j in range(HARNESS_REPLICAS)]
    lib = make_lib()
    jobs = []
    for kind, op_kind, extra in experiments:
        params = {"n": p.n, "k": p.k, "d": p.d, "seed": seed, "stream": AUX_STREAM,
                  "replicas": HARNESS_REPLICAS, **extra}
        config = ExperimentConfig(kind, params, "%s/%s" % (out_dir, kind))
        jobs.append(_experiment(
            config, lambda op_kind=op_kind: [workload.run(lib, (op_kind, s)) for s in states]))
    return jobs


WORKLOADS = {
    "exact-count": ExactCount,
    "rate-scan": RateScan,
    "core-density": CoreDensity,
    "sofic-census": SoficCensus,
}
