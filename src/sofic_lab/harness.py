"""Command-line interface, experiment driver, and report emission.

Everything the package can compute is reachable from the ``sofic-lab``
entry point; the heavier statistical checks are driven by JSON experiment
configs.  Every experiment kind runs the same way: its replicas, one RNG
stream each, run in a worker pool and each returns one CSV row; the kind's
summary is then computed from the rows that did not fail.  On-disk formats
are JSON for instances and configs and CSV for tabular results.  Outputs
are bit-identical for identical (config, seed), whatever the pool size.

Every subcommand is one entry of SUBCOMMANDS, which gives each of its routes
the flags that route reads, in record order, with their defaults, and the
route's body.  The parser, the refusals and the "# params: ..." record are
all built from that table: a command offers only the flags that some route
of it reads, and a flag given to a route that does not read it exits 2.
Each flag read as text is parsed once, by the dispatcher, through the same
checks as a config's params (_PARAM_CHECKS), and the body gets the parsed
values.  The record shows every flag that the route read, in the table's
order, as it was typed or as its declared default (--seed and --stream only
where a draw reads them), followed by the facts the body derived, such as
an instance's n, k and d.  It is printed once, after the body has made
every check and done its work, so no refusal follows it; every CSV file
ends with the same line as a footer comment, so any artifact can be
reproduced from itself.

Exit codes: 0 success, 2 validation error (bad flags, bad files, bad
parameter combinations), 3 scale refusal.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np

from ._errors import ScaleRefusal
from .analytics import (
    core_fixed_point,
    degrees_from_offset,
    distance_rate_scan,
    dominant_type,
    pair_distance_rate,
    planted_distance_rate,
    proper_rate,
)
from .exact_count import (
    count_at_distance,
    count_equitable,
    count_proper,
    exact_equitable_first_moment,
    exact_first_moment,
    exact_planted_distance_moment,
)
from .group_model import (
    ModelParams,
    UniformHom,
    check_sofic,
    enumerate_uniform_homs,
    generator_pair_words,
    generator_words,
    uniform_hom_count,
)
from .hypergraph import Coloring, build_hypergraph, monochromatic_edge_count
from .samplers import RngState, sample_planted_hom, sample_uniform_hom
from .structure import core_decomposition, density_report, expansivity_scan, rigidity_violation_search
from .tree_markov import (
    _check_core_sampler_args,
    build_ball,
    core_density_estimate,
    count_proper_patterns,
    cylinder_probability,
    local_convergence_stat,
    local_pattern_census,
    single_edge_domain,
)

SCAN_CSV_HEADER = ("delta", "delta0", "psi0", "psi", "f_dk")

ENUMERATION_AVERAGE_MAX_HOMS = 10_000
DEFAULT_TREE_SAMPLES = 100_000
CONCENTRATION_THRESHOLDS = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5))
HISTOGRAM_BIN_WIDTH = Fraction(1, 40)


# ---------------------------------------------------------------------------
# formatting and file helpers


def _fmt(value):
    """Render a value for text output: ints and Fractions verbatim, floats
    and mpf through mp.nstr with 17 significant digits, enough to round-trip
    a double, None as "-", bools as true or false, and a list or tuple as
    its items joined by commas."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(map(_fmt, value))
    if isinstance(value, (float, mp.mpf)):
        text = mp.nstr(mp.mpf(value), 17, strip_zeros=True)
        return "0" if text in ("0.0", "-0.0") else text
    return str(value)


def _params_line(record):
    return "# params: " + " ".join("%s=%s" % (key, _fmt(value)) for key, value in record.items())


def _write_csv(target, header, rows, record):
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        # exact values stay exact; None is an empty cell
        writer.writerow(["" if v is None else _fmt(v) for v in row])
    target.write(_params_line(record) + "\n")


def _open_for_write(path, newline=None):
    """Open a text file for writing, creating its parent directory first."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", newline=newline)


def _write_csv_path(path, header, rows, record):
    with _open_for_write(path, newline="") as fh:
        _write_csv(fh, header, rows, record)


def _jsonable(value):
    """Summary values for json.dump: Fractions become strings, mpf floats."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, mp.mpf):
        return float(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_json(path, data):
    with _open_for_write(path) as fh:
        json.dump(_jsonable(data), fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_instance(hom, path=None, chi=None):
    """Write a homomorphism (and optionally its planted coloring) as JSON.

    The layout is the canonical instance schema {"n","k","d","images"},
    plus a "chi" bitstring when a coloring is given; readers that only
    want the homomorphism ignore the extra key.
    """
    data = hom.to_json_dict()
    if chi is not None:
        if len(chi) != hom.params.n:
            raise ValueError(
                "coloring length %d does not match n=%d" % (len(chi), hom.params.n)
            )
        data["chi"] = "".join(str(b) for b in chi)
    text = json.dumps(data) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with _open_for_write(path) as fh:
            fh.write(text)
    return data


def load_instance(path):
    """Read an instance file back; returns (hom, chi or None)."""
    with open(path) as fh:
        data = json.load(fh)
    hom = UniformHom.from_json_dict(data)
    if "chi" not in data:
        return hom, None
    if not isinstance(data["chi"], str):
        raise ValueError("instance 'chi' must be a string of bits, got %r" % (data["chi"],))
    return hom, Coloring.from_string(data["chi"])


def _fraction(name, value):
    """The one parser of fractions from outside, CLI flags and config values
    alike: a string such as "1/10" or "0.1", an int, or a float read through
    its repr, so that 0.1 is 1/10.  Anything else, a bool included, and a
    zero denominator raise ValueError."""
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            return Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError("%s must be a fraction such as 1/10, got %r" % (name, value))


# ---------------------------------------------------------------------------
# experiment configs


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a kind, its parameter dict, and an output prefix.

    ``output`` is a path prefix; the run writes <output>.csv (one row per
    replica) and <output>.json (the summary).  Replicas are either
    ``replicas`` with streams seed/(stream+i), or an explicit ``seeds``
    list for hand-picked replicas.  ``resolved`` is ``params`` checked and
    parsed, with the kind's defaults filled in: the replicas and the summary
    read it, and ``params`` is echoed as given.
    """

    kind: str
    params: dict
    output: str
    resolved: dict = field(init=False, repr=False, compare=False)
    _states: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entry = EXPERIMENT_KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if entry is None:
            raise ValueError(
                "unknown experiment kind %r; choose from %s"
                % (self.kind, ", ".join(EXPERIMENT_KINDS))
            )
        if not isinstance(self.params, dict):
            raise ValueError("experiment params must be a JSON object, got %s"
                             % type(self.params).__name__)
        unread = sorted(set(self.params) - set(entry.params))
        if unread:
            raise ValueError(
                "%s experiments do not read params %s; they read %s"
                % (self.kind, ", ".join(map(repr, unread)), ", ".join(entry.params))
            )
        if not (isinstance(self.output, str) and self.output):
            raise ValueError("experiment config needs a non-empty output prefix string, got %r"
                             % (self.output,))
        resolved = dict(entry.params)
        for key, value in self.params.items():
            resolved[key] = _PARAM_CHECKS[key](key, value)
        object.__setattr__(self, "resolved", resolved)
        if self.replicas < 1:
            raise ValueError("need at least 1 replica, got %d" % self.replicas)
        missing = [key for key, value in resolved.items() if value is _REQUIRED]
        if missing:
            raise ValueError("%s experiments need params %s"
                             % (self.kind, ", ".join(map(repr, missing))))
        # the shape that every replica's draw needs, refused before any draw
        shape = _model_params(resolved)
        shape.require_uniform()
        if entry.planted:
            shape.require_equitable()
        if "edge_label" in resolved and resolved["edge_label"] >= shape.d:
            raise ValueError("edge_label must be below d=%d, got %d"
                             % (shape.d, resolved["edge_label"]))
        if "tree_samples" in resolved:
            _check_core_sampler_args(shape.d, shape.k, resolved["level"])
        stream = resolved["stream"]
        if "seeds" in self.params:
            states = [RngState(s, stream) for s in resolved["seeds"]]
        else:
            states = [RngState(resolved["seed"], stream + i) for i in range(self.replicas)]
        if "tree_samples" in resolved:
            # the tree samples of the density summary take the next stream
            RngState(resolved["seed"], stream + self.replicas)
        # built here, so a seed or stream out of range is refused at once
        object.__setattr__(self, "_states", tuple(states))

    @property
    def replicas(self):
        if "seeds" in self.params:
            return len(self.resolved["seeds"])
        return self.resolved["replicas"]

    def replica_states(self):
        return list(self._states)

    @classmethod
    def from_json_dict(cls, data):
        if not isinstance(data, dict):
            raise ValueError("an experiment config must be a JSON object, got %s"
                             % type(data).__name__)
        for key in ("kind", "params", "output"):
            if key not in data:
                raise ValueError("experiment config is missing %r" % key)
        unknown = sorted(set(data) - {"kind", "params", "output"})
        if unknown:
            raise ValueError("experiment config has keys %s besides kind, params and output"
                             % ", ".join(map(repr, unknown)))
        return cls(
            kind=data["kind"],
            params=data["params"],
            output=data["output"],
        )


@dataclass(frozen=True)
class ExperimentResult:
    csv_path: str
    json_path: str
    summary: dict


def _model_params(params):
    return ModelParams(d=params["d"], k=params["k"], n=params["n"])


def _replica_row(kind, params, state):
    """Draw one replica's homomorphism as its kind says, planted at the
    equitable split or uniform, and return the kind's row of it, a plain
    dict of row values."""
    entry = EXPERIMENT_KINDS[kind]
    mparams = _model_params(params)
    if entry.planted:
        chi = Coloring.equitable_split(mparams.n)
        return entry.row(sample_planted_hom(mparams, chi, state), chi, params)
    return entry.row(sample_uniform_hom(mparams, state), None, params)


def _replica_worker(task):
    kind, params, state = task
    try:
        return _replica_row(kind, params, state), None
    except (ScaleRefusal, ValueError) as exc:
        return None, "%s: %s" % (type(exc).__name__, exc)


def _require_workers(workers):
    if workers < 1:
        raise ValueError("need at least 1 worker, got %d" % workers)


def _run_replicas(config, workers):
    states = config.replica_states()
    tasks = [(config.kind, config.resolved, state) for state in states]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replica_worker, tasks))
    else:
        results = [_replica_worker(task) for task in tasks]
    return states, results


def _mean_stderr(values):
    """Sample mean and standard error as floats; exact mean when the values
    are Fractions is reported separately by the callers that need it."""
    m = len(values)
    floats = [float(v) for v in values]
    mean = math.fsum(floats) / m
    if m < 2:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in floats) / (m - 1)
    return mean, math.sqrt(var / m)


def run_experiment(config, workers=1):
    """Run all replicas of one experiment and write the report files.

    Writes <output>.csv with one row per replica and <output>.json with
    the summary; a failed replica is flagged in its row's error column and
    excluded from the summary statistics, and the run continues.
    """
    _require_workers(workers)
    states, results = _run_replicas(config, workers)
    good_rows = [row for row, _ in results if row is not None]
    if not good_rows:
        raise ValueError("every replica failed; first error: %s" % results[0][1])

    summary = EXPERIMENT_KINDS[config.kind].summary(config, good_rows)

    # every row of a kind has the same keys, in the order _replica_row and
    # the summary (which may add a column) give
    fields = tuple(good_rows[0])
    csv_rows = []
    for index, ((row, error), state) in enumerate(zip(results, states)):
        cells = [None] * len(fields) + [error] if row is None else list(row.values()) + [None]
        csv_rows.append([index, state.seed, state.stream] + cells)
    return _write_report(config, fields, csv_rows, summary, len(results) - len(good_rows))


def _write_report(config, fields, csv_rows, summary, failures):
    """Write <output>.csv (the replica rows between the replica/seed/stream
    and error columns, then the params footer) and <output>.json (the
    summary with the run's kind, params, replica and failure counts)."""
    summary.update(
        kind=config.kind,
        params=dict(config.params),
        replicas=config.replicas,
        failures=failures,
    )
    record = {"kind": config.kind, **config.params, "output": config.output}
    csv_path = config.output + ".csv"
    json_path = config.output + ".json"
    header = ("replica", "seed", "stream") + fields + ("error",)
    _write_csv_path(csv_path, header, csv_rows, record)
    _write_json(json_path, summary)
    return ExperimentResult(csv_path, json_path, summary)


# ---------------------------------------------------------------------------
# the experiment kinds: each one's row and summary, the table of them and
# the checks of their params


def _enumeration_mean(params, count, chi=None):
    """Exact mean of count(graph).value over the hypergraphs of every
    uniform homomorphism, or over those on which chi is proper when chi is
    given.

    None when there are more than ENUMERATION_AVERAGE_MAX_HOMS
    homomorphisms, or when chi is improper on all of them.
    """
    if uniform_hom_count(params) > ENUMERATION_AVERAGE_MAX_HOMS:
        return None
    total = 0
    homs = 0
    for hom in enumerate_uniform_homs(params):
        graph = build_hypergraph(hom)
        if chi is None or monochromatic_edge_count(graph, chi) == 0:
            total += count(graph).value
            homs += 1
    return Fraction(total, homs) if homs else None


def _moment_summary(config, rows, field, exact, enumeration):
    values = [row[field] for row in rows]
    mean, stderr = _mean_stderr(values)
    tolerance = config.resolved["mean_tolerance"]
    within = None if tolerance is None else abs(mean - float(exact)) <= tolerance
    equal = None if enumeration is None else exact == enumeration
    return {
        "mean": mean,
        "stderr": stderr,
        "exact": exact,
        "exact_float": float(exact),
        "enumeration": enumeration,
        "exact_equals_enumeration": equal,
        "mean_within_tolerance": within,
        "pass": equal is not False and within is not False,
    }


def _first_moment_row(hom, chi, params):
    return {"z": count_proper(build_hypergraph(hom)).value}


def _first_moment_summary(config, rows):
    mparams = _model_params(config.resolved)
    return _moment_summary(config, rows, "z", exact_first_moment(mparams),
                           _enumeration_mean(mparams, count_proper))


def _planted_distance_row(hom, chi, params):
    return {"z_delta": count_at_distance(build_hypergraph(hom), chi, params["delta"]).value}


def _planted_distance_summary(config, rows):
    mparams, delta = _model_params(config.resolved), config.resolved["delta"]
    chi = Coloring.equitable_split(mparams.n)
    exact = exact_planted_distance_moment(mparams, delta)
    enumeration = _enumeration_mean(
        mparams, lambda graph: count_at_distance(graph, chi, delta), chi)
    return _moment_summary(config, rows, "z_delta", exact, enumeration)


def _density_row(hom, chi, params):
    return {"density": density_report(build_hypergraph(hom), chi, params["level"])}


def _density_summary(config, rows):
    params = config.resolved
    values = [row["density"] for row in rows]
    mean, stderr = _mean_stderr(values)
    mean_exact = sum(values, Fraction(0)) / len(values)
    tree_rng = RngState(params["seed"], params["stream"] + config.replicas)
    estimate = core_density_estimate(
        d=params["d"],
        k=params["k"],
        level=params["level"],
        samples=params["tree_samples"],
        rng=tree_rng,
    )
    tree = float(estimate.rigid_frequency())
    combined = math.sqrt(stderr**2 + estimate.rigid_stderr() ** 2)
    sigma_tolerance = params["sigma_tolerance"]
    if combined == 0:
        passed = mean == tree
        sigma_distance = 0.0 if passed else None
    else:
        sigma_distance = abs(mean - tree) / combined
        passed = sigma_distance <= sigma_tolerance
    return {
        "mean": mean,
        "mean_exact": mean_exact,
        "stderr": stderr,
        "ci95": [mean - 1.96 * stderr, mean + 1.96 * stderr],
        "tree_rigid": tree,
        "tree_rigid_exact": estimate.rigid_frequency(),
        "tree_stderr": estimate.rigid_stderr(),
        "tree_core": estimate.core_frequency(),
        "tree_union": estimate.union_frequency(),
        "tree_samples": estimate.samples,
        "combined_stderr": combined,
        "sigma_distance": sigma_distance,
        "sigma_tolerance": sigma_tolerance,
        "pass": passed,
    }


def _sofic_row(hom, chi, params):
    words = generator_words(hom.params) + generator_pair_words(hom.params)
    report = check_sofic(hom, words, params["delta"])
    return {
        "mult_fraction": report.mult_fraction,
        "trace_fraction": report.trace_fraction,
        "is_sofic": report.is_sofic,
    }


def _sofic_summary(config, rows):
    sofic_fraction = Fraction(sum(1 for row in rows if row["is_sofic"]), len(rows))
    min_fraction = config.resolved["min_fraction"]
    return {
        "sofic_fraction": sofic_fraction,
        "min_fraction": min_fraction,
        "pass": sofic_fraction >= min_fraction,
    }


def _max_deviation(census, domain):
    """The largest |frequency - 1/q| over the q proper patterns of the domain.

    The census counts only proper patterns, and one that it did not see has
    frequency 0, so it deviates by 1/q."""
    q = count_proper_patterns(domain)
    target = Fraction(1, q)
    deviations = [abs(census.frequency(p) - target) for p in census.counts]
    if len(census.counts) < q:
        deviations.append(target)
    return max(deviations)


def _local_convergence_row(hom, chi, params):
    edge = ModelParams(d=hom.params.d, k=hom.params.k, n=hom.params.k)
    domain = single_edge_domain(edge, label=params["edge_label"])
    census = local_pattern_census(hom, chi, domain)
    return {
        "max_deviation": _max_deviation(census, domain),
        "improper_fraction": census.improper_fraction(),
    }


def _local_convergence_summary(config, rows):
    mean, stderr = _mean_stderr([row["max_deviation"] for row in rows])
    tolerance = config.resolved["deviation_tolerance"]
    return {
        "mean_max_deviation": mean,
        "stderr": stderr,
        "deviation_tolerance": tolerance,
        "pass": mean <= tolerance,
    }


def _reference_hom(params):
    """The fixed comparison point: every generator is the same product of
    k-cycles on consecutive blocks."""
    params.require_uniform()
    image = np.roll(np.arange(params.n).reshape(-1, params.k), -1, axis=1).ravel()
    return UniformHom(params, [image] * params.d)


def _normalized_hom_distance(hom, ref):
    """The concentration statistic: the per-generator Hamming distance of
    hom to ref, averaged over generators and normalized by n, as an exact
    Fraction.  It is 1-Lipschitz in the normalized distance on homomorphism
    tuples by construction."""
    moved = np.count_nonzero(hom.images != ref.images)
    return Fraction(int(moved), hom.params.d * hom.params.n)


def _concentration_row(hom, chi, params):
    return {"value": _normalized_hom_distance(hom, _reference_hom(hom.params))}


def _deviation_histogram(deviations):
    width = HISTOGRAM_BIN_WIDTH
    lo = math.floor(min(deviations) / width)
    hi = math.floor(max(deviations) / width) + 1
    counts = [0] * (hi - lo)
    for dev in deviations:
        counts[math.floor(dev / width) - lo] += 1
    return tuple(
        (float((lo + i) * width), count) for i, count in enumerate(counts)
    )


def _concentration_summary(config, rows):
    """The exact mean of the rows' values, each row's deviation from it (added
    to the row as its "deviation" column), P(|value - mean| > t) for each of
    CONCENTRATION_THRESHOLDS, and a histogram of the deviations at width
    HISTOGRAM_BIN_WIDTH.  The run passes when the widest threshold's tail is
    within tail_tolerance."""
    mean = sum((row["value"] for row in rows), Fraction(0)) / len(rows)
    for row in rows:
        row["deviation"] = row["value"] - mean
    deviations = [row["deviation"] for row in rows]
    tails = {
        thr: Fraction(sum(1 for dev in deviations if abs(dev) > thr), len(rows))
        for thr in CONCENTRATION_THRESHOLDS
    }
    tail_tolerance = config.resolved["tail_tolerance"]
    return {
        "mean": mean,
        "mean_float": float(mean),
        "tails": {str(float(thr)): frac for thr, frac in tails.items()},
        "histogram": [list(bin_) for bin_ in _deviation_histogram(deviations)],
        "tail_tolerance": tail_tolerance,
        "pass": float(tails[CONCENTRATION_THRESHOLDS[-1]]) <= tail_tolerance,
    }


# Each experiment kind: whether a replica's homomorphism is planted at the
# equitable split or uniform, its row of (hom, chi or None, resolved params),
# its summary of (config, rows), and the params it reads with their defaults.
# A config may hold no other params key: a misspelt one would run with its
# default and still be echoed into the "# params:" footer as if applied.
_ExperimentKind = namedtuple("_ExperimentKind", "planted row summary params")
_REQUIRED = object()  # the default of a params key that a config must give
_REPLICA_PARAMS = {"d": _REQUIRED, "k": _REQUIRED, "n": _REQUIRED,
                   "replicas": 0, "seed": 0, "stream": 0}
EXPERIMENT_KINDS = {
    "first-moment": _ExperimentKind(False, _first_moment_row, _first_moment_summary, {
        **_REPLICA_PARAMS, "seeds": None, "mean_tolerance": None}),
    "planted-distance": _ExperimentKind(True, _planted_distance_row, _planted_distance_summary, {
        **_REPLICA_PARAMS, "seeds": None, "delta": _REQUIRED, "mean_tolerance": None}),
    "density": _ExperimentKind(True, _density_row, _density_summary, {
        **_REPLICA_PARAMS, "seeds": None, "level": _REQUIRED,
        "tree_samples": DEFAULT_TREE_SAMPLES, "sigma_tolerance": 3.0}),
    "sofic": _ExperimentKind(False, _sofic_row, _sofic_summary, {
        **_REPLICA_PARAMS, "seeds": None, "delta": Fraction(1, 10),
        "min_fraction": Fraction(99, 100)}),
    "local-convergence": _ExperimentKind(True, _local_convergence_row, _local_convergence_summary, {
        **_REPLICA_PARAMS, "seeds": None, "edge_label": 0, "deviation_tolerance": 0.03}),
    # replicas take the streams seed/(stream + i) only; no seeds list
    "concentration": _ExperimentKind(False, _concentration_row, _concentration_summary, {
        **_REPLICA_PARAMS, "tail_tolerance": 0.05}),
}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(least=None):
    """The check of an integer param, at least least when that is given."""
    def check(key, value):
        if _is_int(value) and (least is None or value >= least):
            return value
        raise ValueError("%s must be an integer%s, got %r"
                         % (key, "" if least is None else " >= %d" % least, value))
    return check


def _seeds(key, value):
    if isinstance(value, list) and value and all(map(_is_int, value)):
        return value
    raise ValueError("%s must be a non-empty list of integers, got %r" % (key, value))


def _tolerance(key, value):
    if (_is_int(value) or isinstance(value, float)) and 0 < value <= sys.float_info.max:
        return float(value)
    raise ValueError("%s must be a positive finite number, got %r" % (key, value))


# The check of each params key, run before any replica, and of each CLI flag
# that is read as text, run before the route's body: it returns the value
# that the replicas, the summary or the body read, or raises ValueError
# naming the key.
_PARAM_CHECKS = {
    **dict.fromkeys(("d", "k", "n", "replicas", "seed", "stream"), _integer()),
    "seeds": _seeds,
    "level": _integer(0),
    "tree_samples": _integer(1),
    "edge_label": _integer(0),  # and below d, which ExperimentConfig checks
    **dict.fromkeys(("delta", "min_fraction", "eta", "eps", "rho"), _fraction),
    **dict.fromkeys(("chi", "pattern"), lambda key, value: Coloring.from_string(value)),
    **dict.fromkeys(("mean_tolerance", "sigma_tolerance", "deviation_tolerance",
                     "tail_tolerance"), _tolerance),
}


# ---------------------------------------------------------------------------
# the subcommands: each route's body, the table of them, and the dispatcher
#
# A body takes the parsed values of the flags its route reads, makes every
# check and does all of the route's work.  The record shows every flag that
# the route reads as it was typed, or as its declared default; the body
# returns the facts it derived, as {flag: {key: value, ...}} with the entries
# that follow that flag in the record (an entry named as the flag stands in
# for its value, and None leaves the flag out), and the emit that writes the
# route's output once the record has been printed.


def _printing(*lines):
    """The emit of a route whose whole output is these lines."""
    return lambda record: print("\n".join(lines))


def _open_instance(a, coloring=True):
    """The opening of every route that reads an instance file (--input).

    Returns the homomorphism, its coloring (--chi if given, else the file's;
    None for a route that reads no coloring) and what the record shows of
    the two flags: n, k and d after the path, and --chi only when given.
    """
    hom, chi = load_instance(a.input)
    params = hom.params
    shown = {"input": {"n": params.n, "k": params.k, "d": params.d}}
    if not coloring:
        chi = None
    elif a.chi is not None:
        chi = a.chi
    elif chi is None:
        raise ValueError("no coloring: the instance file has no \"chi\" and --chi was not given")
    else:
        shown["chi"] = None
    return hom, chi, shown


def _sample_uniform(a):
    hom = sample_uniform_hom(ModelParams(d=a.d, k=a.k, n=a.n), RngState(a.seed, a.stream))
    return {}, lambda record: save_instance(hom, a.output)


def _sample_planted(a):
    chi = Coloring.equitable_split(a.n) if a.chi is None else a.chi
    hom = sample_planted_hom(ModelParams(d=a.d, k=a.k, n=a.n), chi, RngState(a.seed, a.stream))
    shown = {"chi": {"chi": "".join(str(b) for b in chi)}}
    return shown, lambda record: save_instance(hom, a.output, chi=chi)


def _count(a):
    hom, _, shown = _open_instance(a, coloring=False)
    if a.equitable and a.eps != 0:
        raise ValueError("--equitable counts proper colorings only; drop --eps")
    graph = build_hypergraph(hom)
    report = count_equitable(graph) if a.equitable else count_proper(graph, eps=a.eps)
    return shown, _printing(str(report.value))


def _degree(a):
    """d from --d or --eta, and what the record shows of those two flags and
    of --precision: eta followed by the d it picks and where that d sits in
    the window, or d as given; the precision only when it is given."""
    shown = {} if a.precision is not None else {"precision": None}
    if a.d is not None and a.eta is not None:
        raise ValueError("give either --d or --eta, not both")
    if a.eta is not None:
        choice = degrees_from_offset(a.k, a.eta)
        shown.update(d=None, eta={"d": choice.d, "implied_eta": choice.implied_eta,
                                  "in_window": choice.in_window})
        return choice.d, shown
    if a.d is None:
        raise ValueError("this quantity needs --d or --eta")
    shown["eta"] = None
    return a.d, shown


def _proper_rate(a):
    d, shown = _degree(a)
    return shown, _printing(_fmt(proper_rate(d, a.k, precision=a.precision)))


def _distance_rate(rate):
    """The body of a route that prints rate(delta, d, k) at --delta."""
    def body(a):
        d, shown = _degree(a)
        return shown, _printing(_fmt(rate(a.delta, d, a.k, precision=a.precision)))
    return body


def _dominant_type(a):
    return {}, _printing(" ".join(str(t) for t in dominant_type(a.k)))


def _fixed_point(a):
    d, shown = _degree(a)
    trace = core_fixed_point(d, a.k, precision=a.precision)
    return shown, _printing(
        "p_inf=%s" % _fmt(trace.p_inf),
        "mu_core=%s" % _fmt(trace.mu_core),
        "mu_core_attached=%s" % _fmt(trace.mu_core_attached),
        "levels=%d converged=%s" % (len(trace.p), _fmt(trace.converged)),
    )


def _rate_scan(a):
    d, shown = _degree(a)
    scan = distance_rate_scan(d, a.k, grid_points=a.grid_points, precision=a.precision)
    rows = [tuple(_fmt(value) for value in (r.delta, r.delta0, r.planted_rate, r.pair_rate,
                                            r.proper_rate))
            for r in scan.rows]

    def emit(record):
        if a.output is None:
            _write_csv(sys.stdout, SCAN_CSV_HEADER, rows, record)
            return
        _write_csv_path(a.output, SCAN_CSV_HEADER, rows, record)
        print("argmax_delta=%s max_rate=%s margin=%s"
              % (_fmt(scan.argmax_delta), _fmt(scan.max_rate), _fmt(scan.margin)))

    return shown, emit


def _finite_density(a):
    hom, chi, shown = _open_instance(a)
    density = density_report(build_hypergraph(hom), chi, a.level)
    return shown, _printing("rigid_density=%s rigid_density_float=%s"
                            % (density, _fmt(float(density))))


def _tree_density(a):
    estimate = core_density_estimate(d=a.d, k=a.k, level=a.level, samples=a.samples,
                                     rng=RngState(a.seed, a.stream))
    rigid = estimate.rigid_frequency()
    return {}, _printing(
        "rigid=%s rigid_float=%s stderr=%s"
        % (rigid, _fmt(float(rigid)), _fmt(estimate.rigid_stderr())),
        "core=%s union=%s overlap=%d/%d"
        % (_fmt(float(estimate.core_frequency())), _fmt(float(estimate.union_frequency())),
           estimate.overlap_count, estimate.samples),
    )


def _expansivity(a, rng=None):
    hom, chi, shown = _open_instance(a)
    report = expansivity_scan(build_hypergraph(hom), chi, a.t_max,
                              random_trials=a.random_trials, rng=rng)
    lines = ["exhaustive_max_excess=%d violations=%d exhaustive_cap=%d"
             % (report.exhaustive_max_excess, len(report.violations), report.exhaustive_cap)]
    if a.random_trials:
        lines.append("random_max_excess=%s size_cap=%d"
                     % (_fmt(report.random_max_excess), report.size_cap))
    lines += ["violation=%s" % ",".join(str(v) for v in sorted(witness))
              for witness in report.violations]
    return shown, _printing(*lines)


def _rigidity(a):
    hom, chi, shown = _open_instance(a)
    graph = build_hypergraph(hom)
    decomposition = core_decomposition(graph, chi)
    level = len(decomposition.levels) - 1 if a.level is None else a.level
    region = decomposition.rigid_set(level)
    witness = rigidity_violation_search(graph, chi, region, a.rho)
    shown["level"] = {"level": level, "region_size": len(region)}
    if witness is None:
        return shown, _printing("violation=none")
    moved = sum(1 for v in region if witness[v] != chi[v])
    return shown, _printing("violation=%s moved=%d" % ("".join(str(b) for b in witness), moved))


def _census(a, flag, build_domain):
    """The body of both local-convergence routes: the census of every window
    of the domain that build_domain gives, or the frequency of one --pattern
    against its cylinder.  The record shows the domain's size and proper
    pattern count after the route's domain flag."""
    hom, chi, shown = _open_instance(a)
    domain = build_domain(ModelParams(d=hom.params.d, k=hom.params.k, n=hom.params.k))
    shown[flag] = {"elements": len(domain), "q": count_proper_patterns(domain)}
    if a.pattern is None:
        shown["pattern"] = None
        census = local_pattern_census(hom, chi, domain)
        return shown, _printing(
            "distinct=%d improper=%s noninjective=%d max_deviation=%s"
            % (len(census.counts), census.improper_fraction(), census.noninjective_count,
               _max_deviation(census, domain)))
    frequency = local_convergence_stat(hom, chi, domain, a.pattern.bits)
    # the library warns of an empty cylinder; the CLI says so in its own form
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        target = cylinder_probability(domain, a.pattern.bits)

    def emit(record):
        for warning in caught:
            print("warning: %s" % warning.message, file=sys.stderr)
        print("frequency=%s cylinder=%s deviation=%s"
              % (frequency, target, _fmt(abs(frequency - target))))

    return shown, emit


def _edge_census(a):
    return _census(a, "edge_label", lambda params: single_edge_domain(params, label=a.edge_label))


def _ball_census(a):
    return _census(a, "radius", lambda params: build_ball(params, a.radius))


# the word sets of sofic-check --words
_WORD_SETS = {
    "generators": generator_words,
    "pairs": generator_pair_words,
    "both": lambda params: generator_words(params) + generator_pair_words(params),
}


def _sofic_check(a):
    hom, _, shown = _open_instance(a, coloring=False)
    words = _WORD_SETS[a.words](hom.params)
    report = check_sofic(hom, words, a.delta)
    shown["words"] = {"word_count": len(words)}
    return shown, _printing(
        "mult_fraction=%s trace_fraction=%s multiplicative=%s trace_preserving=%s sofic=%s"
        % (report.mult_fraction, report.trace_fraction, _fmt(report.is_multiplicative),
           _fmt(report.is_trace_preserving), _fmt(report.is_sofic)))


def _first_moment(a):
    params = ModelParams(d=a.d, k=a.k, n=a.n)
    moment = exact_equitable_first_moment if a.equitable else exact_first_moment
    return {}, _printing(str(moment(params)))


def _planted_distance_moment(a):
    value = exact_planted_distance_moment(ModelParams(d=a.d, k=a.k, n=a.n), a.delta)
    return {}, _printing(str(value))


def _experiment(a):
    with open(a.config) as fh:
        config = ExperimentConfig.from_json_dict(json.load(fh))
    result = run_experiment(config, workers=a.workers)
    shown = {"config": {"kind": config.kind, **config.params, "output": config.output}}
    return shown, _printing(
        "wrote %s and %s" % (result.csv_path, result.json_path),
        "replicas=%d failures=%d pass=%s"
        % (result.summary["replicas"], result.summary["failures"],
           _fmt(bool(result.summary["pass"]))))


# Every flag of the CLI: its argument name (a positional or an --option) and
# its argparse keywords.  None has an argparse default, so an unset flag is
# None and the dispatcher can tell a flag that was given from one that was
# not; the routes' own defaults fill in the rest.
_FLAGS = {
    "config": ("config", {"help": "experiment config JSON path"}),
    "input": ("--input", {"help": "instance JSON path"}),
    "chi": ("--chi", {"help": "coloring bits; default the instance file's, or for "
                              "sample-planted the equitable split"}),
    "n": ("--n", {"type": int}),
    "k": ("--k", {"type": int}),
    "d": ("--d", {"type": int}),
    "eta": ("--eta", {"help": "offset; picks d = round(k 2^(k-1) (log2 - eta))"}),
    "delta": ("--delta", {"help": "distance, a fraction like 1/2"}),
    "eps": ("--eps", {"help": "allowed monochromatic edge fraction"}),
    "equitable": ("--equitable", {"action": "store_true", "default": None,
                                  "help": "equitable colorings only"}),
    "precision": ("--precision", {"type": int, "help": "working precision bits"}),
    "grid_points": ("--grid-points", {"type": int}),
    "level": ("--level", {"type": int, "help": "peeling level"}),
    "samples": ("--samples", {"type": int, "help": "tree root samples"}),
    "t_max": ("--t-max", {"type": int}),
    "random_trials": ("--random-trials", {"type": int}),
    "rho": ("--rho", {"help": "disagreement threshold, a fraction like 1/10"}),
    "edge_label": ("--edge-label", {"type": int, "help": "label of the one edge"}),
    "radius": ("--radius", {"type": int, "help": "use a full ball instead of one edge"}),
    "pattern": ("--pattern", {"help": "bits in domain order; report this cylinder only"}),
    "words": ("--words", {"choices": tuple(_WORD_SETS)}),
    "seed": ("--seed", {"type": int, "help": "base RNG seed"}),
    "stream": ("--stream", {"type": int, "help": "RNG stream index"}),
    "output": ("--output", {"help": "output path; default stdout"}),
    "workers": ("--workers", {"type": int}),
}

# A subcommand: its help, its routes by name, the record key that echoes
# the route's name right after the command (None: not echoed), and choose,
# the function of the given flags that names the route.  Without choose the
# route is the value of the positional argument named key, or the one route
# (named None) of a command that has only one.
_Command = namedtuple("_Command", "help routes key choose", defaults=(None, None))
# A route: the flags it reads with their defaults, in record order (_REQUIRED
# marks a flag it cannot do without), its body, and the title that its
# refusals name, by default the command and the route's name.
_Route = namedtuple("_Route", "flags body title", defaults=(None,))

_SHAPE = {"n": _REQUIRED, "k": _REQUIRED, "d": _REQUIRED}
_DRAW = {"seed": 0, "stream": 0}
_INSTANCE = {"input": _REQUIRED, "chi": None}
_DEGREE = {"k": _REQUIRED, "d": None, "eta": None}

SUBCOMMANDS = {
    "sample-uniform": _Command("sample the uniform model, emit JSON", {
        None: _Route({**_SHAPE, **_DRAW, "output": None}, _sample_uniform)}),
    "sample-planted": _Command("sample the planted model, emit JSON with chi", {
        None: _Route({**_SHAPE, "chi": None, **_DRAW, "output": None}, _sample_planted)}),
    "count": _Command("count proper colorings of an instance", {
        None: _Route({"input": _REQUIRED, "eps": "0", "equitable": False}, _count)}),
    "analytic": _Command("closed-form rates and fixed points", key="quantity", routes={
        "f": _Route({**_DEGREE, "precision": None}, _proper_rate),
        "psi": _Route({**_DEGREE, "delta": _REQUIRED, "precision": None},
                      _distance_rate(pair_distance_rate)),
        "psi0": _Route({**_DEGREE, "delta": _REQUIRED, "precision": None},
                       _distance_rate(planted_distance_rate)),
        "tstar": _Route({"k": _REQUIRED}, _dominant_type),
        "fixed-point": _Route({**_DEGREE, "precision": None}, _fixed_point),
        "scan": _Route({**_DEGREE, "precision": None, "grid_points": 2001, "output": None},
                       _rate_scan),
    }),
    "core-density": _Command(
        "rigid-set density, finite instance or tree Monte Carlo", key="route",
        choose=lambda given: "tree" if given["input"] is None else "finite", routes={
            "finite": _Route({**_INSTANCE, "level": _REQUIRED}, _finite_density,
                             "the finite route (--input)"),
            "tree": _Route({"d": _REQUIRED, "k": _REQUIRED, "level": _REQUIRED,
                            "samples": DEFAULT_TREE_SAMPLES, **_DRAW}, _tree_density,
                           "the tree route"),
        }),
    "expansivity": _Command(
        "scan small vertex sets for edge-count violations",
        choose=lambda given: "random" if (given["random_trials"] or 0) > 0 else "exhaustive",
        routes={
            "exhaustive": _Route({**_INSTANCE, "t_max": _REQUIRED, "random_trials": 0},
                                 _expansivity, "the exhaustive scan"),
            "random": _Route({**_INSTANCE, "t_max": _REQUIRED, "random_trials": _REQUIRED,
                              **_DRAW}, lambda a: _expansivity(a, RngState(a.seed, a.stream)),
                             "the scan with random trials (--random-trials > 0)"),
        }),
    "rigidity": _Command("search for colorings moving a rigid region", {
        None: _Route({**_INSTANCE, "level": None, "rho": _REQUIRED}, _rigidity)}),
    "local-convergence": _Command(
        "window census against the tree measure",
        choose=lambda given: "edge" if given["radius"] is None else "ball", routes={
            "edge": _Route({**_INSTANCE, "edge_label": 0, "pattern": None}, _edge_census,
                           "the edge route"),
            "ball": _Route({**_INSTANCE, "radius": _REQUIRED, "pattern": None}, _ball_census,
                           "the ball route (--radius)"),
        }),
    "sofic-check": _Command("multiplicativity and trace statistics on a word set", {
        None: _Route({"input": _REQUIRED, "words": "both", "delta": "1/10"}, _sofic_check)}),
    "moments": _Command("exact expected coloring counts", key="which", routes={
        "first": _Route({**_SHAPE, "equitable": False}, _first_moment),
        "planted-distance": _Route({**_SHAPE, "delta": _REQUIRED}, _planted_distance_moment),
    }),
    "experiment": _Command("run a JSON experiment config", {
        None: _Route({"config": _REQUIRED, "workers": 1}, _experiment)}),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sofic-lab",
        description=(
            "Sample, count, and numerically verify random uniform and planted "
            "homomorphisms into symmetric groups and the proper 2-colorings "
            "of their induced hypergraphs."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.key is not None and command.choose is None:
            p.add_argument(command.key, choices=tuple(command.routes))
        # each flag that some route reads, once, in the order the routes give
        offered = dict.fromkeys(flag for route in command.routes.values() for flag in route.flags)
        for flag in offered:
            option, options = _FLAGS[flag]
            p.add_argument(option, **options)
    return parser


def _options(flags):
    return ", ".join(_FLAGS[flag][0] for flag in flags)


def _run_route(given):
    """Choose the route of one parsed invocation, refuse a flag that it does
    not read or a required one that is missing, parse the flags read as
    text and run its body on them.  Returns the "# params:" record, which
    shows the flags as typed, and the emit of the route's output."""
    name = given.pop("subcommand")
    command = SUBCOMMANDS[name]
    if command.choose is not None:
        route_name = command.choose(given)
    else:
        route_name = given.pop(command.key, None)
    route = command.routes[route_name]
    title = route.title or " ".join(filter(None, (name, route_name)))
    unread = [flag for flag, value in given.items() if value is not None and flag not in route.flags]
    if unread:
        raise ValueError("%s does not read %s" % (title, _options(unread)))
    values = {flag: default if given[flag] is None else given[flag]
              for flag, default in route.flags.items()}
    missing = [flag for flag, value in values.items() if value is _REQUIRED]
    if missing:
        raise ValueError("%s needs %s" % (title, _options(missing)))
    # each flag read as text is parsed once, by the check of its name; an
    # integer flag is already an int, and the library refuses a bad one
    parsed = {flag: _PARAM_CHECKS[flag](_FLAGS[flag][0], value)
              if isinstance(value, str) and flag in _PARAM_CHECKS else value
              for flag, value in values.items()}
    shown, emit = route.body(argparse.Namespace(**parsed))
    record = {"command": name}
    if command.key is not None:
        record[command.key] = route_name
    for flag, value in values.items():
        derived = shown.get(flag, {})
        if derived is not None:
            record[flag] = value
            record.update(derived)
    return record, emit


def cli_dispatch(argv=None):
    """Parse and run one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        record, emit = _run_route(vars(args))
        print(_params_line(record))
        emit(record)
        return 0
    except ScaleRefusal as exc:
        print("scale refusal: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    raise SystemExit(cli_dispatch())


if __name__ == "__main__":
    main()
