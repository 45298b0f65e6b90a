"""Command-line interface, experiment driver, and report emission.

Everything the package can compute is reachable from the ``sofic-lab``
entry point; the heavier statistical checks are driven by JSON experiment
configs.  Every experiment kind runs the same way: its replicas, one RNG
stream each, run in a worker pool and each returns one CSV row; the kind's
summary is then computed from the rows that did not fail.  On-disk formats
are JSON for instances and configs and CSV for tabular results.  Two
conventions hold throughout: every run prints a "# params: ..." line
echoing the seed, stream, and the full parameter record, and every CSV file
ends with the same line as a footer comment, so any artifact can be
reproduced from itself.  Outputs are bit-identical for identical (config,
seed), whatever the pool size.

Exit codes: 0 success, 2 validation error (bad flags, bad files, bad
parameter combinations), 3 scale refusal.
"""

from __future__ import annotations

import argparse
import csv
import io
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
    BRUTE_PATTERN_MAX_ELEMENTS,
    _check_core_sampler_args,
    build_ball,
    core_density_estimate,
    count_proper_patterns,
    cylinder_probability,
    enumerate_proper_patterns,
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
    """Render a number for text output: ints and Fractions verbatim, floats
    and mpf through mp.nstr with 17 significant digits, enough to round-trip
    a double."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        return str(value)
    text = mp.nstr(mp.mpf(value), 17, strip_zeros=True)
    if text in ("0.0", "-0.0"):
        return "0"
    return text


def _param_str(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(_param_str(v) for v in value)
    if isinstance(value, (float, mp.mpf)):
        return _fmt(value)
    return str(value)


def _params_line(record):
    return "# params: " + " ".join(
        "%s=%s" % (key, _param_str(value)) for key, value in record.items()
    )


def _announce(record):
    print(_params_line(record))


def _cell(value):
    """One CSV cell; exact values stay exact, None means an empty cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(target, header, rows, record):
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
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


def _open_instance(args, coloring=True, **head):
    """The opening of every command that reads an instance file (--input).

    Returns the homomorphism, its coloring (--chi if given, else the file's;
    None for a command that reads no coloring) and a function that builds
    the "# params:" record: head (the command and, where it has one, its
    route), the input path, n, k and d, the command's own fields, then seed
    and stream.
    """
    hom, chi = load_instance(args.input)
    params = hom.params
    if not coloring:
        chi = None
    elif args.chi is not None:
        chi = _chi_option(args.chi, params.n)
    elif chi is None:
        raise ValueError("no coloring: the instance file has no \"chi\" and --chi was not given")
    head.update(input=args.input, n=params.n, k=params.k, d=params.d)

    def record(**fields):
        return {**head, **fields, "seed": args.seed, "stream": args.stream}

    return hom, chi, record


def _chi_option(text, n):
    """The coloring given as --chi, which must have one bit per vertex."""
    chi = Coloring.from_string(text)
    if len(chi) != n:
        raise ValueError("--chi has length %d but n=%d" % (len(chi), n))
    return chi


def _refuse_unread(args, route, names):
    """Refuse, naming them, the flags among names that were given but that
    the route does not read: a flag that is dropped without a word would
    look applied."""
    given = ["--" + name.replace("_", "-") for name in names if getattr(args, name) is not None]
    if given:
        raise ValueError("%s does not read %s" % (route, ", ".join(given)))


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
        if "edge_label" in resolved:
            if resolved["edge_label"] >= shape.d:
                raise ValueError("edge_label must be below d=%d, got %d"
                                 % (shape.d, resolved["edge_label"]))
            # each row lists every proper pattern of its k-element edge
            if shape.k > BRUTE_PATTERN_MAX_ELEMENTS:
                raise ScaleRefusal("brute-force enumeration over the %d elements of an edge "
                                   "refused (at most %d)" % (shape.k, BRUTE_PATTERN_MAX_ELEMENTS),
                                   count=shape.k)
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
    """The largest |frequency - 1/q| over the q proper patterns of the domain."""
    target = Fraction(1, count_proper_patterns(domain))
    return max(abs(census.frequency(p) - target) for p in enumerate_proper_patterns(domain))


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


# The check of each params key, run before any replica: it returns the value
# that the replicas and the summary read, or raises ValueError naming the key.
_PARAM_CHECKS = {
    **dict.fromkeys(("d", "k", "n", "replicas", "seed", "stream"), _integer()),
    "seeds": _seeds,
    "level": _integer(0),
    "tree_samples": _integer(1),
    "edge_label": _integer(0),  # and below d, which ExperimentConfig checks
    "delta": _fraction,
    "min_fraction": _fraction,
    **dict.fromkeys(("mean_tolerance", "sigma_tolerance", "deviation_tolerance",
                     "tail_tolerance"), _tolerance),
}


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_sample_uniform(args):
    params = ModelParams(d=args.d, k=args.k, n=args.n)
    _announce(
        {
            "command": "sample-uniform",
            "n": args.n,
            "k": args.k,
            "d": args.d,
            "seed": args.seed,
            "stream": args.stream,
            "output": args.output,
        }
    )
    hom = sample_uniform_hom(params, RngState(args.seed, args.stream))
    save_instance(hom, args.output)
    return 0


def _cmd_sample_planted(args):
    params = ModelParams(d=args.d, k=args.k, n=args.n)
    if args.chi is not None:
        chi = _chi_option(args.chi, args.n)
    else:
        chi = Coloring.equitable_split(args.n)
    _announce(
        {
            "command": "sample-planted",
            "n": args.n,
            "k": args.k,
            "d": args.d,
            "chi": "".join(str(b) for b in chi),
            "seed": args.seed,
            "stream": args.stream,
            "output": args.output,
        }
    )
    hom = sample_planted_hom(params, chi, RngState(args.seed, args.stream))
    save_instance(hom, args.output, chi=chi)
    return 0


def _cmd_count(args):
    eps = _fraction("--eps", args.eps)
    hom, _, record = _open_instance(args, coloring=False, command="count")
    if args.equitable and eps != 0:
        raise ValueError("--equitable counts proper colorings only; drop --eps")
    _announce(record(eps=eps, equitable=args.equitable))
    graph = build_hypergraph(hom)
    if args.equitable:
        report = count_equitable(graph)
    else:
        report = count_proper(graph, eps=eps)
    print(report.value)
    return 0


def _resolve_degree(args, need_d=True):
    """d from --d or --eta, plus the record entries explaining the choice."""
    if args.d is not None and args.eta is not None:
        raise ValueError("give either --d or --eta, not both")
    if args.eta is not None:
        choice = degrees_from_offset(args.k, _fraction("--eta", args.eta))
        return choice.d, {
            "eta": args.eta,
            "d": choice.d,
            "implied_eta": choice.implied_eta,
            "in_window": choice.in_window,
        }
    if args.d is None:
        if need_d:
            raise ValueError("this quantity needs --d or --eta")
        return None, {}
    return args.d, {"d": args.d}


def _cmd_analytic(args):
    if args.quantity in ("psi", "psi0") and args.delta is None:
        raise ValueError("psi and psi0 need --delta")
    delta = None if args.delta is None else _fraction("--delta", args.delta)
    record = {"command": "analytic", "quantity": args.quantity, "k": args.k}
    d, degree_record = _resolve_degree(args, need_d=args.quantity != "tstar")
    record.update(degree_record)
    if args.delta is not None:
        record["delta"] = args.delta
    if args.precision is not None:
        record["precision"] = args.precision
    record["seed"] = args.seed
    record["stream"] = args.stream
    if args.quantity == "scan":
        record["grid_points"] = args.grid_points
        record["output"] = args.output
    _announce(record)

    if args.quantity == "f":
        print(_fmt(proper_rate(d, args.k, precision=args.precision)))
        return 0
    if args.quantity in ("psi", "psi0"):
        if args.quantity == "psi":
            value = pair_distance_rate(delta, d, args.k, precision=args.precision)
        else:
            value = planted_distance_rate(delta, d, args.k, precision=args.precision)
        print(_fmt(value))
        return 0
    if args.quantity == "tstar":
        print(" ".join(str(t) for t in dominant_type(args.k)))
        return 0
    if args.quantity == "fixed-point":
        trace = core_fixed_point(d, args.k, precision=args.precision)
        print("p_inf=%s" % _fmt(trace.p_inf))
        print("mu_core=%s" % _fmt(trace.mu_core))
        print("mu_core_attached=%s" % _fmt(trace.mu_core_attached))
        print("levels=%d converged=%s" % (len(trace.p), _fmt(trace.converged)))
        return 0
    if args.quantity == "scan":
        scan = distance_rate_scan(
            d, args.k, grid_points=args.grid_points, precision=args.precision
        )
        rows = [
            (
                _fmt(r.delta),
                _fmt(r.delta0),
                _fmt(r.planted_rate),
                _fmt(r.pair_rate),
                _fmt(r.proper_rate),
            )
            for r in scan.rows
        ]
        if args.output is None:
            buffer = io.StringIO()
            _write_csv(buffer, SCAN_CSV_HEADER, rows, record)
            sys.stdout.write(buffer.getvalue())
        else:
            _write_csv_path(args.output, SCAN_CSV_HEADER, rows, record)
            print(
                "argmax_delta=%s max_rate=%s margin=%s"
                % (_fmt(scan.argmax_delta), _fmt(scan.max_rate), _fmt(scan.margin))
            )
        return 0
    raise AssertionError("unhandled quantity %r" % args.quantity)


def _cmd_core_density(args):
    if args.input is not None:
        _refuse_unread(args, "the finite route (--input)", ("d", "k", "samples"))
        hom, chi, record = _open_instance(args, command="core-density", route="finite")
        density = density_report(build_hypergraph(hom), chi, args.level)
        _announce(record(level=args.level))
        print("rigid_density=%s rigid_density_float=%s" % (density, _fmt(float(density))))
        return 0
    _refuse_unread(args, "the tree route", ("chi",))
    if args.d is None or args.k is None:
        raise ValueError("tree route needs --d and --k (or use --input)")
    samples = DEFAULT_TREE_SAMPLES if args.samples is None else args.samples
    estimate = core_density_estimate(
        d=args.d,
        k=args.k,
        level=args.level,
        samples=samples,
        rng=RngState(args.seed, args.stream),
    )
    _announce(
        {
            "command": "core-density",
            "route": "tree",
            "d": args.d,
            "k": args.k,
            "level": args.level,
            "samples": samples,
            "seed": args.seed,
            "stream": args.stream,
        }
    )
    print(
        "rigid=%s rigid_float=%s stderr=%s"
        % (
            estimate.rigid_frequency(),
            _fmt(float(estimate.rigid_frequency())),
            _fmt(estimate.rigid_stderr()),
        )
    )
    print(
        "core=%s union=%s overlap=%d/%d"
        % (
            _fmt(float(estimate.core_frequency())),
            _fmt(float(estimate.union_frequency())),
            estimate.overlap_count,
            estimate.samples,
        )
    )
    return 0


def _cmd_expansivity(args):
    hom, chi, record = _open_instance(args, command="expansivity")
    report = expansivity_scan(
        build_hypergraph(hom),
        chi,
        args.t_max,
        random_trials=args.random_trials,
        rng=RngState(args.seed, args.stream),
    )
    _announce(record(t_max=args.t_max, random_trials=args.random_trials))
    print(
        "exhaustive_max_excess=%d violations=%d exhaustive_cap=%d"
        % (
            report.exhaustive_max_excess,
            len(report.violations),
            report.exhaustive_cap,
        )
    )
    if args.random_trials:
        print(
            "random_max_excess=%s size_cap=%d"
            % (_param_str(report.random_max_excess), report.size_cap)
        )
    for witness in report.violations:
        print("violation=%s" % ",".join(str(v) for v in sorted(witness)))
    return 0


def _cmd_rigidity(args):
    rho = _fraction("--rho", args.rho)
    hom, chi, record = _open_instance(args, command="rigidity")
    graph = build_hypergraph(hom)
    decomposition = core_decomposition(graph, chi)
    level = args.level
    if level is None:
        level = len(decomposition.levels) - 1
    region = decomposition.rigid_set(level)
    _announce(record(level=level, region_size=len(region), rho=rho))
    witness = rigidity_violation_search(graph, chi, region, rho)
    if witness is None:
        print("violation=none")
    else:
        moved = sum(1 for v in region if witness[v] != chi[v])
        print(
            "violation=%s moved=%d"
            % ("".join(str(b) for b in witness), moved)
        )
    return 0


def _cmd_local_convergence(args):
    hom, chi, record = _open_instance(args, command="local-convergence")
    tree_params = ModelParams(d=hom.params.d, k=hom.params.k, n=hom.params.k)
    if args.radius is not None:
        _refuse_unread(args, "the ball route (--radius)", ("edge_label",))
        domain = build_ball(tree_params, args.radius)
        route = {}
    else:
        route = {"edge_label": 0 if args.edge_label is None else args.edge_label}
        domain = single_edge_domain(tree_params, label=route["edge_label"])
    q = count_proper_patterns(domain)
    params_record = record(**route, elements=len(domain), q=q)
    if args.pattern is not None:
        params_record["pattern"] = args.pattern
    _announce(params_record)
    if args.pattern is not None:
        bits = [int(c) for c in args.pattern]
        frequency = local_convergence_stat(hom, chi, domain, bits)
        # the library warns of an empty cylinder; the CLI says so in its own form
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            target = cylinder_probability(domain, bits)
        for warning in caught:
            print("warning: %s" % warning.message, file=sys.stderr)
        print(
            "frequency=%s cylinder=%s deviation=%s"
            % (frequency, target, _fmt(abs(frequency - target)))
        )
        return 0
    census = local_pattern_census(hom, chi, domain)
    deviation = None
    if len(domain) <= BRUTE_PATTERN_MAX_ELEMENTS:
        deviation = _max_deviation(census, domain)
    print(
        "distinct=%d improper=%s noninjective=%d max_deviation=%s"
        % (
            len(census.counts),
            census.improper_fraction(),
            census.noninjective_count,
            _param_str(deviation if deviation is None else _fmt(deviation)),
        )
    )
    return 0


def _cmd_sofic_check(args):
    delta = _fraction("--delta", args.delta)
    hom, _, record = _open_instance(args, coloring=False, command="sofic-check")
    params = hom.params
    if args.words == "generators":
        words = generator_words(params)
    elif args.words == "pairs":
        words = generator_pair_words(params)
    else:
        words = generator_words(params) + generator_pair_words(params)
    _announce(record(words=args.words, word_count=len(words), delta=delta))
    report = check_sofic(hom, words, delta)
    print(
        "mult_fraction=%s trace_fraction=%s multiplicative=%s trace_preserving=%s sofic=%s"
        % (
            report.mult_fraction,
            report.trace_fraction,
            _fmt(report.is_multiplicative),
            _fmt(report.is_trace_preserving),
            _fmt(report.is_sofic),
        )
    )
    return 0


def _cmd_moments(args):
    params = ModelParams(d=args.d, k=args.k, n=args.n)
    record = {
        "command": "moments",
        "which": args.which,
        "n": args.n,
        "k": args.k,
        "d": args.d,
        "seed": args.seed,
        "stream": args.stream,
    }
    if args.which == "first":
        record["equitable"] = args.equitable
        _announce(record)
        if args.equitable:
            value = exact_equitable_first_moment(params)
        else:
            value = exact_first_moment(params)
    else:
        if args.delta is None:
            raise ValueError("planted-distance needs --delta")
        delta = _fraction("--delta", args.delta)
        record["delta"] = delta
        _announce(record)
        value = exact_planted_distance_moment(params, delta)
    print(value)
    return 0


def _cmd_experiment(args):
    with open(args.config) as fh:
        data = json.load(fh)
    config = ExperimentConfig.from_json_dict(data)
    _require_workers(args.workers)
    _announce(
        {
            "command": "experiment",
            "config": args.config,
            "kind": config.kind,
            **config.params,
            "output": config.output,
            "workers": args.workers,
        }
    )
    result = run_experiment(config, workers=args.workers)
    print("wrote %s and %s" % (result.csv_path, result.json_path))
    print(
        "replicas=%d failures=%d pass=%s"
        % (
            result.summary["replicas"],
            result.summary["failures"],
            _fmt(bool(result.summary["pass"])),
        )
    )
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--stream", type=int, default=0, help="RNG stream index")


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

    p = sub.add_parser("sample-uniform", help="sample the uniform model, emit JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--output", default=None, help="path for the instance JSON; default stdout")
    _add_common(p)
    p.set_defaults(func=_cmd_sample_uniform)

    p = sub.add_parser("sample-planted", help="sample the planted model, emit JSON with chi")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--chi", default=None, help="planted coloring bits; default equitable split")
    p.add_argument("--output", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_sample_planted)

    p = sub.add_parser("count", help="count proper colorings of an instance")
    p.add_argument("--input", required=True, help="instance JSON path")
    p.add_argument("--eps", default="0", help="allowed monochromatic edge fraction")
    p.add_argument("--equitable", action="store_true", help="count proper equitable colorings instead")
    _add_common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("analytic", help="closed-form rates and fixed points")
    p.add_argument("quantity", choices=("f", "psi", "psi0", "tstar", "fixed-point", "scan"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--eta", default=None, help="offset; picks d = round(k 2^(k-1) (log2 - eta))")
    p.add_argument("--delta", default=None, help="distance for psi/psi0, a fraction like 1/2")
    p.add_argument("--grid-points", type=int, default=2001)
    p.add_argument("--precision", type=int, default=None, help="working precision bits")
    p.add_argument("--output", default=None, help="CSV path for scan; default stdout")
    _add_common(p)
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("core-density", help="rigid-set density, finite instance or tree Monte Carlo")
    p.add_argument("--input", default=None, help="instance JSON (finite route)")
    p.add_argument("--chi", default=None, help="coloring bits if the instance file lacks chi")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--samples", type=int, default=None,
                   help="tree route root samples; default %d" % DEFAULT_TREE_SAMPLES)
    _add_common(p)
    p.set_defaults(func=_cmd_core_density)

    p = sub.add_parser("expansivity", help="scan small vertex sets for edge-count violations")
    p.add_argument("--input", required=True)
    p.add_argument("--chi", default=None)
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--random-trials", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_expansivity)

    p = sub.add_parser("rigidity", help="search for colorings moving a rigid region")
    p.add_argument("--input", required=True)
    p.add_argument("--chi", default=None)
    p.add_argument("--rho", required=True, help="disagreement threshold, a fraction like 1/10")
    p.add_argument("--level", type=int, default=None, help="peeling level; default deepest computed")
    _add_common(p)
    p.set_defaults(func=_cmd_rigidity)

    p = sub.add_parser("local-convergence", help="window census against the tree measure")
    p.add_argument("--input", required=True)
    p.add_argument("--chi", default=None)
    p.add_argument("--edge-label", type=int, default=None, help="label of the one edge; default 0")
    p.add_argument("--radius", type=int, default=None, help="use a full ball instead of one edge")
    p.add_argument("--pattern", default=None, help="bits in domain order; report this cylinder only")
    _add_common(p)
    p.set_defaults(func=_cmd_local_convergence)

    p = sub.add_parser("sofic-check", help="multiplicativity and trace statistics on a word set")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", default="1/10")
    p.add_argument("--words", choices=("generators", "pairs", "both"), default="both")
    _add_common(p)
    p.set_defaults(func=_cmd_sofic_check)

    p = sub.add_parser("moments", help="exact expected coloring counts")
    p.add_argument("which", choices=("first", "planted-distance"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", default=None)
    p.add_argument("--equitable", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("experiment", help="run a JSON experiment config")
    p.add_argument("config", help="experiment config JSON path")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_experiment)

    return parser


def cli_dispatch(argv=None):
    """Parse and run one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
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
