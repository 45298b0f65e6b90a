import hashlib
import json
import math
import warnings
from fractions import Fraction

import pytest
from test_streams import COUNTING_CLI_CASES, FIXTURES, STDOUT_CLI_CASES

from sofic_lab.analytics import (
    core_fixed_point,
    degrees_from_offset,
    distance_rate_scan,
    pair_distance_rate,
    planted_distance_rate,
)
from sofic_lab.exact_count import (
    count_proper,
    exact_first_moment,
    exact_planted_distance_moment,
)
from sofic_lab.group_model import (
    ModelParams,
    UniformHom,
    check_sofic,
    generator_pair_words,
    generator_words,
)
from sofic_lab.harness import (
    _FLAGS,
    _REQUIRED,
    SUBCOMMANDS,
    ExperimentConfig,
    _fmt,
    _max_deviation,
    _params_line,
    build_parser,
    cli_dispatch,
    load_instance,
    run_experiment,
    save_instance,
)
from sofic_lab.hypergraph import Coloring, build_hypergraph, monochromatic_edge_count
from sofic_lab.samplers import RngState, sample_planted_hom
from sofic_lab.structure import density_report
from sofic_lab.tree_markov import (
    BRUTE_PATTERN_MAX_ELEMENTS,
    build_ball,
    core_density_estimate,
    count_proper_patterns,
    enumerate_proper_patterns,
    local_pattern_census,
    single_edge_domain,
)


def run_cli(capsys, argv):
    """Dispatch one CLI call and return (exit code, stdout lines)."""
    code = cli_dispatch(argv)
    out = capsys.readouterr().out
    return code, out.splitlines()


def payload(lines):
    """Stdout lines with the leading # comments stripped."""
    return [line for line in lines if not line.startswith("#")]


def write_planted_instance(path, n, k, d, seed=7):
    params = ModelParams(d=d, k=k, n=n)
    chi = Coloring.equitable_split(n)
    hom = sample_planted_hom(params, chi, RngState(seed))
    save_instance(hom, str(path), chi=chi)
    return hom, chi


# ---------------------------------------------------------------------------
# formatting


def test_fmt_values():
    assert _fmt(Fraction(8, 3)) == "8/3"
    assert _fmt(12) == "12"
    assert _fmt(True) == "true"
    assert _fmt(0.0) == "0"
    assert _fmt(0.5) == "0.5"


def test_params_line_layout():
    line = _params_line({"command": "count", "eps": Fraction(0), "output": None})
    assert line == "# params: command=count eps=0 output=-"


# ---------------------------------------------------------------------------
# sampling commands and instance files


def test_sample_uniform_schema_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    base = ["sample-uniform", "--n", "12", "--k", "3", "--d", "2", "--seed", "5"]
    assert run_cli(capsys, base + ["--output", str(out1)])[0] == 0
    assert run_cli(capsys, base + ["--output", str(out2)])[0] == 0
    assert out1.read_bytes() == out2.read_bytes()

    data = json.loads(out1.read_text())
    assert set(data) == {"n", "k", "d", "images"}
    hom = UniformHom.from_json_dict(data)
    assert hom.params == ModelParams(d=2, k=3, n=12)

    out3 = tmp_path / "c.json"
    code, _ = run_cli(capsys, base[:-2] + ["--seed", "6", "--output", str(out3)])
    assert code == 0
    assert out3.read_bytes() != out1.read_bytes()


def test_sample_uniform_stdout_payload_is_json(capsys):
    code, lines = run_cli(capsys, ["sample-uniform", "--n", "4", "--k", "2", "--d", "1"])
    assert code == 0
    assert lines[0].startswith("# params: ")
    assert "seed=0" in lines[0] and "stream=0" in lines[0]
    data = json.loads("\n".join(payload(lines)))
    UniformHom.from_json_dict(data)


def test_sample_planted_records_proper_chi(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, _ = run_cli(
        capsys,
        ["sample-planted", "--n", "12", "--k", "3", "--d", "3", "--seed", "1",
         "--output", str(out)],
    )
    assert code == 0
    hom, chi = load_instance(str(out))
    assert chi == Coloring.equitable_split(12)
    assert monochromatic_edge_count(build_hypergraph(hom), chi) == 0


def test_save_instance_validates_chi_length(tmp_path):
    params = ModelParams(d=1, k=2, n=4)
    hom = sample_planted_hom(params, Coloring.equitable_split(4), RngState(0))
    with pytest.raises(ValueError, match="length"):
        save_instance(hom, str(tmp_path / "x.json"), chi=Coloring([0, 1]))
    save_instance(hom, str(tmp_path / "x.json"))
    _, chi = load_instance(str(tmp_path / "x.json"))
    assert chi is None


def test_count_matches_library(tmp_path, capsys):
    path = tmp_path / "inst.json"
    hom, _ = write_planted_instance(path, n=12, k=3, d=3)
    expected = count_proper(build_hypergraph(hom)).value
    code, lines = run_cli(capsys, ["count", "--input", str(path), "--eps", "0"])
    assert code == 0
    assert payload(lines) == [str(expected)]


def test_count_equitable_conflicts_with_eps(tmp_path, capsys):
    path = tmp_path / "inst.json"
    write_planted_instance(path, n=8, k=2, d=2)
    code, _ = run_cli(
        capsys,
        ["count", "--input", str(path), "--eps", "1/4", "--equitable"],
    )
    assert code == 2


# ---------------------------------------------------------------------------
# analytic commands


def test_analytic_f_trivial_zero(capsys):
    code, lines = run_cli(capsys, ["analytic", "f", "--d", "2", "--k", "2"])
    assert code == 0
    assert payload(lines) == ["0"]


def test_analytic_psi_routes_match_library(capsys):
    code, lines = run_cli(
        capsys, ["analytic", "psi", "--d", "5", "--k", "3", "--delta", "1/2"]
    )
    assert code == 0
    assert abs(float(payload(lines)[0]) - float(pair_distance_rate(Fraction(1, 2), 5, 3))) < 1e-12

    code, lines = run_cli(
        capsys, ["analytic", "psi0", "--d", "5", "--k", "3", "--delta", "1/2"]
    )
    assert code == 0
    assert abs(float(payload(lines)[0]) - float(planted_distance_rate(Fraction(1, 2), 5, 3))) < 1e-12


def test_analytic_tstar(capsys):
    code, lines = run_cli(capsys, ["analytic", "tstar", "--k", "4"])
    assert code == 0
    assert payload(lines) == ["0 1/14 3/28 1/14 0"]


def test_analytic_fixed_point_output(capsys):
    code, lines = run_cli(capsys, ["analytic", "fixed-point", "--d", "5", "--k", "3"])
    assert code == 0
    body = payload(lines)
    values = dict(part.split("=") for line in body for part in line.split())
    trace = core_fixed_point(5, 3)
    assert abs(float(values["p_inf"]) - float(trace.p_inf)) < 1e-12
    assert abs(float(values["mu_core"]) - float(trace.mu_core)) < 1e-12
    assert values["converged"] == "true"


def test_analytic_degree_validation(capsys):
    assert run_cli(capsys, ["analytic", "f", "--k", "3"])[0] == 2
    assert run_cli(capsys, ["analytic", "f", "--k", "3", "--d", "5", "--eta", "0.1"])[0] == 2
    # refused before the params line is printed
    for quantity in ("psi", "psi0"):
        assert run_cli(capsys, ["analytic", quantity, "--k", "3", "--d", "5"]) == (2, [])


def test_analytic_eta_resolves_degree(capsys):
    choice = degrees_from_offset(25, Fraction("0.12"))
    code, lines = run_cli(capsys, ["analytic", "f", "--k", "25", "--eta", "0.12"])
    assert code == 0
    assert ("d=%d" % choice.d) in lines[0]
    assert "in_window=true" in lines[0]


def test_scan_csv_format(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, lines = run_cli(
        capsys,
        ["analytic", "scan", "--k", "4", "--d", "8", "--grid-points", "51",
         "--output", str(out)],
    )
    assert code == 0
    assert any(line.startswith("argmax_delta=") for line in payload(lines))
    rows = out.read_text().splitlines()
    assert rows[0] == "delta,delta0,psi0,psi,f_dk"
    assert rows[-1].startswith("# params: ")
    assert len(rows) == 53

    scan = distance_rate_scan(8, 4, grid_points=51)
    middle = rows[1 + 25].split(",")
    assert float(middle[0]) == 0.5
    assert abs(float(middle[2]) - float(scan.rows[25].planted_rate)) < 1e-12
    assert abs(float(middle[4]) - float(scan.rows[25].proper_rate)) < 1e-12


def test_scan_stdout_route(capsys):
    code, lines = run_cli(capsys, ["analytic", "scan", "--k", "3", "--d", "5",
                                   "--grid-points", "5"])
    assert code == 0
    body = payload(lines)
    assert body[0] == "delta,delta0,psi0,psi,f_dk"
    assert len(body) == 6
    assert lines[-1].startswith("# params: ")


# sha256 of the stdout of `sofic-lab analytic scan --k 25 --eta 0.12
# --grid-points 33`, recorded while degrees_from_offset still retyped the
# formulas of ratio_from_offset and offset_window_top, and re-derived with
# only " seed=0 stream=0" removed from its two "# params:" lines once the
# analytic routes stopped echoing a seed they never read.
ETA_SCAN_STDOUT_DIGEST = "ec911fd25b0548811089c6d9c5550874ecedc976fa93a06aa58a850aa0d8aac5"


def test_scan_at_offset_stdout_digest(capsys):
    code = cli_dispatch(["analytic", "scan", "--k", "25", "--eta", "0.12",
                         "--grid-points", "33"])
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ETA_SCAN_STDOUT_DIGEST


# ---------------------------------------------------------------------------
# structure-facing commands


def test_core_density_finite_route(tmp_path, capsys):
    path = tmp_path / "inst.json"
    hom, chi = write_planted_instance(path, n=30, k=3, d=5, seed=3)
    expected = density_report(build_hypergraph(hom), chi, 1)
    code, lines = run_cli(
        capsys, ["core-density", "--input", str(path), "--level", "1"]
    )
    assert code == 0
    assert payload(lines)[0].startswith("rigid_density=%s " % expected)


def test_core_density_tree_route(capsys):
    code, lines = run_cli(
        capsys,
        ["core-density", "--d", "5", "--k", "3", "--level", "1",
         "--samples", "2000", "--seed", "0"],
    )
    assert code == 0
    estimate = core_density_estimate(d=5, k=3, level=1, samples=2000, rng=RngState(0))
    assert payload(lines)[0].startswith("rigid=%s " % estimate.rigid_frequency())


def test_core_density_tree_route_needs_params(capsys):
    assert run_cli(capsys, ["core-density", "--level", "1"])[0] == 2


def test_expansivity_and_rigidity_commands(tmp_path, capsys):
    path = tmp_path / "inst.json"
    write_planted_instance(path, n=12, k=3, d=3)
    code, lines = run_cli(
        capsys,
        ["expansivity", "--input", str(path), "--t-max", "2", "--random-trials", "3"],
    )
    assert code == 0
    body = payload(lines)
    assert body[0].startswith("exhaustive_max_excess=")
    assert "violations=0" in body[0]

    code, lines = run_cli(
        capsys,
        ["expansivity", "--input", str(path), "--t-max", "2", "--random-trials", "-3"],
    )
    assert code == 2
    assert payload(lines) == []

    code, lines = run_cli(
        capsys, ["rigidity", "--input", str(path), "--rho", "1/10"]
    )
    assert code == 0
    assert payload(lines)[0] == "violation=none"


def test_rigidity_command_refuses_beyond_moment_scale(tmp_path, capsys):
    path = tmp_path / "inst.json"
    write_planted_instance(path, n=30, k=3, d=2)
    assert cli_dispatch(["rigidity", "--input", str(path), "--rho", "1/30"]) == 3
    assert "rigidity_violation_search supports n <= 24" in capsys.readouterr().err


def test_local_convergence_single_pattern(tmp_path, capsys):
    path = tmp_path / "inst.json"
    write_planted_instance(path, n=12, k=3, d=3)
    code, lines = run_cli(
        capsys,
        ["local-convergence", "--input", str(path), "--pattern", "100"],
    )
    assert code == 0
    assert payload(lines)[0].startswith("frequency=")
    assert "cylinder=1/6" in payload(lines)[0]

    for bad in ("1", "021"):
        code, _ = run_cli(
            capsys, ["local-convergence", "--input", str(path), "--pattern", bad]
        )
        assert code == 2


def test_local_convergence_improper_pattern_warns_in_cli_form(tmp_path, capsys):
    path = tmp_path / "inst.json"
    write_planted_instance(path, n=12, k=3, d=3)
    # a monochromatic pattern has an empty cylinder, and a proper instance
    # never reads it; the library's warning is printed as one line, not raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_dispatch(["local-convergence", "--input", str(path), "--pattern", "000"])
    out, err = capsys.readouterr()
    assert code == 0
    assert payload(out.splitlines()) == ["frequency=0 cylinder=0 deviation=0"]
    assert err == "warning: improper pattern has an empty cylinder\n"
    # a proper pattern prints nothing on stderr
    assert cli_dispatch(["local-convergence", "--input", str(path), "--pattern", "100"]) == 0
    assert capsys.readouterr().err == ""


def test_sofic_check_matches_library(tmp_path, capsys):
    path = tmp_path / "inst.json"
    hom, _ = write_planted_instance(path, n=12, k=3, d=3)
    words = generator_words(hom.params) + generator_pair_words(hom.params)
    report = check_sofic(hom, words, Fraction(1, 10))
    code, lines = run_cli(capsys, ["sofic-check", "--input", str(path)])
    assert code == 0
    line = payload(lines)[0]
    assert ("mult_fraction=%s" % report.mult_fraction) in line
    assert ("trace_fraction=%s" % report.trace_fraction) in line


def test_moments_commands(capsys):
    code, lines = run_cli(capsys, ["moments", "first", "--n", "4", "--k", "2", "--d", "2"])
    assert code == 0
    assert payload(lines) == [str(exact_first_moment(ModelParams(d=2, k=2, n=4)))]
    # at d = 0 the equitable moment is C(n, n/2) even when k does not divide n
    code, lines = run_cli(
        capsys, ["moments", "first", "--equitable", "--n", "4", "--k", "3", "--d", "0"]
    )
    assert code == 0
    assert payload(lines) == ["6"]

    code, lines = run_cli(
        capsys,
        ["moments", "planted-distance", "--n", "4", "--k", "2", "--d", "2",
         "--delta", "1/2"],
    )
    assert code == 0
    expected = exact_planted_distance_moment(ModelParams(d=2, k=2, n=4), Fraction(1, 2))
    assert payload(lines) == [str(expected)]

    assert run_cli(capsys, ["moments", "planted-distance", "--n", "4", "--k", "2",
                            "--d", "2"])[0] == 2


# ---------------------------------------------------------------------------
# exit codes


def test_exit_codes(tmp_path, capsys):
    big = tmp_path / "big.json"
    write_planted_instance(big, n=120, k=3, d=2, seed=0)
    assert run_cli(capsys, ["count", "--input", str(big)])[0] == 3
    assert run_cli(capsys, ["count", "--input", str(tmp_path / "missing.json")])[0] == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert run_cli(capsys, ["count", "--input", str(broken)])[0] == 2
    assert run_cli(capsys, ["sample-uniform", "--n", "7", "--k", "3", "--d", "1"])[0] == 2
    assert run_cli(capsys, ["--help"])[0] == 0
    assert run_cli(capsys, [])[0] == 2
    removed = ["core-density", "--d", "5", "--k", "3", "--level", "1", "--samples", "10",
               "--use-colors"]
    assert run_cli(capsys, removed)[0] == 2


DROP = object()


def _instance_with(**changes):
    """The edit of an instance document that sets the given keys, or drops
    those given as DROP."""
    def edit(document):
        document = {**document, **changes}
        return {key: value for key, value in document.items() if value is not DROP}
    return edit


COUNT = ["count", "--input", "{inst}"]


@pytest.mark.parametrize(
    "argv,message,edit",
    [(["count", "--input", "{inst}", "--eps", "1/0"], "--eps must be a fraction", None),
     (["analytic", "psi", "--k", "3", "--d", "5", "--delta", "1/0"],
      "--delta must be a fraction", None),
     (["analytic", "f", "--k", "3", "--eta", "1/0"], "--eta must be a fraction", None),
     (["sofic-check", "--input", "{inst}", "--delta", "1/0"], "--delta must be a fraction", None),
     (["moments", "planted-distance", "--n", "4", "--k", "2", "--d", "2", "--delta", "1/0"],
      "--delta must be a fraction", None),
     (["rigidity", "--input", "{inst}", "--rho", "1/0"], "--rho must be a fraction", None),
     (["experiment", "{config}", "--seed", "3"], "unrecognized arguments: --seed 3", None),
     # malformed instance files
     (COUNT, "instance is missing 'n'", lambda document: {}),
     (COUNT, "an instance must be a JSON object, got list", lambda document: [1]),
     (COUNT, "instance is missing 'images'", _instance_with(images=DROP)),
     (COUNT, "instance 'd' must be an integer, got None", _instance_with(d=None)),
     (COUNT, "instance 'n' must be an integer, got 12.7", _instance_with(n=12.7)),
     (COUNT, "instance 'n' must be an integer, got '12'", _instance_with(n="12")),
     (COUNT, "instance 'n' must be an integer, got True", _instance_with(n=True)),
     (COUNT, "instance 'images' must be a list, got 5", _instance_with(images=5)),
     (["rigidity", "--input", "{inst}", "--rho", "1/10"],
      "instance 'chi' must be a string of bits, got 5", _instance_with(chi=5)),
     (["rigidity", "--input", "{inst}", "--rho", "1/10"],
      "a coloring is a string of 0s and 1s, got '0 1'", _instance_with(chi="0 1")),
     # flags that the chosen route does not read
     (["core-density", "--input", "{inst}", "--level", "1", "--d", "99", "--k", "99",
       "--samples", "0"], "the finite route (--input) does not read --d, --k, --samples", None),
     (["core-density", "--input", "{inst}", "--level", "1", "--samples", "10"],
      "the finite route (--input) does not read --samples", None),
     (["core-density", "--d", "5", "--k", "3", "--level", "1", "--chi", "0101"],
      "the tree route does not read --chi", None),
     (["local-convergence", "--input", "{inst}", "--radius", "1", "--edge-label", "0"],
      "the ball route (--radius) does not read --edge-label", None),
     (["count", "--input", "{inst}", "--seed", "5", "--stream", "9"],
      "unrecognized arguments: --seed 5 --stream 9", None),
     (["sofic-check", "--input", "{inst}", "--words", "pairs", "--delta", "1/4", "--seed", "3"],
      "unrecognized arguments: --seed 3", None),
     (["analytic", "f", "--k", "3", "--d", "5", "--delta", "1/3", "--grid-points", "7",
       "--output", "{inst}.csv"],
      "analytic f does not read --delta, --grid-points, --output", None),
     (["moments", "first", "--n", "6", "--k", "3", "--d", "2", "--delta", "1/3"],
      "moments first does not read --delta", None),
     (["moments", "planted-distance", "--n", "6", "--k", "3", "--d", "2", "--delta", "1/3",
       "--equitable"], "moments planted-distance does not read --equitable", None),
     (["expansivity", "--input", "{inst}", "--t-max", "2", "--random-trials", "0", "--seed", "3"],
      "the exhaustive scan does not read --seed", None),
     # bit strings: a coloring and a pattern are 0s and 1s only
     (["sample-planted", "--n", "6", "--k", "3", "--d", "2", "--chi", "11x000"],
      "a coloring is a string of 0s and 1s, got '11x000'", None),
     (["local-convergence", "--input", "{inst}", "--pattern", "01x"],
      "a coloring is a string of 0s and 1s, got '01x'", None),
     # values that the library call refuses
     (["core-density", "--input", "{inst}", "--level", "-1"], "l_max must be nonnegative", None),
     (["core-density", "--d", "5", "--k", "3", "--level", "-1"], "level must be nonnegative", None),
     (["expansivity", "--input", "{inst}", "--t-max", "-1"], "t_max must be between 1 and n", None),
     (["sample-uniform", "--n", "7", "--k", "3", "--d", "1"],
      "uniform homomorphisms need k | n; got n=7, k=3", None),
     (["sample-planted", "--n", "6", "--k", "3", "--d", "2", "--chi", "111111"],
      "type sampling requires an equitable coloring", None),
     (["moments", "first", "--n", "7", "--k", "3", "--d", "2"],
      "uniform homomorphisms need k | n; got n=7, k=3", None),
     (["moments", "planted-distance", "--n", "6", "--k", "3", "--d", "2", "--delta", "1/5"],
      "delta=1/5 is not a flip count at scale n=6", None),
     (["analytic", "psi", "--k", "3", "--d", "5", "--delta", "2"],
      "argument must lie in [0, 1], got 2", None),
     (["analytic", "scan", "--k", "3", "--d", "5", "--grid-points", "1"],
      "need at least 3 grid points, got 1", None),
     (["analytic", "scan", "--k", "3", "--d", "5", "--grid-points", "5", "--precision", "8"],
      "working precision must be at least 53 bits, got 8", None),
     (["local-convergence", "--input", "{inst}", "--pattern", "0110"],
      "pattern does not cover the domain: 4 values for 3 elements", None),
     (["expansivity", "--input", "{inst}", "--t-max", "2", "--chi", "0101"],
      "coloring has 4 entries for 12 vertices", None)],
    ids=["count-eps", "analytic-delta", "analytic-eta", "sofic-check-delta",
         "moments-delta", "rigidity-rho", "experiment-seed",
         "instance-empty-object", "instance-not-an-object", "instance-without-images",
         "instance-null-d", "instance-float-n", "instance-text-n", "instance-bool-n",
         "instance-int-images", "instance-int-chi", "instance-spaced-chi",
         "finite-route-tree-flags", "finite-route-samples", "tree-route-chi",
         "ball-route-edge-label", "count-seed", "sofic-check-seed", "analytic-f-scan-flags",
         "moments-first-delta", "moments-distance-equitable", "exhaustive-scan-seed",
         "sample-planted-letter-chi", "local-convergence-letter-pattern",
         "finite-route-level", "tree-route-level", "expansivity-t-max",
         "sample-uniform-shape", "sample-planted-improper-chi", "moments-first-shape",
         "moments-distance-not-a-flip-count", "analytic-psi-delta", "analytic-scan-grid",
         "analytic-scan-precision", "local-convergence-pattern-length", "expansivity-short-chi"],
)
def test_cli_refuses_invalid_input_before_the_params_line(tmp_path, capsys, argv, message, edit):
    # exit 2 with an error line and no traceback, and nothing on stdout;
    # experiment runs the seeds of its config, and count and sofic-check draw
    # nothing, so none of them takes a --seed
    inst = tmp_path / "inst.json"
    write_planted_instance(inst, n=12, k=3, d=3)
    if edit is not None:
        inst.write_text(json.dumps(edit(json.loads(inst.read_text()))))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "first-moment", "output": str(tmp_path / "out"),
                                  "params": {"n": 4, "k": 2, "d": 2, "replicas": 3}}))
    argv = [arg.format(inst=inst, config=config) for arg in argv]
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: %s" % message in captured.err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "inst.json"]


# A valid value of every flag of the CLI, as argv items after the option.
FLAG_VALUES = {
    "config": ["{config}"], "input": ["{inst}"], "chi": ["000000111111"],
    "n": ["6"], "k": ["3"], "d": ["2"], "eta": ["0.1"], "delta": ["1/3"], "eps": ["1/8"],
    "equitable": [], "precision": ["80"], "grid_points": ["5"], "level": ["1"],
    "samples": ["10"], "t_max": ["2"], "random_trials": ["2"], "rho": ["1/10"],
    "edge_label": ["1"], "radius": ["1"], "pattern": ["011"], "words": ["pairs"],
    "seed": ["3"], "stream": ["4"], "output": ["{inst}.out"], "workers": ["1"],
}


def _flag_argv(flag):
    option = _FLAGS[flag][0]
    return FLAG_VALUES[flag] if not option.startswith("--") else [option] + FLAG_VALUES[flag]


def _route_argv(name, route_name):
    """The argv that runs one route of a command with its required flags."""
    command = SUBCOMMANDS[name]
    argv = [name] + ([route_name] if command.key and command.choose is None else [])
    flags = command.routes[route_name].flags
    for flag, default in flags.items():
        if default is _REQUIRED:
            argv += _flag_argv(flag)
    # a route that reads --eta needs it or --d
    return argv + (_flag_argv("d") if "eta" in flags else [])


def _unread_flag_cases():
    """(command, route, flag) for every flag that the command offers and the
    route does not read, unless giving it picks another route of the command
    (--input picks the finite route of core-density, --radius the ball route
    of local-convergence)."""
    parser = build_parser()
    for name, command in SUBCOMMANDS.items():
        offered = dict.fromkeys(flag for route in command.routes.values() for flag in route.flags)
        for route_name, route in command.routes.items():
            for flag in offered:
                if flag in route.flags:
                    continue
                given = vars(parser.parse_args(_route_argv(name, route_name) + _flag_argv(flag)))
                if command.choose is None or command.choose(given) == route_name:
                    yield pytest.param(name, route_name, flag,
                                       id="%s-%s-%s" % (name, route_name, flag))


def test_every_route_runs_from_its_required_flags(tmp_path, capsys):
    # the argv of the table-driven refusal test is valid without the flag
    inst = tmp_path / "inst.json"
    write_planted_instance(inst, n=12, k=3, d=3)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "first-moment", "output": str(tmp_path / "out"),
                                  "params": {"n": 4, "k": 2, "d": 2, "replicas": 2}}))
    for name, command in SUBCOMMANDS.items():
        for route_name in command.routes:
            argv = [arg.format(inst=inst, config=config)
                    for arg in _route_argv(name, route_name)]
            assert cli_dispatch(argv) == 0, argv
            assert capsys.readouterr().out.startswith("# params: command=%s" % name)


@pytest.mark.parametrize("name,route_name,flag", list(_unread_flag_cases()))
def test_every_route_refuses_each_offered_flag_it_does_not_read(tmp_path, capsys,
                                                                 name, route_name, flag):
    # a flag that is echoed, or dropped without a word, would look applied
    inst = tmp_path / "inst.json"
    write_planted_instance(inst, n=12, k=3, d=3)
    argv = [arg.format(inst=inst, config=tmp_path / "cfg.json")
            for arg in _route_argv(name, route_name) + _flag_argv(flag)]
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.endswith(" does not read %s\n" % _FLAGS[flag][0])


# The runs of the pinned stdout digests that read an instance, and runs given
# a --chi other than the instance file's, whose output differs from the run
# on the file's coloring.
REPLAY_CASES = [(fixture, command)
                for fixture, command, _ in STDOUT_CLI_CASES + COUNTING_CLI_CASES
                if fixture is not None] + [
    ("count_instance", "expansivity --t-max 2 --chi 001000110101"),
    ("count_instance", "expansivity --t-max 2 --random-trials 3 --seed 4 --chi 001000110101"),
    ("count_instance", "core-density --level 1 --chi 000000110110"),
]


def _replay_argv(argv, params_line):
    """The argv rebuilt from the entries of a "# params:" line that are
    flags of the route that argv runs."""
    name = argv[0]
    command = SUBCOMMANDS[name]
    given = vars(build_parser().parse_args(argv))
    route_name = command.choose(given) if command.choose else given.get(command.key)
    replay = [name] + ([route_name] if command.key and command.choose is None else [])
    for item in params_line.removeprefix("# params: ").split():
        flag, value = item.split("=", 1)
        if flag in command.routes[route_name].flags:
            option, options = _FLAGS[flag]
            if options.get("action") == "store_true":
                replay += [option] if value == "true" else []
            else:
                replay += [option, value]
    return replay


@pytest.mark.parametrize("fixture,command", REPLAY_CASES, ids=lambda c: c)
def test_instance_runs_replay_from_their_params_line(monkeypatch, capsys, fixture, command):
    # every flag that a route reads is recorded as typed, so the record alone
    # reruns the route to the same bytes
    argv = command.split()
    argv[1:1] = ["--input", fixture + ".json"]
    monkeypatch.chdir(FIXTURES)
    assert cli_dispatch(argv) == 0
    out = capsys.readouterr().out
    assert cli_dispatch(_replay_argv(argv, out.splitlines()[0])) == 0
    assert capsys.readouterr().out == out


# ---------------------------------------------------------------------------
# experiment configs and the driver


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="unknown experiment kind"):
        ExperimentConfig("third-moment", {"replicas": 1}, "out")
    with pytest.raises(ValueError, match="replica"):
        ExperimentConfig("first-moment", {"replicas": 0}, "out")
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig("first-moment", {"seeds": []}, "out")
    with pytest.raises(ValueError, match="positive"):
        ExperimentConfig("first-moment", {"replicas": 2, "mean_tolerance": -1}, "out")
    with pytest.raises(ValueError, match="output"):
        ExperimentConfig("first-moment", {"replicas": 2}, "")
    with pytest.raises(ValueError, match="missing"):
        ExperimentConfig.from_json_dict({"kind": "first-moment"})


def test_experiment_config_refuses_params_its_kind_does_not_read():
    # a misspelt key would otherwise run with the default and be echoed
    # into the params footer as though it had been applied
    with pytest.raises(ValueError, match="do not read params 'tree_sample'"):
        ExperimentConfig("density", {"d": 5, "k": 3, "n": 30, "level": 1,
                                     "replicas": 2, "tree_sample": 10}, "out")
    with pytest.raises(ValueError, match="'enumerate', 'use_colors'"):
        ExperimentConfig("density", {"replicas": 2, "use_colors": True,
                                     "enumerate": False}, "out")
    with pytest.raises(ValueError, match="'level'"):
        ExperimentConfig("first-moment", {"replicas": 2, "level": 1}, "out")
    with pytest.raises(ValueError, match="'seeds'"):
        ExperimentConfig("concentration", {"seeds": [1, 2]}, "out")
    ExperimentConfig("density", {"d": 5, "k": 3, "n": 30, "level": 1, "replicas": 2,
                                 "tree_samples": 10, "sigma_tolerance": 2}, "out")


def test_experiment_replica_states():
    shape = {"d": 2, "k": 2, "n": 4}
    config = ExperimentConfig("first-moment", {**shape, "replicas": 3, "seed": 9}, "out")
    assert config.replica_states() == [RngState(9, 0), RngState(9, 1), RngState(9, 2)]
    config = ExperimentConfig("first-moment", {**shape, "seeds": [4, 8]}, "out")
    assert config.replicas == 2
    assert config.replica_states() == [RngState(4, 0), RngState(8, 0)]


def test_first_moment_experiment_exact_equality(tmp_path):
    config = ExperimentConfig(
        "first-moment",
        {"n": 4, "k": 2, "d": 2, "replicas": 40, "seed": 3},
        str(tmp_path / "fm"),
    )
    result = run_experiment(config)
    assert result.summary["exact"] == Fraction(8, 3)
    assert result.summary["enumeration"] == Fraction(8, 3)
    assert result.summary["exact_equals_enumeration"] is True
    assert result.summary["pass"] is True
    assert result.summary["failures"] == 0

    rows = (tmp_path / "fm.csv").read_text().splitlines()
    assert rows[0] == "replica,seed,stream,z,error"
    assert len(rows) == 42
    assert rows[-1].startswith("# params: kind=first-moment")
    summary = json.loads((tmp_path / "fm.json").read_text())
    assert summary["exact"] == "8/3"


def test_planted_distance_experiment(tmp_path):
    config = ExperimentConfig(
        "planted-distance",
        {"n": 4, "k": 2, "d": 2, "delta": "1/2", "replicas": 25, "seed": 1},
        str(tmp_path / "pd"),
    )
    result = run_experiment(config)
    exact = exact_planted_distance_moment(ModelParams(d=2, k=2, n=4), Fraction(1, 2))
    assert result.summary["exact"] == exact
    assert result.summary["exact_equals_enumeration"] is True
    assert result.summary["pass"] is True


def test_density_experiment_columns(tmp_path):
    config = ExperimentConfig(
        "density",
        {"n": 30, "k": 3, "d": 5, "level": 1, "replicas": 15,
         "tree_samples": 20_000, "seed": 9},
        str(tmp_path / "dens"),
    )
    result = run_experiment(config)
    summary = result.summary
    assert set(summary) >= {
        "mean", "stderr", "ci95", "tree_rigid", "tree_stderr",
        "combined_stderr", "sigma_distance", "pass",
    }
    assert summary["ci95"][0] <= summary["mean"] <= summary["ci95"][1]
    assert summary["tree_samples"] == 20_000
    header = (tmp_path / "dens.csv").read_text().splitlines()[0]
    assert header == "replica,seed,stream,density,error"


def test_sofic_experiment_reaches_min_fraction(tmp_path):
    config = ExperimentConfig(
        "sofic",
        {"n": 300, "k": 3, "d": 2, "delta": "1/10", "replicas": 20, "seed": 4},
        str(tmp_path / "sof"),
    )
    result = run_experiment(config)
    assert result.summary["sofic_fraction"] >= Fraction(99, 100)
    assert result.summary["pass"] is True


def test_local_convergence_experiment(tmp_path):
    config = ExperimentConfig(
        "local-convergence",
        {"n": 300, "k": 3, "d": 2, "replicas": 10, "seed": 2},
        str(tmp_path / "lc"),
    )
    result = run_experiment(config)
    assert result.summary["mean_max_deviation"] <= 0.03
    assert result.summary["pass"] is True


def test_local_convergence_experiment_runs_beyond_pattern_enumeration(tmp_path, capsys):
    # an edge of k = 21 has 2^21 - 2 proper patterns, too many to list; the
    # deviation reads only the patterns that the census saw
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(
        {"kind": "local-convergence", "params": {"n": 42, "k": 21, "d": 2, "replicas": 2},
         "output": str(tmp_path / "out")}))
    assert cli_dispatch(["experiment", str(config_path)]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "out.json").read_text())
    assert summary["failures"] == 0 and summary["pass"] is True


@pytest.mark.parametrize("n,k,d", [(12, 3, 2), (24, 3, 3), (60, 3, 2), (24, 4, 2), (40, 4, 3),
                                   (30, 6, 2)])
def test_max_deviation_matches_pattern_enumeration(n, k, d):
    # the closed form against the deviation of every proper pattern of each
    # edge and ball domain small enough to enumerate
    shape = ModelParams(d=d, k=k, n=k)
    domains = [single_edge_domain(shape, label=0)] + [build_ball(shape, r) for r in (1, 2)]
    domains = [domain for domain in domains if len(domain) <= BRUTE_PATTERN_MAX_ELEMENTS]
    chi = Coloring.equitable_split(n)
    for seed in range(6):
        hom = sample_planted_hom(ModelParams(d=d, k=k, n=n), chi, RngState(seed))
        for domain in domains:
            census = local_pattern_census(hom, chi, domain)
            target = Fraction(1, count_proper_patterns(domain))
            brute = max(abs(census.frequency(p) - target)
                        for p in enumerate_proper_patterns(domain))
            assert _max_deviation(census, domain) == brute


@pytest.mark.parametrize(
    "kind,params",
    [
        ("first-moment", {"n": 6, "k": 3, "d": 2, "replicas": 12, "seed": 5}),
        ("sofic", {"n": 12, "k": 3, "d": 2, "replicas": 6, "seed": 5}),
        ("local-convergence", {"n": 12, "k": 3, "d": 2, "replicas": 6, "seed": 5}),
        ("concentration", {"n": 30, "k": 3, "d": 2, "replicas": 12, "seed": 5}),
    ],
    ids=["first-moment", "sofic", "local-convergence", "concentration"],
)
def test_experiment_deterministic_and_pool_invariant(tmp_path, kind, params):
    config = ExperimentConfig(kind, params, str(tmp_path / "det"))
    run_experiment(config, workers=1)
    first_csv = (tmp_path / "det.csv").read_bytes()
    first_json = (tmp_path / "det.json").read_bytes()
    for workers in (1, 2, 3):
        run_experiment(config, workers=workers)
        assert (tmp_path / "det.csv").read_bytes() == first_csv
        assert (tmp_path / "det.json").read_bytes() == first_json


def test_experiment_partial_failure_flags_row(tmp_path, monkeypatch):
    import sofic_lab.harness as harness

    real = harness._replica_row

    def failing(kind, params, state):
        if state.stream == 0:
            raise ValueError("synthetic replica failure")
        return real(kind, params, state)

    monkeypatch.setattr(harness, "_replica_row", failing)
    config = ExperimentConfig(
        "first-moment",
        {"n": 4, "k": 2, "d": 1, "replicas": 5, "seed": 2},
        str(tmp_path / "pf"),
    )
    result = run_experiment(config, workers=1)
    assert result.summary["failures"] == 1
    rows = (tmp_path / "pf.csv").read_text().splitlines()
    assert "synthetic replica failure" in rows[1]
    assert rows[1].split(",")[3] == ""
    for row in rows[2:6]:
        assert row.endswith(",")


def test_experiment_all_failures_is_an_error(tmp_path, monkeypatch):
    import sofic_lab.harness as harness

    def failing(kind, params, state):
        raise ValueError("nope")

    monkeypatch.setattr(harness, "_replica_row", failing)
    config = ExperimentConfig(
        "first-moment",
        {"n": 4, "k": 2, "d": 1, "replicas": 3},
        str(tmp_path / "af"),
    )
    with pytest.raises(ValueError, match="every replica failed"):
        run_experiment(config, workers=1)


@pytest.mark.parametrize("workers", [0, -4])
def test_experiment_refuses_fewer_than_one_worker(tmp_path, capsys, monkeypatch, workers):
    import sofic_lab.harness as harness

    def ran(*args):
        raise AssertionError("a replica ran")

    monkeypatch.setattr(harness, "_replica_row", ran)
    monkeypatch.setattr(harness, "sample_uniform_hom", ran)
    params = {"n": 4, "k": 2, "d": 1, "replicas": 3}
    for kind in ("first-moment", "concentration"):
        config = ExperimentConfig(kind, params, str(tmp_path / kind))
        with pytest.raises(ValueError, match="at least 1 worker, got %d" % workers):
            run_experiment(config, workers=workers)
        config_path = tmp_path / ("%s.json" % kind)
        config_path.write_text(json.dumps(
            {"kind": kind, "params": params, "output": str(tmp_path / ("cli-" + kind))}))
        code = cli_dispatch(["experiment", str(config_path), "--workers", str(workers)])
        assert code == 2
        captured = capsys.readouterr()
        assert "need at least 1 worker" in captured.err
        assert captured.out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "concentration.json", "first-moment.json"]


def test_experiment_cli_round_trip(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "kind": "first-moment",
        "params": {"n": 4, "k": 2, "d": 2, "replicas": 10, "seed": 3},
        "output": str(tmp_path / "cli_fm"),
    }))
    code, lines = run_cli(capsys, ["experiment", str(config_path)])
    assert code == 0
    assert any(line.startswith("replicas=10 failures=0 pass=true") for line in lines)
    assert (tmp_path / "cli_fm.csv").exists()
    assert (tmp_path / "cli_fm.json").exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "first-moment", "params": {"replicas": 0},
                               "output": str(tmp_path / "x")}))
    assert run_cli(capsys, ["experiment", str(bad)])[0] == 2


@pytest.mark.parametrize(
    "kind,bad",
    [("first-moment", {"mean_tolerance": "0.1"}), ("first-moment", {"seeds": 5}),
     ("first-moment", {"seeds": [1, 2.0]}), ("first-moment", {"n": 4.5}),
     ("first-moment", {"replicas": True}), ("first-moment", {"seed": -1}),
     ("first-moment", {"stream": 2**64 - 2}),
     ("density", {"n": 6, "k": 3, "level": 1, "stream": 2**64 - 1, "replicas": 1}),
     ("planted-distance", {"delta": [1]}), ("planted-distance", {"delta": "1/0"}),
     ("planted-distance", {"delta": "abc"}), ("sofic", {"delta": True}),
     ("sofic", {"min_fraction": "x"}), ("density", {"level": -1}),
     ("density", {"level": 1, "tree_samples": 0}), ("local-convergence", {"edge_label": 9}),
     ("density", {"level": 1, "sigma_tolerance": 10**400}), ("first-moment", {"n": 5}),
     ("density", {"n": 9, "k": 3, "level": 1}),
     # the tree sampler of the density summary needs 3 <= k <= 64
     ("density", {"level": 1}), ("density", {"n": 130, "k": 65, "level": 1}),
     # the shape of the config document itself
     ("first-moment", lambda document: list(document)),
     ("first-moment", lambda document: {**document, "params": list(document["params"].items())}),
     ("first-moment", lambda document: {**document, "kind": [document["kind"]]}),
     ("first-moment", lambda document: {**document, "output": 5}),
     ("first-moment", lambda document: {**document, "seed": 7})],
    ids=["string-tolerance", "seeds-not-a-list", "float-seed", "float-n",
         "bool-replicas", "negative-seed", "stream-overflow", "tree-stream-overflow",
         "list-delta", "zero-denominator-delta", "text-delta", "bool-delta",
         "text-min-fraction", "negative-level", "no-tree-samples", "edge-label-above-d",
         "huge-tolerance", "k-not-dividing-n", "odd-n-planted",
         "tree-sampler-k2", "tree-sampler-k65",
         "config-not-an-object", "params-not-an-object", "kind-not-a-string",
         "output-not-a-string", "unknown-config-key"],
)
def test_experiment_refuses_malformed_params(tmp_path, capsys, kind, bad):
    # refused with exit 2 before the params line, and nothing is written;
    # the config is read whole before any replica runs
    params = {"n": 4, "k": 2, "d": 2, "replicas": 3}
    document = {"kind": kind, "params": params, "output": str(tmp_path / "out")}
    if callable(bad):
        document = bad(document)
    else:
        params.update(bad)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(document))
    assert cli_dispatch(["experiment", str(config_path), "--workers", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "kind,params",
    [("density", {"n": 6, "k": 3, "d": 10_001, "level": 1})],
    ids=["density-tree-degree"],
)
def test_experiment_refuses_beyond_scale_before_any_replica(tmp_path, capsys, kind, params):
    # exit 3 before the params line, and nothing is written; the tree
    # sampler refuses d above 10,000
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(
        {"kind": kind, "params": {**params, "replicas": 2}, "output": str(tmp_path / "out")}))
    assert cli_dispatch(["experiment", str(config_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("scale refusal: ")
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "kind,params,missing",
    [("first-moment", {"k": 2, "d": 2}, "'n'"),
     ("density", {"n": 30, "k": 3, "d": 5}, "'level'"),
     ("planted-distance", {"n": 12, "k": 3, "d": 3}, "'delta'")],
    ids=["experiment-without-n", "density-without-level", "planted-distance-without-delta"],
)
def test_experiment_refuses_missing_params(tmp_path, capsys, kind, params, missing):
    # refused with exit 2 before the params line, naming the key, and
    # nothing is written; every replica would otherwise die on a KeyError
    params = {**params, "replicas": 2}
    with pytest.raises(ValueError, match="need params %s" % missing):
        ExperimentConfig(kind, params, "out")
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(
        {"kind": kind, "params": params, "output": str(tmp_path / "out")}))
    assert cli_dispatch(["experiment", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need params %s" % missing in captured.err
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


# ---------------------------------------------------------------------------
# the concentration experiment


def run_concentration(path, n, k, d, replicas, seed):
    """Run a concentration experiment; returns (the CSV's values, the
    summary as written to JSON)."""
    config = ExperimentConfig(
        "concentration", {"n": n, "k": k, "d": d, "replicas": replicas, "seed": seed},
        str(path))
    run_experiment(config)
    rows = path.with_suffix(".csv").read_text().splitlines()[1:-1]
    values = [Fraction(row.split(",")[3]) for row in rows]
    return values, json.loads(path.with_suffix(".json").read_text())


def tail_fractions(summary):
    return [Fraction(summary["tails"][key]) for key in ("0.05", "0.1", "0.2")]


def test_concentration_deterministic_and_bounded(tmp_path):
    values, summary = run_concentration(tmp_path / "a", 30, 3, 2, 100, seed=7)
    assert run_concentration(tmp_path / "b", 30, 3, 2, 100, seed=7) == (values, summary)
    assert all(0 <= v <= 1 for v in values)
    assert sum(count for _, count in summary["histogram"]) == 100
    tails = tail_fractions(summary)
    assert tails[0] >= tails[1] >= tails[2]


def test_concentration_tail_bound(tmp_path):
    _, summary = run_concentration(tmp_path / "c", 201, 3, 2, 300, seed=1)
    assert tail_fractions(summary)[2] < Fraction(1, 20)


def test_concentration_tail_does_not_grow_with_n(tmp_path):
    _, small = run_concentration(tmp_path / "small", 201, 3, 2, 200, seed=2)
    _, large = run_concentration(tmp_path / "large", 402, 3, 2, 200, seed=2)
    assert tail_fractions(large)[1] <= tail_fractions(small)[1]


def test_concentration_degenerate_scale(tmp_path):
    values, summary = run_concentration(tmp_path / "c", 2, 2, 2, 30, seed=3)
    assert set(values) == {Fraction(0)}
    assert all(frac == 0 for frac in tail_fractions(summary))
    assert summary["histogram"] == [[0.0, 30]]


def test_concentration_experiment_files(tmp_path):
    config = ExperimentConfig(
        "concentration",
        {"n": 30, "k": 3, "d": 2, "replicas": 120, "seed": 11},
        str(tmp_path / "conc"),
    )
    result = run_experiment(config)
    summary = json.loads((tmp_path / "conc.json").read_text())
    assert set(summary["tails"]) == {"0.05", "0.1", "0.2"}
    assert summary["pass"] is True
    rows = (tmp_path / "conc.csv").read_text().splitlines()
    assert rows[0] == "replica,seed,stream,value,deviation,error"
    assert len(rows) == 122
    total = sum(count for _, count in summary["histogram"])
    assert total == 120
    assert math.isclose(
        sum(Fraction(r.split(",")[4]) for r in rows[1:-1]), 0, abs_tol=1e-12
    )
