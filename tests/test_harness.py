import hashlib
import json
import math
from fractions import Fraction

import pytest

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
    ExperimentConfig,
    _fmt,
    _params_line,
    cli_dispatch,
    concentration_probe,
    load_instance,
    run_experiment,
    save_instance,
)
from sofic_lab.hypergraph import Coloring, build_hypergraph, monochromatic_edge_count
from sofic_lab.samplers import RngState, sample_planted_hom
from sofic_lab.structure import density_report
from sofic_lab.tree_markov import core_density_estimate


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
    assert run_cli(capsys, ["analytic", "psi", "--k", "3", "--d", "5"])[0] == 2


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
# formulas of ratio_from_offset and offset_window_top.
ETA_SCAN_STDOUT_DIGEST = "ac645bb576dc865999b7c8481dd99f04735ee75cf7ac5c70d781aad01675dd9f"


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

    code, _ = run_cli(
        capsys, ["local-convergence", "--input", str(path), "--pattern", "1"]
    )
    assert code == 2


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
    config = ExperimentConfig("first-moment", {"replicas": 3, "seed": 9}, "out")
    assert config.replica_states() == [RngState(9, 0), RngState(9, 1), RngState(9, 2)]
    config = ExperimentConfig("first-moment", {"seeds": [4, 8]}, "out")
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


@pytest.mark.parametrize(
    "kind,params",
    [
        ("first-moment", {"n": 6, "k": 3, "d": 2, "replicas": 12, "seed": 5}),
        ("sofic", {"n": 12, "k": 3, "d": 2, "replicas": 6, "seed": 5}),
        ("local-convergence", {"n": 12, "k": 3, "d": 2, "replicas": 6, "seed": 5}),
    ],
    ids=["first-moment", "sofic", "local-convergence"],
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


# ---------------------------------------------------------------------------
# the concentration probe


def test_concentration_probe_deterministic_and_bounded():
    params = ModelParams(d=2, k=3, n=30)
    a = concentration_probe(params, 30, 100, rng=RngState(7))
    b = concentration_probe(params, 30, 100, rng=RngState(7))
    assert a == b
    assert all(0 <= v <= 1 for v in a.values)
    assert sum(count for _, count in a.histogram) == 100
    tails = [frac for _, frac in a.tail_fractions]
    assert tails[0] >= tails[1] >= tails[2]


def test_concentration_probe_tail_bound():
    params = ModelParams(d=2, k=3, n=201)
    report = concentration_probe(params, 201, 300, rng=RngState(1))
    tail = dict(report.tail_fractions)[Fraction(1, 5)]
    assert tail < Fraction(1, 20)


def test_concentration_tail_does_not_grow_with_n():
    params = ModelParams(d=2, k=3, n=201)
    small = concentration_probe(params, 201, 200, rng=RngState(2))
    large = concentration_probe(params, 402, 200, rng=RngState(2))
    threshold = Fraction(1, 10)
    assert dict(large.tail_fractions)[threshold] <= dict(small.tail_fractions)[threshold]


def test_concentration_probe_degenerate_scale():
    report = concentration_probe(ModelParams(d=2, k=2, n=2), 2, 30, rng=RngState(3))
    assert set(report.values) == {Fraction(0)}
    assert all(frac == 0 for _, frac in report.tail_fractions)
    assert report.histogram == ((0.0, 30),)


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
