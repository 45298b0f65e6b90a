"""Pinned sha256 digests of seeded sampler and experiment outputs, and of
the full stdout of the CLI commands.

The samplers draw from numpy's Philox generator through `permutation`,
`permuted` and `choice`. A numpy release that changed how any of these
consume the stream would silently re-seed every result; these digests make
such a change fail loudly instead. They were recorded with the per-block
loop samplers, before the array samplers replaced them, so they also pin
that the rewrite kept every stream.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sofic_lab.harness import ExperimentConfig, cli_dispatch, run_experiment

# (command, n, k, d, seed, stream)
CLI_CASES = [
    ("sample-uniform", 10, 2, 3, 1, 0),
    ("sample-uniform", 12, 3, 2, 5, 0),
    ("sample-uniform", 40, 4, 3, 2, 7),
    ("sample-uniform", 30, 6, 2, 7, 0),
    ("sample-uniform", 600, 3, 2, 11, 0),
    ("sample-planted", 10, 2, 3, 0, 0),
    ("sample-planted", 12, 3, 3, 1, 0),
    ("sample-planted", 24, 4, 4, 9, 3),
    ("sample-planted", 120, 6, 20, 3, 0),
    ("sample-planted", 600, 3, 2, 11, 0),
]

EXPERIMENT_CASES = [
    ("sofic", {"n": 60, "k": 3, "d": 2, "replicas": 4, "seed": 5}),
    ("sofic", {"n": 30, "k": 6, "d": 3, "replicas": 3, "seed": 8}),
    ("local-convergence", {"n": 60, "k": 3, "d": 2, "replicas": 4, "seed": 5}),
    ("local-convergence", {"n": 24, "k": 4, "d": 3, "replicas": 3, "seed": 2}),
    ("local-convergence", {"n": 600, "k": 3, "d": 2, "replicas": 4, "seed": 1}),
    ("density", {"n": 30, "k": 3, "d": 5, "level": 1, "replicas": 4,
                 "tree_samples": 2000, "seed": 9}),
    ("first-moment", {"n": 12, "k": 3, "d": 2, "replicas": 4, "seed": 3}),
    ("planted-distance", {"n": 12, "k": 3, "d": 3, "replicas": 3, "seed": 6,
                          "delta": "1/3"}),
    ("concentration", {"n": 60, "k": 3, "d": 2, "replicas": 8, "seed": 2}),
]

CLI_DIGESTS = {
    "sample-uniform-n10-k2-d3-seed1-stream0":
        "2d4019b6303c10e65ff75d66439b0b92a79e5dae1b457fb59be8a8f82f73ef90",
    "sample-uniform-n12-k3-d2-seed5-stream0":
        "a22a0f60519fdf74e57c2576ec7a23a7b114908661351e815fc9d8e5fca7532c",
    "sample-uniform-n40-k4-d3-seed2-stream7":
        "6f4faa335a04a59aaffe1a39b3978e1b13019076a345e4e33dfb76aa60e7e132",
    "sample-uniform-n30-k6-d2-seed7-stream0":
        "028619fa74da67b37cc3ab2cfbe9e795d9f81e6f008bc0ded59d1032fbf6a477",
    "sample-uniform-n600-k3-d2-seed11-stream0":
        "6b3680f34a50682040847c4a132e84a57603880362f9af70ffa137d11c70865d",
    "sample-planted-n10-k2-d3-seed0-stream0":
        "5aa6f6b31fc53f46cc9d4ec512a359297977a05b9763b6518d5734f82f38832a",
    "sample-planted-n12-k3-d3-seed1-stream0":
        "1e8b93842131a74d681c149cb75dbfa86ea165ae3767286481c0a75bc0c261cc",
    "sample-planted-n24-k4-d4-seed9-stream3":
        "16149cc25a234638663a41d60ff7ec1b54da857eabfb27e7a6cdec4637a7a720",
    "sample-planted-n120-k6-d20-seed3-stream0":
        "ed2a06c5d6bd3645b4b850f2872881ac407899b39024e70a281181012eedda85",
    "sample-planted-n600-k3-d2-seed11-stream0":
        "bf1d6c4d529bd3ae1d85f7512f69b0adb0f6564567ff0f2ab8ca79d3297b21b9",
}

EXPERIMENT_DIGESTS = {
    "sofic-n60-k3-d2":
        "f80571e13f477e141023e1caeb2279874608be41c08bbb33686f2bf325fb10f9",
    "sofic-n30-k6-d3":
        "26df639a67b91bf6512582ac19e3e3d008ffe87085f9f0d8f9c1cd927acefd0a",
    "local-convergence-n60-k3-d2":
        "5877774fc9e807d2390e62a3b60b94dd9cf4d370368f117a4f3b9dfe04284fb1",
    "local-convergence-n24-k4-d3":
        "13bba8937a9f9b75002d7d16a87dee724dd567a176cf8abee7d71e0db4af739d",
    "local-convergence-n600-k3-d2":
        "e0c5f64c1deb9898e3978e03700e8f30cc2618204192db0937ff1327107031b3",
    "density-n30-k3-d5":
        "eb85a2339e0db14f88dbff0666070f8a7d58c96a94bc09b1eb9d743d672ce40f",
    "first-moment-n12-k3-d2":
        "a6ff19ba835ecfd7acf3f63f90a861167ace92d6733e7ae0d5ebac03b5077c83",
    "planted-distance-n12-k3-d3":
        "30b47bb88ab84e00ec8fe7bbf1f639f66363ef1fab66931be1dcbdca5b68252f",
    "concentration-n60-k3-d2":
        "ef4f6fba467341a0b1a191771c311137bffd7571d5396e724ba39dddfca53981",
}


# (n, k, d, sampler seed, scan seed): planted instances scanned by
# `expansivity --t-max 3 --random-trials 4`; the first has 36 exhaustive
# violations, the second one found by the greedy phase only, and the third
# grows each greedy trial toward its size cap of 31.
EXPANSIVITY_CASES = [(12, 3, 12, 4, 5), (30, 3, 8, 2, 5), (90, 3, 5, 1, 5)]

EXPANSIVITY_DIGESTS = {
    "expansivity-n12-k3-d12":
        "300e7f7d9e09bacad5d9717677b0e35d08a1e6fbab7f05202914b720abba2ab2",
    "expansivity-n30-k3-d8":
        "a381730905e58f88b933d0ac81f9900a09d68bc608266c15887146d89f7262b4",
    "expansivity-n90-k3-d5":
        "b6111e53762c64d177930655bdaf6706932f042353ad384047379a204ea368a2",
}

# (fixture, command and options): stdout of `count` and `rigidity` on
# committed instances, recorded with the backtracking coloring search. The
# rigidity search returns the first hit in its listing order, so the two
# witnesses also pin the order of proper_colorings; the third region is rigid.
COUNTING_CLI_CASES = [
    ("count_instance", "count",
     "71b45d933543a80900464f8d5b664873b1020ffcf6fd2f7e91bf381ed22c7410"),
    ("count_instance", "count --eps 1/8",
     "ec551a53c8c3f26176eeb72295594df0849707d6557df079e1452c244a34cefc"),
    ("count_instance", "count --equitable",
     "f8dc43c9f28d58d803cf19077de7ccd398e930b5fbac3a181c9d760d8d778788"),
    ("rigidity_09_n24_k3_d3", "count",
     "e0c4ab8d73065f9bdbbc1dd133b19c8724d7a4e160a076cfb9ad91e611748858"),
    ("rigidity_09_n24_k3_d3", "count --eps 1/24",
     "6909ae061d65a70ac46c351712214721b35bb7470441683ecaf9c11b40604c60"),
    ("rigidity_09_n24_k3_d3", "count --equitable",
     "acd2572c61b9067f9b251bec4f2d3fcd7866621092a56cba4aa894684f5fa2b8"),
    ("rigidity_08_n24_k3_d2", "rigidity --rho 1/24 --level 0",
     "c93f6a290856aa61117eb1984acd7d3c03de9912cd55a476f506700892ec995d"),
    ("rigidity_09_n24_k3_d3", "rigidity --rho 1/24 --level 1",
     "eafed80f4e09cc9ceeff878948c9c1955e023566105476286948631448ac9295"),
    ("rigidity_08_n24_k3_d2", "rigidity --rho 1/24 --level 1",
     "b00c47c1b8bb3eecb0d2ca296f87232833d475d6cf877aee8fa5ed8dbb239112"),
]

# (fixture or None, command and options): the full stdout, "# params:" line
# included, of the commands whose records echo the instance file or the
# sampler arguments. Recorded while each command still built its record by
# hand, so these pin the key order of every "# params:" line as well. The
# sampler cases print the instance JSON after the record.
STDOUT_CLI_CASES = [
    (None, "sample-uniform --n 12 --k 3 --d 2 --seed 5",
     "2b162eda285c46ce428c4b078e0a0020c4e43d823e06b0b7742a7c1b9ac83f31"),
    (None, "sample-planted --n 12 --k 3 --d 3 --seed 1 --stream 2",
     "68e77b3cf8e1675c822cef0ea54164d7aa6bcc0079e763ab26553f831f3cce0d"),
    (None, "sample-planted --n 6 --k 3 --d 2 --chi 101010",
     "9c3fc9fc7fe8f731272e716fe5f098f0b9f7885f595bb33350b6221cbcc37aca"),
    ("rigidity_09_n24_k3_d3", "core-density --level 1",
     "0fbb021f5712027d2a74e8e1a96bf31dc49f9c1b01462b3ad359b6a4033869d0"),
    ("rigidity_08_n24_k3_d2", "core-density --level 0 --chi 111111111111000000000000",
     "cc364ae84d997c7a68eaab8d1099c87b6fac1af510f85bdcdbf9f26251b1e439"),
    ("rigidity_09_n24_k3_d3", "local-convergence",
     "46719c106f3de3b036a2689f87c780bc993993882aae60507718d0b880839e41"),
    ("rigidity_09_n24_k3_d3", "local-convergence --edge-label 2 --pattern 011",
     "89e6e81ab0edde7af4732ee166d7c83be10c03e3bfdb98b96ee813390a9bfe4f"),
    ("count_instance", "local-convergence --radius 1",
     "fca6a69a7d9c682dc25b8e46d57809bc5ca1f045e92b41d4c6ce99773bcaf0e8"),
    # the 13-element radius-2 ball takes two bytes per packed window code
    ("rigidity_08_n24_k3_d2", "local-convergence --radius 2",
     "651307e2a4787d444e78c2436e77f67c87b5f1a50763e22d15d2108ca8fcab97"),
    ("rigidity_09_n24_k3_d3", "sofic-check",
     "36ae336a14102c9ded1cacf462f0cb218c6e0942d25b792c6a092682da03118b"),
    ("count_instance", "sofic-check --words pairs --delta 1/4 --seed 3",
     "0fed15ee3dcc9ba6d4e984a2e5be5bb6bbd8d78b27db307d63c6cbbdc099a13d"),
    (None, "moments first --n 6 --k 3 --d 2",
     "1a5e56d5433a29611f55f68d78091a7b41682989e90a3ff6a667c212cb89b4ba"),
    (None, "moments first --n 6 --k 3 --d 2 --equitable",
     "d3f210b9bd3b512dad71b872922d56fc6256d7189571d58501a65da940bc7af8"),
    (None, "moments planted-distance --n 6 --k 3 --d 2 --delta 1/3",
     "42121851ebf5f361660676070b64b878905de9ce88c794b61c80a4702edfc54a"),
]

# The config and the output prefix are relative paths, since the params
# line echoes both.
EXPERIMENT_STDOUT_CONFIG = {
    "kind": "sofic",
    "params": {"n": 30, "k": 3, "d": 2, "replicas": 3, "seed": 4, "delta": "1/5"},
    "output": "out/run",
}
EXPERIMENT_STDOUT_DIGEST = "510639953cf45502cd876b84e583923b2427b1e436a4df9c9721025ee245136a"

FIXTURES = Path(__file__).parent / "fixtures"


def _sha256(*blobs):
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def _cli_id(case):
    return "%s-n%d-k%d-d%d-seed%d-stream%d" % case


def _experiment_id(case):
    kind, params = case
    return "%s-n%d-k%d-d%d" % (kind, params["n"], params["k"], params["d"])


@pytest.mark.parametrize("case", CLI_CASES, ids=_cli_id)
def test_cli_sampler_output_digest(case, tmp_path):
    command, n, k, d, seed, stream = case
    out = tmp_path / "instance.json"
    argv = [command, "--n", str(n), "--k", str(k), "--d", str(d),
            "--seed", str(seed), "--stream", str(stream), "--output", str(out)]
    assert cli_dispatch(argv) == 0
    assert _sha256(out.read_bytes()) == CLI_DIGESTS[_cli_id(case)]


@pytest.mark.parametrize("case", EXPERIMENT_CASES, ids=_experiment_id)
def test_experiment_output_digest(case, tmp_path, monkeypatch):
    # the CSV records the output path, so it is kept relative
    kind, params = case
    monkeypatch.chdir(tmp_path)
    run_experiment(ExperimentConfig(kind, dict(params), "run"), workers=1)
    digest = _sha256((tmp_path / "run.csv").read_bytes(), (tmp_path / "run.json").read_bytes())
    assert digest == EXPERIMENT_DIGESTS[_experiment_id(case)]


@pytest.mark.parametrize(
    "case", EXPANSIVITY_CASES, ids=lambda c: "expansivity-n%d-k%d-d%d" % c[:3]
)
def test_cli_expansivity_output_digest(case, tmp_path, monkeypatch, capsys):
    # the params line echoes the input path, so it is kept relative
    n, k, d, seed, scan_seed = case
    monkeypatch.chdir(tmp_path)
    assert cli_dispatch(["sample-planted", "--n", str(n), "--k", str(k),
                         "--d", str(d), "--seed", str(seed),
                         "--output", "instance.json"]) == 0
    capsys.readouterr()
    assert cli_dispatch(["expansivity", "--input", "instance.json",
                         "--t-max", "3", "--random-trials", "4",
                         "--seed", str(scan_seed)]) == 0
    out = capsys.readouterr().out
    assert _sha256(out.encode()) == EXPANSIVITY_DIGESTS[
        "expansivity-n%d-k%d-d%d" % (n, k, d)]


@pytest.mark.parametrize(
    "case", COUNTING_CLI_CASES, ids=lambda c: "%s %s" % c[:2])
def test_cli_counting_output_digest(case, monkeypatch, capsys):
    # the params line echoes the input path, so it is kept relative
    fixture, command, digest = case
    argv = command.split()
    monkeypatch.chdir(FIXTURES)
    assert cli_dispatch(argv[:1] + ["--input", fixture + ".json"] + argv[1:]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == digest


@pytest.mark.parametrize(
    "case", STDOUT_CLI_CASES, ids=lambda c: "%s %s" % (c[0] or "-", c[1]))
def test_cli_stdout_digest(case, monkeypatch, capsys):
    # the params line echoes the input path, so it is kept relative
    fixture, command, digest = case
    argv = command.split()
    if fixture is not None:
        argv[1:1] = ["--input", fixture + ".json"]
    monkeypatch.chdir(FIXTURES)
    assert cli_dispatch(argv) == 0
    assert _sha256(capsys.readouterr().out.encode()) == digest


def test_cli_experiment_stdout_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(EXPERIMENT_STDOUT_CONFIG))
    assert cli_dispatch(["experiment", "config.json"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == EXPERIMENT_STDOUT_DIGEST
