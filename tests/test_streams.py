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
# Neither command draws, so their records no longer echo a seed and a
# stream: each digest was re-derived from the recorded stdout with only
# " seed=0 stream=0" removed from its "# params:" line.
COUNTING_CLI_CASES = [
    ("count_instance", "count",
     "bd8e9aa06372d9730d7115e06147712b7223bba35dce033b8a7966acf1afd60a"),
    ("count_instance", "count --eps 1/8",
     "33837185e8940a5d4ec89514747697a62f0f6050f41d497a2c689b8af8e82b00"),
    ("count_instance", "count --equitable",
     "3a46598668c870c6ee6afbcaf0ca08d613fe80200535686e165aebea81b51ed6"),
    ("rigidity_09_n24_k3_d3", "count",
     "8cc7dca83996ceffb6aea2a6171bce9c3d910eb368c930cac734e2f4c69adbf5"),
    ("rigidity_09_n24_k3_d3", "count --eps 1/24",
     "7fe30b353845c059e2f72f9a3ec7157b50bb7a6975570245421adfc564bb321a"),
    ("rigidity_09_n24_k3_d3", "count --equitable",
     "b6a52270161ebb9408655fd3aff96d282091d365119d6779dc8de5ce50642311"),
    ("rigidity_08_n24_k3_d2", "rigidity --rho 1/24 --level 0",
     "5481d4546b45a101a401f8e8594d965803d33af9e121953b659c33718c1e84f2"),
    ("rigidity_09_n24_k3_d3", "rigidity --rho 1/24 --level 1",
     "3560d4ab46771a8fd5d9ad9ce21a4b3f3f96754e4b68664a6b5ae12908cdbcea"),
    ("rigidity_08_n24_k3_d2", "rigidity --rho 1/24 --level 1",
     "19afc9895e1af6b92e493ba450d416f9de6a6c4f3a8ca0dbc004f7124711789a"),
]

# (fixture or None, command and options): the full stdout, "# params:" line
# included, of the commands whose records echo the instance file or the
# sampler arguments. Recorded while each command still built its record by
# hand, so these pin the key order of every "# params:" line as well. The
# sampler cases print the instance JSON after the record. The other cases
# draw nothing: their digests were re-derived from the recorded stdout with
# only " seed=S stream=T" removed from the "# params:" line, and the
# sofic-check case that passed --seed 3 now passes none (sofic-check offers
# no --seed). The record once left out a given --chi and --radius, so that
# the run could not be replayed from it; the --chi case and the two --radius
# cases were re-derived from the recorded stdout with only " chi=<bits>" or
# " radius=<r>" inserted after "d=<d>".
STDOUT_CLI_CASES = [
    (None, "sample-uniform --n 12 --k 3 --d 2 --seed 5",
     "2b162eda285c46ce428c4b078e0a0020c4e43d823e06b0b7742a7c1b9ac83f31"),
    (None, "sample-planted --n 12 --k 3 --d 3 --seed 1 --stream 2",
     "68e77b3cf8e1675c822cef0ea54164d7aa6bcc0079e763ab26553f831f3cce0d"),
    (None, "sample-planted --n 6 --k 3 --d 2 --chi 101010",
     "9c3fc9fc7fe8f731272e716fe5f098f0b9f7885f595bb33350b6221cbcc37aca"),
    ("rigidity_09_n24_k3_d3", "core-density --level 1",
     "62aa075d73cb30efe8655d88b3a8cc9a5b73759878bd973d215c1b23da6980fe"),
    ("rigidity_08_n24_k3_d2", "core-density --level 0 --chi 111111111111000000000000",
     "2a07fdb91a396074e602c2053eec040c7be508304cb12385201b14802dd68dc6"),
    ("rigidity_09_n24_k3_d3", "local-convergence",
     "2aa2bb49a10027d43f56133002d0ed647185754df2e363e6dc3a3a0d8f7bf822"),
    ("rigidity_09_n24_k3_d3", "local-convergence --edge-label 2 --pattern 011",
     "3ec1a276931a3a6bb253bc044f49becde1b828df4219c3d25d35cb1a1650c01a"),
    ("count_instance", "local-convergence --radius 1",
     "c7422c50256a466304f7f1cd00f6061ed985a14056b3f7635789c75f794be62a"),
    # the 13-element radius-2 ball takes two bytes per packed window code
    ("rigidity_08_n24_k3_d2", "local-convergence --radius 2",
     "437a939b836ef864eda5d5a09d251436d83cb730c3aac08045bdab9a9a00bf61"),
    ("rigidity_09_n24_k3_d3", "sofic-check",
     "ca5ace53ac0e9c3870e1624507f23101775f1153e3392359ec303c71a6785801"),
    ("count_instance", "sofic-check --words pairs --delta 1/4",
     "c4dbf4acbbe763f74f161e3fc706ceef3eaf9f6e1d3248455a456044ce1a708d"),
    (None, "moments first --n 6 --k 3 --d 2",
     "7693b75bbc30015675d76a4a15ba30b9d7837a335a251c7ccf95c604fc76d0fa"),
    (None, "moments first --n 6 --k 3 --d 2 --equitable",
     "d9c4adebbc20a77dc0dc6267aa6d4e82f4c5b8324fd3c4c8c8548e6dc0a48f6e"),
    (None, "moments planted-distance --n 6 --k 3 --d 2 --delta 1/3",
     "a3668e06012b5de88cc0ecbbfdaf58c6addf29af478556036a12f81432bc257f"),
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
