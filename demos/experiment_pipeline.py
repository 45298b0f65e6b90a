"""
Reproducible experiments: configs, replicas, CSV and JSON outputs
=================================================================

Runs a small first-moment experiment through the same driver the CLI
uses, then prints the files it produced.  Identical configs and seeds
give byte-identical outputs, including under a worker pool.
"""

import json
import tempfile
from pathlib import Path

from sofic_lab import ExperimentConfig, run_experiment

with tempfile.TemporaryDirectory(prefix="sofic_demo_") as workdir:
    config = ExperimentConfig(
        kind="first-moment",
        params={"d": 2, "k": 2, "n": 4, "seeds": list(range(12))},
        output=str(Path(workdir) / "first_moment_demo"),
    )
    result = run_experiment(config, workers=3)

    print("summary:")
    for key in ("mean", "exact_float", "exact_equals_enumeration", "pass"):
        print("  %s: %s" % (key, result.summary[key]))

    print()
    print("CSV written to", result.csv_path)
    print(Path(result.csv_path).read_text(), end="")

    print()
    print("JSON keys:", sorted(json.loads(Path(result.json_path).read_text())))
