"""Record the outputs the benchmark checks against, into expected.json.

Usage (from the root of a source checkout, at the commit to record):
    python3 perfbench/record_expected.py

Computes, for OR_4 and OR_6, the digests of the verify JSON, Green report,
ideal inventory, predicted congruences, every member of the congruence
lattice, and the closures drawn for the default seed.  The OR_6 lattice
takes about two minutes.  Run it only to re-record after a deliberate
change of output, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import rookmonoids as rm  # noqa: E402

DEGREES = (4, 6)
SEEDS = (0,)


def record(degree, out_dir):
    universe = jobs.Closures.setup(degree)
    green = rm.green_partition(universe)
    entry = {
        "elements": len(universe),
        "green_report_sha256": jobs.json_digest(rm.green_report(universe, green)),
        "ideals_sha256": jobs.ideals_digest(rm.enumerate_ideals(universe, green)),
    }
    predictions = rm.predicted_congruences(universe)
    entry["predicted"] = len(predictions)
    entry["predicted_sha256"] = jobs.predicted_digest(predictions)
    lattice = rm.congruence_lattice(universe)
    entry["lattice_sha256"] = sorted(jobs.ids_digest(part) for part in lattice)
    entry["closures_sha256_by_seed"] = {}
    for seed in SEEDS:
        closures = jobs.Closures(universe, degree, seed, entry, out_dir)
        entry["closures_sha256_by_seed"][str(seed)] = jobs.json_digest(
            [jobs.ids_digest(part) for part in closures.job()]
        )
    if degree == jobs.WORKLOADS["classify-or4"][1]:
        classify = jobs.Classify(None, degree, 0, entry, out_dir)
        classify.prepare()
        if classify.job() != 0:
            raise SystemExit(f"verify failed on OR_{degree}")
        body = classify.out.read_bytes()
        entry["verify_sha256"] = hashlib.sha256(body).hexdigest()
        entry["verify_counts"] = jobs.verify_counts(json.loads(body))
    return entry


def main():
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    expected = {
        "recorded_at_commit": commit or None,
        "universes": {f"OR{d}": record(d, out_dir) for d in DEGREES},
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
