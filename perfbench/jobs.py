"""The benchmark's workloads: one job each, with its set-up and its checks.

Every workload does its set-up in ``setup`` (timed as ``setup_s``), builds
its inputs from the workload seed, runs one job per call of ``job`` (the
timed part) and checks the job's output in ``check`` (untimed).  ``check``
returns (operations attempted, one message per failed operation).
Expected outputs come from ``expected.json``, recorded at the commit named
there by ``record_expected.py``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import rookmonoids as rm
import rookmonoids.cli


def ids_digest(part):
    """Digest of a partition's canonical class ids, independent of their dtype."""
    return hashlib.sha256(np.asarray(part.ids, dtype="<i4").tobytes()).hexdigest()


def json_digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def ideals_digest(ideals):
    return json_digest([[d.kind, d.k, list(d.members)] for d in ideals])


def predicted_digest(predictions):
    return json_digest([
        [ids_digest(part), [spec.to_json() for spec in specs]]
        for part, specs in predictions
    ])


def verify_counts(report):
    return {
        "lattice_size": report["lattice_size"],
        "matched": len(report["matched"]),
        "found_not_predicted": len(report["found_not_predicted"]),
        "predicted_not_found": len(report["predicted_not_found"]),
    }


def stratified_pairs(ranks, seed, per_stratum):
    """Element pairs i < j drawn from the seed, the same number per rank stratum.

    A pair's stratum is the larger rank of its two elements, so low-rank
    pairs, half-rank pairs and pairs with a unit all appear.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    iu, ju = np.triu_indices(ranks.size, k=1)
    top = np.maximum(ranks[iu], ranks[ju])
    rng = np.random.default_rng(seed)
    picks = []
    for stratum in np.unique(top):
        members = np.flatnonzero(top == stratum)
        picks.extend(rng.choice(members, min(per_stratum, members.size), replace=False))
    return [(int(iu[k]), int(ju[k])) for k in picks]


class Workload:
    seeded = False  # whether the job's inputs depend on the workload seed

    @staticmethod
    def setup(degree):
        """Work done once before the first job; its result goes to __init__."""
        return None

    def prepare(self):
        """Untimed step before each job."""


class Classify(Workload):
    """``rookmonoids congruences verify --family or --format json`` through
    ``cli.main``, written with ``--out`` and compared byte for byte."""

    def __init__(self, state, degree, seed, expected, out_dir):
        self.expected = expected
        self.out = out_dir / f"classify-or{degree}.json"
        self.argv = ["congruences", "verify", "--family", "or", "--n", str(degree),
                     "--format", "json", "--out", str(self.out)]

    def prepare(self):
        self.out.unlink(missing_ok=True)

    def job(self):
        return rm.cli.main(self.argv)

    def check(self, code):
        if not self.out.exists():
            return 1, [f"verify exited with code {code} and wrote no output"]
        problems = [] if code == 0 else [f"verify exited with code {code}"]
        body = self.out.read_bytes()
        if hashlib.sha256(body).hexdigest() != self.expected["verify_sha256"]:
            problems.append("verify JSON differs from the recorded output")
        counts = verify_counts(json.loads(body))
        if counts != self.expected["verify_counts"]:
            problems.append(f"verify counts {counts} differ from the recorded ones")
        return 1, ["; ".join(problems)] if problems else []


class Structure(Workload):
    """The pipeline before any lattice: universe, product table, Green
    classes and report, ideal inventory, predicted congruence families."""

    def __init__(self, state, degree, seed, expected, out_dir):
        self.degree = degree
        self.expected = expected

    def job(self):
        universe = rm.enumerate_universe("OR", self.degree)
        universe.multiplication_table(limit=None)
        green = rm.green_partition(universe)
        report = rm.green_report(universe, green)
        ideals = rm.enumerate_ideals(universe, green)
        predictions = rm.predicted_congruences(universe)
        return universe, report, ideals, predictions

    def check(self, output):
        universe, report, ideals, predictions = output
        exp = self.expected
        problems = []
        if len(universe) != exp["elements"]:
            problems.append(f"{len(universe)} elements, expected {exp['elements']}")
        if json_digest(report) != exp["green_report_sha256"]:
            problems.append("green report differs from the recorded one")
        if ideals_digest(ideals) != exp["ideals_sha256"]:
            problems.append("ideal inventory differs from the recorded one")
        if len(predictions) != exp["predicted"]:
            problems.append(f"{len(predictions)} predicted congruences, expected {exp['predicted']}")
        if predicted_digest(predictions) != exp["predicted_sha256"]:
            problems.append("predicted congruences differ from the recorded ones")
        return 1, ["; ".join(problems)] if problems else []


class Closures(Workload):
    """A fixed, seed-drawn set of principal closures on one universe, whose
    product table is built during set-up.  Unlike the lattice, no registry
    of known congruences is kept between closures."""

    seeded = True
    PER_STRATUM = 8

    @staticmethod
    def setup(degree):
        universe = rm.enumerate_universe("OR", degree)
        universe.multiplication_table(limit=None)
        return universe

    def __init__(self, state, degree, seed, expected, out_dir):
        self.expected = expected
        self.seed = seed
        self.universe = state
        self.pairs = stratified_pairs(state.ranks, seed, self.PER_STRATUM)
        self.lattice = frozenset(expected["lattice_sha256"])
        self.verified = {}  # closure digest -> passed is_congruence
        self.first_pass = None

    def job(self):
        return [rm.congruence_closure(self.universe, [pair]) for pair in self.pairs]

    def check(self, parts):
        failures = []
        digests = [ids_digest(part) for part in parts]
        for (i, j), part, digest in zip(self.pairs, parts, digests):
            if digest not in self.verified:
                self.verified[digest] = rm.is_congruence(self.universe, part)
            problems = [
                text for text, bad in (
                    ("does not relate its seed pair", not part.relates(i, j)),
                    ("is not in the recorded lattice", digest not in self.lattice),
                    ("is not a congruence", not self.verified[digest]),
                ) if bad
            ]
            if problems:
                failures.append(f"closure of ({i}, {j}) " + ", ".join(problems))
        if self.first_pass is None:
            self.first_pass = json_digest(digests)
            recorded = self.expected["closures_sha256_by_seed"].get(str(self.seed))
            if not failures and recorded not in (None, self.first_pass):
                failures.append(f"closures differ from the recorded ones for seed {self.seed}")
        return len(parts), failures


WORKLOADS = {
    "classify-or4": (Classify, 4),
    "structure-or6": (Structure, 6),
    "closures-or6": (Closures, 6),
}
SMOKE_DEGREE = 4
