"""Command-line front end.

Subcommands: elements, green, ideals, congruences {predict,enumerate,verify},
counterexample, erratum.  Output is deterministic for a fixed invocation:
JSON is emitted with sorted keys and no timestamps, so repeated runs are
byte-identical.

Every subcommand that builds a universe has one budget: the element count
that ``enumerate_universe`` checks before it allocates a stratum, set by
``RCL_BUDGET_ELEMENTS``.  Exit codes: 0 success, 2 budget refusal or bad
arguments (an ``--out`` path that cannot be written among them), 3 internal
invariant violation (a constructed congruence failing its own checks).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .congruences import congruence_lattice, lattice_to_dot
from .core import (
    InvariantViolation,
    ResourceLimitError,
    compose,
    conjugation_escape_witness,
    enumerate_universe,
    format_element_text,
    in_unit_group,
    invert,
    is_member,
    theta,
    universe_to_json,
)
from .families import predicted_congruences, verify_classification
from .green import enumerate_ideals, green_partition, green_report, j_order_dot

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_INVARIANT = 3


@functools.cache
def build_parser():
    """The parser, built once per process: ``parse_args`` leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="rookmonoids",
        description="orthogonal and symplectic rook monoid toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, handler, help, *, family=True, dot=False, default_n=4):
        """A subcommand with only the flags its handler reads."""
        p = parent.add_parser(name, help=help)
        if family:
            p.add_argument("--family", choices=("r", "sr", "or"), default="or")
        p.add_argument("--n", type=int, default=default_n, help="even degree")
        formats = ("json", "dot", "text") if dot else ("json", "text")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.set_defaults(handler=handler)

    command(sub, "elements", cmd_elements, "enumerate a monoid universe")
    command(sub, "green", cmd_green, "Green classes, counts, and formulas", dot=True)
    command(sub, "ideals", cmd_ideals, "all absorbing down-sets of J-classes")

    cong = sub.add_parser("congruences", help="congruence computations")
    verb = cong.add_subparsers(dest="verb", required=True)
    command(verb, "predict", cmd_congruences_predict, "instantiate the predicted families")
    command(verb, "enumerate", cmd_congruences_enumerate, "brute-force congruence lattice",
            dot=True)
    command(verb, "verify", cmd_congruences_verify, "diff predictions against the lattice")

    command(sub, "counterexample", cmd_counterexample,
            "exhibit a conjugate of an orthogonal element escaping SR",
            family=False, default_n=8)
    command(sub, "erratum", cmd_erratum,
            "report the known closed-form and ideal-list discrepancies (OR)",
            family=False)
    return parser


def _emit(args, payload, *, text, dot=None):
    """Write the body ``--format`` asks for: the JSON of ``payload()``, the
    DOT of ``dot()`` or ``text``.  The payload and the DOT are functions, so
    a body no format asks for is never built."""
    if args.format == "json":
        body = json.dumps(payload(), sort_keys=True, indent=2) + "\n"
    elif args.format == "dot":
        body = dot()
    else:
        body = text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _universe(args):
    return enumerate_universe(args.family, args.n)


def cmd_elements(args):
    universe = _universe(args)
    histogram = universe.rank_histogram()
    lines = [f"{universe.family}_{universe.n}: {len(universe)} elements"]
    lines += [f"  rank {k}: {v}" for k, v in sorted(histogram.items())]
    _emit(args, lambda: universe_to_json(universe) | {
        "size": len(universe),
        "rank_histogram": {str(k): v for k, v in histogram.items()},
    }, text="\n".join(lines) + "\n")
    return EXIT_OK


def cmd_green(args):
    universe = _universe(args)
    green = green_partition(universe)
    report = green_report(universe, green)
    lines = [f"{universe.family}_{universe.n}: {len(universe)} elements"]
    for rel in ("L", "R", "H", "J"):
        lines.append(f"  {rel}-classes: {report['counts'][rel]['classes']}")
    for entry in report["discrepancies"]:
        lines.append(f"  note[{entry['kind']}]: {entry.get('note', entry)}")
    _emit(args, lambda: report, dot=lambda: j_order_dot(green), text="\n".join(lines) + "\n")
    return EXIT_OK


def cmd_ideals(args):
    universe = _universe(args)
    ideals = enumerate_ideals(universe)
    lines = [f"{universe.family}_{universe.n}: {len(ideals)} absorbing down-sets"]
    lines += [f"  {d.kind}(k={d.k}): {d.size} elements" for d in ideals]
    _emit(args, lambda: {
        "family": universe.family,
        "n": universe.n,
        "ideals": [
            {"kind": d.kind, "k": d.k, "size": d.size, "members": list(d.members)}
            for d in ideals
        ],
    }, text="\n".join(lines) + "\n")
    return EXIT_OK


def cmd_congruences_predict(args):
    universe = _universe(args)
    predictions = predicted_congruences(universe)
    lines = [f"{universe.family}_{universe.n}: {len(predictions)} distinct predicted congruences"]
    for part, specs in predictions:
        tags = ", ".join(
            s.tag + (f"[k={s.k}]" if s.k is not None else "") for s in specs
        )
        lines.append(f"  {part.num_classes:4d} classes  <- {tags}")
    _emit(args, lambda: {
        "family": universe.family,
        "n": universe.n,
        "predicted": [
            {
                "num_classes": part.num_classes,
                "specs": [s.to_json() for s in specs],
                "classes": part.classes(),
            }
            for part, specs in predictions
        ],
    }, text="\n".join(lines) + "\n")
    return EXIT_OK


def cmd_congruences_enumerate(args):
    universe = _universe(args)
    lattice = congruence_lattice(universe)
    lines = [f"{universe.family}_{universe.n}: {len(lattice)} congruences"]
    lines += [f"  {part.num_classes} classes" for part in lattice]
    _emit(args, lambda: {
        "family": universe.family,
        "n": universe.n,
        "count": len(lattice),
        "congruences": [part.classes() for part in lattice],
    }, dot=lambda: lattice_to_dot(lattice), text="\n".join(lines) + "\n")
    return EXIT_OK


def cmd_congruences_verify(args):
    universe = _universe(args)
    report = verify_classification(universe)
    lines = [
        f"{universe.family}_{universe.n}: lattice has {report.lattice_size} congruences",
        f"  matched predictions: {len(report.matched)}",
        f"  predicted but not found: {len(report.predicted_not_found)}",
        f"  found but not predicted: {len(report.found_not_predicted)}",
    ]
    for entry in report.found_not_predicted:
        tag = entry["tag"] or "unexplained"
        lines.append(
            f"    {entry['num_classes']} classes, zero class "
            f"{entry['zero_class_kind']} ({entry['zero_class_size']} elements), {tag}"
        )
    for note in report.notes:
        lines.append(f"  note: {note}")
    _emit(args, report.to_json, text="\n".join(lines) + "\n")
    if not report.ok:
        sys.stderr.write("some predicted congruences are missing from the lattice\n")
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_counterexample(args):
    n = args.n
    sigma, s = conjugation_escape_witness(n)
    conj = compose(compose(invert(s), sigma), s)
    violations = [
        i for i in range(1, n + 1)
        if conj.images[theta(n, i) - 1] != theta(n, conj.images[i - 1])
    ]
    if not violations:
        raise InvariantViolation("conjugated witness unexpectedly stayed inside SR")
    first = violations[0]
    payload = {
        "n": n,
        "sigma": format_element_text(sigma),
        "s": format_element_text(s),
        "conjugate": format_element_text(conj),
        "sigma_in_OR": is_member("OR", sigma),
        "s_in_unit_group": in_unit_group("SR", s),
        "conjugate_in_SR": is_member("SR", conj),
        "violated_at": first,
    }
    lines = [
        f"n = {n}",
        f"sigma     = {payload['sigma']}",
        f"s         = {payload['s']}",
        f"conjugate = s^-1 sigma s = {payload['conjugate']}",
        f"sigma in OR_{n}: {payload['sigma_in_OR']}",
        f"s in the unit group of SR_{n}: {payload['s_in_unit_group']}",
        f"conjugate in SR_{n}: {payload['conjugate_in_SR']}",
        f"membership violated at i = {first}: "
        f"conjugate({theta(n, first)}) = {conj.images[theta(n, first) - 1]} but the "
        f"mirror of conjugate({first}) is {theta(n, conj.images[first - 1])}",
    ]
    _emit(args, lambda: payload, text="\n".join(lines) + "\n")
    return EXIT_OK


def cmd_erratum(args):
    universe = enumerate_universe("or", args.n)
    report = green_report(universe)
    ideals = enumerate_ideals(universe)
    expected = [d for d in ideals if d.kind != "union"]
    extras = [d for d in ideals if d.kind == "union"]
    payload = {
        "family": universe.family,
        "n": universe.n,
        "rank_m_d_class_size": next(
            e for e in report["discrepancies"] if e["kind"] == "rank_m_d_class_size"
        ),
        "named_ideals": [{"kind": d.kind, "k": d.k, "size": d.size} for d in expected],
        "extra_absorbing_downsets": [
            {"kind": d.kind, "size": d.size} for d in extras
        ],
    }
    entry = payload["rank_m_d_class_size"]
    lines = [
        f"OR_{universe.n} discrepancy report",
        f"  half-rank D-class sizes: combined closed form {entry['combined_formula']}, "
        f"per-class closed form {entry['per_class_formula']}, observed "
        f"{entry['observed_per_class']}",
        f"  named ideals: {len(expected)}; extra absorbing down-sets: {len(extras)}",
    ]
    for d in extras:
        lines.append(
            f"    union of the two half-rank ideals ({d.size} elements) is absorbing"
        )
    _emit(args, lambda: payload, text="\n".join(lines) + "\n")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ResourceLimitError as exc:
        sys.stderr.write(f"budget refusal: {exc}\n")
        return EXIT_BUDGET
    except InvariantViolation as exc:
        sys.stderr.write(f"internal invariant violated: {exc}\n")
        return EXIT_INVARIANT
    except (ValueError, OSError) as exc:  # OSError: an --out path that cannot be written
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
