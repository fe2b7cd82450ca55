#!/usr/bin/env python3
"""Exhaustive congruence classification at small degree.

For OR_n and SR_n at n = 2, 4 and 6 the script enumerates every
congruence by brute force, instantiates the predicted families, and
prints the diff.  The symplectic monoids come out fully classified; the
orthogonal monoids additionally carry Rees-style congruences over the
complement of the unit group, refined by normal subgroups of the units,
which the family inventory does not cover -- the report prints them
rather than hiding them.
"""

from rookmonoids import enumerate_universe, verify_classification


def classify(family, n):
    universe = enumerate_universe(family, n)
    report = verify_classification(universe)
    print(f"== {family}_{n}: {len(universe)} elements, "
          f"{report.lattice_size} congruences ==")
    print(f"matched predicted families: {len(report.matched)}")
    for entry in report.matched:
        tags = ", ".join(
            spec["tag"] + (f"[k={spec['k']}]" if "k" in spec else "")
            + (f" N={spec['n_label']}" if "n_label" in spec else "")
            + (f" N1={spec['n1_label']},N2={spec['n2_label']}"
               if "n1_label" in spec else "")
            for spec in entry["specs"]
        )
        print(f"  {entry['num_classes']:4d} classes  <-  {tags}")
    if report.predicted_not_found:
        print("MISSING from the lattice (should never happen):")
        for entry in report.predicted_not_found:
            print(f"  {entry}")
    if report.found_not_predicted:
        print(f"beyond the predicted families: {len(report.found_not_predicted)}")
        for entry in report.found_not_predicted:
            units = ", ".join(str(c) for c in entry["unit_classes"])
            print(f"  {entry['num_classes']:4d} classes, zero class = "
                  f"{entry['zero_class_kind']} ({entry['zero_class_size']} "
                  f"elements), unit classes {units}")
    else:
        print("beyond the predicted families: none")
    print()


if __name__ == "__main__":
    for family, n in [("SR", 2), ("SR", 4), ("SR", 6), ("OR", 2), ("OR", 4), ("OR", 6)]:
        classify(family, n)
