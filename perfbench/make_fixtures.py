"""Regenerate the stored projection tables the benchmark loads.

brauer:5 takes about 20 s to build from diagrams, too slow to repeat on
every run, so the tables are built once here and stored as algebra JSON.

    python3 perfbench/make_fixtures.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from pgsemi import parse_source  # noqa: E402
from pgsemi.serialize import save_algebra  # noqa: E402

SOURCES = ("motzkin:4", "partition:3", "brauer:5")


def fixture_path(spec):
    return os.path.join(HERE, "fixtures", spec.replace(":", "_") + ".json")


def main():
    for spec in SOURCES:
        save_algebra(parse_source(spec).algebra, fixture_path(spec))
        print("wrote", os.path.relpath(fixture_path(spec)))


if __name__ == "__main__":
    main()
