#!/usr/bin/env python3
"""Rewrites EXPERIMENTS.md's exhibit tables from the exhibits binary.

    python3 scripts/exhibits.py [--exhibits BINARY] [NAME...]

Runs BINARY (default: build/bench/exhibits) on the named exhibits, or on
all of them when none is named, and replaces each `<!-- exhibit NAME -->`
... `<!-- /exhibit -->` block of EXPERIMENTS.md with the binary's block of
that name. Everything outside the markers is hand-written prose and stays
as it is. When the binary fails, or prints a block that EXPERIMENTS.md has
no place for, the file is left untouched and the script exits nonzero.
A full run takes about three minutes.
"""

import argparse
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BLOCK = re.compile(r"<!-- exhibit (\S+) -->\n.*?<!-- /exhibit -->\n", re.S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--exhibits", default=ROOT / "build/bench/exhibits")
    parser.add_argument("names", nargs="*")
    args = parser.parse_args()

    run = subprocess.run([str(args.exhibits), *args.names],
                         stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        sys.exit(f"exhibits exited {run.returncode}; EXPERIMENTS.md unchanged")
    fresh = {m[1]: m[0] for m in BLOCK.finditer(run.stdout)}

    path = ROOT / "EXPERIMENTS.md"
    text = path.read_text()
    missing = set(fresh) - {m[1] for m in BLOCK.finditer(text)}
    if missing:
        sys.exit("EXPERIMENTS.md has no block for " + ", ".join(missing))
    path.write_text(BLOCK.sub(lambda m: fresh.get(m[1], m[0]), text))
    print(f"EXPERIMENTS.md: {len(fresh)} exhibit blocks rewritten")


if __name__ == "__main__":
    main()
