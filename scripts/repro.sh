#!/usr/bin/env bash
# One-shot reproduction driver: configure, build, run the full test suite
# and regenerate every paper exhibit into EXPERIMENTS.md's tables (see
# scripts/exhibits.py; `git diff EXPERIMENTS.md` shows what moved). The
# test log lands in test_output.txt at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

python3 scripts/exhibits.py
