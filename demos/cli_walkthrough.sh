#!/usr/bin/env bash
# The same pipeline as the Python demos, driven through the command line.
# Every subcommand takes --config; --seed overrides the master seed.
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cat > "$work/experiment.json" <<'JSON'
{
  "problem": {"n": 40, "k": 4, "m": 30,
              "generator": {"kind": "linear"}},
  "projection": {"method": "closed-form-linear"},
  "solver": {"iters": 40},
  "sweep": {"m": [15, 30, 60], "noise_level": [0.01], "trials": 2},
  "master_seed": 7
}
JSON

echo "== genpgd gen: materialize one instance =="
genpgd gen --config "$work/experiment.json" --out "$work/instance"
ls "$work/instance"

echo
echo "== genpgd estimate: regularity constants for that instance =="
genpgd estimate --config "$work/experiment.json"

echo
echo "== genpgd solve: solve it, write trace + summary =="
genpgd solve "$work/instance" --config "$work/experiment.json" --out "$work/solve"
# sed reads to the end; head would exit early and, under pipefail, fail the
# script on json.tool's broken pipe
python3 -m json.tool "$work/solve/summary.json" | sed -n 1,12p

echo
echo "== genpgd sweep: cross the axes =="
genpgd sweep --config "$work/experiment.json" --out "$work/runs"

echo
echo "== genpgd report: grade every run against its theory rate =="
genpgd report "$work/runs" --out "$work/runs"
cat "$work/runs/report.txt"
