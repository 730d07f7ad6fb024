"""Command line interface.

Five subcommands cover the experiment lifecycle:

    genpgd gen      --config exp.json           write one problem instance
    genpgd solve    --config exp.json [INSTANCE] solve (a fresh or saved) instance
    genpgd sweep    --config exp.json           run the configured parameter sweep
    genpgd report   RESULTS_DIR                 render report + plot data
    genpgd estimate --config exp.json           print regularity constants

``--out`` overrides the config's output directory and ``--seed`` its master
seed.  Exit codes: 0 on success, 2 on any configuration problem (including
sizes too large to allocate), 3 when a solve diverges or overflows.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError, ContractError, DivergenceError, NumericError
from .harness import (
    ExperimentConfig,
    _solve_setup,
    _trial_seed,
    emit_report,
    gen_problem,
    load_problem,
    run_solve,
    run_sweep,
    save_problem,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genpgd",
        description="Projected gradient descent over generator ranges: "
                    "synthetic instances, solves, sweeps, reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None,
                       help="output directory (overrides config out_dir)")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides config master_seed)")

    p = sub.add_parser("gen", help="generate one problem instance")
    common(p)

    p = sub.add_parser("solve", help="solve an instance end to end")
    p.add_argument("instance", nargs="?", default=None,
                   help="saved instance directory (default: generate one)")
    common(p)

    p = sub.add_parser("sweep", help="run the configured parameter sweep")
    common(p)

    p = sub.add_parser("report", help="render report and plot data")
    p.add_argument("results", help="directory written by a sweep")
    p.add_argument("--out", default=None,
                   help="output directory (default: the results directory)")

    p = sub.add_parser("estimate", help="estimate regularity constants")
    common(p)
    return parser


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    return cfg


def _single_instance(cfg: ExperimentConfig):
    # the seed of sweep point 0's trial 0, so `gen` reproduces the first
    # trial of a sweep whose first point is the config's problem
    return gen_problem(cfg.problem, _trial_seed(cfg.master_seed))


def _cmd_gen(args) -> int:
    # the out dir IS the instance dir, so `gen --out X` then `solve X` works
    cfg = _load_config(args)
    inst = _single_instance(cfg)
    path = save_problem(inst, cfg.out_dir)
    print(f"instance written to {path}")
    return 0


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    if args.instance is not None:
        inst = load_problem(args.instance)
    else:
        inst = _single_instance(cfg)
        save_problem(inst, Path(cfg.out_dir) / "instance")
    summary, _ = run_solve(inst, cfg, out_dir=cfg.out_dir)
    print(f"status {summary.status} after {summary.iters} iterations")
    print(f"final_dist {summary.final_dist:.6e}  final_gap {summary.final_gap:.6e}")
    if summary.fitted_rate is not None:
        theory = ("n/a" if summary.theory_rate is None
                  else format(summary.theory_rate, ".6e"))
        print(f"fitted_rate {summary.fitted_rate:.6e}  theory_rate {theory}")
    print(f"outputs in {cfg.out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    result = run_sweep(cfg)
    ok = sum(1 for r in result.rows if r["status"] == "ok")
    print(f"{len(result.rows)} trials, {ok} ok; results in {result.directory}")
    print((result.directory / "sweep.txt").read_text(), end="")
    return 0


def _cmd_report(args) -> int:
    paths = emit_report(args.results, out_dir=args.out)
    print(f"report written to {paths['report']}")
    return 0


def _cmd_estimate(args) -> int:
    cfg = _load_config(args)
    # the bundle `solve` records for the same config and instance
    _, _, reg, _ = _solve_setup(_single_instance(cfg), cfg)
    doc = json.dumps(reg.to_json(), indent=2, sort_keys=True)
    print(doc)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        (Path(args.out) / "regularity.json").write_text(doc + "\n")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
    "estimate": _cmd_estimate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ContractError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the config's sizes are too large to allocate", file=sys.stderr)
        return 2
    except (DivergenceError, NumericError) as e:
        print(f"error: solve diverged: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
