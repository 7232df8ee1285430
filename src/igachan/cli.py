"""Command-line surface: generate / estimate / benchmark / validate.

Exit codes: 0 success, 1 validation failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import harness, scenario, validate
from .blas import one_blas_thread
from .bscm import ScenarioConfig, geometry_from_config, load_scenario_config
from .errors import ConfigError, DivergenceError, DomainError

EXIT_OK = 0
EXIT_VALIDATION_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise ConfigError(f"seed must be an integer, got {text!r}") from None
    return scenario.check_seed(seed)


def _run_spec(args, cfg: ScenarioConfig, n_sam: int,
              measure_time: bool = False) -> harness.BenchmarkSpec:
    """The run flags of `estimate` and `benchmark`, validated by BenchmarkSpec."""
    try:
        snrs = tuple(float(tok) for tok in args.snr.split(",") if tok.strip() != "")
    except ValueError:
        raise ConfigError(f"cannot parse SNR list {args.snr!r}") from None
    algs = tuple(tok.strip() for tok in args.alg.split(",") if tok.strip() != "")
    return harness.BenchmarkSpec(
        snr_list_db=snrs, algorithms=algs, n_sam=n_sam, scenario=cfg, seed=cfg.seed,
        alpha=args.alpha,
        t_max=args.max_iter, tol=args.tol, measure_time=measure_time)


def _load_config(args) -> ScenarioConfig:
    if getattr(args, "config", None):
        cfg = load_scenario_config(args.config)
    else:
        cfg = ScenarioConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=_parse_seed(args.seed))
    return cfg


def _cmd_generate(args) -> int:
    cfg = _load_config(args)
    array, ofdm, plan = geometry_from_config(cfg)
    powers = scenario.gen_power_matrices(cfg, cfg.seed)
    channels = scenario.sample_channels(powers, cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    p_path = os.path.join(args.out, "powers.bin")
    c_path = os.path.join(args.out, "channels.bin")
    scenario.save_power_matrices(p_path, powers)
    scenario.save_channels(c_path, channels)
    extraction, _ = scenario.extraction_from_powers(powers, array, ofdm, plan)
    print(f"wrote {p_path} and {c_path}")
    print(
        f"users={plan.K} roots={plan.Q} grid={array.N_r}x{ofdm.N_f} "
        f"extracted={extraction.n}/{extraction.n_tilde} "
        f"rng={scenario.RNG_FAMILY} seed={cfg.seed}"
    )
    return EXIT_OK


def _cmd_estimate(args) -> int:
    cfg = _load_config(args)
    spec = _run_spec(args, cfg, n_sam=1)
    if len(spec.snr_list_db) != 1:
        raise ConfigError("estimate takes exactly one --snr value")
    if len(spec.algorithms) != 1:
        raise ConfigError("estimate takes exactly one --alg value")
    (snr_db,), (alg,) = spec.snr_list_db, spec.algorithms
    with one_blas_thread():
        trial = harness.build_trial(geometry_from_config(cfg), cfg, cfg.seed, snr_db,
                                    stream=(0, 0))
        t0 = time.perf_counter()
        (rep,) = harness.run_algorithm(alg, [trial.model], spec.alpha, spec.t_max, spec.tol)
        wall_time = time.perf_counter() - t0
    if rep.stop == "diverged":
        raise DivergenceError(rep.divergence)
    trial_nmse = float(np.mean(trial.score(rep.mu)))

    summary = {
        "algorithm": alg,
        "snr_db": snr_db,
        "nmse": trial_nmse,
        "nmse_db": 10.0 * np.log10(trial_nmse) if trial_nmse > 0 else None,
        "iterations": rep.iterations,
        "converged": rep.converged,
        "stop": rep.stop,
        "n": trial.model.n,
        "m": trial.model.m,
        "seed": cfg.seed,
        "rng": scenario.RNG_FAMILY,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    if not rep.converged:
        print(f"warning: {alg} at {snr_db:g} dB did not converge within --max-iter "
              f"{spec.t_max} (final residual {rep.residual_trace[-1]:.3e}, "
              f"nmse {trial_nmse:.3e})", file=sys.stderr)
    if args.out:
        # the report holds what the run knows; the score, the seed and the
        # time are this command's
        payload = {**rep.to_dict(), "nmse": trial_nmse, "seed": cfg.seed,
                   "wall_time": wall_time, "rng": scenario.RNG_FAMILY}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    cfg = _load_config(args)
    spec = _run_spec(args, cfg, n_sam=args.trials, measure_time=args.timing)
    rows = harness.run_benchmark(spec)
    harness.write_benchmark_csv(rows, args.out)
    for row in rows:
        if row["converged_fraction"] < 1:
            print(f"warning: {row['algorithm']} at {row['snr_db']:g} dB converged in "
                  f"{row['converged_fraction']:.3g} of trials within --max-iter {spec.t_max}",
                  file=sys.stderr)
    print(f"wrote {args.out} ({len(rows)} rows, rng={scenario.RNG_FAMILY}, "
          f"seed={cfg.seed})")
    return EXIT_OK


def _cmd_validate(args) -> int:
    results = validate.validate_suite(level=args.level)
    return EXIT_OK if all(ok for ok, _ in results.values()) else EXIT_VALIDATION_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igachan",
        description="Channel-estimation toolkit: exact MMSE oracles, "
                    "information-geometry estimators, and an NMSE benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH",
                       help="scenario description file (key = value lines)")
        p.add_argument("--seed", metavar="U64", help="override the scenario seed")

    g = sub.add_parser("generate", help="write power maps and channel draws to files")
    add_common(g)
    g.add_argument("--out", metavar="PATH", default="generated",
                   help="output directory (default: generated)")

    e = sub.add_parser("estimate", help="run one estimation trial and report it")
    add_common(e)
    e.add_argument("--snr", metavar="DB", default="10", help="SNR in dB (one value)")
    e.add_argument("--alg", metavar="NAME", default="ic_iga",
                   help=f"one of {', '.join(harness.ALGORITHMS)}")
    e.add_argument("--alpha", type=float, default=None, help="damping coefficient")
    e.add_argument("--max-iter", type=int, default=100, help="iteration cap")
    e.add_argument("--tol", type=float, default=1e-8, help="relative-change stop")
    e.add_argument("--out", metavar="PATH", help="write the full JSON report here")

    b = sub.add_parser("benchmark", help="NMSE sweep over SNR points and algorithms")
    add_common(b)
    b.add_argument("--snr", metavar="DB[,DB...]", default="-10,0,10,20,30")
    b.add_argument("--alg", metavar="NAME[,NAME...]", default="mmse,ic_iga,ic_siga")
    b.add_argument("--trials", type=int, default=20, help="trials per cell (default 20)")
    b.add_argument("--alpha", type=float, default=None,
                   help="override damping for all iterative algorithms")
    b.add_argument("--max-iter", type=int, default=100)
    b.add_argument("--tol", type=float, default=1e-8)
    b.add_argument("--timing", action="store_true",
                   help="record measured wall times (breaks byte-identical output)")
    b.add_argument("--out", metavar="PATH", default="benchmark.csv")

    v = sub.add_parser("validate", help="run the oracle cross-check suites")
    v.add_argument("--level", choices=("quick", "full"), default="quick")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "estimate": _cmd_estimate,
        "benchmark": _cmd_benchmark,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (DomainError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
