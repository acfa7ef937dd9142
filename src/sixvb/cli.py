"""Command-line front end.

Subcommands: validate | compute | verify | bench.  Exit codes are a stable
contract: 0 for success or agreement, 1 for disagreement, validation
violations or identity failures, 2 for input errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .errors import DegenerateSpecError, InvalidSpecError, PoleError
from .lattice import (
    ExternalConfig,
    LatticeSpec,
    all_configs,
    reference_config,
    spec_from_dict,
)
from .pipeline import METHODS, compute_report, report_json, value_columns
from .sampling import random_ice_config, random_spec
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2


def _load_spec(path: str) -> LatticeSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return spec_from_dict(data)
    except OSError as exc:
        raise SystemExit(_input_error(f"cannot read {path}: {exc}"))
    except InvalidSpecError:
        raise
    except (ValueError, ZeroDivisionError, RecursionError) as exc:
        raise SystemExit(_input_error(f"malformed lattice file {path}: {exc}"))


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _parse_labels(text: str, n: int, what: str) -> tuple:
    """Labels from a comma list whose fields, stripped of whitespace, are exactly 1 or 2."""
    if not isinstance(text, str):  # argparse before 3.13 reads --alpha=-- as []
        text = "--"
    labels = tuple(part.strip() for part in text.split(","))
    if any(s not in ("1", "2") for s in labels):
        raise SystemExit(_input_error(f"{what} must be a comma list of 1/2, got {text!r}"))
    if len(labels) != n:
        raise SystemExit(_input_error(f"{what} must list {n} labels from {{1,2}}"))
    return tuple(int(s) for s in labels)


def cmd_validate(args) -> int:
    try:
        spec = _load_spec(args.spec)
        violations = ()
    except InvalidSpecError as exc:
        violations = exc.violations
    if args.json:
        print(json.dumps({"ok": not violations, "violations": list(violations)}))
    elif violations:
        print("invalid:")
        for v in violations:
            print(f"  - {v}")
    else:
        print(f"ok: {spec.n} lines, {len(spec.reflected)} reflected")
    return EXIT_FAILED if violations else EXIT_OK


def cmd_compute(args) -> int:
    try:
        spec = _load_spec(args.spec)
    except InvalidSpecError as exc:
        return _input_error(str(exc))

    if args.all_configs:
        if args.alpha is not None or args.beta is not None:
            return _input_error("--all-configs cannot be combined with --alpha/--beta")
        configs = list(all_configs(spec.n))
    elif args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            return _input_error("--alpha and --beta must be given together")
        configs = [
            ExternalConfig(
                _parse_labels(args.alpha, spec.n, "--alpha"),
                _parse_labels(args.beta, spec.n, "--beta"),
            )
        ]
    else:
        configs = [reference_config(spec.n)]

    methods = METHODS if args.method == "all" else (args.method,)
    try:
        run = compute_report(spec, configs, methods)
    except (PoleError, DegenerateSpecError) as exc:
        return _input_error(f"degenerate computation: {exc}")

    if args.json:
        print(report_json(run))
    else:
        for config, *xs in zip(run.configs, *value_columns(run)):
            cells = " ".join(f"{m}={x}" for m, x in zip(run.methods, xs))
            print(f"alpha={','.join(map(str, config.alpha))} beta={','.join(map(str, config.beta))}  {cells}")
        times = " ".join(f"{m}={run.timings[m]:.3f}s" for m in run.methods)
        print(f"# methods: {', '.join(run.methods)}; agreement: {run.agreement}; {times}")
    if len(run.methods) > 1 and not run.agreement:
        return EXIT_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.draws < 1:
        return _input_error("--draws must be at least 1")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed, draws=args.draws)
    print(f"# suites: {', '.join(names)}; draws: {args.draws}; seed: {args.seed}")
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {r.total - len(r.failures)}/{r.total}  {status}")
        for params in r.failures:
            print(f"    failing draw: {params}")
        all_ok = all_ok and r.passed
    return EXIT_OK if all_ok else EXIT_FAILED


def cmd_bench(args) -> int:
    if args.nmax < 1 or args.nmax > 6:
        return _input_error(
            "--nmax must lie in 1..6 (the seeded draw has one prime rapidity denominator"
            " per line, and six of them)"
        )
    rng = random.Random(args.seed)
    rows = []
    for n in range(1, args.nmax + 1):
        spec = random_spec(rng, n)
        config = random_ice_config(rng, spec)
        rows.append((n, compute_report(spec, [reference_config(n), config], METHODS)))
    print(f"{'N':>2} {'L':>3} {'direct':>10} {'aba':>10} {'cba':>10}   (seconds; one sweep of 2 configs)")
    for n, run in rows:
        t = run.timings
        print(
            f"{n:>2} {2 * n:>3} {t['direct']:>10.4f} {t['aba']:>10.4f} {t['cba']:>10.4f}"
        )
    print(
        "# direct and aba hold only the ice-rule sector of a 2^(2N)-amplitude state"
        " while building it; the cba DP has up to 3^N states"
    )
    disagree = [str(n) for n, run in rows if not run.agreement]
    if disagree:
        print(f"# the routes disagree at N = {', '.join(disagree)}")
        return EXIT_FAILED
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sixvb",
        description=(
            "Exact partition functions of six-vertex lattices with a reflecting "
            "boundary, by three independent constructions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a lattice file")
    p_validate.add_argument("spec", help="path to a lattice JSON file")
    p_validate.add_argument("--json", action="store_true", help="output one JSON object")
    p_validate.set_defaults(func=cmd_validate)

    p_compute = sub.add_parser("compute", help="compute partition-function values")
    p_compute.add_argument("spec", help="path to a lattice JSON file")
    p_compute.add_argument(
        "--method",
        choices=("direct", "aba", "cba", "all"),
        default="all",
        help="construction route (default: all, with exact cross-check)",
    )
    p_compute.add_argument("--alpha", help="comma list of start-edge labels, e.g. 2,1,1,1")
    p_compute.add_argument("--beta", help="comma list of end-edge labels")
    p_compute.add_argument(
        "--all-configs", action="store_true", help="sweep all 4^N external configurations"
    )
    p_compute.add_argument("--json", action="store_true", help="output one JSON object")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run randomized exact identity suites")
    p_verify.add_argument(
        "--suite",
        choices=tuple(SUITES) + ("all",),
        default="all",
    )
    p_verify.add_argument("--draws", type=int, default=20, help="draws per identity")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for all draws")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time the three routes on growing lattices")
    p_bench.add_argument("--nmax", type=int, default=4, help="largest line count (max 6)")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:  # raised by helpers with an exit code
        code = exc.code
        return code if isinstance(code, int) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
