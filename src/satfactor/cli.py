"""Command-line entry point: generate, encode, solve, factor, benchmark,
analyze, estimate.

Exit codes: 0 success, 1 usage error, 2 runtime failure, 3 solver gave up
(UNKNOWN).  Every subcommand is deterministic for a fixed --seed apart from
measured wall times.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict

from . import analysis, bench, numtheory
from .cnf import Status, parse_dimacs, unit_propagate, write_dimacs, write_solver_output
from .encoder import ALGORITHMS, EncodeSpec, encode, spec_for
from .numtheory import factor_splits, gen_semiprime, metrics, trial_division, MetricVector
from .solver import SolverConfig, check_time_limit, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_UNKNOWN = 3

log = logging.getLogger(__name__)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _write_output(path: str | None, text: str) -> None:
    """Write to stdout for None or "-"; else replace the file atomically
    through a sibling temporary file, created with the umask's mode."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    handle = open(tmp, "x")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(path: str | None, report) -> None:
    _write_output(path, json.dumps(report, indent=2) + "\n")


def _parse_bits(text: str) -> list[int]:
    """Bitlength list: '14' or '10,12,14' or '10:18:2' (inclusive stop)."""
    is_range = ":" in text
    try:
        values = [int(tok) for tok in text.split(":" if is_range else ",")]
    except ValueError:
        raise _UsageError(f"bad bits {text!r}, expected like 14, 10,12,14 or 10:18:2")
    if not is_range:
        return values
    if len(values) not in (2, 3):
        raise _UsageError(f"bad bit range {text!r}")
    start, stop, step = values if len(values) == 3 else (*values, 1)
    if step < 1 or stop < start:
        raise _UsageError(f"bad bit range {text!r}")
    return list(range(start, stop + 1, step))


def _time_limit(text: str) -> float:
    """--time-limit: seconds, by the rule of ``check_time_limit``."""
    try:
        value = float(text)
        check_time_limit(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite number of seconds >= 0, got {text!r}")
    return value


def _parse_split(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    try:
        a, b = (int(tok) for tok in text.split(","))
    except ValueError:
        raise _UsageError(f"bad split {text!r}, expected like 3,4")
    return a, b


# -- subcommands


def cmd_gen(args) -> int:
    if args.bits < 4:
        raise _UsageError("--bits must be >= 4")
    if args.count < 1:
        raise _UsageError("--count must be >= 1")
    semiprimes = bench.generate_instances(args.bits, args.count, args.seed)
    if args.format == "json":
        _write_json(args.out, numtheory.semiprime_records(semiprimes))
    else:
        _write_output(args.out, numtheory.semiprimes_to_csv(semiprimes))
    return EXIT_OK


def _spec_from_args(args) -> EncodeSpec:
    if args.targets:
        semiprimes = numtheory.load_semiprimes_csv(args.targets)
        if not semiprimes:
            raise _UsageError(f"no rows in {args.targets}")
        targets = [s.value for s in semiprimes]
    elif args.n is None:
        raise _UsageError("need --n or --targets")
    else:
        targets = [args.n]
    return spec_for(targets, args.alg, _parse_split(args.split))


def cmd_encode(args) -> int:
    formula, _ = encode(_spec_from_args(args))
    if args.fold_constants:
        simplified = unit_propagate(formula)
        if simplified.conflict:
            # the folded formula would be empty, hence satisfiable
            log.warning("instance is unsatisfiable by unit propagation alone; writing it unfolded")
        else:
            formula = simplified.formula
    _write_output(args.out, write_dimacs(formula))
    return EXIT_OK


def cmd_solve(args) -> int:
    with open(args.instance) as handle:
        formula = parse_dimacs(handle.read())
    result = solve(formula, SolverConfig(seed=args.seed, time_limit=args.time_limit))
    sys.stdout.write(write_solver_output(result.status, result.assignment))
    return EXIT_UNKNOWN if result.status is Status.UNKNOWN else EXIT_OK


def cmd_factor(args) -> int:
    n_value = args.n
    if n_value < 4:
        raise _UsageError("--n must be >= 4")
    splits = [_parse_split(args.split)] if args.split else factor_splits(n_value.bit_length())
    saw_unknown = False
    for split in splits:
        formula, varmap = encode(spec_for([n_value], args.alg, split))
        result, factors = bench.solve_and_verify(
            formula, varmap, args.seed, args.time_limit, args.solver_cmd
        )
        if factors is not None:
            p, q, _ = factors
            print(f"{n_value} = {min(p, q)} * {max(p, q)}")
            return EXIT_OK
        if result.status is Status.UNKNOWN:
            saw_unknown = True
    if saw_unknown:
        print("unknown")
        return EXIT_UNKNOWN
    if numtheory.is_prime(n_value):
        print("no factorization")
    else:
        # the search covered these factor widths only, and N factors otherwise
        widths = " or ".join(f"{m_p},{m_q}" for m_p, m_q in splits)
        print(f"no factorization with factor bitlengths {widths} ({n_value} is not prime)")
    return EXIT_OK


def cmd_bench(args) -> int:
    plan = bench.ExperimentPlan(
        bitlengths=tuple(_parse_bits(args.bits)),
        semiprimes_per_n=args.per_n,
        seeds_per_instance=args.seeds,
        strategy=args.strategy,
        encoder=args.encoder,
        solver="external" if args.solver_cmd else "embedded",
        external_cmd=args.solver_cmd,
        master_seed=args.seed,
        time_limit=args.time_limit,
    )
    dataset = bench.run_experiment(plan, workers=args.workers)
    _write_output(args.out, bench.dataset_to_csv(dataset))
    n_unknown = sum(1 for r in dataset.records if r.status is Status.UNKNOWN)
    if n_unknown:
        print(f"note: {n_unknown} runs returned UNKNOWN", file=sys.stderr)
    return EXIT_OK


def cmd_analyze_fit(args) -> int:
    points = bench.aggregate(bench.load_csv(args.dataset), stat=args.stat)
    if not points:
        raise RuntimeError("dataset has no SAT rows to fit")
    curve = analysis.per_bitlength_median(points)
    fit = analysis.fit_exponential(curve)
    if args.curve:
        _write_output(args.curve, analysis.curve_csv(curve, fit))
    _write_json(args.out, analysis.fit_report(fit, curve, args.stat, len(points)))
    return EXIT_OK


def cmd_analyze_community(args) -> int:
    semiprime = gen_semiprime(args.bits, args.seed)
    formula, _ = encode(spec_for([semiprime.value], args.alg, semiprime.split))
    if args.simplified:
        formula = unit_propagate(formula).formula
    graph = analysis.build_vig(formula)
    result = analysis.cnm_communities(graph)
    report = {
        "n_bits": args.bits,
        "N": semiprime.value,
        "algorithm": args.alg,
        "simplified": bool(args.simplified),
        "vertices": graph.num_vertices,
        "edges": len(graph.edges),
        "communities": len(set(result.partition.values())),
        "q": result.q,
        "hardness_band": list(analysis.HARDNESS_Q_BAND),
    }
    _write_json(args.out, report)
    return EXIT_OK


def correlation_table(dataset: bench.Dataset, method: str = "pearson") -> dict:
    """Per-metric correlation of min solve time, within each bitlength, plus
    the across-bitlength mean.  Factors are recovered by trial division, so
    this is desk-scale only."""
    points = bench.aggregate(dataset, stat="min")
    by_n: dict[int, list[tuple[MetricVector, float]]] = {}
    for n_bits, value, seconds in points:
        p, q = trial_division(value)
        semiprime = numtheory.Semiprime(value=value, p=p, q=q, n_bits=n_bits)
        by_n.setdefault(n_bits, []).append((metrics(semiprime), seconds))
    table: dict[str, dict] = {}
    for name in MetricVector.FIELDS:
        per_n = {}
        for n_bits, rows in sorted(by_n.items()):
            xs = [float(getattr(m, name)) for m, _ in rows]
            ys = [t for _, t in rows]
            try:
                per_n[n_bits] = analysis.correlate(xs, ys, method=method)
            except ValueError:
                log.warning("skipping %s at n=%d (degenerate data)", name, n_bits)
        if not per_n:
            raise RuntimeError(f"metric {name} has no usable bitlength groups")
        mean_r = sum(per_n.values()) / len(per_n)
        table[name] = {"mean_r": mean_r, "per_bitlength": per_n}
    return table


def cmd_analyze_correlate(args) -> int:
    table = correlation_table(bench.load_csv(args.dataset), method=args.method)
    _write_json(args.out, {"method": args.method, "metrics": table})
    return EXIT_OK


def cmd_estimate(args) -> int:
    fit = analysis.load_fit(args.fit) if args.fit else None
    estimate = analysis.estimate_costs(args.bits, fit, args.classical_rate, args.quantum_rate)
    _write_json(args.out, asdict(estimate))
    return EXIT_OK


# -- parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="satfactor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate semi-primes as CSV")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("encode", help="emit an annotated DIMACS instance")
    p.add_argument("--n", type=int, default=None, help="single target number")
    p.add_argument("--targets", default=None, help="semi-prime CSV for a multi-target instance")
    p.add_argument("--alg", choices=ALGORITHMS, default="schoolbook")
    p.add_argument("--split", default=None, help="factor bitlengths, like 3,4")
    p.add_argument("--fold-constants", action="store_true", help="unit-propagate before writing")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("solve", help="solve a DIMACS file with the embedded solver")
    p.add_argument("instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time-limit", type=_time_limit, default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("factor", help="factor one number end to end")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alg", choices=ALGORITHMS, default="schoolbook")
    p.add_argument("--split", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--solver-cmd", default=None, help="external solver command")
    p.add_argument("--time-limit", type=_time_limit, default=None)
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("bench", help="run an experiment plan, write a dataset CSV")
    p.add_argument("--bits", required=True, help="like 14 or 10,12,14 or 10:18:2")
    p.add_argument("--per-n", type=int, default=20)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--strategy", choices=bench.STRATEGIES, default="mean")
    p.add_argument("--encoder", choices=ALGORITHMS, default="schoolbook")
    p.add_argument("--solver-cmd", default=None, help="external solver command")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time-limit", type=_time_limit, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("analyze", help="fit curves, community structure, correlations")
    analyze_sub = p.add_subparsers(dest="mode", required=True)

    pa = analyze_sub.add_parser("fit", help="exponential fit of a dataset")
    pa.add_argument("dataset")
    pa.add_argument("--stat", choices=("mean", "median", "min"), default="mean")
    pa.add_argument("--curve", default=None, help="also write curve CSV here")
    pa.add_argument("--out", default=None)
    pa.set_defaults(fn=cmd_analyze_fit)

    pa = analyze_sub.add_parser("community", help="variable-graph modularity of an instance")
    pa.add_argument("--bits", type=int, required=True)
    pa.add_argument("--alg", choices=ALGORITHMS, default="schoolbook")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--simplified", action="store_true", help="unit-propagate first")
    pa.add_argument("--out", default=None)
    pa.set_defaults(fn=cmd_analyze_community)

    pa = analyze_sub.add_parser("correlate", help="number metrics vs min solve time")
    pa.add_argument("dataset")
    pa.add_argument("--method", choices=("pearson", "spearman"), default="pearson")
    pa.add_argument("--out", default=None)
    pa.set_defaults(fn=cmd_analyze_correlate)

    p = sub.add_parser("estimate", help="classical/quantum/sieve cost extrapolation")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--fit", default=None, help="fit JSON written by analyze fit --out")
    p.add_argument(
        "--classical-rate", type=float, default=analysis.DEFAULT_CLASSICAL_RATE,
        help="--fit reads log2 seconds, and --classical-rate turns seconds into operations",
    )
    p.add_argument("--quantum-rate", type=float, default=analysis.DEFAULT_QUANTUM_RATE)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_estimate)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
