"""The benchmark's workloads: seeded inputs, one task per user-visible job,
and output checks that do not take the program's word for its answers.

Importing this module imports satfactor, so the import is part of the
measured set-up time.  Every input is derived from the workload seed by the
benchmark's own hashing; satfactor only receives the generated numbers (and,
for ``bench-sat18``, the master seed of the plan it runs).
"""

from __future__ import annotations

import contextlib
import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from satfactor import analysis, bench, cnf, encoder, numtheory, solver
from satfactor.cnf import Status


class CheckFailed(Exception):
    """A task's output disagreed with the benchmark's own ground truth."""


def sub_seed(seed: int, *parts) -> int:
    blob = repr((seed,) + parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def is_prime_by_trial_division(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# Exact counts each layer reports at its boundary, read from the call's result.
COUNTERS: dict[str, Callable] = {
    "solver.solve": lambda r: {
        "conflicts": r.conflicts,
        "decisions": r.decisions,
        "propagations": r.propagations,
        "unknown": int(r.status is Status.UNKNOWN),
    },
    "encoder.encode": lambda r: {"vars": r[0].num_vars, "clauses": len(r[0].clauses)},
    "cnf.write_dimacs": lambda text: {"bytes": len(text.encode())},
    "cnf.parse_dimacs": lambda f: {"clauses": len(f.clauses)},
    "cnf.unit_propagate": lambda r: {"units": len(r.units)},
    "analysis.build_vig": lambda g: {"edges": len(g.edges)},
    "analysis.cnm": lambda r: {"communities": len(set(r.partition.values()))},
}


@dataclass(frozen=True)
class Workload:
    name: str
    # Tasks run in whole rounds, so every run sees the same mix of task kinds.
    round_size: int
    make_inputs: Callable  # (tracer, seed, n_tasks) -> list of task inputs
    run: Callable  # (tracer, task input, work dir) -> output
    check: Callable  # (task input, output) -> None, raises CheckFailed


# -- bench-sat18: a `satfactor bench` campaign per task, solved to a model

SAT_BITS = 18
SAT_SEMIPRIMES = 4
SAT_SOLVER_SEEDS = 3


def _sat_inputs(tracer, seed: int, n_tasks: int):
    def generate():
        tasks = []
        for i in range(n_tasks):
            master = sub_seed(seed, "bench-sat", i)
            tasks.append((master, bench.generate_instances(SAT_BITS, SAT_SEMIPRIMES, master)))
        return tasks

    return tracer.call("numtheory.generate", generate)


@contextlib.contextmanager
def _bench_hooks(tracer, decoded: list):
    """Route run_experiment's layer calls through the tracer.

    ``decode`` is always wrapped, to capture every decoded factor pair for
    the independent check; ``encode`` and ``solve`` only when tracing.
    """
    real_encode, real_solve, real_decode = bench.encode, bench.solve, bench.decode

    def decode(varmap, assignment):
        p, q, k = tracer.call("encoder.decode", real_decode, varmap, assignment)
        decoded.append((varmap.targets[k], p, q))
        return p, q, k

    bench.decode = decode
    if tracer.enabled:
        bench.encode = lambda spec: tracer.call("encoder.encode", real_encode, spec)
        bench.solve = lambda formula, cfg=None: tracer.call("solver.solve", real_solve, formula, cfg)
    try:
        yield
    finally:
        bench.encode, bench.solve, bench.decode = real_encode, real_solve, real_decode


def _sat_run(tracer, task, workdir: Path):
    master, _ = task
    plan = bench.ExperimentPlan(
        bitlengths=(SAT_BITS,),
        semiprimes_per_n=SAT_SEMIPRIMES,
        seeds_per_instance=SAT_SOLVER_SEEDS,
        strategy="mean",
        encoder="schoolbook",
        solver="embedded",
        master_seed=master,
    )
    decoded: list = []
    with _bench_hooks(tracer, decoded):
        dataset = tracer.call("bench.run_experiment", bench.run_experiment, plan, workers=1)
    path = workdir / "dataset.csv"
    tracer.call("bench.save_csv", bench.save_csv, dataset, path)
    loaded = tracer.call("bench.load_csv", bench.load_csv, path)
    points = tracer.call("bench.aggregate", bench.aggregate, loaded, "mean")
    return dataset, loaded, points, decoded


def _sat_check(task, out) -> None:
    _, semiprimes = task
    dataset, loaded, points, decoded = out
    truth = {s.value: {s.p, s.q} for s in semiprimes}
    rows = SAT_SEMIPRIMES * SAT_SOLVER_SEEDS
    statuses = [r.status for r in dataset.records]
    if len(statuses) != rows or any(s is not Status.SAT for s in statuses):
        raise CheckFailed(f"expected {rows} SAT rows, got {[s.value for s in statuses]}")
    if len(decoded) != rows:
        raise CheckFailed(f"expected {rows} decoded models, got {len(decoded)}")
    for n_value, p, q in decoded:
        if p * q != n_value or {p, q} != truth.get(n_value):
            raise CheckFailed(f"decoded {p} * {q} for N={n_value}, expected {truth.get(n_value)}")
    if loaded.records != dataset.records or loaded.fingerprint != dataset.fingerprint:
        raise CheckFailed("the dataset changed in the CSV round trip")
    if sorted(n for _, n, _ in points) != sorted(truth):
        raise CheckFailed(f"aggregate returned N values {[n for _, n, _ in points]}")


# -- factor-prime21: the `satfactor factor` path on primes, refuted split by split

PRIME_BITS = 21


def _prime_inputs(tracer, seed: int, n_tasks: int):
    def generate():
        rng = random.Random(sub_seed(seed, "factor-prime"))
        tasks = []
        while len(tasks) < n_tasks:
            x = rng.getrandbits(PRIME_BITS - 1) | (1 << (PRIME_BITS - 1)) | 1
            if numtheory.is_prime(x):
                tasks.append((x, sub_seed(seed, "factor-prime", len(tasks))))
        return tasks

    return tracer.call("numtheory.generate", generate)


def _prime_run(tracer, task, workdir: Path):
    n_value, solver_seed = task
    n_bits = n_value.bit_length()
    verdicts = []
    for split in numtheory.factor_splits(n_bits):
        spec = encoder.EncodeSpec(
            n_bits=n_bits, targets=[n_value], algorithm="schoolbook", factor_split=split
        )
        formula, varmap = tracer.call("encoder.encode", encoder.encode, spec)
        result = tracer.call(
            "solver.solve", solver.solve, formula, solver.SolverConfig(seed=solver_seed)
        )
        if result.status is Status.SAT:
            p, q, _ = tracer.call("encoder.decode", encoder.decode, varmap, result.assignment)
            verdicts.append((result.status, (p, q)))
            break
        verdicts.append((result.status, None))
    return verdicts


def _prime_check(task, verdicts) -> None:
    n_value, _ = task
    if not is_prime_by_trial_division(n_value):
        raise CheckFailed(f"input {n_value} is not prime by trial division")
    splits = numtheory.factor_splits(n_value.bit_length())
    if len(verdicts) != len(splits) or any(s is not Status.UNSAT for s, _ in verdicts):
        shown = [(s.value, model) for s, model in verdicts]
        raise CheckFailed(f"prime {n_value}: expected UNSAT on {len(splits)} splits, got {shown}")


# -- instance-structure: the instance pipeline, no search

# (algorithm, bits, targets, run CNM).  CNM only runs at 32 bits: its cost
# grows super-linearly and would otherwise take the whole run.  The nine
# kinds have distinct costs, so the median and p75 task times fall inside
# one kind's block of samples rather than on the edge between two.
STRUCTURE_ROUND = (
    ("schoolbook", 32, 1, True),
    ("karatsuba", 32, 1, True),
    ("division", 32, 1, True),
    ("schoolbook", 32, 4, True),
    ("schoolbook", 48, 1, False),
    ("division", 48, 1, False),
    ("schoolbook", 64, 1, False),
    ("karatsuba", 64, 1, False),
    ("division", 64, 1, False),
)


def _balanced_semiprimes(n_bits: int, count: int, seed: int) -> list:
    """Distinct semi-primes whose factors both have the default split's width."""
    width = (n_bits + 1) // 2
    found: dict[int, numtheory.Semiprime] = {}
    attempt = 0
    while len(found) < count:
        s = numtheory.gen_semiprime(n_bits, sub_seed(seed, attempt))
        attempt += 1
        if s.p.bit_length() == width == s.q.bit_length():
            found.setdefault(s.value, s)
    return list(found.values())


def _structure_inputs(tracer, seed: int, n_tasks: int):
    def generate():
        tasks = []
        for i in range(n_tasks):
            kind = STRUCTURE_ROUND[i % len(STRUCTURE_ROUND)]
            _, n_bits, n_targets, _ = kind
            task_seed = sub_seed(seed, "structure", i)
            if n_targets == 1:
                semiprimes = [numtheory.gen_semiprime(n_bits, task_seed)]
            else:
                semiprimes = _balanced_semiprimes(n_bits, n_targets, task_seed)
            tasks.append((kind, semiprimes))
        return tasks

    return tracer.call("numtheory.generate", generate)


def _structure_run(tracer, task, workdir: Path):
    (algorithm, n_bits, _, with_cnm), semiprimes = task
    split = None
    if len(semiprimes) == 1:
        split = (semiprimes[0].p.bit_length(), semiprimes[0].q.bit_length())
    spec = encoder.EncodeSpec(
        n_bits=n_bits,
        targets=[s.value for s in semiprimes],
        algorithm=algorithm,
        factor_split=split,
    )
    formula, varmap = tracer.call("encoder.encode", encoder.encode, spec)
    text = tracer.call("cnf.write_dimacs", cnf.write_dimacs, formula)
    parsed = tracer.call("cnf.parse_dimacs", cnf.parse_dimacs, text)
    simplified = tracer.call("cnf.unit_propagate", cnf.unit_propagate, parsed)
    graph = tracer.call("analysis.build_vig", analysis.build_vig, simplified.formula)
    communities = None
    if with_cnm:
        communities = tracer.call("analysis.cnm", analysis.cnm_communities, graph)
    return formula, varmap, parsed, simplified, graph, communities


def _structure_check(task, out) -> None:
    _, semiprimes = task
    formula, varmap, parsed, simplified, graph, communities = out
    if parsed != formula:
        raise CheckFailed("parse_dimacs(write_dimacs(f)) != f")
    if simplified.conflict:
        raise CheckFailed("unit propagation refuted a satisfiable instance")
    # Each target's true factorization is a model, so a value forced by
    # propagation must agree with every one of them.  The simplified
    # formula is never decoded.
    for s in semiprimes:
        truth = {}
        for bits, value in ((varmap.p_bits, s.p), (varmap.q_bits, s.q), (varmap.out_bits, s.value)):
            truth.update((v, bool(value >> i & 1)) for i, v in enumerate(bits))
        wrong = sorted(v for v, bit in truth.items() if simplified.units.get(v, bit) != bit)
        if wrong:
            raise CheckFailed(f"N={s.value}: forced values of vars {wrong} contradict {s.p} * {s.q}")
    if communities is not None and len(communities.partition) != graph.num_vertices:
        raise CheckFailed("the community partition does not cover every vertex")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bench-sat18", 1, _sat_inputs, _sat_run, _sat_check),
        Workload("factor-prime21", 1, _prime_inputs, _prime_run, _prime_check),
        Workload("instance-structure", len(STRUCTURE_ROUND), _structure_inputs, _structure_run, _structure_check),
    )
}
