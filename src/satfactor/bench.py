"""Experiment harness: run factoring strategies at desk scale, persist results.

A plan pins everything (bitlengths, counts, strategy, encoder, solver,
master seed), and every random stream is derived from the master seed by
hashing its purpose, so re-running a plan reproduces the same instances,
the same solver seeds, and the same statuses; only wall times move.  A SAT
row is written only after the decoded factors have been re-multiplied and
checked against the target, so a dataset can never contain an unverified
factorization.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import statistics
import time
from dataclasses import asdict, dataclass, fields

from .cnf import Formula, Status, VarMap, _decimal, _integer
from .encoder import DecodeError, decode, encode, spec_for
from .numtheory import Semiprime, gen_semiprime, trial_division
from .solver import SolveResult, SolverConfig, SolverError, check_time_limit, solve, solve_external

log = logging.getLogger(__name__)

STRATEGIES = ("mean", "multi_target", "trial_division")

@dataclass(frozen=True)
class ExperimentPlan:
    bitlengths: tuple[int, ...]
    semiprimes_per_n: int = 20
    seeds_per_instance: int = 3
    strategy: str = "mean"
    encoder: str = "schoolbook"
    solver: str = "embedded"
    external_cmd: str | None = None
    master_seed: int = 0
    time_limit: float | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.solver not in ("embedded", "external"):
            raise ValueError(f"solver must be 'embedded' or 'external', got {self.solver!r}")
        if (self.solver == "external") != bool(self.external_cmd):
            raise ValueError("a solver command goes with solver 'external', and only with it")
        if self.strategy == "trial_division" and self.solver != "embedded":
            raise ValueError("trial_division runs no SAT solver, so it takes no solver command")
        if self.semiprimes_per_n < 1 or self.seeds_per_instance < 1:
            raise ValueError("counts must be >= 1")
        if not self.bitlengths or min(self.bitlengths) < 6:
            raise ValueError("bitlengths must be >= 6")
        check_time_limit(self.time_limit)

    def fingerprint(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    """One dataset row; the fields, in order, are the dataset CSV's columns."""

    strategy: str
    encoder: str
    solver: str
    n_bits: int
    N: int
    solver_seed: int
    status: Status
    wall_time_s: float
    conflicts: int
    decisions: int
    matched_target: int | None = None


CSV_COLUMNS = [f.name for f in fields(RunRecord)]

# How load_csv reads each column that is not an int; an int column takes
# the DIMACS rule of cnf._integer, an optional sign and then ASCII digits,
# and the time is read by the same ASCII rule through cnf._decimal.
_READERS = {
    "strategy": str,
    "encoder": str,
    "solver": str,
    "status": Status,
    "wall_time_s": _decimal,
    "matched_target": lambda text: _integer(text) if text else None,
}


@dataclass
class Dataset:
    records: list[RunRecord]
    fingerprint: str


def derive_seed(master_seed: int, *parts) -> int:
    """A named 64-bit stream seed: hash of the master seed and a label path."""
    blob = repr((master_seed,) + parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def generate_instances(n_bits: int, count: int, master_seed: int) -> list[Semiprime]:
    """Semi-primes for one bitlength, deterministic in the master seed.

    Prefers distinct values; when the bitlength simply does not offer
    enough (small n), the remainder are repeats, with one warning.
    """
    found: list[Semiprime] = []
    values = set()
    attempt = 0
    budget = 200 * count
    while len(found) < count:
        s = gen_semiprime(n_bits, derive_seed(master_seed, "semiprime", n_bits, attempt))
        attempt += 1
        if s.value not in values:
            values.add(s.value)
            found.append(s)
        elif attempt > budget:
            found.append(s)
    if len(values) < count:
        log.warning(
            "only %d distinct %d-bit semi-primes found; repeating values",
            len(values), n_bits,
        )
    return found


def solve_and_verify(
    formula: Formula,
    varmap: VarMap,
    seed: int,
    time_limit: float | None,
    external_cmd: str | None = None,
) -> tuple[SolveResult, tuple[int, int, int] | None]:
    """Solve with the embedded solver, or with ``external_cmd`` when given,
    and check any model: its decoded factors must re-multiply to the target
    it names, else :class:`DecodeError`.

    Returns the solve result and ``(p, q, k)`` for a model, ``None`` otherwise.
    """
    if external_cmd:
        result = solve_external(external_cmd, formula, time_limit)
    else:
        result = solve(formula, SolverConfig(seed=seed, time_limit=time_limit))
    if result.status is not Status.SAT:
        return result, None
    p, q, k = decode(varmap, result.assignment)
    if p * q != varmap.targets[k]:
        raise DecodeError(f"decoded {p} * {q} != {varmap.targets[k]}")
    return result, (p, q, k)


def _tasks(plan: ExperimentPlan) -> list[tuple]:
    """Every run of a plan, as ``(plan, n_bits, instances, solver_seed)``."""
    tasks = []
    for n in plan.bitlengths:
        instances = generate_instances(n, plan.semiprimes_per_n, plan.master_seed)
        if plan.strategy == "trial_division":
            tasks += [(plan, n, [s], 0) for s in instances]
        elif plan.strategy == "multi_target":
            unique = list({s.value: s for s in instances}.values())
            tasks += [
                (plan, n, unique, derive_seed(plan.master_seed, "solver", n, 0, j))
                for j in range(plan.seeds_per_instance)
            ]
        else:
            tasks += [
                (plan, n, [s], derive_seed(plan.master_seed, "solver", n, i, j))
                for i, s in enumerate(instances)
                for j in range(plan.seeds_per_instance)
            ]
    return tasks


def _run_task(task) -> RunRecord:
    """One run, inline or in a worker process, as its dataset row."""
    plan, n_bits, instances, solver_seed = task
    n_value, matched, solver = instances[0].value, None, plan.solver
    if plan.strategy == "trial_division":
        solver = "trial_division"
        start = time.perf_counter()
        p, q = trial_division(n_value)
        result = SolveResult(Status.SAT, None, 0, 0, 0, time.perf_counter() - start)
        if p * q != n_value:
            raise RuntimeError(f"trial division broke on {n_value}")
    else:
        split = instances[0].split if len(instances) == 1 else None
        formula, varmap = encode(spec_for([s.value for s in instances], plan.encoder, split))
        try:
            result, factors = solve_and_verify(
                formula, varmap, solver_seed, plan.time_limit, plan.external_cmd
            )
        except SolverError as exc:
            if plan.external_cmd is None:
                raise
            log.warning("external solver failed on n=%d: %s", n_bits, exc)
            result, factors = SolveResult(Status.UNKNOWN, None, 0, 0, 0, 0.0), None
        if factors is not None:
            n_value = varmap.targets[factors[2]]
            matched = factors[2] if len(instances) > 1 else None
    return RunRecord(
        plan.strategy, plan.encoder, solver, n_bits, n_value, solver_seed,
        result.status, result.wall_time, result.conflicts, result.decisions, matched,
    )


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> Dataset:
    """Execute a plan and return its canonically sorted dataset.

    The pool starts at most one worker process per task.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    tasks = _tasks(plan)
    workers = min(workers, len(tasks))
    if workers > 1:
        # imported only here: the process pool costs every other run its import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_task, tasks, chunksize=1))
    else:
        records = [_run_task(t) for t in tasks]
    records.sort(key=lambda r: (r.n_bits, r.N, r.solver_seed))
    return Dataset(records, plan.fingerprint())


def aggregate(dataset: Dataset, stat: str = "mean") -> list[tuple[int, int, float]]:
    """Per-(n_bits, N) statistic of wall time over seeds, SAT rows only.

    UNKNOWN rows are excluded (their count is logged); keys left without a
    single SAT row are dropped with a warning.
    """
    fns = {"mean": statistics.mean, "median": statistics.median, "min": min, "sum": sum}
    if stat not in fns:
        raise ValueError(f"unknown statistic {stat!r}")
    groups: dict[tuple[int, int], list[float]] = {}
    skipped = 0
    empty_keys = set()
    for r in dataset.records:
        key = (r.n_bits, r.N)
        if r.status is Status.SAT:
            groups.setdefault(key, []).append(r.wall_time_s)
        else:
            skipped += 1
            empty_keys.add(key)
    if skipped:
        log.warning("aggregate: excluded %d non-SAT rows", skipped)
    for key in empty_keys - set(groups):
        log.warning("aggregate: no SAT rows for n_bits=%d N=%d", *key)
    return [
        (n_bits, n_value, fns[stat](times))
        for (n_bits, n_value), times in sorted(groups.items())
    ]


def dataset_to_csv(dataset: Dataset) -> str:
    """A ``# plan=`` line, the header, then each record's field values in
    order; csv writes a float by ``repr`` and None as an empty field."""
    out = io.StringIO()
    out.write(f"# plan={dataset.fingerprint}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in dataset.records:
        row = [getattr(r, c) for c in CSV_COLUMNS]
        writer.writerow([v.value if isinstance(v, Status) else v for v in row])
    return out.getvalue()


def save_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(dataset_to_csv(dataset))


def load_csv(path) -> Dataset:
    """Read a dataset CSV; a malformed row raises ValueError naming its line."""
    with open(path, newline="") as handle:
        lines = handle.read().splitlines()
    fingerprint = ""
    skipped = 0  # the ``# plan=`` line, counted in the line numbers
    if lines and lines[0].startswith("# plan="):
        fingerprint = lines[0][len("# plan="):].strip()
        skipped = 1
    reader = csv.reader(lines[skipped:])
    header = next(reader, None) or []
    if header != CSV_COLUMNS:
        missing = [c for c in CSV_COLUMNS if c not in header]
        extra = [c for c in header if c not in CSV_COLUMNS]
        raise ValueError(f"bad dataset schema: missing={missing} unexpected={extra}")
    readers = [_READERS.get(c, _integer) for c in CSV_COLUMNS]
    records = []
    for row in reader:
        try:
            if len(row) != len(readers):
                if not row:
                    continue
                raise ValueError(f"expected {len(readers)} fields, got {len(row)}")
            records.append(RunRecord(*[read(text) for read, text in zip(readers, row)]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {reader.line_num + skipped}: {exc}") from None
    return Dataset(records, fingerprint)
