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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

from .cnf import Formula, Status, VarMap
from .encoder import DecodeError, decode, encode, spec_for
from .numtheory import Semiprime, gen_semiprime, trial_division
from .solver import SolveResult, SolverConfig, SolverError, solve, solve_external

log = logging.getLogger(__name__)

STRATEGIES = ("mean", "min", "multi_target", "trial_division")

CSV_COLUMNS = [
    "strategy",
    "encoder",
    "solver",
    "n_bits",
    "N",
    "solver_seed",
    "status",
    "wall_time_s",
    "conflicts",
    "decisions",
    "matched_target",
]


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
        if self.solver == "external" and not self.external_cmd:
            raise ValueError("external solver requires a command")
        if self.semiprimes_per_n < 1 or self.seeds_per_instance < 1:
            raise ValueError("counts must be >= 1")
        if not self.bitlengths or min(self.bitlengths) < 6:
            raise ValueError("bitlengths must be >= 6")

    def fingerprint(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
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


@dataclass
class Dataset:
    records: list[RunRecord]
    fingerprint: str

    def sort(self) -> None:
        self.records.sort(key=lambda r: (r.n_bits, r.N, r.solver_seed))

    def unknown_count(self) -> int:
        return sum(1 for r in self.records if r.status is Status.UNKNOWN)


def derive_seed(master_seed: int, *parts) -> int:
    """A named 64-bit stream seed: hash of the master seed and a label path."""
    blob = repr((master_seed,) + parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def generate_instances(n_bits: int, count: int, master_seed: int) -> list[Semiprime]:
    """Semi-primes for one bitlength, deterministic in the master seed.

    Prefers distinct values; when the bitlength simply does not offer
    enough (small n), the remainder are repeats, with a warning.
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
            log.warning(
                "only %d distinct %d-bit semi-primes found; repeating values",
                len(found), n_bits,
            )
            found.append(s)
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


def _solve_task(args) -> RunRecord:
    """One solver run; used both inline and from worker processes."""
    plan, n_bits, instances, solver_seed = args
    split = instances[0].split if len(instances) == 1 else None
    formula, varmap = encode(spec_for([s.value for s in instances], plan.encoder, split))
    external_cmd = plan.external_cmd if plan.solver == "external" else None
    try:
        result, factors = solve_and_verify(
            formula, varmap, solver_seed, plan.time_limit, external_cmd
        )
    except SolverError as exc:
        if external_cmd is None:
            raise
        log.warning("external solver failed on n=%d: %s", n_bits, exc)
        return RunRecord(
            plan.strategy, plan.encoder, plan.solver, n_bits, instances[0].value,
            solver_seed, Status.UNKNOWN, 0.0, 0, 0, None,
        )

    n_value = instances[0].value
    matched = None
    if factors is not None:
        _, _, k = factors
        n_value = varmap.targets[k]
        matched = k if len(instances) > 1 else None
    return RunRecord(
        plan.strategy, plan.encoder, plan.solver, n_bits, n_value, solver_seed,
        result.status, result.wall_time, result.conflicts, result.decisions, matched,
    )


def _trial_division_record(plan: ExperimentPlan, s: Semiprime) -> RunRecord:
    start = time.perf_counter()
    p, q = trial_division(s.value)
    wall = time.perf_counter() - start
    if p * q != s.value:
        raise RuntimeError(f"trial division broke on {s.value}")
    return RunRecord(
        plan.strategy, plan.encoder, "trial_division", s.n_bits, s.value, 0,
        Status.SAT, wall, 0, 0, None,
    )


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> Dataset:
    """Execute a plan and return its canonically sorted dataset."""
    instances_by_n = {
        n: generate_instances(n, plan.semiprimes_per_n, plan.master_seed)
        for n in plan.bitlengths
    }

    if plan.strategy == "trial_division":
        records = [
            _trial_division_record(plan, s)
            for n in plan.bitlengths
            for s in instances_by_n[n]
        ]
        dataset = Dataset(records, plan.fingerprint())
        dataset.sort()
        return dataset

    tasks = []
    for n in plan.bitlengths:
        if plan.strategy == "multi_target":
            unique = list({s.value: s for s in instances_by_n[n]}.values())
            for j in range(plan.seeds_per_instance):
                seed = derive_seed(plan.master_seed, "solver", n, 0, j)
                tasks.append((plan, n, unique, seed))
        else:
            for i, s in enumerate(instances_by_n[n]):
                for j in range(plan.seeds_per_instance):
                    seed = derive_seed(plan.master_seed, "solver", n, i, j)
                    tasks.append((plan, n, [s], seed))

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_solve_task, tasks, chunksize=1))
    else:
        records = [_solve_task(t) for t in tasks]

    dataset = Dataset(records, plan.fingerprint())
    dataset.sort()
    return dataset


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
    out = io.StringIO()
    out.write(f"# plan={dataset.fingerprint}\n")
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for r in dataset.records:
        writer.writerow(
            {
                "strategy": r.strategy,
                "encoder": r.encoder,
                "solver": r.solver,
                "n_bits": r.n_bits,
                "N": r.N,
                "solver_seed": r.solver_seed,
                "status": r.status.value,
                "wall_time_s": repr(r.wall_time_s),
                "conflicts": r.conflicts,
                "decisions": r.decisions,
                "matched_target": "" if r.matched_target is None else r.matched_target,
            }
        )
    return out.getvalue()


def save_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(dataset_to_csv(dataset))


def load_csv(path) -> Dataset:
    with open(path, newline="") as handle:
        lines = handle.read().splitlines()
    fingerprint = ""
    if lines and lines[0].startswith("# plan="):
        fingerprint = lines[0][len("# plan="):].strip()
        lines = lines[1:]
    reader = csv.DictReader(lines)
    if reader.fieldnames != CSV_COLUMNS:
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or [])]
        extra = [c for c in (reader.fieldnames or []) if c not in CSV_COLUMNS]
        raise ValueError(f"bad dataset schema: missing={missing} unexpected={extra}")
    records = [
        RunRecord(
            strategy=row["strategy"],
            encoder=row["encoder"],
            solver=row["solver"],
            n_bits=int(row["n_bits"]),
            N=int(row["N"]),
            solver_seed=int(row["solver_seed"]),
            status=Status(row["status"]),
            wall_time_s=float(row["wall_time_s"]),
            conflicts=int(row["conflicts"]),
            decisions=int(row["decisions"]),
            matched_target=int(row["matched_target"]) if row["matched_target"] else None,
        )
        for row in reader
    ]
    return Dataset(records, fingerprint)
