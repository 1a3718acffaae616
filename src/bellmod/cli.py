"""Command line front end.

Three subcommands: ``seq`` prints sequence values (exact, or reduced mod a
prime), ``verify`` sweeps congruence identities over a range of primes and
emits one report per checked instance, and ``bench`` times the hot kernels
at a single prime.

Every verifier returns the report blocks of one prime in canonical order.
``verify`` builds them one identity, and for the m-major identities one
slice of weights, at a time, spools each rendered to one temporary file per
identity and drops it before the next is built; once every prime is swept
it copies the spools to stdout or --out in identity order.  The stream is
the same for any worker count, memory holds one block, not the prime's or
the range's, and a failed sweep writes nothing.  Summaries go to stderr.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import sys
import tempfile
from collections import defaultdict, deque
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from functools import cache, cached_property, partial
from time import perf_counter
from typing import Callable, Iterable, Iterator

import numpy as np

from . import congruences as cg
from . import oracle
from .congruences import ReportBlock
from .modarith import (
    IndexTooLargeError,
    NotPrimeError,
    make_context,
    primes_in_range,
)
from .sequences import (
    bell_mod,
    bell_row,
    derangement_mod,
    derangement_row,
    signed_series_row,
    stirling2_mod,
    touchard_coeff_matrix,
    touchard_poly,
    touchard_polys_from_matrix,  # unused here; perfbench/child.py traces it by this name
    touchard_value_table,
)

# past this prime, "--x all" switches to a seeded sample of this many points
X_ALL_LIMIT = 101
X_SAMPLE_SIZE = 32
# at most this many weights are recomputed by the direct s_m loop in bench
BENCH_SAMPLE = 32
# verify renders at most SPOOL_CELLS value cells per call, and seq prints at
# most SPOOL_CELLS terms per write
SPOOL_CELLS = 1 << 12

SEQ_FAMILIES = ("bell", "derangement", "stirling", "touchard")


@dataclass(frozen=True)
class SweepConfig:
    """One verification sweep: prime range, identity subset and grids."""

    prime_lo: int
    prime_hi: int
    identities: tuple[str, ...]
    m_max: int | None = None
    m_single: int | None = None
    n_max: int | None = None
    x: int | None = None  # None checks every point
    workers: int = 1
    seed: int = 0


@dataclass(frozen=True)
class SweepSummary:
    primes_checked: int
    reports_total: int
    reports_failed: int
    first_failure: ReportBlock | None  # one row, copied out of its block
    wall_time: float


def _parse_range(text: str, what: str) -> tuple[int, int]:
    """Parse 'N' or 'LO..HI' into an inclusive pair."""
    parts = text.split("..")
    try:
        if len(parts) == 1:
            v = int(parts[0])
            return v, v
        if len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
            if lo > hi:
                raise ValueError
            return lo, hi
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad {what} {text!r}; expected N or LO..HI")


def _m_grid(cfg: SweepConfig, p: int) -> list[int]:
    if cfg.m_single is not None:
        return [cfg.m_single] if cfg.m_single % p else []
    top = cfg.m_max if cfg.m_max is not None else 2 * p
    return [m for m in range(1, top + 1) if m % p]


def _x_grid(cfg: SweepConfig, p: int) -> list[int]:
    if cfg.x is not None:
        x = cfg.x % p
        return [x] if x else []
    if p <= X_ALL_LIMIT:
        return list(range(1, p))
    rng = random.Random(f"{cfg.seed}:{p}")
    return sorted(rng.sample(range(1, p), X_SAMPLE_SIZE))


class PrimeTables:
    """The tables of one prime for one sweep, each built on first use, so
    a sweep builds only the tables its selected identities read."""

    def __init__(self, p: int, cfg: SweepConfig):
        self.cfg = cfg
        self.ctx = make_context(p)

    @cached_property
    def row(self):
        return bell_row(self.ctx)

    @cached_property
    def sm(self):
        return cg.s_m_all_units(self.ctx, self.row)

    @cached_property
    def drow(self):
        return derangement_row(self.ctx)

    @cached_property
    def sigma(self):
        return signed_series_row(self.ctx)

    @cached_property
    def matrix(self):
        return touchard_coeff_matrix(self.ctx)

    @cached_property
    def values(self):
        return touchard_value_table(self.ctx, self.matrix, self.xs)

    @cached_property
    def jpow(self):
        return cg.unit_power_table(self.ctx)

    @cached_property
    def sums(self):
        return cg.weighted_touchard_sum(self.ctx, self.ms, self.matrix)

    @cached_property
    def ms(self):
        return _m_grid(self.cfg, self.ctx.p)

    @cached_property
    def xs(self):
        return _x_grid(self.cfg, self.ctx.p)


def _by_weight_slice(
    verify: Callable[[PrimeTables, list[int], slice], list[ReportBlock]],
) -> Callable[[PrimeTables], Iterator[ReportBlock]]:
    """verify(t, ms, rows) run one cg.WEIGHT_BLOCK of weights at a time: ms
    are the weights and rows their slice of the grid, to pick table rows."""

    def run(t: PrimeTables) -> Iterator[ReportBlock]:
        for lo in range(0, len(t.ms), cg.WEIGHT_BLOCK):
            rows = slice(lo, lo + cg.WEIGHT_BLOCK)
            yield from verify(t, t.ms[rows], rows)

    return run


def _touchard(t: PrimeTables) -> list[ReportBlock]:
    p = t.ctx.p
    n_max = t.cfg.n_max if t.cfg.n_max is not None else min(p, p * p - p - 1)
    return cg.verify_touchard(t.ctx, n_max, t.row)


def _intro(t: PrimeTables) -> list[ReportBlock]:
    m = t.cfg.m_single if t.cfg.m_single is not None else 8
    return cg.verify_intro_constant(t.ctx, m, t.row) if m % t.ctx.p else []


# --identities token -> the report blocks of its identities at one prime.  The
# sweep walks this dict in its own order, which is the Identity order.
# Entries look up the verifiers and table builders at call time, never
# binding them at import, so a wrapper put on those names sees the calls.
# The sliced verifiers emit m-major, so their slices keep canonical order;
# eq10 stays whole, since its R_m recurrence runs up from m = 1.
IDENTITIES: dict[str, Callable[[PrimeTables], Iterable[ReportBlock]]] = {
    "touchard": _touchard,
    "theorem1": lambda t: cg.verify_theorem1(t.ctx, t.ms, t.sm, t.drow, t.sigma) if t.ms else [],
    "intro": _intro,
    "corollary": lambda t: cg.verify_corollary(t.ctx, t.row, t.drow, t.jpow),
    "eq4": lambda t: cg.verify_eq4(t.ctx, t.sm) if t.ctx.p >= 3 else [],
    "bellp": lambda t: cg.verify_bell_p(t.ctx, t.row),
    "theorem2": _by_weight_slice(lambda t, ms, rows: cg.verify_theorem2(t.ctx, ms, t.sums[rows])),
    "eq10": lambda t: cg.verify_theorem2_eval(t.ctx, t.ms, t.xs, t.values),
    "special": lambda t: cg.verify_special_cases(t.ctx, t.xs, t.values),
    "intermediate": _by_weight_slice(
        lambda t, ms, rows: cg.verify_proof_intermediate(t.ctx, ms, t.sums[rows])
    ),
    "factorial": _by_weight_slice(lambda t, ms, rows: cg.verify_factorial_lemma(t.ctx, ms)),
    "geometric": _by_weight_slice(lambda t, ms, rows: cg.geometric_sum_lemma_check(t.ctx, ms, t.jpow)),
}


def _sweep_prime(job: tuple[int, SweepConfig]) -> Iterator[ReportBlock]:
    """One prime's report blocks, one identity at a time; the unit of parallelism."""
    p, cfg = job
    tables = PrimeTables(p, cfg)
    for token, verify in IDENTITIES.items():
        if token in cfg.identities:
            yield from verify(tables)


def _swept(job: tuple[int, SweepConfig]) -> list[ReportBlock]:
    """One prime's blocks as a list, which a worker process can send back."""
    return list(_sweep_prime(job))


def _pool_size(workers: int, n_jobs: int) -> int:
    """Worker processes worth starting: no more than the jobs or the CPUs."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return max(1, min(workers, n_jobs, os.cpu_count() or 1))


def _prime_blocks(cfg: SweepConfig, primes: list[int]) -> Iterator[ReportBlock]:
    """The primes' blocks in range order, each as soon as it is built.  A
    pool keeps at most its size of primes in flight while the consumer
    takes the oldest swept one, so swept primes do not queue up."""
    jobs = [(p, cfg) for p in primes]
    size = _pool_size(cfg.workers, len(jobs))
    if size == 1:
        for job in jobs:
            yield from _sweep_prime(job)
        return
    from concurrent.futures import ProcessPoolExecutor  # only a pool pays for it
    with ProcessPoolExecutor(max_workers=size) as pool:
        ahead = deque()
        for job in jobs:
            ahead.append(pool.submit(_swept, job))
            if len(ahead) > size:
                yield from ahead.popleft().result()
        while ahead:
            yield from ahead.popleft().result()


def run_sweep(cfg: SweepConfig, take: Callable[[ReportBlock], object]) -> SweepSummary:
    """Every selected verifier over every prime in the range, each block handed
    to take and dropped before the next is built.  Blocks come prime-major,
    each prime's in identity order; a stable sort by identity, or one spool
    per identity as verify keeps, regroups them into the canonical order.
    The tally's first failure has the lowest identity rank, then the
    earliest prime."""
    t0 = perf_counter()
    primes = primes_in_range(cfg.prime_lo, cfg.prime_hi)
    if "touchard" in cfg.identities and cfg.n_max is not None and primes:
        cap = primes[0] * primes[0] - primes[0] - 1  # the lowest prime's cap is the lowest
        if cfg.n_max > cap:
            raise IndexTooLargeError(f"--n-max {cfg.n_max} is above p*p - p - 1 = {cap} at p = {primes[0]}")
    total = failed = 0
    first = None  # (identity rank, report) of the first failure so far
    for b in _prime_blocks(cfg, primes):
        rank, bad = cg._IDENTITY_RANK[b.identity], len(b) - np.count_nonzero(b.passed)
        total, failed = total + len(b), failed + bad
        if bad and (first is None or rank < first[0]):
            first = rank, b[[int(np.argmin(b.passed))]]
        take(b)
        b = None  # no block outlives its turn
    return SweepSummary(len(primes), total, failed, first[1] if first else None, perf_counter() - t0)


# the common triage columns come first; rarer params are appended at the
# end so column positions stay stable for consumers of the short schema
_CSV_HEAD_PARAMS = ("m", "n", "x")
_CSV_TAIL_PARAMS = tuple(k for k in cg.PARAM_ORDER if k not in _CSV_HEAD_PARAMS)
_CSV_COLUMNS = (*_CSV_HEAD_PARAMS, "pass", "lhs", "rhs", *_CSV_TAIL_PARAMS)
_CSV_HEADER = ",".join(["identity", "p", *_CSV_COLUMNS]) + "\n"
_PASS_WORDS = {
    fmt: np.array(words, dtype=object)
    for fmt, words in {"text": ("FAIL", "PASS"), "jsonl": ("false", "true"), "csv": ("false", "true")}.items()
}
# marks a value's place in a block's line template; no name, p or mark holds it
_SLOT = "\0"


@cache
def _decimal_table() -> np.ndarray:
    """str(v) at entry v for 0 <= v < SPOOL_CELLS, as an object array.  It is
    built on first use, not at import, and its size is fixed: a render call
    holds at most SPOOL_CELLS cells, and a table that grew with the primes
    or the grids would grow the sweep's peak memory with them."""
    return np.array([str(v) for v in range(SPOOL_CELLS)], dtype=object)


def _spell(values: list[int]) -> list[str]:
    """str(v) of each value, for the cells the decimal table does not hold."""
    return [str(v) for v in values]


def _decimals(cells: np.ndarray) -> np.ndarray:
    """str(v) of every cell of an integer array, as an object array of its
    shape.  Cells the decimal table holds are gathered from it; only the
    rest are spelled: negative cells, cells at or past the table's end, and
    an object array's Python ints, which may lie past int64."""
    if cells.dtype == object:
        return np.array(_spell(cells.ravel().tolist()), dtype=object).reshape(cells.shape)
    table = _decimal_table()
    # read as uint64 a negative cell lies past 2**63, so one bound checks both ends
    unsigned = cells.view(np.uint64)
    if unsigned.max(initial=0) < len(table):
        return table[cells]
    held = unsigned < len(table)
    out = table[np.where(held, cells, 0)]
    out[~held] = _spell(cells[~held].tolist())
    return out


def _side_strings(rows: np.ndarray, fmt: str) -> np.ndarray:
    """Each row of coefficients as fmt's side, as an object array of strings:
    the coefficients up to the last nonzero one, ["1", "2"] in jsonl and
    [1;2] in text and csv, and [] for a zero row."""
    lens = cg._row_lengths(rows).tolist()
    cells = _decimals(rows[:, : max(lens, default=0)]).tolist()
    opener, sep, closer = ('["', '", "', '"]') if fmt == "jsonl" else ("[", ";", "]")
    sides = np.empty(len(rows), dtype=object)
    sides[:] = [opener + sep.join(c[:n]) + closer if n else "[]" for c, n in zip(cells, lens)]
    return sides


def render_reports(b: ReportBlock, fmt: str) -> str:
    """Every line of one block in fmt ("text", "jsonl" or "csv"), without
    the csv header, by one join.  The block's line template splits at its
    slots into the literal fragments (the identity, p, keys, quotes and
    separators), which fill the even columns of a (rows, 2 * slots + 1)
    object grid; the value strings (params, sides and pass words) fill the
    odd ones, every integer column of them spelled by one gather."""
    keys = [k for k in cg.PARAM_ORDER if k in b.params]
    numbers = {k: b.params[k] for k in keys}  # int columns, spelled below
    strings = {"pass": _PASS_WORDS[fmt][b.passed.view(np.uint8)]}
    if b.lhs.ndim == 2:
        side, lhs = _SLOT, _side_strings(b.lhs, fmt)
        # a row whose sides are equal renders its side once
        rhs, differ = lhs.copy(), np.flatnonzero((b.lhs != b.rhs).any(axis=1))
        rhs[differ] = _side_strings(b.rhs[differ], fmt)
        strings.update(lhs=lhs, rhs=rhs)
    else:
        side = f'"{_SLOT}"' if fmt == "jsonl" else _SLOT
        numbers.update(lhs=b.lhs, rhs=b.rhs)
    for k in keys:
        if numbers[k].dtype == object:  # Python ints, which do not stack into int64
            strings[k] = _decimals(numbers.pop(k))
    name = b.identity.value
    if fmt == "jsonl":
        # the json.dumps layout: identity names are \w+, params are ints
        # and residues are quoted decimal strings, so nothing needs escaping
        ps = ", ".join(f'"{k}": {_SLOT}' for k in keys)
        tpl = (
            f'{{"identity": "{name}", "p": {b.p}, "params": {{{ps}}}, '
            f'"lhs": {side}, "rhs": {side}, "pass": {_SLOT}}}\n'
        )
        order = [*keys, "lhs", "rhs", "pass"]
    elif fmt == "csv":
        # csv.writer's minimal quoting: no field holds a comma or a quote;
        # the template and the columns follow the header's one order
        order = [c for c in _CSV_COLUMNS if c in numbers or c in strings]
        tpl = ",".join([name, str(b.p), *[_SLOT if c in order else "" for c in _CSV_COLUMNS]]) + "\n"
    else:
        ps = "".join(f" {k}={_SLOT}" for k in keys)
        tpl = f"{name} p={b.p}{ps} lhs={side} rhs={side} {_SLOT}\n"
        order = [*keys, "lhs", "rhs", "pass"]
    at = {c: 2 * i + 1 for i, c in enumerate(order)}
    grid = np.empty((len(b), 2 * len(order) + 1), dtype=object)
    grid[:, 0::2] = np.array(tpl.split(_SLOT), dtype=object)
    if numbers:
        grid[:, [at[c] for c in numbers]] = _decimals(np.array(list(numbers.values()), dtype=np.int64)).T
    for c, column in strings.items():
        grid[:, at[c]] = column
    return "".join(grid.ravel().tolist())


def _describe_failure(b: ReportBlock) -> str:
    """The text line of a one-row failing block; for a polynomial-valued
    one, also the first coefficient index where the zero-padded sides
    differ."""
    line = render_reports(b, "text").strip()
    if b.lhs.ndim == 2 and (b.lhs != b.rhs).any():
        i = int(np.argmax(b.lhs[0] != b.rhs[0]))
        return f"{line}; first differing coefficient: index {i} (lhs {b.lhs[0, i]}, rhs {b.rhs[0, i]})"
    return line


# seq's term n of each family, given --k: exact, or mod p read off the
# prime's PrimeTables
_EXACT_TERMS = {
    "bell": lambda n, k: oracle.bell_exact(n),
    "derangement": lambda n, k: oracle.derangement_exact(n),
    "stirling": lambda n, k: oracle.stirling2_exact(n, k),
    "touchard": lambda n, k: [oracle.stirling2_exact(n, j) for j in range(n + 1)],
}
_MOD_TERMS = {
    "bell": lambda t, n, k: bell_mod(n, t.ctx, t.row),
    "derangement": lambda t, n, k: derangement_mod(n, t.ctx, t.sigma),
    "stirling": lambda t, n, k: stirling2_mod(n, k, t.ctx),
    "touchard": lambda t, n, k: touchard_poly(n, t.ctx),
}


def cmd_seq(args: argparse.Namespace) -> int:
    try:
        lo, hi = _parse_range(args.index, "index")
    except argparse.ArgumentTypeError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if lo < 0:
        print("indices must be nonnegative", file=sys.stderr)
        return 2
    t = PrimeTables(args.mod, SweepConfig(args.mod, args.mod, ())) if args.mod is not None else None
    if args.family == "stirling" and args.k is None:
        print("seq stirling requires --k", file=sys.stderr)
        return 2
    term = _EXACT_TERMS[args.family] if t is None else partial(_MOD_TERMS[args.family], t)
    try:
        # a family refuses every index or every index from a cap up, so hi
        # shows any refusal, and the walk from lo stops at the first refused
        try:
            term(hi, args.k)
        except ValueError:
            for n in range(lo, hi + 1):
                term(n, args.k)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    spell, sep = (str, " ") if args.family != "touchard" else (lambda c: f"[{','.join(map(str, c))}]", "\n")
    for i in range(lo, hi + 1, SPOOL_CELLS):
        top = min(i + SPOOL_CELLS, hi + 1)
        print(sep.join([spell(term(n, args.k)) for n in range(i, top)]), end="\n" if top > hi else sep)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    lo, hi = args.primes
    tokens = args.identities.split(",") if args.identities != "all" else list(IDENTITIES)
    for tok in tokens:
        if tok not in IDENTITIES:
            print(
                f"unknown identity {tok!r}; pick from "
                + ",".join(IDENTITIES) + " or all",
                file=sys.stderr,
            )
            return 2
    try:
        x = None if args.x == "all" else int(args.x)
    except ValueError:
        print(f"--x must be an integer or 'all', got {args.x!r}", file=sys.stderr)
        return 2
    if args.m is not None and args.m_max is not None:
        print("--m checks one weight, so it takes no --m-max", file=sys.stderr)
        return 2
    bounds = (("--m", args.m, 1), ("--m-max", args.m_max, 1), ("--n-max", args.n_max, 0))
    for flag, value, low in (*bounds, ("--workers", args.workers, 1)):
        if value is not None and value < low:
            print(f"{flag} must be at least {low}, got {value}", file=sys.stderr)
            return 2
    cfg = SweepConfig(
        prime_lo=lo,
        prime_hi=hi,
        identities=tuple(tokens),
        m_max=args.m_max,
        m_single=args.m,
        n_max=args.n_max,
        x=x,
        workers=args.workers,
        seed=args.seed,
    )
    with ExitStack() as stack:
        # one text spool per Identity; the stream is ASCII
        spools = defaultdict(lambda: stack.enter_context(tempfile.TemporaryFile("w+", newline="")))

        def spool(b: ReportBlock) -> None:
            # a row's value cells: its params, both sides (a cell per coefficient) and pass word
            width = len(b.params) + (2 * b.lhs.shape[1] if b.lhs.ndim == 2 else 2) + 1
            rows = max(1, SPOOL_CELLS // width)
            for i in range(0, len(b), rows):
                text = render_reports(b[i : i + rows], args.format)
                spools[b.identity].write(text)

        summary = run_sweep(cfg, spool)
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
            fh.write(_CSV_HEADER if args.format == "csv" else "")
            for identity in sorted(spools, key=cg._IDENTITY_RANK.get):
                spools[identity].seek(0)
                shutil.copyfileobj(spools[identity], fh)
    print(
        f"checked {summary.reports_total} reports across "
        f"{summary.primes_checked} primes in {summary.wall_time:.2f}s; "
        f"failures: {summary.reports_failed}",
        file=sys.stderr,
    )
    if summary.reports_failed:
        print(f"first failure: {_describe_failure(summary.first_failure)}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    t = PrimeTables(args.p, SweepConfig(args.p, args.p, ("theorem1",)))
    ctx, p, ms = t.ctx, t.ctx.p, t.ms
    t0 = perf_counter()
    row = t.row
    t_row = perf_counter() - t0
    t0 = perf_counter()
    table = t.sm  # built before anything is printed
    t_table = perf_counter() - t0
    rate = p * (p - 1) / 2 / t_row / 1e6 if t_row > 0 else float("inf")
    print(f"bell_row({p}): {t_row:.3f}s ({rate:.1f}M term-ops/s)")
    print(f"all-units route over {p - 1} units: {t_table:.3f}s")
    sample = ms[:: -(-len(ms) // BENCH_SAMPLE)]
    t0 = perf_counter()
    direct = [cg.s_m(ctx, m, row) for m in sample]
    t_direct = perf_counter() - t0
    print(f"direct s_m loop over {len(sample)} sampled weights: {t_direct:.3f}s")
    for m, dv in zip(sample, direct):
        if table[m % p] != dv:
            print(
                f"ROUTE MISMATCH at m = {m}: all-units {table[m % p]}, direct s_m {dv}",
                file=sys.stderr,
            )
            return 1
    drow, sigma = t.drow, t.sigma  # built before the sweep timer starts
    t0 = perf_counter()
    bad = sum(len(b) - np.count_nonzero(b.passed) for b in cg.verify_theorem1(ctx, ms, table, drow, sigma))
    t_sweep = perf_counter() - t0
    print(f"weighted-sum sweep over {len(ms)} weights: {t_sweep:.3f}s")
    if bad:
        print(f"MISMATCHES: {bad}", file=sys.stderr)
        return 1
    print("all weighted sums match their closed forms")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellmod",
        description="Sequence values and congruence sweeps modulo primes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="print sequence values")
    p_seq.add_argument("family", choices=SEQ_FAMILIES)
    p_seq.add_argument("index", help="N or LO..HI")
    p_seq.add_argument("--k", type=int, default=None, help="block count for stirling")
    p_seq.add_argument("--mod", type=int, default=None, help="reduce modulo this prime")
    p_seq.set_defaults(func=cmd_seq)

    p_ver = sub.add_parser("verify", help="sweep identities over a prime range")
    p_ver.add_argument(
        "--primes",
        required=True,
        type=lambda s: _parse_range(s, "--primes"),
        help="prime range LO..HI (inclusive)",
    )
    p_ver.add_argument(
        "--identities",
        default="all",
        help="comma-separated subset of " + ",".join(IDENTITIES) + ", or all",
    )
    p_ver.add_argument("--m-max", type=int, default=None, help="weights run 1..M-MAX (default 2p)")
    p_ver.add_argument("--m", type=int, default=None, help="check a single weight m")
    p_ver.add_argument("--n-max", type=int, default=None, help="indices run 0..N-MAX (default p)")
    p_ver.add_argument("--x", default="all", help="evaluation point, or 'all'")
    p_ver.add_argument("--workers", type=int, default=1)
    p_ver.add_argument("--format", choices=("text", "jsonl", "csv"), default="text")
    p_ver.add_argument("--out", default=None, help="write the report stream here")
    p_ver.add_argument("--seed", type=int, default=0, help="seed for sampled points")
    p_ver.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time the hot kernels at one prime")
    p_bench.add_argument("p", type=int)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        NotPrimeError,
        IndexTooLargeError,
        OverflowError,
        cg.BadModulusError,
        cg.BadPointError,
        OSError,
        MemoryError,
    ) as exc:
        print(str(exc) or "out of memory", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
