"""Command line front end.

Three subcommands: ``seq`` prints sequence values (exact, or reduced mod a
prime), ``verify`` sweeps congruence identities over a range of primes and
emits one report per checked instance, and ``bench`` times the hot kernels
at a single prime.

Reports are buffered, sorted into a canonical order and only then
serialized, so the output stream is byte-identical no matter how many
worker processes produced it.  Summaries go to stderr; report streams go
to stdout or --out.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter

from . import congruences as cg
from . import oracle
from .congruences import Identity, VerificationReport, report_sort_key
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

# identity selector tokens accepted by --identities
IDENTITY_GROUPS: dict[str, tuple[Identity, ...]] = {
    "touchard": (Identity.TOUCHARD_EQ1,),
    "theorem1": (Identity.THEOREM1,),
    "intro": (Identity.INTRO_CONSTANT,),
    "corollary": (Identity.COROLLARY,),
    "eq4": (Identity.EQ4_BASE, Identity.EQ4_STEP),
    "bellp": (Identity.BELL_P,),
    "theorem2": (Identity.THEOREM2_POLY,),
    "eq10": (Identity.THEOREM2_EVAL,),
    "special": (Identity.SPECIAL_CASE_M,),
    "intermediate": (Identity.PROOF_INTERMEDIATE,),
    "factorial": (Identity.FACTORIAL_LEMMA,),
    "geometric": (Identity.GEOMETRIC_SUM,),
}

# past this prime, "--x all" switches to a seeded sample of this many points
X_ALL_LIMIT = 101
X_SAMPLE_SIZE = 32
# at most this many weights are recomputed by the direct s_m loop in bench
BENCH_SAMPLE = 32

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
    x_mode: str = "all"  # "all" or a decimal literal
    workers: int = 1
    output_format: str = "text"
    output_path: str | None = None
    seed: int = 0


@dataclass(frozen=True)
class SweepSummary:
    primes_checked: int
    reports_total: int
    reports_failed: int
    first_failure: VerificationReport | None
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
    if cfg.x_mode != "all":
        x = int(cfg.x_mode) % p
        return [x] if x else []
    if p <= X_ALL_LIMIT:
        return list(range(1, p))
    rng = random.Random(f"{cfg.seed}:{p}")
    return sorted(rng.sample(range(1, p), X_SAMPLE_SIZE))


def _sweep_prime(job: tuple[int, SweepConfig]) -> list[VerificationReport]:
    """All reports for one prime; the unit of parallelism."""
    p, cfg = job
    ctx = make_context(p)
    wanted = set(cfg.identities)
    reports: list[VerificationReport] = []

    needs_row = wanted & {"touchard", "theorem1", "intro", "corollary", "eq4", "bellp"}
    row = bell_row(ctx) if needs_row else None
    needs_sums = wanted & {"theorem2", "intermediate"}
    needs_values = wanted & {"eq10", "special"}
    matrix = touchard_coeff_matrix(ctx) if (needs_sums or needs_values) else None
    values = touchard_value_table(ctx, matrix) if needs_values else None

    ms = _m_grid(cfg, p)
    xs = _x_grid(cfg, p) if needs_values else []
    sums = cg.weighted_touchard_sums(ctx, ms, matrix) if needs_sums else None

    if "touchard" in wanted:
        n_max = cfg.n_max if cfg.n_max is not None else p
        n_max = min(n_max, p * p - p - 1)
        reports.extend(cg.verify_touchard(ctx, n_max, row))
    if "theorem1" in wanted and ms:
        drow = derangement_row(ctx)
        sigma = signed_series_row(ctx)
        lhs = cg.s_m_many(ctx, ms, row)
        for m, lv in zip(ms, lhs):
            rv = cg.theorem1_rhs(ctx, m, drow, sigma).value
            reports.append(
                cg.make_report(Identity.THEOREM1, ctx, {"m": m}, lv, rv)
            )
    if "intro" in wanted:
        m = cfg.m_single if cfg.m_single is not None else 8
        if m % p:
            reports.append(cg.verify_intro_constant(ctx, m, row))
    if "corollary" in wanted:
        reports.extend(cg.verify_corollary(ctx, row))
    if "eq4" in wanted and p >= 3:
        reports.extend(cg.verify_eq4(ctx, row))
    if "bellp" in wanted:
        reports.append(cg.verify_bell_p(ctx, row))
    if "theorem2" in wanted:
        reports.extend(cg.verify_theorem2_many(ctx, ms, sums))
    if "eq10" in wanted:
        reports.extend(cg.verify_theorem2_eval_many(ctx, ms, xs, values))
    if "special" in wanted:
        reports.extend(cg.verify_special_cases_many(ctx, xs, values))
    if "intermediate" in wanted:
        reports.extend(cg.verify_proof_intermediate_many(ctx, ms, sums))
    if "factorial" in wanted:
        for m in ms:
            reports.extend(cg.verify_factorial_lemma(ctx, m))
    if "geometric" in wanted:
        for m in ms:
            reports.extend(cg.geometric_sum_lemma_check(ctx, m))
    return reports


def _pool_size(workers: int, n_jobs: int) -> int:
    """Worker processes worth starting: no more than the jobs or the CPUs."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return max(1, min(workers, n_jobs, os.cpu_count() or 1))


def run_sweep(cfg: SweepConfig) -> tuple[SweepSummary, list[VerificationReport]]:
    """Run every selected verifier over every prime in the range.

    Workers each own whole primes; the buffered reports are sorted into
    canonical order before serialization, so the stream does not depend on
    the worker count.
    """
    t0 = perf_counter()
    primes = primes_in_range(cfg.prime_lo, cfg.prime_hi)
    jobs = [(p, cfg) for p in primes]
    size = _pool_size(cfg.workers, len(jobs))
    if size > 1:
        with ProcessPoolExecutor(max_workers=size) as pool:
            chunks = list(pool.map(_sweep_prime, jobs))
    else:
        chunks = [_sweep_prime(job) for job in jobs]
    reports = [r for chunk in chunks for r in chunk]
    reports.sort(key=report_sort_key)
    failed = [r for r in reports if not r.passed]
    wall = perf_counter() - t0
    summary = SweepSummary(
        primes_checked=len(primes),
        reports_total=len(reports),
        reports_failed=len(failed),
        first_failure=failed[0] if failed else None,
        wall_time=wall,
    )
    return summary, reports


def _side_str(side: int | tuple[int, ...]) -> str | list[str]:
    if isinstance(side, tuple):
        return [str(v) for v in side]
    return str(side)


def _side_flat(side: int | tuple[int, ...]) -> str:
    if isinstance(side, tuple):
        return "[" + ";".join(str(v) for v in side) + "]"
    return str(side)


# the common triage columns come first; rarer params are appended at the
# end so column positions stay stable for consumers of the short schema
_CSV_HEAD_PARAMS = ("m", "n", "x")
_CSV_TAIL_PARAMS = tuple(k for k in cg.PARAM_ORDER if k not in _CSV_HEAD_PARAMS)


def render_reports(reports: list[VerificationReport], fmt: str) -> str:
    if fmt == "jsonl":
        lines = []
        for r in reports:
            obj = {
                "identity": r.identity.value,
                "p": r.p,
                "params": {k: r.params[k] for k in cg.PARAM_ORDER if k in r.params},
                "lhs": _side_str(r.lhs),
                "rhs": _side_str(r.rhs),
                "pass": r.passed,
            }
            lines.append(json.dumps(obj))
        return "".join(line + "\n" for line in lines)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["identity", "p", *_CSV_HEAD_PARAMS, "pass", "lhs", "rhs", *_CSV_TAIL_PARAMS]
        )
        for r in reports:
            writer.writerow(
                [r.identity.value, r.p]
                + [r.params.get(k, "") for k in _CSV_HEAD_PARAMS]
                + ["true" if r.passed else "false", _side_flat(r.lhs), _side_flat(r.rhs)]
                + [r.params.get(k, "") for k in _CSV_TAIL_PARAMS]
            )
        return buf.getvalue()
    lines = []
    for r in reports:
        params = " ".join(
            f"{k}={r.params[k]}" for k in cg.PARAM_ORDER if k in r.params
        )
        mid = f" {params}" if params else ""
        lines.append(
            f"{r.identity.value} p={r.p}{mid} "
            f"lhs={_side_flat(r.lhs)} rhs={_side_flat(r.rhs)} "
            f"{'PASS' if r.passed else 'FAIL'}"
        )
    return "".join(line + "\n" for line in lines)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_seq(args: argparse.Namespace) -> int:
    try:
        lo, hi = _parse_range(args.index, "index")
    except argparse.ArgumentTypeError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if lo < 0:
        print("indices must be nonnegative", file=sys.stderr)
        return 2
    family = args.family
    ctx = make_context(args.mod) if args.mod is not None else None
    try:
        if family == "stirling":
            if args.k is None:
                print("seq stirling requires --k", file=sys.stderr)
                return 2
            if ctx is None:
                vals = [oracle.stirling2_exact(n, args.k) for n in range(lo, hi + 1)]
            else:
                vals = [
                    stirling2_mod(n, args.k, ctx).value for n in range(lo, hi + 1)
                ]
            print(" ".join(str(v) for v in vals))
            return 0
        if family == "touchard":
            for n in range(lo, hi + 1):
                if ctx is None:
                    coeffs = [oracle.stirling2_exact(n, k) for k in range(n + 1)]
                else:
                    coeffs = list(touchard_poly(n, ctx).coeffs)
                print("[" + ",".join(str(c) for c in coeffs) + "]")
            return 0
        if family == "bell":
            if ctx is None:
                vals = [oracle.bell_exact(n) for n in range(lo, hi + 1)]
            else:
                row = bell_row(ctx)
                vals = [bell_mod(n, ctx, row).value for n in range(lo, hi + 1)]
        else:
            if ctx is None:
                vals = [oracle.derangement_exact(n) for n in range(lo, hi + 1)]
            else:
                sigma = signed_series_row(ctx)
                vals = [derangement_mod(n, ctx, sigma).value for n in range(lo, hi + 1)]
        print(" ".join(str(v) for v in vals))
        return 0
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def cmd_verify(args: argparse.Namespace) -> int:
    lo, hi = args.primes
    tokens = args.identities.split(",") if args.identities != "all" else list(IDENTITY_GROUPS)
    for tok in tokens:
        if tok not in IDENTITY_GROUPS:
            print(
                f"unknown identity {tok!r}; pick from "
                + ",".join(IDENTITY_GROUPS) + " or all",
                file=sys.stderr,
            )
            return 2
    if args.x != "all":
        try:
            int(args.x)
        except ValueError:
            print(f"--x must be an integer or 'all', got {args.x!r}", file=sys.stderr)
            return 2
    if args.m is not None and args.m < 1:
        print(f"--m must be a positive weight, got {args.m}", file=sys.stderr)
        return 2
    if args.workers < 1:
        print(f"--workers must be at least 1, got {args.workers}", file=sys.stderr)
        return 2
    cfg = SweepConfig(
        prime_lo=lo,
        prime_hi=hi,
        identities=tuple(tokens),
        m_max=args.m_max,
        m_single=args.m,
        n_max=args.n_max,
        x_mode=args.x,
        workers=args.workers,
        output_format=args.format,
        output_path=args.out,
        seed=args.seed,
    )
    summary, reports = run_sweep(cfg)
    _emit(render_reports(reports, cfg.output_format), cfg.output_path)
    print(
        f"checked {summary.reports_total} reports across "
        f"{summary.primes_checked} primes in {summary.wall_time:.2f}s; "
        f"failures: {summary.reports_failed}",
        file=sys.stderr,
    )
    if summary.reports_failed:
        first = render_reports([summary.first_failure], "text").strip()
        print(f"first failure: {first}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        ctx = make_context(args.p)
    except (NotPrimeError, OverflowError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    p = ctx.p
    t0 = perf_counter()
    row = bell_row(ctx)
    t_row = perf_counter() - t0
    rate = p * (p - 1) / 2 / t_row / 1e6 if t_row > 0 else float("inf")
    print(f"bell_row({p}): {t_row:.3f}s ({rate:.1f}M term-ops/s)")
    ms = [m for m in range(1, 2 * p + 1) if m % p]
    t0 = perf_counter()
    table = cg.s_m_all_units(ctx, row)
    t_table = perf_counter() - t0
    print(f"all-units route over {p - 1} units: {t_table:.3f}s")
    sample = ms[:: -(-len(ms) // BENCH_SAMPLE)]
    t0 = perf_counter()
    direct = [cg.s_m(ctx, m, row).value for m in sample]
    t_direct = perf_counter() - t0
    print(f"direct s_m loop over {len(sample)} sampled weights: {t_direct:.3f}s")
    for m, dv in zip(sample, direct):
        if table[m % p] != dv:
            print(
                f"ROUTE MISMATCH at m = {m}: all-units {table[m % p]}, direct s_m {dv}",
                file=sys.stderr,
            )
            return 1
    t0 = perf_counter()
    lhs = cg.s_m_many(ctx, ms, row)
    drow = derangement_row(ctx)
    sigma = signed_series_row(ctx)
    bad = 0
    for m, lv in zip(ms, lhs):
        if lv != cg.theorem1_rhs(ctx, m, drow, sigma).value:
            bad += 1
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
        help="comma-separated subset of " + ",".join(IDENTITY_GROUPS) + ", or all",
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
    ) as exc:
        print(str(exc), file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
