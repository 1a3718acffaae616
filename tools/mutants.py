"""Mutation check of the tier-1 tests.

    python3 tools/mutants.py

Each mutant below swaps one exact piece of text in one file for another.
For each one, the script copies the repository to a temporary directory,
applies the mutant there, runs the tier-1 tests in the copy and reports the
first test that failed (the mutant is killed) or that every test passed
(it survived).  The repository itself is never modified.  An unmutated copy is tested first, since a suite that already
fails kills every mutant.

Exits 0 when every mutant is killed, 1 when one survives or its text no
longer occurs exactly once in its file, and 2 when the unmutated copy
fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [
    sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
    "--continue-on-collection-errors",
]
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")

CLI = "src/bellmod/cli.py"
CONGRUENCES = "src/bellmod/congruences.py"
MODARITH = "src/bellmod/modarith.py"
SEQUENCES = "src/bellmod/sequences.py"

# name -> (file, exact old text, new text, what the mutant breaks)
MUTANTS = {
    "sort_key_dropped": (
        CLI,
        "sorted(blocks, key=lambda b: cg._IDENTITY_RANK[b.identity])",
        "list(blocks)",
        "run_sweep keeps the prime-major block order",
    ),
    "corollary_order_swapped": (
        CONGRUENCES,
        """        blocks.append(_block(Identity.COROLLARY, ctx, {"n": ks[one]}, bell[one], closed[one]))
        blocks.append(_block(Identity.COROLLARY, ctx, grid, lhs[i], rhs[i]))""",
        """        blocks.append(_block(Identity.COROLLARY, ctx, grid, lhs[i], rhs[i]))
        blocks.append(_block(Identity.COROLLARY, ctx, {"n": ks[one]}, bell[one], closed[one]))""",
        "each {n, k} corollary block comes before its {n} block",
    ),
    "template_params_swapped": (
        CLI,
        """ps = "".join(f" {k}=%d" for k in keys)""",
        """ps = "".join(f" {k}=%d" for k in keys[::-1])""",
        "the text template names the params in reverse order",
    ),
    "mask_from_lhs_alone": (
        CONGRUENCES,
        "passed = (lhs == rhs).all(",
        "passed = (lhs == lhs).all(",
        "every report passes",
    ),
    "block_shape_check_dropped": (
        CONGRUENCES,
        "    if lhs.shape != rhs.shape:\n",
        "    if False:\n",
        "sides of two shapes broadcast into a pass mask",
    ),
    "row_mask_any": (
        CONGRUENCES,
        "(lhs == rhs).all(axis=tuple(range(1, lhs.ndim)))",
        "(lhs == rhs).any(axis=tuple(range(1, lhs.ndim)))",
        "a polynomial report passes when one coefficient agrees",
    ),
    "first_failure_from_last_identity": (
        CLI,
        "if bad and (first is None or rank < first[0]):",
        "if bad and (first is None or rank > first[0]):",
        "the first failure comes from the last failing identity",
    ),
    "empty_tuple_dropped": (
        CLI,
        """    return "[" + ";".join(map(str, side)) + "]"
""",
        """    return "[" + ";".join(map(str, side)) + "]" if side else ""
""",
        "the text and csv polynomial side of the zero polynomial is empty",
    ),
    # the stream spooled per identity and copied out in rank order
    "csv_header_per_spool": (
        CLI,
        """            fh.write(_CSV_HEADER if args.format == "csv" else "")
            for identity in sorted(spools, key=cg._IDENTITY_RANK.get):
""",
        """            for identity in sorted(spools, key=cg._IDENTITY_RANK.get):
                fh.write(_CSV_HEADER if args.format == "csv" else "")
""",
        "every identity's spool starts with the csv header",
    ),
    "spool_read_whole": (
        CLI,
        "while piece := spools[identity].read(SPOOL_PIECE):",
        "while piece := spools[identity].read():",
        "the writer copies each spool as one string",
    ),
    "spools_in_arrival_order": (
        CLI,
        "for identity in sorted(spools, key=cg._IDENTITY_RANK.get):",
        "for identity in list(spools):",
        "the spools are copied out in the order their first block arrived",
    ),
    "spools_keyed_by_token": (
        CLI,
        "spools[b.identity].write(",
        "spools[cg.Identity.EQ4_BASE if b.identity is cg.Identity.EQ4_STEP else b.identity].write(",
        "one spool per token, so EQ4_BASE and EQ4_STEP interleave prime by prime",
    ),
    "spool_rows_overlap": (
        CLI,
        "render_reports([b[i : i + rows]]",
        "render_reports([b[i : i + rows + 1]]",
        "each slice of a large block repeats the first row of the next",
    ),
    "budget_ignores_width": (
        CLI,
        "width = max(1, 2 * b.lhs.shape[1]) if b.lhs.ndim == 2 else 1",
        "width = 1",
        "a render call takes SPOOL_CELLS rows, however wide they are",
    ),
    "shared_side_for_failing_rows": (
        CLI,
        "(b.lhs != b.rhs).any(axis=1))",
        "(b.lhs != b.rhs).all(axis=1))",
        "a failing polynomial row whose sides share one coefficient shows its lhs as rhs",
    ),
    "shared_side_from_passed": (
        CLI,
        "np.flatnonzero((b.lhs != b.rhs).any(axis=1))",
        "np.flatnonzero(~b.passed)",
        "a row the pass mask calls passing shows its lhs as rhs, whatever its sides",
    ),
    "block_slice_keeps_params": (
        CONGRUENCES,
        "params = {k: col[i] for k, col in self.params.items()}",
        "params = self.params",
        "a slice of a block keeps every row of its param columns",
    ),
    "block_kept_past_its_turn": (
        CLI,
        """        b = None  # no block outlives its turn
""",
        "",
        "the last block taken stays alive while the next is built",
    ),
    "sweep_keeps_prime_blocks": (
        CLI,
        "    for b in _prime_blocks(cfg, primes):",
        "    for b in chain.from_iterable(list(_prime_blocks(cfg, [q])) for q in primes):",
        "_sweep holds each prime's blocks in a list while it takes them",
    ),
    "look_ahead_never_popped": (
        CLI,
        """            if len(ahead) > size:
                yield from ahead.popleft().result()
""",
        "",
        "the pool submits every prime before the first one is taken",
    ),
    "slice_sums_misaligned": (
        CLI,
        "cg.verify_theorem2(t.ctx, ms, t.sums[rows])",
        "cg.verify_theorem2(t.ctx, ms, t.sums[: len(ms)])",
        "every theorem2 slice gets the weighted sums of the first weights",
    ),
    "intermediate_sums_misaligned": (
        CLI,
        "cg.verify_proof_intermediate(t.ctx, ms, t.sums[rows])",
        "cg.verify_proof_intermediate(t.ctx, ms, t.sums[-len(ms) :])",
        "every intermediate slice gets the weighted sums of the last weights",
    ),
    "n_max_cap_unchecked": (
        CLI,
        "if cfg.n_max > cap:",
        "if False:",
        "an --n-max past the touchard cap reaches the verifier",
    ),
    "m_max_bound_dropped": (
        CLI,
        """("--m-max", args.m_max, 1)""",
        """("--m-max", args.m_max, -(2**63))""",
        "--m-max below 1 silently empties the weight grid",
    ),
    # the closed forms and polynomial sides as int64 rows
    "falling_product_factor_shifted": (
        CONGRUENCES,
        "c[live] = c[live] * (l % p) % p",
        "c[live] = c[live] * ((l + 1) % p) % p",
        "theorem2's and the factorial lemma's (m-1)!/l! takes each factor one too high",
    ),
    "theorem2_lhs_shifted": (
        CONGRUENCES,
        "w + np.arange(p)",
        "w - 1 + np.arange(p)",
        "the left side is multiplied by x^(m-1) in place of x^m",
    ),
    "strip_keeps_a_zero": (
        CONGRUENCES,
        "tuple(row[:n].tolist())",
        "tuple(row[: n + 1].tolist())",
        "the coefficient tuples keep one trailing zero",
    ),
    "theorem1_rhs_branch_moved": (
        CONGRUENCES,
        "np.where(n0 < p,",
        "np.where(n0 <= p,",
        "m - 1 = p reads the derangement row in place of the series",
    ),
    "intermediate_parity_flipped": (
        CONGRUENCES,
        "(r + 1 + k) % 2 == 0",
        "(r + k) % 2 == 0",
        "the closed form of the weighted sum has the opposite sign",
    ),
    "triangle_factor_shifted": (
        SEQUENCES,
        "(k * m[n - 1, 1:]",
        "((k + 1) * m[n - 1, 1:]",
        "the Stirling triangle multiplies by k + 1 in place of k",
    ),
    # the chirp-z table of the weighted Bell sums and its exact convolution
    "crt_digit": (
        MODARITH,
        "r[j] = (r[j] - x) % qs[j]",
        "r[j] = (r[j] + x) % qs[j]",
        "Garner adds each digit to the later residues in place of subtracting it",
    ),
    "dlog_offset": (
        CONGRUENCES,
        "evals[(n // 2 - dlog[1:]) % n]",
        "evals[(n // 2 - dlog[1:] + 1) % n]",
        "weight m reads the table one discrete log off",
    ),
    "conv_bound_check": (
        MODARITH,
        "if bound >= CONV_EXACT_LIMIT:",
        "if bound > CONV_EXACT_LIMIT:",
        "a convolution exactly at the bound runs, not raises",
    ),
    "fallback_weight": (
        CONGRUENCES,
        "return [s_m(ctx, m, row).value for m in ms]",
        "return [s_m(ctx, 1, row).value for m in ms]",
        "the fallback past the bound computes weight 1 only",
    ),
    "twiddles": (
        MODARITH,
        "diff = (u - v + qb) * w[:, None, :: n // (2 * h)] % qb",
        "diff = (u - v + qb) * w[:, None, :h] % qb",
        "the forward transform takes the wrong roots",
    ),
    "context_guard": (
        MODARITH,
        "        if p >= MAX_PRIME:",
        "        if p > MAX_PRIME:",
        "a context at 2**31 is refused as not prime, not as too large",
    ),
    "bench_compares_itself": (
        CLI,
        "if table[m % p] != dv:",
        "if table[m % p] != table[m % p]:",
        "bench compares the all-units table with itself",
    ),
    "workers_check": (
        CLI,
        "if workers < 1:",
        "if workers < 0:",
        "a pool of zero workers is accepted",
    ),
    "overflow_not_caught": (
        CLI,
        """        OverflowError,
        cg.BadModulusError,""",
        """        cg.BadModulusError,""",
        "an OverflowError reaches the user as a traceback",
    ),
    # the weighted-power kernel, its Horner pass and the int64 products
    "u_power_offset": (
        CONGRUENCES,
        "_mod_matmul(upow[:, 1:], table[1:], p)",
        "_mod_matmul(upow[:, :-1], table[1:], p)",
        "the kernel weights T_n by u^(n-1)",
    ),
    "special_numerator_order": (
        CONGRUENCES,
        "powers_mod(xs, 4, p).T, p)",
        "powers_mod(xs, 4, p).T[::-1], p)",
        "special reads its numerators highest coefficient first",
    ),
    "inverse_power_exponent": (
        CONGRUENCES,
        "[:, [-e % (p - 1) for e in exps]].T",
        "[:, [(-e - 1) % (p - 1) for e in exps]].T",
        "the evaluated forms divide by one power too many",
    ),
    "block_offset": (
        CONGRUENCES,
        "powers_mod(r[lo : lo + WEIGHT_BLOCK], p, p)",
        "powers_mod(r[lo + 1 : lo + 1 + WEIGHT_BLOCK], p, p)",
        "each kernel block starts one weight late",
    ),
    "reversed_powers_off_by_one": (
        CONGRUENCES,
        "powers_mod(r[lo : lo + WEIGHT_BLOCK], p, p)[:, ::-1]",
        "powers_mod(r[lo : lo + WEIGHT_BLOCK], p + 1, p)[:, :0:-1]",
        "the powers of r read backwards start one place late, giving u^(n-1) at n",
    ),
    "point_check": (
        CONGRUENCES,
        "if x % p == 0:",
        "if x == 0:",
        "a nonzero multiple of p passes as a point",
    ),
    "sign_of_minus_x": (
        CONGRUENCES,
        "_inv_pow(ctx, y, ms)",
        "_inv_pow(ctx, p - y, ms)",
        "eq10 divides by x^m in place of (-x)^m",
    ),
    "chunk_not_reduced": (
        SEQUENCES,
        "acc = (acc + a[..., i : i + chunk] @ b[i : i + chunk]) % p",
        "acc = acc + a[..., i : i + chunk] @ b[i : i + chunk]",
        "the chunked product never reduces its running sum",
    ),
    "chunk_size_4x": (
        SEQUENCES,
        "chunk = max(1, _DOT_LIMIT // (p * p))",
        "chunk = max(1, 4 * _DOT_LIMIT // (p * p))",
        "a chunk sums four times too many products",
    ),
    "chunk_threshold_4x": (
        SEQUENCES,
        "if inner <= chunk:",
        "if inner <= 4 * chunk:",
        "an unchunked product sums four times too many products",
    ),
    "poly_hash": (
        MODARITH,
        "return hash((self.coeffs, self.ctx.p))",
        "return hash((self.coeffs, self.ctx.p, id(self)))",
        "equal polynomials hash apart",
    ),
    "x_sample_seed": (
        CLI,
        """random.Random(f"{cfg.seed}:{p}")""",
        """random.Random(f"{cfg.seed}")""",
        "every prime samples its points from one seed",
    ),
    "x_grid_limit": (
        CLI,
        "if p <= X_ALL_LIMIT:",
        "if p < X_ALL_LIMIT:",
        "p = 101 samples its points in place of checking all",
    ),
    # the Bell row as one dot per step, and only as many NTT primes as needed
    "bell_reversed_offset": (
        SEQUENCES,
        "rev[p - 1 - n :]",
        "rev[p - 2 - n : p - 1]",
        "each Bell step reads the inverse factorials one place off",
    ),
    "bell_scaled_by_n_factorial": (
        SEQUENCES,
        "ctx.fact[:-1] * ctx.inv_fact[1:]",
        "ctx.fact[:-1] * ctx.inv_fact[:-1]",
        "b_{n+1} is B_{n+1} / n! in place of B_{n+1} / (n+1)!",
    ),
    "bell_fact_scaling_dropped": (
        SEQUENCES,
        "values = b * ctx.fact % p",
        "values = b % p",
        "the row returns B_k / k! in place of B_k",
    ),
    "prime_count_bound_2x": (
        MODARITH,
        "bisect.bisect_right(_NTT_PRODUCTS, bound)",
        "bisect.bisect_right(_NTT_PRODUCTS, bound // 2)",
        "the convolution takes its primes for half the coefficient bound",
    ),
    "garner_skips_last_prime": (
        MODARITH,
        "for i, qi in enumerate(qs):",
        "for i, qi in enumerate(qs[:-1]):",
        "the CRT drops the last chosen prime's digit",
    ),
    "unit_check_dropped": (
        CONGRUENCES,
        "bad = (w < 1) | (r == 0)",
        "bad = w < 1",
        "every batch of weights accepts a multiple of p",
    ),
    "theorem1_fold_reads_m": (
        CONGRUENCES,
        "sigma[n0 % p]",
        "sigma[(n0 + 1) % p]",
        "theorem1_rhs reads the series at m mod p in place of (m - 1) mod p",
    ),
    "eq10_recurrence_starts_high": (
        CONGRUENCES,
        "rm[0], ypow = 1 % p, y",
        "rm[0], ypow = 1 % p, y * y % p",
        "eq10's recurrence adds y^(m+1) in place of y^m",
    ),
    "eq10_recurrence_factor": (
        CONGRUENCES,
        "rm[m] = (m % p * rm[m - 1] + ypow) % p",
        "rm[m] = ((m + 1) % p * rm[m - 1] + ypow) % p",
        "eq10's recurrence multiplies R_m by m + 1 in place of m",
    ),
    "eq10_power_one_short": (
        CONGRUENCES,
        "-pow(x, p, p) % p",
        "-pow(x, p - 1, p) % p",
        "eq10 multiplies by -x^(p-1) in place of -x^p",
    ),
    "theorem2_rhs_prefix_nonzero": (
        CONGRUENCES,
        "np.pad(f, ((0, 0), (p, 0)))",
        "np.pad(f, ((0, 0), (p, 0)), constant_values=1)",
        "the closed form's zero prefix is all ones",
    ),
    # report order, params and the failure note
    "geometric_j_order": (
        CONGRUENCES,
        "np.tile(np.arange(1, p), len(ms))",
        "np.tile(np.arange(p - 1, 0, -1), len(ms))",
        "the geometric reports run j downward",
    ),
    "factorial_l_order": (
        CONGRUENCES,
        "np.repeat(r, w), cols[live], f[live]",
        "np.repeat(r, w), (w[:, None] - 1 - cols)[live], f[live]",
        "the factorial lemma's l params run downward",
    ),
    "params_in_insertion_order": (
        CLI,
        "keys = [k for k in cg.PARAM_ORDER if k in b.params]",
        "keys = list(b.params)",
        "a block renders its params in insertion order",
    ),
    "geometric_indicator": (
        CONGRUENCES,
        "(np.repeat(fold, p - 1) + j) % p",
        "(np.repeat(fold, p - 1) - j) % p",
        "the geometric indicator tests m - j",
    ),
    "geometric_raw_weight": (
        CONGRUENCES,
        "(np.repeat(fold, p - 1) + j) % p",
        "(np.repeat(ms, p - 1) + j) % p",
        "the geometric indicator adds j to the raw weight, which overflows int64 near 2**63",
    ),
    "geometric_table_offset": (
        CONGRUENCES,
        "powers_mod(np.arange(1, p, dtype=np.int64), p, p).T",
        "powers_mod(np.arange(2, p + 1, dtype=np.int64), p, p).T",
        "the geometric kernel table starts at j = 2",
    ),
    "first_coefficient_from_equal": (
        CLI,
        "np.argmax(b.lhs[0] != b.rhs[0])",
        "np.argmax(b.lhs[0] == b.rhs[0])",
        "the failure note names the first coefficient where the sides agree",
    ),
    "corollary_kernel_offset": (
        CONGRUENCES,
        "kernel[(ks[:, None] - ks) % (p - 1)]",
        "kernel[(ks[:, None] - ks + 1) % (p - 1)]",
        "the corollary kernel reads K[n - k + 1]",
    ),
    # the Bell triangle behind touchard, and huge weights as usage errors
    "triangle_row_early": (
        CONGRUENCES,
        "_bell_triangle(ctx, p + n_max + 1)[p:]",
        "_bell_triangle(ctx, p + n_max)[p - 1 :]",
        "touchard reads B_{p+n-1} from the triangle in place of B_{p+n}",
    ),
    "triangle_bound_2x": (
        SEQUENCES,
        "if count * (p - 1) >= 2**63:",
        "if count * (p - 1) >= 2**64:",
        "the triangle accepts prefix sums up to 2**64",
    ),
    "huge_weight_traceback": (
        CONGRUENCES,
        "    except ValueError:\n        raise MemoryError",
        "    except TypeError:\n        raise MemoryError",
        "a weight past numpy's index range reaches the user as a ValueError traceback",
    ),
    # one int64 copy of each factorial table, and the first failure as a block
    "binomial_int_dropped": (
        MODARITH,
        "v = int(ctx.fact[n]) * int(ctx.inv_fact[k]) % ctx.p * int(ctx.inv_fact[n - k]) % ctx.p",
        "v = ctx.fact[n] * ctx.inv_fact[k] % ctx.p * ctx.inv_fact[n - k] % ctx.p",
        "binomial_mod returns a Residue holding a numpy int64",
    ),
    "first_failure_sliced": (
        CLI,
        "first = rank, b[[int(np.argmin(b.passed))]]",
        "i = int(np.argmin(b.passed))\n            first = rank, b[i : i + 1]",
        "the first failure is a view that keeps its whole block alive",
    ),
    "renderer_skips_differing_rhs": (
        CLI,
        "            rhs[i] = show(y)\n",
        "            pass\n",
        "a row whose sides differ shows its lhs as rhs",
    ),
    "corollary_builds_own_drow": (
        CLI,
        "cg.verify_corollary(t.ctx, t.row, t.drow)",
        "cg.verify_corollary(t.ctx, t.row, derangement_row(t.ctx))",
        "corollary builds a second derangement row at each prime",
    ),
    # the identity registry and the tables of one prime
    "walk_cfg_identities": (
        CLI,
        """    for token, verify in IDENTITIES.items():
        if token in cfg.identities:
            yield from verify(tables)
""",
        """    for token in cfg.identities:
        yield from IDENTITIES[token](tables)
""",
        "the sweep runs the tokens in command-line order, repeats included",
    ),
    "eq10_reads_matrix": (
        CLI,
        "cg.verify_theorem2_eval(t.ctx, t.ms, t.xs, t.values)",
        "cg.verify_theorem2_eval(t.ctx, t.ms, t.xs, t.matrix)",
        "eq10 weights the coefficient matrix in place of the value table",
    ),
    "matrix_every_prime": (
        CLI,
        """    tables = PrimeTables(p, cfg)
""",
        """    tables = PrimeTables(p, cfg)
    tables.matrix
""",
        "every prime builds the Touchard matrix, needed or not",
    ),
    # the tables and grid defaults that only cli decides
    "values_builds_own_matrix": (
        CLI,
        "touchard_value_table(self.ctx, self.matrix)",
        "touchard_value_table(self.ctx, touchard_coeff_matrix(self.ctx))",
        "the value table builds a second Touchard matrix at each prime",
    ),
    "intro_weight_7": (
        CLI,
        "m = t.cfg.m_single if t.cfg.m_single is not None else 8",
        "m = t.cfg.m_single if t.cfg.m_single is not None else 7",
        "intro checks weight 7 when no --m is given",
    ),
    "touchard_n_max_p": (
        CLI,
        "else min(p, p * p - p - 1)",
        "else p",
        "touchard's default n_max is p, past the triangle's cap at p = 2",
    ),
    "bench_tables_swapped": (
        CLI,
        "cg.verify_theorem1(ctx, ms, row, drow, sigma)",
        "cg.verify_theorem1(ctx, ms, row, sigma, drow)",
        "bench passes the signed series as the derangement row",
    ),
}


def run_tier1(root: Path) -> str | None:
    """None when the tier-1 tests pass in root, else the first failing test
    (or the tail of pytest's output when it names none)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return failed[0] if failed else proc.stdout.strip()[-200:]


def check(name: str | None) -> str:
    """'killed by TEST', 'survived' or 'stale' for one mutant; for name
    None, the unmutated copy's 'passed' or 'failed: ...'."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        if name is None:
            failed = run_tier1(copy)
            return "passed" if failed is None else f"failed: {failed}"
        path, old, new, _ = MUTANTS[name]
        text = (copy / path).read_text()
        if text.count(old) != 1:
            return "stale"
        (copy / path).write_text(text.replace(old, new))
        failed = run_tier1(copy)
        return "survived" if failed is None else f"killed by {failed}"


def main() -> int:
    baseline = check(None)
    if baseline != "passed":
        print(f"the unmutated copy {baseline}", file=sys.stderr)
        return 2
    bad = []
    for name in MUTANTS:
        verdict = check(name)
        print(f"{name}: {verdict} ({MUTANTS[name][3]})", flush=True)
        if not verdict.startswith("killed"):
            bad.append(name)
    print(f"survivors: {', '.join(bad) if bad else 'none'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
