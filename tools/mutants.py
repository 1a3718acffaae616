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
        """ps = "".join(f" {k}={_SLOT}" for k in keys)""",
        """ps = "".join(f" {k}={_SLOT}" for k in keys[::-1])""",
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
        """closer if n else "[]" for c, n""",
        """closer if n else "" for c, n""",
        "the polynomial side of the zero polynomial is empty",
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
        "shutil.copyfileobj(spools[identity], fh)",
        "fh.write(spools[identity].read())",
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
        "render_reports(b[i : i + rows]",
        "render_reports(b[i : i + rows + 1]",
        "each slice of a large block repeats the first row of the next",
    ),
    "budget_ignores_width": (
        CLI,
        "width = len(b.params) + (2 * b.lhs.shape[1] if b.lhs.ndim == 2 else 2) + 1",
        "width = 1",
        "a render call takes SPOOL_CELLS rows, however wide they are",
    ),
    "budget_skips_params": (
        CLI,
        "width = len(b.params) + (2 * b.lhs.shape[1] if b.lhs.ndim == 2 else 2) + 1",
        "width = (2 * b.lhs.shape[1] if b.lhs.ndim == 2 else 2) + 1",
        "a render call counts a row's sides and pass word but not its params",
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
        "    for b in (b for q in primes for b in list(_prime_blocks(cfg, [q]))):",
        "run_sweep holds each prime's blocks in a list while it takes them",
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
    # the exact convolution behind the Bluestein stages of the S_m table
    "slot_one_digit_short": (
        MODARITH,
        "d = len(str(min(la, lb) * (p - 1) ** 2))",
        "d = len(str(min(la, lb) * (p - 1) ** 2)) - 1",
        "a coefficient with as many digits as the bound carries into the next slot",
    ),
    "rounding_untrapped": (
        MODARITH,
        "traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],",
        "traps=[],",
        "a product too long for the context is rounded and returned",
    ),
    "packing_not_reversed": (
        MODARITH,
        "    rest = v[::-1]\n",
        "    rest = v\n",
        "each vector is packed first entry first, so its slots hold it reversed",
    ),
    "slots_read_unreduced": (
        MODARITH,
        "out = (10 * out + cells[:, j] - ord(\"0\")) % p",
        "out = 10 * out + cells[:, j] - ord(\"0\")",
        "each slot is read as its whole coefficient, not reduced mod p",
    ),
    "residue_digits_short": (
        MODARITH,
        "for j in range(1, len(str(p - 1)) + 1):",
        "for j in range(1, len(str(p - 1))):",
        "each residue is packed without its leading digit",
    ),
    # the S_m table's mixed-radix DFT over GF(p)
    "dft_matrix_exponent_unreduced": (
        CONGRUENCES,
        "pw[np.outer(k[lo : lo + step], k) % r * step]",
        "pw[np.outer(k[lo : lo + step], k) * step]",
        "the DFT matrix scales jk before reducing it mod r",
    ),
    "twiddle_exponent_off_by_one": (
        CONGRUENCES,
        "pw[np.outer(np.arange(r), np.arange(m)) * (n // size)]",
        "pw[np.outer(np.arange(1, r + 1), np.arange(m)) * (n // size)]",
        "the twiddles are w^((j1 + 1) k2) in place of w^(j1 k2)",
    ),
    "stage_root_wrong_stride": (
        CONGRUENCES,
        "    step = n // r  # the stage root g^step has order r\n",
        "    step = r\n",
        "a stage's DFT takes root g^r in place of g^(n/r)",
    ),
    "dft_block_rows_off_by_one": (
        CONGRUENCES,
        "np.outer(k[lo : lo + step], k)",
        "np.outer(k[lo + 1 : lo + step + 1], k)",
        "each DFT-matrix block holds the rows one below the ones it is written to",
    ),
    "bluestein_stage_never_taken": (
        CONGRUENCES,
        "    if r * r <= _DFT_BLOCK_CAP * n:\n",
        "    if True:\n",
        "every prime stage takes the DFT matrix, however long",
    ),
    "dft_cap_doubled": (
        CONGRUENCES,
        "_DFT_BLOCK_CAP = 32\n",
        "_DFT_BLOCK_CAP = 64\n",
        "stages up to twice the measured cap take the DFT matrix",
    ),
    "dft_cap_halved": (
        CONGRUENCES,
        "_DFT_BLOCK_CAP = 32\n",
        "_DFT_BLOCK_CAP = 16\n",
        "stages above half the measured cap take Bluestein",
    ),
    "sm_scatter_off_by_one": (
        CONGRUENCES,
        "evals[(n // 2 - np.arange(n)) % n]",
        "evals[(n // 2 + 1 - np.arange(n)) % n]",
        "weight g^j reads the table one discrete log off",
    ),
    # the context's two factorial tables, one pass and Wilson's reflection
    "fact_factor_shifted": (
        MODARITH,
        "lambda f, i: f * i % p",
        "lambda f, i: f * (i + 1) % p",
        "the running product multiplies by i + 1 in place of i",
    ),
    "reflection_not_reversed": (
        MODARITH,
        "self.inv_fact = self.fact[::-1].copy()",
        "self.inv_fact = self.fact.copy()",
        "1/i! reads i! in place of (p-1-i)!",
    ),
    "reflection_on_odd_slots": (
        MODARITH,
        "np.subtract(p, self.inv_fact[0::2], out=self.inv_fact[0::2])",
        "np.subtract(p, self.inv_fact[1::2], out=self.inv_fact[1::2])",
        "the reflection negates the odd slots in place of the even ones",
    ),
    "seq_term_reads_other_table": (
        CLI,
        "derangement_mod(n, t.ctx, t.sigma)",
        "derangement_mod(n, t.ctx, t.row)",
        "seq derangement --mod reads the Bell row in place of the signed series",
    ),
    "seq_range_end_unchecked": (
        CLI,
        "            term(hi, args.k)\n",
        "            pass\n",
        "seq prints its first chunk before it finds a refused index",
    ),
    "seq_refusal_of_range_end": (
        CLI,
        "for n in range(lo, hi + 1):",
        "for n in range(hi, hi + 1):",
        "seq names the range's last index where an earlier one is the first refused",
    ),
    "seq_chunks_end_lines": (
        CLI,
        'end="\\n" if top > hi else sep)',
        'end="\\n")',
        "seq ends every chunk of terms with a newline, not only the last",
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
        "        part %= p\n",
        "",
        "the chunked product never reduces its running sum",
    ),
    "float_chunk_2x": (
        SEQUENCES,
        "return _FLOAT_DOT_LIMIT // (p - 1) ** 2",
        "return 2 * _FLOAT_DOT_LIMIT // (p - 1) ** 2",
        "a float64 chunk sums twice too many products",
    ),
    "refused_under_the_bound": (
        SEQUENCES,
        "    if not chunk:\n",
        "    if chunk <= 1:\n",
        "a prime whose float64 chunk is one product is refused",
    ),
    "product_refusal_skipped": (
        SEQUENCES,
        "        raise OverflowError(f\"residue products mod",
        "        OverflowError(f\"residue products mod",
        "a chunk of 0 products reaches range(..., 0) in place of the refusal",
    ),
    "float_chunks_summed_in_float64": (
        SEQUENCES,
        ").astype(np.int64, copy=False)\n        part += acc",
        ")\n        part += acc",
        "each float64 chunk joins the running sum in float64, which rounds past 2**53",
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
    # the Bell row as one dot per step
    "bell_reversed_offset": (
        SEQUENCES,
        "x, y = b[: n + 1], rev[p - 1 - n :]",
        "x, y = b[: n + 1], rev[p - 2 - n : p - 1]",
        "each Bell step reads the inverse factorials one place off",
    ),
    "long_bell_step_reversed_offset": (
        SEQUENCES,
        "else _mod_matmul(x, y, p))",
        "else _mod_matmul(x, rev[p - 2 - n : p - 1], p))",
        "each Bell step longer than a chunk reads the inverse factorials one place off",
    ),
    "float_dot_limit_2x": (
        SEQUENCES,
        "_FLOAT_DOT_LIMIT = 2**53",
        "_FLOAT_DOT_LIMIT = 2**54",
        "a float64 dot may sum to 2**54, past exact integers",
    ),
    "bell_steps_all_through_mod_matmul": (
        SEQUENCES,
        "if n < chunk else",
        "if n < 0 else",
        "every Bell step goes through _mod_matmul, even one that fits one chunk",
    ),
    "long_bell_steps_never_routed": (
        SEQUENCES,
        "if n < chunk else",
        "if n < p else",
        "every Bell step is one np.dot, even one longer than a chunk",
    ),
    "bell_scaled_by_n_factorial": (
        SEQUENCES,
        "ctx.fact[:-1] * ctx.inv_fact[1:]",
        "ctx.fact[:-1] * ctx.inv_fact[:-1]",
        "b_{n+1} is B_{n+1} / n! in place of B_{n+1} / (n+1)!",
    ),
    "bell_fact_scaling_dropped": (
        SEQUENCES,
        "values = b.astype(np.int64) * ctx.fact % p",
        "values = b.astype(np.int64) % p",
        "the row returns B_k / k! in place of B_k",
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
        "return int(ctx.fact[n]) * int(ctx.inv_fact[k]) % ctx.p * int(ctx.inv_fact[n - k]) % ctx.p",
        "return ctx.fact[n] * ctx.inv_fact[k] % ctx.p * ctx.inv_fact[n - k] % ctx.p",
        "binomial_mod returns a numpy int64, not a Python int",
    ),
    "first_failure_sliced": (
        CLI,
        "first = rank, b[[int(np.argmin(b.passed))]]",
        "i = int(np.argmin(b.passed))\n            first = rank, b[i : i + 1]",
        "the first failure is a view that keeps its whole block alive",
    ),
    "renderer_skips_differing_rhs": (
        CLI,
        "        rhs[differ] = _side_strings(b.rhs[differ], fmt)\n",
        "",
        "a row whose sides differ shows its lhs as rhs",
    ),
    # the decimal table the renderer gathers its value strings from
    "decimal_table_off_by_one": (
        CLI,
        "if unsigned.max(initial=0) < len(table):",
        "if unsigned.max(initial=0) <= len(table):",
        "a block whose largest cell is SPOOL_CELLS reads one entry past the table",
    ),
    "decimal_table_never_used": (
        CLI,
        "    if cells.dtype == object:\n",
        "    if True:\n",
        "every cell is spelled by str(), none gathered from the table",
    ),
    "int_columns_stacked_in_their_dtype": (
        CLI,
        "np.array(list(numbers.values()), dtype=np.int64)",
        "np.array(list(numbers.values()))",
        "an int32 param column is read as uint64 pairs",
    ),
    "cells_past_table_not_converted": (
        CLI,
        "    out[~held] = _spell(cells[~held].tolist())\n",
        "",
        "a cell the table does not hold renders as entry 0, \"0\"",
    ),
    "corollary_builds_own_drow": (
        CLI,
        "cg.verify_corollary(t.ctx, t.row, t.drow, t.jpow)",
        "cg.verify_corollary(t.ctx, t.row, derangement_row(t.ctx), t.jpow)",
        "corollary builds a second derangement row at each prime",
    ),
    "corollary_powers_unreversed": (
        CONGRUENCES,
        "pw = jpow[:, ::-1].T",
        "pw = jpow.T",
        "the corollary weights m^n in place of (-m)^n",
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
        "touchard_value_table(self.ctx, self.matrix, self.xs)",
        "touchard_value_table(self.ctx, touchard_coeff_matrix(self.ctx), self.xs)",
        "the value table builds a second Touchard matrix at each prime",
    ),
    "values_at_every_point": (
        CLI,
        "touchard_value_table(self.ctx, self.matrix, self.xs)",
        "touchard_value_table(self.ctx, self.matrix, range(self.ctx.p))",
        "the value table holds every x below p, not only the points eq10 and special read",
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
        "cg.verify_theorem1(ctx, ms, table, drow, sigma)",
        "cg.verify_theorem1(ctx, ms, table, sigma, drow)",
        "bench passes the signed series as the derangement row",
    ),
    # every per-prime table a bare read-only int64 array
    "bell_row_writable": (
        SEQUENCES,
        "# B_1 = 1, a cheap self-check of the recurrence\n    values.setflags(write=False)\n",
        "# B_1 = 1, a cheap self-check of the recurrence\n",
        "bell_row returns a writeable array",
    ),
    "bell_triangle_row_writable": (
        SEQUENCES,
        "# B_1 = 1\n    values.setflags(write=False)\n",
        "# B_1 = 1\n",
        "bell_triangle_row returns a writeable array",
    ),
    "derangement_row_writable": (
        SEQUENCES,
        "# D_0 = 1, D_1 = 0\n    values.setflags(write=False)\n",
        "# D_0 = 1, D_1 = 0\n",
        "derangement_row returns a writeable array",
    ),
    "signed_series_row_writable": (
        SEQUENCES,
        "    sigma.setflags(write=False)\n",
        "",
        "signed_series_row returns a writeable array",
    ),
    "touchard_coeff_matrix_writable": (
        SEQUENCES,
        "    m.setflags(write=False)\n",
        "",
        "touchard_coeff_matrix returns a writeable array",
    ),
    "touchard_value_table_writable": (
        SEQUENCES,
        "    table.setflags(write=False)\n",
        "",
        "touchard_value_table returns a writeable array",
    ),
    "theorem1_row_drow_swapped": (
        CLI,
        "cg.verify_theorem1(t.ctx, t.ms, t.sm, t.drow, t.sigma)",
        "cg.verify_theorem1(t.ctx, t.ms, t.drow, t.sm, t.sigma)",
        "theorem1 reads the derangement row as the S_m table and the S_m table as the derangement row",
    ),
    # one S_m table per prime, shared by theorem1, eq4 and bench
    "eq4_builds_own_s_m_table": (
        CLI,
        "cg.verify_eq4(t.ctx, t.sm)",
        "cg.verify_eq4(t.ctx, cg.s_m_all_units(t.ctx, t.row))",
        "eq4 builds a second S_m table at each prime",
    ),
    "s_m_table_writable": (
        CONGRUENCES,
        "    table.setflags(write=False)\n",
        "",
        "s_m_all_units returns a writeable array",
    ),
    "geometric_builds_own_power_table": (
        CLI,
        "cg.geometric_sum_lemma_check(t.ctx, ms, t.jpow)",
        "cg.geometric_sum_lemma_check(t.ctx, ms, cg.unit_power_table(t.ctx))",
        "geometric builds its power table once per slice of weights",
    ),
    "power_table_writable": (
        CONGRUENCES,
        "    jpow.setflags(write=False)\n",
        "",
        "unit_power_table returns a writeable array",
    ),
    "eq4_table_slot_off": (
        CONGRUENCES,
        "s = sm[1:p]",
        "s = sm[: p - 1]",
        "verify_eq4 reads S_m from slot m - 1 of the table",
    ),
    # scalar routes return ints and Touchard routes int tuples
    "bell_mod_int_dropped": (
        SEQUENCES,
        "        return int(row[n])\n",
        "        return row[n]\n",
        "bell_mod below p returns a numpy int64, not a Python int",
    ),
    "recursion_x_shift_dropped": (
        SEQUENCES,
        "acc[i + 1] = (acc[i + 1] + c * t) % p",
        "acc[i] = (acc[i] + c * t) % p",
        "the Touchard recursion drops the factor x of T_{n+1} = x * sum_k C(n, k) T_k",
    ),
    "recursion_binomial_row_off_by_one": (
        SEQUENCES,
        "c = binomial_mod(n, k, ctx)",
        "c = binomial_mod(n + 1, k, ctx)",
        "the Touchard recursion weights T_k by C(n + 1, k) in place of C(n, k)",
    ),
    "context_eq_by_identity": (
        MODARITH,
        "return isinstance(other, PrimeContext) and other.p == self.p",
        "return self is other",
        "two contexts of one prime are unequal, though they hash equal",
    ),
    "bench_mismatch_exit_zero": (
        CLI,
        """        print(f"MISMATCHES: {bad}", file=sys.stderr)
        return 1""",
        """        print(f"MISMATCHES: {bad}", file=sys.stderr)
        return 0""",
        "bench exits 0 when a weighted sum misses its closed form",
    ),
    "recursion_negative_index_unguarded": (
        SEQUENCES,
        "    if n_max < 0:\n",
        "    if False:\n",
        "touchard_polys_by_recursion(-1) returns [T_0] in place of refusing",
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
