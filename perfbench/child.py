"""One benchmark child process: import bellmod, optionally trace it, run
``bellmod.cli.main(argv)`` once and write a small result file.

    python3 perfbench/child.py MODE RESULT_PATH [bellmod argv ...]

MODE is ``setup`` (import and exit), ``plain`` (run untraced) or ``trace``
(wrap the layers' public functions from outside and record one span per
call).  The result file holds the CLOCK_MONOTONIC instant at which
``bellmod.cli`` finished importing, the exit code, and in trace mode the
span names, the computed work counts and the time taken to write the spans
to RESULT_PATH.spans (a flat array of native int64, four per span), so
that this time can be told apart from the program's.
``perfbench/launch.py`` measures wall time and peak RSS, from spawn to exit.
"""

import sys
import time

import bellmod.cli

T_IMPORTED = time.monotonic()

import array  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402

# (module, attribute, span name).  cli binds the sequences and modarith
# functions by name, so those are wrapped where cli looks them up; calls
# between congruences functions go through that module's globals, so
# wrapping the module attribute catches them too.
WRAPPED = (
    ("bellmod.cli", "main", "cli.main"),
    ("bellmod.cli", "run_sweep", "cli.run_sweep"),
    ("bellmod.cli", "_sweep_prime", "cli._sweep_prime"),
    ("bellmod.cli", "render_reports", "cli.render_reports"),
    ("bellmod.cli", "make_context", "modarith.make_context"),
    ("bellmod.cli", "bell_row", "sequences.bell_row"),
    ("bellmod.cli", "derangement_row", "sequences.derangement_row"),
    ("bellmod.cli", "signed_series_row", "sequences.signed_series_row"),
    ("bellmod.cli", "touchard_coeff_matrix", "sequences.touchard_coeff_matrix"),
    ("bellmod.cli", "touchard_polys_from_matrix", "sequences.touchard_polys_from_matrix"),
    ("bellmod.cli", "touchard_value_table", "sequences.touchard_value_table"),
    ("bellmod.congruences", "s_m", "congruences.s_m"),
    ("bellmod.congruences", "s_m_many", "congruences.s_m_many"),
    ("bellmod.congruences", "theorem1_rhs", "congruences.theorem1_rhs"),
    ("bellmod.congruences", "verify_touchard", "congruences.verify_touchard"),
    ("bellmod.congruences", "verify_intro_constant", "congruences.verify_intro_constant"),
    ("bellmod.congruences", "verify_corollary", "congruences.verify_corollary"),
    ("bellmod.congruences", "verify_eq4", "congruences.verify_eq4"),
    ("bellmod.congruences", "verify_bell_p", "congruences.verify_bell_p"),
    ("bellmod.congruences", "verify_theorem2", "congruences.verify_theorem2"),
    ("bellmod.congruences", "verify_theorem2_eval", "congruences.verify_theorem2_eval"),
    ("bellmod.congruences", "verify_special_cases", "congruences.verify_special_cases"),
    ("bellmod.congruences", "verify_proof_intermediate", "congruences.verify_proof_intermediate"),
    ("bellmod.congruences", "verify_factorial_lemma", "congruences.verify_factorial_lemma"),
    ("bellmod.congruences", "geometric_sum_lemma_check", "congruences.geometric_sum_lemma_check"),
    ("bellmod.congruences", "weighted_touchard_sum", "congruences.weighted_touchard_sum"),
    ("bellmod.congruences", "theorem2_rhs", "congruences.theorem2_rhs"),
    ("bellmod.oracle", "derangement_exact", "oracle.derangement_exact"),
)


# (span name, kind, count from the call's positional arguments and result):
# work counts that repeat exactly.  bell_row does sum_{n<p-1} (n+1)
# multiply-adds; s_m_many does p-1 steps per weight; the Touchard matrix
# multiplies a length-(n+1) vector into an (n+1) x p block for each row n;
# the value table is one p x p matmul and holds a p x p powers matrix plus
# the p x p result.
COUNTS = (
    ("sequences.bell_row", "term_ops", lambda a, r: a[0].p * (a[0].p - 1) // 2),
    ("congruences.s_m_many", "term_ops", lambda a, r: (a[0].p - 1) * len(a[1])),
    ("sequences.touchard_coeff_matrix", "macs", lambda a, r: a[0].p ** 2 * (a[0].p - 1) // 2),
    ("sequences.touchard_coeff_matrix", "bytes", lambda a, r: 8 * a[0].p ** 2),
    ("sequences.touchard_value_table", "macs", lambda a, r: a[0].p ** 3),
    ("sequences.touchard_value_table", "bytes", lambda a, r: 16 * a[0].p ** 2),
    ("cli.render_reports", "bytes", lambda a, r: len(r)),  # the stream is ASCII
)


class Tracer:
    """Spans kept in memory as (name index, parent span, start ns, end ns),
    plus the work counts, summed per run."""

    def __init__(self):
        self.names = [name for _, _, name in WRAPPED]
        self.spans = []
        self.stack = [-1]
        self.counts = {f"{name}.{kind}": 0 for name, kind, _ in COUNTS}

    def install(self):
        for idx, (module_name, attr, name) in enumerate(WRAPPED):
            module = importlib.import_module(module_name)
            counters = [(f"{name}.{kind}", fn) for n, kind, fn in COUNTS if n == name]
            setattr(module, attr, self._wrap(getattr(module, attr), idx, counters))

    def _wrap(self, fn, idx, counters):
        spans, stack, clock, totals = self.spans, self.stack, time.perf_counter_ns, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (idx, parent, start, end)
            for key, count in counters:
                totals[key] += count(args, result)
            return result

        return wrapper


def main() -> int:
    mode, result_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    result = {"t_imported": T_IMPORTED, "rc": 0}
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    if mode != "setup":
        try:
            result["rc"] = bellmod.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            result["rc"] = exc.code if isinstance(exc.code, int) else 2
    if tracer is not None:
        t_done = time.monotonic()
        with open(result_path + ".spans", "wb") as fh:
            array.array("q", [v for span in tracer.spans for v in span]).tofile(fh)
        result.update(names=tracer.names, counts=tracer.counts, dump_s=time.monotonic() - t_done)
    with open(result_path, "w") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
