"""The block renderers against per-report reference renderers: json.dumps
for jsonl, csv.writer for csv, and a word join for text."""

import csv
import io
import json

import numpy as np
import pytest

from bellmod import cli
from bellmod.cli import IDENTITIES, SPOOL_CELLS, SweepConfig, render_reports
from bellmod.congruences import PARAM_ORDER, Identity, ReportBlock

from conftest import render_stream, sweep_blocks


def rows(blocks):
    return [r for b in blocks for r in b]


def reference_jsonl(reports):
    """One json.dumps object per report: the renderer the direct one must
    match byte for byte."""

    def side(v):
        return [str(c) for c in v] if isinstance(v, tuple) else str(v)

    return "".join(
        json.dumps(
            {
                "identity": r.identity.value,
                "p": r.p,
                "params": {k: r.params[k] for k in PARAM_ORDER if k in r.params},
                "lhs": side(r.lhs),
                "rhs": side(r.rhs),
                "pass": r.passed,
            }
        )
        + "\n"
        for r in reports
    )


def flat(v):
    return "[" + ";".join(map(str, v)) + "]" if isinstance(v, tuple) else str(v)


def reference_text(reports):
    lines = []
    for r in reports:
        words = [r.identity.value, f"p={r.p}"]
        words += [f"{k}={r.params[k]}" for k in PARAM_ORDER if k in r.params]
        words += [f"lhs={flat(r.lhs)}", f"rhs={flat(r.rhs)}", "PASS" if r.passed else "FAIL"]
        lines.append(" ".join(words) + "\n")
    return "".join(lines)


def reference_csv(reports):
    """A header, then one csv.writer row per report: the common triage
    params, the verdict and sides, then the rarer params."""
    head = ("m", "n", "x")
    tail = tuple(k for k in PARAM_ORDER if k not in head)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["identity", "p", *head, "pass", "lhs", "rhs", *tail])
    for r in reports:
        writer.writerow(
            [r.identity.value, r.p]
            + [r.params.get(k, "") for k in head]
            + ["true" if r.passed else "false", flat(r.lhs), flat(r.rhs)]
            + [r.params.get(k, "") for k in tail]
        )
    return buf.getvalue()


REFERENCES = [("jsonl", reference_jsonl), ("text", reference_text), ("csv", reference_csv)]


def col(*values):
    return np.array(values, dtype=np.int64)


def mask(*flags):
    return np.array(flags, dtype=bool)


def coeffs(*rows):
    """A polynomial side: one int64 row of coefficients per report."""
    return np.array(rows, dtype=np.int64)


def hand_built_blocks():
    every_key = {k: col(i, i + 10) for i, k in enumerate(reversed(PARAM_ORDER))}  # out of order
    big = 2**31 - 1
    return [
        ReportBlock(Identity.THEOREM1, 7, {"m": col(3, 4)}, col(1, 1), col(1, 2), mask(True, False)),
        # trailing zeros, which the rows strip
        ReportBlock(Identity.PROOF_INTERMEDIATE, 7, {"m": col(2), "r": col(5)}, coeffs((0, 2, 1, 0)), coeffs((0, 2, 1, 0)), mask(True)),
        # the zero polynomial on either side
        ReportBlock(Identity.THEOREM2_POLY, 7, {"m": col(1, 2)}, coeffs((0, 0), (3, 0)), coeffs((6, 0), (0, 0)), mask(False, False)),
        # a pass mask that disagrees with the sides
        ReportBlock(Identity.THEOREM2_POLY, 7, {"m": col(4, 5)}, coeffs((1, 2), (3, 4)), coeffs((1, 3), (3, 4)), mask(True, False)),
        # rows of zero columns, and no rows
        ReportBlock(Identity.PROOF_INTERMEDIATE, 7, {"m": col(1, 3)}, coeffs((), ()), coeffs((), ()), mask(True, False)),
        ReportBlock(Identity.THEOREM2_POLY, 7, {"m": col()}, np.zeros((0, 3), np.int64), np.zeros((0, 3), np.int64), mask()),
        ReportBlock(Identity.BELL_P, 7, {}, col(2), col(2), mask(True)),  # empty params
        ReportBlock(Identity.GEOMETRIC_SUM, 7, every_key, col(0, 1), col(6, 1), mask(False, True)),
        ReportBlock(Identity.COROLLARY, big, {"n": col(5), "k": col(9)}, col(big - 1), col(big - 1), mask(True)),
        ReportBlock(Identity.EQ4_STEP, 7, {"m": col()}, col(), col(), mask()),  # no rows
        # a weight past int64, which the params hold as a Python int
        ReportBlock(Identity.THEOREM1, 7, {"m": np.array([10**23 + 1, 5], dtype=object)}, col(5, 0), col(5, 1), mask(True, False)),
        # a param column of another integer dtype, the block's only int column
        ReportBlock(Identity.THEOREM2_POLY, 7, {"m": np.array([SPOOL_CELLS + 1, 3], dtype=np.int32)}, coeffs((1, 2), (3, 0)), coeffs((1, 2), (3, 0)), mask(True, True)),
        # cells at the decimal table's last entry and just past it
        ReportBlock(Identity.COROLLARY, 7, {"n": col(0, SPOOL_CELLS - 1), "k": col(SPOOL_CELLS, 1)}, col(SPOOL_CELLS - 1, 0), col(SPOOL_CELLS, 0), mask(False, True)),
        ReportBlock(Identity.THEOREM2_POLY, 7, {"m": col(1, 2)}, coeffs((SPOOL_CELLS - 1, SPOOL_CELLS), (1, 0)), coeffs((SPOOL_CELLS, 0), (1, 0)), mask(False, True)),
    ]


@pytest.mark.parametrize("fmt, reference", REFERENCES)
def test_renderers_match_reference_on_hand_built_reports(fmt, reference):
    blocks = hand_built_blocks()
    assert render_stream(blocks, fmt) == reference(rows(blocks))
    for b in blocks:
        assert render_stream([b], fmt) == reference(list(b))
    assert render_stream([], fmt) == reference([])


@pytest.mark.parametrize("fmt", ["jsonl", "text", "csv"])
def test_renderer_converts_only_the_rhs_rows_that_differ(monkeypatch, fmt):
    converted = []

    def counted(rows, fmt):
        converted.append(len(rows))
        return real(rows, fmt)

    real = cli._side_strings
    monkeypatch.setattr(cli, "_side_strings", counted)
    lhs = coeffs((1, 2, 0), (0, 0, 0), (3, 0, 4), (5, 6, 0), (0, 7, 0))
    for rhs, k in [(lhs.copy(), 0), (coeffs((1, 2, 0), (0, 0, 1), (3, 0, 4), (5, 0, 0), (0, 7, 0)), 2)]:
        converted.clear()
        passed = (lhs == rhs).all(axis=1)
        block = ReportBlock(Identity.THEOREM2_POLY, 11, {"m": col(1, 2, 3, 4, 5)}, lhs, rhs, passed)
        render_reports(block, fmt)
        assert sum(converted) == len(lhs) + k


@pytest.mark.parametrize("fmt, reference", REFERENCES)
def test_renderers_match_reference_on_a_sweep(fmt, reference):
    _, blocks = sweep_blocks(SweepConfig(prime_lo=2, prime_hi=31, identities=tuple(IDENTITIES)))
    reports = rows(blocks)
    assert {r.identity for r in reports} == set(Identity)
    assert render_stream(blocks, fmt) == reference(reports)


def test_renderers_match_reference_on_random_reports():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def blocks(draw):
        n = draw(st.integers(min_value=0, max_value=4))

        def column(values):
            return draw(st.lists(values, min_size=n, max_size=n))

        int64 = st.integers(-(2**63), 2**63 - 1)

        def ints():
            return np.array(column(int64), dtype=np.int64)

        # scalar sides, or rows of one width whose zeros make trailing zeros likely
        width = draw(st.none() | st.integers(min_value=0, max_value=6))

        def side():
            if width is None:
                return ints()
            rows = column(st.lists(st.just(0) | int64, min_size=width, max_size=width))
            return np.array(rows, dtype=np.int64).reshape(n, width)

        keys = draw(st.lists(st.sampled_from(PARAM_ORDER), unique=True))  # in any insertion order
        lhs, rhs = side(), side()
        same = mask(*column(st.booleans()))  # rows whose sides are equal
        rhs[same] = lhs[same]
        return ReportBlock(
            draw(st.sampled_from(Identity)), draw(st.integers(min_value=2)),
            {k: ints() for k in keys}, lhs, rhs, mask(*column(st.booleans())),
        )

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.lists(blocks(), max_size=4))
    def check(batch):
        for fmt, reference in REFERENCES:
            assert render_stream(batch, fmt) == reference(rows(batch))

    check()


def test_renderers_match_reference_on_dense_blocks():
    """Blocks of up to a few hundred rows whose cells straddle the end of the
    decimal table, so one render call mixes gathered and spelled cells."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    dense = st.integers(min_value=0, max_value=SPOOL_CELLS + 63)

    @st.composite
    def blocks(draw):
        n = draw(st.integers(min_value=1, max_value=300))
        width = draw(st.none() | st.integers(min_value=1, max_value=4))
        shape = (n,) if width is None else (n, width)
        lhs, rhs = (draw(hnp.arrays(np.int64, shape, elements=dense)) for _ in range(2))
        same = draw(hnp.arrays(bool, n))  # rows whose sides are equal
        rhs[same] = lhs[same]
        keys = draw(st.lists(st.sampled_from(PARAM_ORDER), unique=True))
        params = {k: draw(hnp.arrays(np.int64, n, elements=dense)) for k in keys}
        return ReportBlock(draw(st.sampled_from(Identity)), 7, params, lhs, rhs, draw(hnp.arrays(bool, n)))

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(blocks())
    def check(block):
        for fmt, reference in REFERENCES:
            assert render_stream([block], fmt) == reference(list(block))

    check()


def test_renderer_spells_only_the_cells_the_decimal_table_lacks(monkeypatch):
    """Every cell the decimal table holds is gathered from it; str() converts
    only the rest: cells past its end, negative cells and a column of
    Python ints."""
    spelled = []

    def counted(values):
        spelled.extend(values)
        return real(values)

    real = cli._spell
    monkeypatch.setattr(cli, "_spell", counted)
    top = SPOOL_CELLS + 64
    cells = np.arange(top, dtype=np.int64)
    past = list(range(SPOOL_CELLS, top))
    held = cells[:SPOOL_CELLS]
    wide = np.array([10**23 + 1, 5], dtype=object)
    cases = [
        # a dense scalar block: two params and both sides straddle the end
        (ReportBlock(Identity.COROLLARY, 7, {"n": cells, "k": cells[::-1]}, cells, cells, cells % 2 == 0), past * 4),
        # every cell held, polynomial sides included: nothing is spelled
        (ReportBlock(Identity.COROLLARY, 7, {"n": held}, held, held, held > 0), []),
        (ReportBlock(Identity.THEOREM2_POLY, 7, {"m": col(1, 2)}, coeffs((3, SPOOL_CELLS - 1), (0, 0)), coeffs((3, 5), (0, 0)), mask(False, True)), []),
        # polynomial rows past the end, on the rhs only where the sides differ
        (ReportBlock(Identity.PROOF_INTERMEDIATE, 7, {"m": col(1, 2)}, coeffs((SPOOL_CELLS, 2), (SPOOL_CELLS + 1, 0)), coeffs((SPOOL_CELLS, 2), (7, SPOOL_CELLS + 2)), mask(True, False)), [SPOOL_CELLS, SPOOL_CELLS + 1, SPOOL_CELLS + 2]),
        (ReportBlock(Identity.THEOREM1, 7, {"m": wide}, col(-1, 4), col(4, 4), mask(False, True)), [*wide, -1]),
    ]
    for block, expected in cases:
        for fmt, reference in REFERENCES:
            spelled.clear()
            assert render_stream([block], fmt) == reference(list(block))
            assert sorted(spelled) == sorted(expected), fmt
