"""The direct jsonl renderer against the json.dumps renderer it replaced,
and the text renderer against its line format."""

import json

import pytest

from bellmod.cli import IDENTITIES, SweepConfig, render_reports, run_sweep
from bellmod.congruences import PARAM_ORDER, Identity, VerificationReport, make_report
from bellmod.modarith import make_context


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


def reference_text(reports):
    def side(v):
        return "[" + ";".join(map(str, v)) + "]" if isinstance(v, tuple) else str(v)

    lines = []
    for r in reports:
        words = [r.identity.value, f"p={r.p}"]
        words += [f"{k}={r.params[k]}" for k in PARAM_ORDER if k in r.params]
        words += [f"lhs={side(r.lhs)}", f"rhs={side(r.rhs)}", "PASS" if r.passed else "FAIL"]
        lines.append(" ".join(words) + "\n")
    return "".join(lines)


def hand_built_reports():
    ctx = make_context(7)
    every_key = {k: i for i, k in enumerate(reversed(PARAM_ORDER))}  # inserted out of order
    return [
        make_report(Identity.THEOREM1, ctx, {"m": 3}, 1, 1),  # int sides
        make_report(Identity.THEOREM1, ctx, {"m": 4}, 1, 2),  # failing
        make_report(Identity.PROOF_INTERMEDIATE, ctx, {"m": 2, "r": 5}, (0, 2, 1), (0, 2, 1)),
        make_report(Identity.THEOREM2_POLY, ctx, {"m": 1}, (), (6,)),  # the zero polynomial
        make_report(Identity.BELL_P, ctx, {}, 2, 2),  # empty params
        make_report(Identity.GEOMETRIC_SUM, ctx, every_key, 0, 6),
        VerificationReport(Identity.COROLLARY, 2**31 - 1, {"p": 2**31 - 1, "n": 5, "k": 9},
                           2**31 - 2, 2**31 - 2, True),
    ]


@pytest.mark.parametrize("fmt, reference", [("jsonl", reference_jsonl), ("text", reference_text)])
def test_renderers_match_reference_on_hand_built_reports(fmt, reference):
    reports = hand_built_reports()
    assert render_reports(reports, fmt) == reference(reports)
    for r in reports:
        assert render_reports([r], fmt) == reference([r])
    assert render_reports([], fmt) == ""


@pytest.mark.parametrize("fmt, reference", [("jsonl", reference_jsonl), ("text", reference_text)])
def test_renderers_match_reference_on_a_sweep(fmt, reference):
    _, reports = run_sweep(SweepConfig(prime_lo=2, prime_hi=31, identities=tuple(IDENTITIES)))
    assert {r.identity for r in reports} == set(Identity)
    assert render_reports(reports, fmt) == reference(reports)


def test_renderers_match_reference_on_random_reports():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    side = st.one_of(st.integers(), st.lists(st.integers(), max_size=6).map(tuple))

    @st.composite
    def reports(draw):
        p = draw(st.integers(min_value=2))
        params = draw(st.dictionaries(st.sampled_from(PARAM_ORDER), st.integers()))
        return VerificationReport(
            draw(st.sampled_from(Identity)), p, {"p": p, **params},
            draw(side), draw(side), draw(st.booleans()),
        )

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.lists(reports(), max_size=4))
    def check(batch):
        assert render_reports(batch, "jsonl") == reference_jsonl(batch)
        assert render_reports(batch, "text") == reference_text(batch)

    check()
