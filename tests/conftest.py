import pytest

from bellmod import cli, make_context
from bellmod.congruences import _IDENTITY_RANK, s_m_all_units, unit_power_table
from bellmod.sequences import (
    bell_row,
    derangement_row,
    signed_series_row,
    touchard_coeff_matrix,
    touchard_value_table,
)


class RowCache:
    """Cache of contexts and sequence tables for the whole test run.

    Row construction is O(p^2); the acceptance sweep and the unit tests
    revisit the same primes constantly, so share one copy.  The verifiers
    take every table they read, and these are the tables they take.
    """

    def __init__(self):
        self._ctx = {}
        self._bell = {}
        self._drow = {}
        self._sigma = {}
        self._sm = {}
        self._matrix = {}
        self._values = {}
        self._jpow = {}

    def ctx(self, p):
        if p not in self._ctx:
            self._ctx[p] = make_context(p)
        return self._ctx[p]

    def bell(self, p):
        if p not in self._bell:
            self._bell[p] = bell_row(self.ctx(p))
        return self._bell[p]

    def sm(self, p):
        if p not in self._sm:
            self._sm[p] = s_m_all_units(self.ctx(p), self.bell(p))
        return self._sm[p]

    def drow(self, p):
        if p not in self._drow:
            self._drow[p] = derangement_row(self.ctx(p))
        return self._drow[p]

    def sigma(self, p):
        if p not in self._sigma:
            self._sigma[p] = signed_series_row(self.ctx(p))
        return self._sigma[p]

    def matrix(self, p):
        if p not in self._matrix:
            self._matrix[p] = touchard_coeff_matrix(self.ctx(p))
        return self._matrix[p]

    def values(self, p):
        if p not in self._values:
            self._values[p] = touchard_value_table(self.ctx(p), self.matrix(p))
        return self._values[p]

    def jpow(self, p):
        if p not in self._jpow:
            self._jpow[p] = unit_power_table(self.ctx(p))
        return self._jpow[p]


def sweep_blocks(cfg):
    """run_sweep's summary and its blocks in canonical order: the
    prime-major stream collected, then stable-sorted by identity, as
    verify's spools regroup it."""
    blocks = []
    summary = cli.run_sweep(cfg, blocks.append)
    return summary, sorted(blocks, key=lambda b: _IDENTITY_RANK[b.identity])


def render_stream(blocks, fmt):
    """The stream verify writes for these blocks: the csv header first for
    csv, then each block rendered in turn."""
    return (cli._CSV_HEADER if fmt == "csv" else "") + "".join(cli.render_reports(b, fmt) for b in blocks)


def poly_eval(coeffs, x, p):
    """sum_k coeffs[k] x^k mod p by Horner's rule, one point at a time: a
    route to polynomial values independent of touchard_value_table."""
    x %= p
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


@pytest.fixture(scope="session")
def cache():
    return RowCache()
