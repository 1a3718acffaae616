import pytest

from bellmod import make_context
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
        self._matrix = {}
        self._values = {}

    def ctx(self, p):
        if p not in self._ctx:
            self._ctx[p] = make_context(p)
        return self._ctx[p]

    def bell(self, p):
        if p not in self._bell:
            self._bell[p] = bell_row(self.ctx(p))
        return self._bell[p]

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


@pytest.fixture(scope="session")
def cache():
    return RowCache()
