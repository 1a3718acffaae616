"""
One integer hiding in every prime field
=======================================

Sum the Bell numbers B_0..B_{p-1} against powers of -1/8 modulo a prime p.
The result looks like it should depend on p.  It does not: every odd prime
reports the residue of the same integer, -1853, because the sum telescopes
into 1 - D_7 where D_7 = 1854 counts the derangements of seven objects.
"""

from bellmod import bell_row, make_context, primes_in_range
from bellmod.congruences import s_m

WEIGHT = 8
CONSTANT = -1853

print(f"weighted Bell sums at m = {WEIGHT}, compared against {CONSTANT} mod p")
print(f"{'p':>5}  {'sum':>6}  {'expected':>9}")
for p in primes_in_range(3, 80):
    ctx = make_context(p)
    # the n = 0 term contributes B_0 = 1 on top of the 0 < n < p sum
    total = (1 + s_m(ctx, WEIGHT, bell_row(ctx))) % p
    print(f"{p:>5}  {total:>6}  {CONSTANT % p:>9}")

# the same game at other weights lands on other fixed integers:
# 1 + (-1)^(m-1) D_{m-1}, derangements doing the bookkeeping
from bellmod import oracle

print()
print("the constant for each weight m is 1 + (-1)^(m-1) D_{m-1}:")
for m in range(1, 9):
    sign = 1 if (m - 1) % 2 == 0 else -1
    print(f"  m = {m}: {1 + sign * oracle.derangement_exact(m - 1)}")
