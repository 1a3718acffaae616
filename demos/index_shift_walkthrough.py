"""
Reading Bell numbers beyond the stored row
==========================================

A prime p pins down the Bell sequence mod p by its first p values: the
shift rule B_{p+n} = B_n + B_{n+1} (mod p) folds any index below p^2 back
into the stored row.  This script folds indices the long way and checks
them against exact big-integer Bell numbers.
"""

from bellmod import bell_mod, bell_row, make_context, oracle

P = 11
ctx = make_context(P)
row = bell_row(ctx)

print(f"stored row mod {P}:", row.tolist())
print()
print(f"{'n':>4}  {'B_n mod p (fold)':>17}  {'B_n exact':>28}")
for n in list(range(P, P + 8)) + [P * P - 2, P * P - 1]:
    folded = bell_mod(n, ctx, row)
    exact = oracle.bell_exact(n)
    mark = "ok" if folded == exact % P else "MISMATCH"
    print(f"{n:>4}  {folded:>17}  {exact % P:>28}  {mark}")

print()
print("the shift rule itself, n = 0..9:")
for n in range(10):
    lhs = bell_mod(P + n, ctx, row)
    rhs = (bell_mod(n, ctx, row) + bell_mod(n + 1, ctx, row)) % P
    print(f"  B_{P + n} = {lhs}   B_{n} + B_{n + 1} = {rhs}")
