"""
Closed forms against the convolution, and a disputed leading term
=================================================================

Each family's triangle has an explicit binomial-sum formula.  The
formulas are checked cell by cell against the convolution build, and
one formula with two circulating variants gets adjudicated: only one
of the two leading terms can be right, and the lift decides which.
"""

from restricted_words import (
    CaseSpec,
    adjudicate_case1_leading_term,
    cm_explicit_case1_alt_table,
    composition_triangle,
    f0_prefix,
    triangle_formula_table,
)

# closed form vs convolution for one family
spec = CaseSpec(3, a=3, b=2)
t = composition_triangle(f0_prefix(spec, 8))
print("case 3 (a=3, b=2): closed form == convolution, cell by cell")
for n, row in enumerate(triangle_formula_table(spec, 1, 8), start=1):
    assert row == t.row(n)
    print("  ", list(row))

# two candidate leading terms for the level-m family-1 formula:
# (m-1)^(n-k) C(n-1,k-1) versus m^(n-k) C(n-1,k-1).  They first part
# ways at the tiny cell below.
a, m, n, k = 1, 2, 2, 1
print("\ncell (a=1, m=2, n=2, k=1):")
corrected = triangle_formula_table(CaseSpec(1, a=a), m, n)
print("  (m-1)-power version:", corrected[n - 1][k - 1])
print("  m-power version:    ", cm_explicit_case1_alt_table(a, m, n)[n - 1][k - 1])
print("  the words of length 1 with no marked letter over {0,1,2}: '0' and '1'")

# the full adjudication sweeps a grid and reports the verdict
print()
print(adjudicate_case1_leading_term().describe())
