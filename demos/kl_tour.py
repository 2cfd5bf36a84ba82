"""A tour of the Kazhdan-Lusztig layer on small groups.

Run as `python3 demos/kl_tour.py`.  Everything below is exact; there is no
floating point anywhere in the library.
"""

from coxkl import KLContext, build_group, format_laurent

# ---------------------------------------------------------------------------
# The symmetric group S4, generated by three adjacent transpositions.

a3 = build_group("A3")
print(f"A3: |W| = {a3.order}, longest element of length {a3.w0.length()}")

kl = KLContext(a3)
s1, s2, s3 = a3.simple

# The inverse polynomials P*_{y,w} live in strictly negative powers of v for
# y < w.  The classical first nontrivial example sits at the pattern 3412:
w = s2 * s1 * s3 * s2
print("P*_{s2, s2s1s3s2} =", format_laurent(kl.pstar(s2, w)))
print("P_{s2, s2s1s3s2}  =", format_laurent(kl.kl_polynomial(s2, w)))

# The column at the longest element is identically one.
assert all(kl.kl_polynomial(x, a3.w0).coeffs == {0: 1} for x in a3.elements)
print("P_{x, w0} = 1 for all 24 elements")

# ---------------------------------------------------------------------------
# The C-basis.  c_basis expands C_w in the standard basis, as the map
# {y: coefficient of T_y}, from a row of the P*-recursion.

cw = kl.c_basis(s1 * s2)
print("C_{s1 s2} =", {repr(y): format_laurent(c) for y, c in cw.items()})

# ---------------------------------------------------------------------------
# Cells: strongly connected components of the C-basis multiplication graph.

left = kl.cells("left")
print(f"A3 has {len(left.blocks)} left cells with sizes",
      sorted(len(b) for b in left.blocks))

two = kl.cells("two-sided")
print(f"and {len(two.blocks)} two-sided cells with sizes",
      sorted(len(b) for b in two.blocks))

# Lusztig's a-function, read off the full h-table: the structure constants
# h_{x,y,z} come column by column from the edges of the KL W-graph.
adn = kl.lusztig_a_delta_n()
print("a-values by two-sided cell:",
      sorted({adn.a[z] for z in a3.elements}))
print("Duflo involutions:", sorted(repr(d) for d in adn.duflo))

# ---------------------------------------------------------------------------
# Weighted groups work the same way; here B3 with a heavy first generator.

b3w = build_group("B3:2,1,1")
klw = KLContext(b3w)
y, w = b3w.elements[5], b3w.w0
print("a weighted example: P*(y, w0) =", format_laurent(klw.pstar(y, w)))
print("every P_{y,w} of B3:2,1,1 is supported on even powers of v")
