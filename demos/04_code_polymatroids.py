"""q-polymatroids induced by rank-metric codes.

A matrix code C <= F_q^{n x m} induces the rank function
rho(U) = (k - dim C(U)) / m on the lattice of F_q^n, where C(U) keeps
the codewords whose column space avoids U (lands in its orthogonal
complement).  The demo certifies a representable VERTEX of the polytope
over F_2^3, shows that an MRD-induced point is NOT a vertex, and
cross-checks the closed-form MRD rank functions.
"""

from fractions import Fraction

from qrank import (build_hrep, build_lattice, code_metrics,
                   induced_polymatroid, is_vertex, mrd_closed_form,
                   vector_code, vector_code_qmatroid)
from qrank.codes import (expanded_matrix_code, gabidulin_line_code,
                         mrd_combo_independence, vertex_example_code)

lat = build_lattice(2, 3)
H = build_hrep(lat)

C = vertex_example_code()
met = code_metrics(C)
print(f"Bundled F_2-[3x2] code: k={met.k}, d={met.d}, d_perp={met.d_perp}, "
      f"MRD={met.is_mrd}")
p = induced_polymatroid(C, lat)
print("  induced point by grade:")
for d in range(4):
    print(f"    dim {d}: {[str(v) for v in p.grade_values(d)]}")
cert = is_vertex(H, p)
print(f"  certified vertex of the (2,3) polytope: {cert.is_vertex} "
      f"({len(cert.tight_rows)} tight facets of rank {cert.normal_rank})")

print("\nThe F_8-line spanned by (1, t), expanded column-wise over F_2:")
G = gabidulin_line_code()
gm = code_metrics(G)
print(f"  an F_2-[3x2, {gm.k}, {gm.d}] code, MRD: {gm.is_mrd}")
pg = induced_polymatroid(G, lat)
closed = mrd_closed_form(lat, 2, 2)
print(f"  induced point equals the m = n-1 closed form: "
      f"{pg.values == closed.values}")
print(f"  grade values: dims 0..3 -> 0, 1, 3/2, 3/2")
print(f"  a vertex? {is_vertex(H, pg).is_vertex}  "
      "(representable points need not be vertices)")

print("\nMRD closed form for m >= n is a uniform q-matroid:")
u = mrd_closed_form(lat, 4, 2)
print("  (q,n,m,d) = (2,3,4,2) ->", [str(v) for v in u.values])

print("\nVector code over F_8 of length 2, generated by (1, t):")
vc = vector_code(2, 3, 2, [(1, 2)])
lat22 = build_lattice(2, 2)
print("  induced q-matroid on F_2^2:",
      [str(v) for v in vector_code_qmatroid(vc, lat22).values])
print("  its expansion is the MRD code above:",
      code_metrics(expanded_matrix_code(vc)).is_mrd)

print("\nCombination of two MRD-induced q-polymatroids (n=5, m=4):")
rep = mrd_combo_independence(5, 3, 2, Fraction(1, 2))
print(f"  k1={rep.k1}, k2={rep.k2}, mu={rep.mu}")
print(f"  every subspace mu-independent: {rep.all_independent}")
print("  values by dimension:", [str(v) for v in rep.values_by_dim])
