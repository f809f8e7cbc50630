"""Tour of the q-rank polytope for the smallest parameters.

Builds the polytope of all q-rank functions on F_2^2, prints its
H-representation, finds the integer points (the six q-matroids on
F_2^2), certifies each as a vertex, and finishes with the face counts
and the slightly larger F_3^2 case with its rational vertices.
"""

from qrank import (affine_dimension, build_hrep, build_lattice,
                   enumerate_vertices, f_vector, interior_witness, is_vertex,
                   lattice_points, membership)

lat = build_lattice(2, 2)
print(f"L(F_2^2) has {lat.size} subspaces, listed dimension by dimension:")
for i, sub in enumerate(lat.subspaces):
    print(f"  v_{i + 1}: dim {sub.dim}, basis rows {sub.basis.entries}")

H = build_hrep(lat)
print("\nReduced H-representation (a.v <= b):")
print(H.to_text())

print(f"Affine dimension: {affine_dimension(H)} (full: one less than |L|)")

wit = interior_witness(lat)
print(f"Interior witness dim/(dim+1): {[str(v) for v in wit.values]}"
      f" -> {membership(H, wit).status}")

points = lattice_points(lat)
print(f"\nInteger points ({len(points)}), each a q-matroid rank function:")
for p in points:
    cert = is_vertex(H, p)
    print(f"  {[int(v) for v in p.values]}  vertex={cert.is_vertex} "
          f"(tight rows of rank {cert.normal_rank})")

verts = enumerate_vertices(H)
print(f"\nDouble description finds {len(verts)} vertices; "
      f"for (q, n) = (2, 2) they are exactly the integer points.")

fv = f_vector(H)
print(f"f-vector: {fv} "
      f"(alternating sum {sum((-1) ** i * c for i, c in enumerate(fv))}, "
      "Euler-consistent)")

print("\n--- F_3^2: rational vertices appear ---")
lat32 = build_lattice(3, 2)
H32 = build_hrep(lat32)
verts32 = enumerate_vertices(H32)
integer = [p for p in verts32 if p.is_integral()]
fractional = [p for p in verts32 if not p.is_integral()]
print(f"{len(verts32)} vertices: {len(integer)} integer (the q-matroids) "
      f"and {len(fractional)} fractional, e.g.:")
for p in fractional:
    print("  ", [str(v) for v in p.values])
