"""qrank: exact tools for the polytope of q-rank functions.

The package materializes the polytope whose points are the q-rank
functions on the subspace lattice of F_q^n, enumerates and certifies
its vertices in exact rational arithmetic, and implements the
surrounding q-polymatroid toolbox: uniform and paving constructions,
convex combinations, mu-independence, flats and cyclic flats, the
characteristic Puiseux polynomial, and the q-polymatroids induced by
rank-metric codes.

The public names below are resolved on first access, so importing the
package (and with it ``python -m qrank``) loads only the submodules a
caller uses.  Each access reads the submodule's current attribute;
nothing is cached here.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    "charpoly": ("TruncatedPuiseux", "char_puiseux", "moebius",
                 "paving_combo_char"),
    "constructions": ("PavingSpec", "convex_combination", "flag_uniform_combo",
                      "paving", "paving_combo_report", "paving_spec",
                      "two_uniform_combo_report", "uniform"),
    "codes": ("MatrixCode", "VectorCode", "code_metrics", "dual_code",
              "induced_polymatroid", "matrix_code", "mrd_closed_form",
              "mrd_combo_independence", "shortening_dim", "vector_code",
              "vector_code_qmatroid"),
    "fields": ("Field", "FqMatrix", "make_field", "nullspace", "rref"),
    "polytope": ("HRepresentation", "affine_dimension", "build_hrep",
                 "enumerate_vertices", "f_vector", "interior_witness",
                 "is_vertex", "lattice_points", "membership"),
    "rankfun": ("AxiomReport", "RankPoint", "check_axioms", "classify",
                "closure", "cyclic_flats", "cyclic_spaces", "flats",
                "independence_report", "mu_bases", "principal_denominator",
                "rank_point"),
    "subspaces": ("SubspaceLattice", "build_lattice", "gaussian_binomial"),
}
_MODULE_OF = {name: module for module, names in _SUBMODULE.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
