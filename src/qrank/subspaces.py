"""The lattice of subspaces of F_q^n with a fixed linear order.

Subspaces are identified with their canonical RREF bases and listed
grade by grade (dimension 0 first, full space last); inside a grade the
order is lexicographic on the flattened basis entries.  That order is
what coordinatizes rank points, so it must never change.

build_lattice enumerates every subspace exactly once, records the cover
relation and the atom and hyperplane sets of every space, and exposes
the helpers the rest of the package leans on.  The build makes no
table with one bit or one entry per pair of spaces: the lattice is
atomistic, so the atom sets carry the whole order.

The order is built from the canonical bases, with no span listed and
no pass over the comparable pairs.  The tail of a space X with
canonical rows (b_1, .., b_r) is T = (b_2, .., b_r), itself canonical
and earlier in the order.  A space is the span of its atoms; call the
atoms of X that T lacks its new atoms.  They are the atoms spanned by
b_1 + v, v in span(T), each with its leading 1 at b_1's pivot.  As
span(T) is the union over c in F of c b_2 + span(b_3, .., b_r), they
are, over c, the new atoms of the space (b_1 + c b_2, b_3, .., b_r),
which is canonical too and one grade down; an atom's one new atom is
itself.  So the atoms of X are those of T with its new atoms, both
read off spaces built before it, and X <= Y exactly when every atom of
X lies in Y (leq).

Meet and join are read off two small masks per space, with no linear
algebra: its atom set A_X (bit a for the a-th atom) and its hyperplane
set H_X (bit h for the h-th hyperplane), each with a dict back to the
index.  H_X is the AND, over the atoms of X, of the hyperplanes that
hold each atom (every hyperplane for the zero space).  A space is the
span of its atoms and the intersection of the hyperplanes that hold
it, so both sets determine it; the atoms of X meet Y are those in
both, A_X & A_Y, and the hyperplanes that hold X join Y are those that
hold both, H_X & H_Y.  The masks have one bit per atom or hyperplane,
not one per space, so the AND is cheap even on the largest lattices.
The upper covers of X are its joins X v a with the atoms a it lacks;
each cover is found once, as the atoms of a cover found are not tried
again, and the lower covers are their transpose.  The below-mask, one
bit per space (SubspaceLattice.below_mask), is built from the lower
covers only when read, and nothing in the package reads it.

The lattice holds no table with one entry per row of the paper's
inequality system: only the polytope's text writes every row, and it
reads each pair's meet and join off the atom and hyperplane sets as it
goes.  The diamonds, the pairs x, y that both cover their meet, are
tabulated (SubspaceLattice.diamonds), from the covers and the
hyperplane sets: they carry the facets among the submodularity rows.
With the atom bounds and the top covers they make the facet table
(SubspaceLattice.facets), each entry an (x, y, m, j) row that holds iff
w[m] + w[j] <= w[x] + w[y] on one padded vector
w = (0, mu v_1, .., mu v_top, 0, mu, 2 mu, .., n mu)
(SubspaceLattice.padded).  The table is all that the axiom check,
certification, double description and the f-vector read; the
integer-point search propagates the diamonds.
"""

from __future__ import annotations

import json
from functools import cached_property, reduce
from itertools import combinations, product
from operator import and_

from .errors import OutOfRange, TooLarge, show_int
from .fields import FqMatrix, make_field, nullspace, rref

MAX_LATTICE_SIZE = 1000


def gaussian_binomial(n, l, q):
    """Number of l-dimensional subspaces of F_q^n."""
    if not 0 <= l <= n:
        raise OutOfRange(f"need 0 <= l <= n, got l={l}, n={n}")
    num = 1
    den = 1
    for i in range(l):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def _rref_bases(q, n, r):
    """The rows of every full-rank r x n RREF matrix over F_q, one tuple
    of row tuples per subspace: one empty basis when r = 0."""
    for pivots in combinations(range(n), r):
        pivot_set = set(pivots)
        free = [(i, j) for i in range(r)
                for j in range(pivots[i] + 1, n) if j not in pivot_set]
        for vals in product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(r)]
            for i in range(r):
                rows[i][pivots[i]] = 1
            for (i, j), v in zip(free, vals):
                rows[i][j] = v
            yield tuple(map(tuple, rows))


class Subspace:
    """A subspace of F_q^n held by its canonical RREF basis."""

    __slots__ = ("basis", "dim")

    def __init__(self, basis):
        self.basis = basis
        self.dim = basis.rows

    def __repr__(self):
        return f"Subspace(dim={self.dim}, rows={self.basis.entries})"


class SubspaceLattice:
    """Fully enumerated L(F_q^n); immutable after build_lattice returns."""

    def __init__(self, field, n, subspaces):
        self.field = field
        self.q = field.q
        self.n = n
        self.subspaces = tuple(subspaces)
        self.size = len(self.subspaces)
        self.dims = tuple(s.dim for s in self.subspaces)
        self.index = {s.basis.entries: i for i, s in enumerate(self.subspaces)}
        offsets = [0] * (n + 2)
        for s in self.subspaces:
            offsets[s.dim + 1] += 1
        for d in range(1, n + 2):
            offsets[d] += offsets[d - 1]
        self.grade_offsets = tuple(offsets)
        self.atom_range = range(offsets[1], offsets[2])
        # atoms from tails (see the module docstring): new_atoms[j] holds
        # the atoms of space j that its tail lacks, as a tuple and as bits
        first = self.atom_range.start
        add, mul, index = field._add, field._mul, self.index
        new_atoms = [((), 0)] + [((a,), 1 << (a - first)) for a in self.atom_range]
        atoms_of, atom_sets = map(list, zip(*new_atoms))
        for j in range(offsets[2], self.size):
            rows = self.subspaces[j].basis.entries
            b, rest = rows[0], rows[2:]
            plus_b = [add[x] for x in b]
            new, bits = new_atoms[index[(b,) + rest]]
            for times in mul[1:]:
                # the space (b + c b_2, b_3, .., b_r) for c = times[1]
                row = tuple([s[times[y]] for s, y in zip(plus_b, rows[1])])
                more, more_bits = new_atoms[index[(row,) + rest]]
                new += more
                bits |= more_bits
            new_atoms.append((new, bits))
            tail = index[rows[1:]]
            atoms_of.append(atoms_of[tail] + tuple(sorted(new)))
            atom_sets.append(atom_sets[tail] | bits)
        self.atoms_of = tuple(atoms_of)
        self.atom_sets = tuple(atom_sets)
        # the hyperplane set of i has bit k set when the k-th hyperplane
        # holds i: the AND, over the atoms of i, of the hyperplanes that
        # hold each atom (all of them for the zero space)
        hyperplanes = self.grade(n - 1)
        holding = [0] * len(self.atom_range)
        for k, h in enumerate(hyperplanes):
            for a in atoms_of[h]:
                holding[a - first] |= 1 << k
        full = (1 << len(hyperplanes)) - 1
        self.hyperplane_sets = hyper = tuple(
            reduce(and_, [holding[a - first] for a in atoms], full)
            for atoms in atoms_of)
        # the dicts map both sets back to the index objects of the one
        # tuple _ids, which the diamonds share
        self._ids = ids = tuple(range(self.size))
        self.space_of_atom_set = dict(zip(self.atom_sets, ids))
        self.space_of_hyperplane_set = join = dict(zip(hyper, ids))
        # the upper covers of i are its joins with the atoms it lacks,
        # each found once: the atoms of a cover are not tried again; the
        # lower covers are their transpose
        ups, downs = [], [[] for _ in range(self.size)]
        atoms = (1 << len(self.atom_range)) - 1
        for i, (ai, hi) in enumerate(zip(atom_sets, hyper)):
            left, up = atoms & ~ai, []
            while left:  # i v a for the lowest atom a left
                c = join[hi & holding[(left & -left).bit_length() - 1]]
                up.append(c)
                left &= ~atom_sets[c]
            ups.append(tuple(sorted(up)))
            for c in up:
                downs[c].append(i)
        self.covers_up = tuple(ups)
        self.covers_down = tuple(tuple(d) for d in downs)
        self._digest = None

    # -- basic queries -------------------------------------------------

    @property
    def zero(self):
        return 0

    @property
    def top(self):
        return self.size - 1

    def grade(self, d):
        return range(self.grade_offsets[d], self.grade_offsets[d + 1])

    def leq(self, i, j):
        ai = self.atom_sets[i]
        return self.atom_sets[j] & ai == ai

    @cached_property
    def below_mask(self):
        """Bit i of below_mask[j] is set when space i lies in space j: j
        with the below-masks of its lower covers, built on first read.
        It holds one bit per pair of spaces, so the package itself reads
        the atom sets instead (leq)."""
        below = []
        for j, down in enumerate(self.covers_down):
            mask = 1 << j
            for i in down:
                mask |= below[i]
            below.append(mask)
        return tuple(below)

    def index_of_matrix(self, M):
        """Canonical index of the row space of M (any spanning matrix)."""
        return self.index[rref(M).matrix.entries]

    def index_of_rows(self, rows):
        M = FqMatrix.from_rows(self.field, rows, self.n)
        return self.index_of_matrix(M)

    # -- meet / join ---------------------------------------------------

    def meet(self, i, j):
        return self.space_of_atom_set[self.atom_sets[i] & self.atom_sets[j]]

    def join(self, i, j):
        sets = self.hyperplane_sets
        return self.space_of_hyperplane_set[sets[i] & sets[j]]

    @cached_property
    def diamonds(self):
        """Every diamond (x, y, meet, join): x < y both upper covers of
        their meet, so the join covers both; in order of x, then y, the
        order of the system's pair rows, which hold them all.  Built on
        first use from each space's upper covers, taken in pairs, with
        no pass over the incomparable pairs; the join is the space with
        the hyperplanes that hold both, and each index is one of the
        shared int objects of _ids.

        The diamonds carry the facets among the submodularity rows:
        every other pair row is a sum of diamond rows."""
        ids, H, join = self._ids, self.hyperplane_sets, self.space_of_hyperplane_set
        out = []
        for m, ups in zip(ids, self.covers_up):
            out += [(ids[x], ids[y], m, join[H[x] & H[y]])
                    for x, y in combinations(ups, 2)]
        out.sort()
        return tuple(out)

    @cached_property
    def facets(self):
        """The facet rows of the q-rank polytope, in the paper's row
        order, in the one row format of the polytope's system.

        A row (x, y, m, j) holds iff w[m] + w[j] <= w[x] + w[y], where
        w = (0, mu v_1, .., mu v_top, 0, mu, 2 mu, .., n mu) is a point
        scaled by mu and padded (padded): index 0 and index size read 0,
        and index size + d reads d mu.  So the bound v_x <= dim x is
        (size + dim x, size, x, size), nonnegativity -v_a <= 0 is
        (a, size, size, size), the cover v_x <= v_y is (y, size, x, size),
        and the submodularity row of an incomparable pair x, y is
        (x, y, meet, join), a zero meet reading 0.  The
        facets are the bound v_a <= 1 on each atom a,
        (size + 1, size, a, size), the cover v_h <= v_top of the top by
        each hyperplane h, (top, size, h, size), and the diamonds, the
        entries of self.diamonds themselves.  The padding follows the
        spaces rather than being negative, since CPython indexes a tuple
        fastest at a nonnegative int.  Built on first use; the one
        definition of the facets that every certifier reads (see
        polytope for why these rows are the facets)."""
        top, zero, one = self.top, self.size, self.size + 1
        return (tuple((one, zero, a, zero) for a in self.atom_range)
                + tuple((top, zero, h, zero) for h in self.covers_down[top])
                + self.diamonds)

    def padded(self, mu, values):
        """The vector w that every row (x, y, m, j) is read on (see
        facets): values, over the lattice indices and scaled by mu, with
        v_0 read as 0 whatever values[0] is, then 0, mu, 2 mu, .., n mu.
        Double description pads a ray with its t as mu."""
        return (0, *values[1:], *[d * mu for d in range(self.n + 1)])

    def join_many(self, indices):
        acc = 0
        for i in indices:
            acc = self.join(acc, i)
        return acc

    def orthogonal_complement(self, i):
        """Index of U^perp under the standard dot product."""
        sub = self.subspaces[i]
        ns = nullspace(sub.basis)
        return self.index[ns.entries]

    # -- serialization -------------------------------------------------

    def dump(self):
        return {
            "q": self.q,
            "n": self.n,
            "subspaces": [[list(r) for r in s.basis.entries] for s in self.subspaces],
        }

    def dump_json(self):
        return json.dumps(self.dump(), sort_keys=True, separators=(",", ":"))

    def order_digest(self):
        if self._digest is None:
            import hashlib  # only the commands that use a digest load it
            h = hashlib.sha256(self.dump_json().encode("ascii"))
            self._digest = h.hexdigest()[:16]
        return self._digest

    def __repr__(self):
        return f"SubspaceLattice(q={self.q}, n={self.n}, size={self.size})"


def build_lattice(q, n, max_size=MAX_LATTICE_SIZE):
    """Enumerate L(F_q^n) in canonical order.

    Raises TooLarge when the lattice would have more than max_size
    elements (the default keeps exhaustive oracles feasible).  The
    grades are counted one at a time and the count stops at the first
    that passes the cap, so a large n is refused at once rather than
    after summing every Gaussian binomial of it.
    """
    if n < 2:
        raise OutOfRange(f"need n >= 2, got {show_int(n)}")
    field = make_field(q)
    refusal = (f"L(F_{q}^{show_int(n)}) has more than {show_int(max_size)} "
               "subspaces, the cap")
    # grade 1 alone holds more than q^(n-1) >= 2^(n-1) subspaces, so a
    # huge n is refused before q**n is formed
    if n > max_size.bit_length():
        raise TooLarge(refusal)
    total = 0
    for l in range(n + 1):
        total += gaussian_binomial(n, l, q)
        if total > max_size:
            raise TooLarge(refusal)
    subspaces = []
    for r in range(n + 1):
        # tuples of equal-length rows compare in their flattened order
        grade = sorted(_rref_bases(q, n, r))
        expected = gaussian_binomial(n, r, q)
        assert len(grade) == expected, (q, n, r, len(grade), expected)
        subspaces.extend(Subspace(FqMatrix(field, r, n, rows)) for rows in grade)
    return SubspaceLattice(field, n, subspaces)
