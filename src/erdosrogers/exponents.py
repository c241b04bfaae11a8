"""Exact rational density exponents over the pair shadow.

For a hypergraph F with at least one edge, the two exponents maximize
(e' + offset) / (v' - 1) over all nonempty edge subsets F' of the 2-shadow of
F, where v' counts the vertices covered by F'.  alpha uses offset 1 and beta
offset 0; both arise as the polylogarithmic exponents governing how large a
pattern-free induced subset the corresponding constructions leave behind.

Any maximizer must contain every shadow edge among its covered vertices
(adding such an edge raises the numerator without changing the denominator),
so visiting the induced subgraphs without isolated vertices is exact.  One
depth-first walk adds covered vertices in increasing order, updating the
set's bitmask, edge count and neighbourhood union in O(1) per step, and keeps
per size only the largest edge count and the sets reaching it.  The tests
check it against sweeps of all vertex subsets and of all 2^e edge subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, InvalidParameterError
from .hypergraph import Hypergraph, induced, shadow
from .isomorphism import canonical_form

VERTEX_ENUM_CAP = 16


@dataclass(frozen=True)
class DensityReport:
    """The exact maximum plus the sub-2-graph achieving it.

    witness_vertices are the covered vertices (original labels of F) and
    witness_edges the shadow edges among them; value equals
    (len(witness_edges) + numerator_offset) / (len(witness_vertices) - 1).
    """

    value: Fraction
    witness_vertices: tuple[int, ...]
    witness_edges: tuple[tuple[int, int], ...]
    numerator_offset: int

    def recompute(self) -> Fraction:
        return Fraction(
            len(self.witness_edges) + self.numerator_offset,
            len(self.witness_vertices) - 1,
        )


def _densest(f: Hypergraph, offset: int) -> DensityReport:
    if not f.edges:
        raise InvalidParameterError("exponent undefined for an edgeless hypergraph")
    if f.r < 2:
        raise InvalidParameterError(f"uniformity must be >= 2, got {f.r}")
    sh = shadow(f, 2)
    pool = sorted({v for e in sh.edges for v in e})
    if len(pool) > VERTEX_ENUM_CAP:
        raise CapacityError(
            f"exact enumeration limited to {VERTEX_ENUM_CAP} covered vertices, "
            f"got {len(pool)}"
        )
    # Per size: the most shadow edges of a set without an isolated vertex,
    # and the sets with that many, in lexicographic order.
    most = [-1] * (len(pool) + 1)
    kept = [[] for _ in most]
    steps = [(j + 1, 1 << v, sh.nbhd[v]) for j, v in enumerate(pool)]

    def walk(i, inside, count, union):
        for after, bit, nbhd in steps[i:]:
            grown = inside | bit
            edges = count + (nbhd & inside).bit_count()
            reach = union | nbhd
            if not grown & ~reach:
                size = grown.bit_count()
                if edges > most[size]:
                    most[size] = edges
                    kept[size] = [grown]
                elif edges == most[size]:
                    kept[size].append(grown)
            if after < len(steps):
                walk(after, grown, edges, reach)

    walk(0, 0, 0, 0)
    # Maximum value, then fewest vertices, then the least (canonical form,
    # edge list), which is computed only for witnesses still tied.
    value, neg_size = max(
        (Fraction(c + offset, n - 1), -n) for n, c in enumerate(most) if c >= 0
    )
    tied = [
        (tuple(v for v in pool if mask >> v & 1),
         tuple((a, b) for a, b in sh.edges if mask >> a & mask >> b & 1))
        for mask in kept[-neg_size]
    ]
    if len(tied) > 1:
        tied.sort(key=lambda w: (canonical_form(induced(sh, w[0])), w[1]))
    vertices, edges = tied[0]
    return DensityReport(value, vertices, edges, offset)


def alpha(f: Hypergraph) -> DensityReport:
    """max (e' + 1)/(v' - 1) over nonempty sub-2-graphs of the 2-shadow of f."""
    return _densest(f, 1)


def beta(f: Hypergraph) -> DensityReport:
    """max e'/(v' - 1) over nonempty sub-2-graphs of the 2-shadow of f."""
    return _densest(f, 0)


def check_concluding_condition(f: Hypergraph) -> bool:
    """True iff beta(f) equals e(shadow) / (v(f) - 1), e(shadow) counting the
    edges of the 2-shadow of f and v(f) = f.n its vertices, isolated ones
    included.  Without isolated vertices this says that the full 2-shadow
    attains the offset-0 maximum.  With them it can be False even when it
    does: K^3_3 plus an isolated vertex has beta = 3/2 on its full shadow,
    but 3 / (4 - 1) = 1."""
    if not f.edges:
        raise InvalidParameterError("condition undefined for an edgeless hypergraph")
    sh = shadow(f, 2)
    return beta(f).value == Fraction(len(sh.edges), f.n - 1)
