"""Exact rational density exponents over the pair shadow.

For a hypergraph F with at least one edge, the two exponents maximize
(e' + offset) / (v' - 1) over all nonempty edge subsets F' of the 2-shadow of
F, where v' counts the vertices covered by F'.  alpha uses offset 1 and beta
offset 0; both arise as the polylogarithmic exponents governing how large a
pattern-free induced subset the corresponding constructions leave behind.

Any maximizer must contain every shadow edge among its covered vertices
(adding such an edge raises the numerator without changing the denominator),
so enumerating the induced subgraphs without isolated vertices is exact.
The tests check it against a sweep of all 2^e edge subsets.
"""

from __future__ import annotations

import itertools
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
    nbhd = sh.nbhd
    # A vertex set with an isolated vertex has the same edges as the smaller
    # set those edges cover, so it only repeats that set's witness.  Only the
    # sets covered by their own shadow edges are visited; each is its witness.
    scored = []
    for size in range(2, len(pool) + 1):
        for s in itertools.combinations(pool, size):
            inside = sum(1 << v for v in s)
            degrees = [(nbhd[v] & inside).bit_count() for v in s]
            if all(degrees):
                scored.append((Fraction(sum(degrees) // 2 + offset, size - 1), -size, s))
    # Maximum value, then fewest vertices, then the least (canonical form,
    # edge list), which is computed only for witnesses still tied.
    top = max(key[:2] for key in scored)
    tied = [
        (s, tuple(e for e in sh.edges if e[0] in s and e[1] in s))
        for value, neg_size, s in scored if (value, neg_size) == top
    ]
    if len(tied) > 1:
        tied.sort(key=lambda w: (canonical_form(induced(sh, w[0])), w[1]))
    vertices, edges = tied[0]
    return DensityReport(top[0], vertices, edges, offset)


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
