"""The general powerset algebra, restated from public ``Box`` operations.

:class:`~repro.domains.powerset.PowersetDomain` serves *flat* domains
(pairwise-disjoint includes, no excludes) on a fast path and everything
else through ``_prune``/``subtract_boxes``.  The functions here are the
reference both paths must reproduce *tuple for tuple*: every candidate
clamp through the checked ``Box.intersect``, containment pruning through
``Box.contains_box``, pieces through ``subtract_boxes``.  The strategies
draw flat domains, general ones and mixtures of the two.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.domains.powerset import PowersetDomain
from repro.lang.secrets import SecretSpec
from repro.solver.boxes import Box, boxes_are_disjoint, disjoint_pieces, subtract_boxes

from tests.strategies import boxes_within


def flat_powersets(spec: SecretSpec, max_boxes: int = 4) -> st.SearchStrategy:
    """Flat domains: the disjoint pieces of random (overlapping) boxes."""
    return st.lists(boxes_within(Box(spec.bounds())), max_size=max_boxes).map(
        lambda boxes: PowersetDomain(spec, tuple(disjoint_pieces(boxes)), ())
    )


def general_powersets(spec: SecretSpec) -> st.SearchStrategy:
    """Arbitrary include/exclude lists (overlaps allowed)."""
    space = Box(spec.bounds())
    return st.builds(
        lambda inc, exc: PowersetDomain(spec, tuple(inc), tuple(exc)),
        st.lists(boxes_within(space), max_size=3),
        st.lists(boxes_within(space), max_size=2),
    )


def any_powersets(spec: SecretSpec) -> st.SearchStrategy:
    """Flat and general domains, mixed."""
    return st.one_of(flat_powersets(spec), general_powersets(spec))


def is_flat(domain: PowersetDomain) -> bool:
    return not domain.exclude and boxes_are_disjoint(list(domain.include))


def prune(include, exclude):
    kept: list[Box] = []
    for box in sorted(include, key=Box.volume, reverse=True):
        if not any(other.contains_box(box) for other in kept):
            kept.append(box)
    return tuple(kept), tuple(
        box for box in exclude if any(box.intersect(inc) is not None for inc in kept)
    )


def intersect(a: PowersetDomain, b: PowersetDomain) -> PowersetDomain:
    include = tuple(
        overlap
        for x in a.include
        for y in b.include
        if (overlap := x.intersect(y)) is not None
    )
    if not include:
        return PowersetDomain.bottom(a.spec)
    return PowersetDomain(a.spec, *prune(include, a.exclude + b.exclude))


def pieces(domain: PowersetDomain) -> list[Box]:
    return subtract_boxes(domain.include, domain.exclude)


def size(domain: PowersetDomain) -> int:
    return sum(piece.volume() for piece in pieces(domain))


def is_subset(a: PowersetDomain, b: PowersetDomain) -> bool:
    return not subtract_boxes(pieces(a), pieces(b))


def assert_same_tuples(got: PowersetDomain, want: PowersetDomain) -> None:
    """Same boxes in the same order on both sides, and the same geometry."""
    assert (got.include, got.exclude) == (want.include, want.exclude)
    assert got.pieces() == pieces(want)
    assert got.size() == size(want)
