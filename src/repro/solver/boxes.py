"""Integer box geometry.

A *box* is a product of non-empty integer intervals — the geometric object
underlying both the interval abstract domain ``A_I`` (section 4.3) and the
solver's branch-and-bound search.  This module keeps boxes purely geometric
(no predicates attached) and provides the exact set algebra the powerset
domain needs: intersection, subtraction into disjoint pieces, and exact
union volume.

Boxes are always non-empty by construction; operations that can produce the
empty set return ``None`` or an empty list instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Box",
    "subtract_box",
    "subtract_boxes",
    "disjoint_pieces",
    "intersect_all",
    "bounds_contain",
    "bounds_overlap",
    "union_volume",
    "boxes_are_disjoint",
]

Bounds = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Box:
    """A non-empty product of integer intervals ``[lo_i, hi_i]``."""

    bounds: Bounds

    def __post_init__(self) -> None:
        if not isinstance(self.bounds, tuple):
            object.__setattr__(self, "bounds", tuple(tuple(b) for b in self.bounds))
        if not self.bounds:
            raise ValueError("a box needs at least one dimension")
        for index, (lo, hi) in enumerate(self.bounds):
            if lo > hi:
                raise ValueError(f"dimension {index}: empty interval [{lo}, {hi}]")

    @classmethod
    def make(cls, *bounds: tuple[int, int]) -> "Box":
        """Build a box from per-dimension ``(lo, hi)`` pairs."""
        return cls(tuple((int(lo), int(hi)) for lo, hi in bounds))

    @classmethod
    def trusted(cls, bounds: Bounds) -> "Box":
        """Build a box from bounds the caller guarantees are valid.

        Skips ``__post_init__`` validation; for hot paths (the solver's
        splitting loop) that derive bounds from an existing box, where
        non-emptiness is structurally guaranteed.
        """
        box = object.__new__(cls)
        object.__setattr__(box, "bounds", bounds)
        return box

    # -- basic geometry ----------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of dimensions."""
        return len(self.bounds)

    def volume(self) -> int:
        """Number of integer points inside the box."""
        result = 1
        for lo, hi in self.bounds:
            result *= hi - lo + 1
        return result

    def widths(self) -> tuple[int, ...]:
        """Per-dimension point counts."""
        return tuple(hi - lo + 1 for lo, hi in self.bounds)

    def is_point(self) -> bool:
        """Whether the box contains exactly one integer point."""
        return all(lo == hi for lo, hi in self.bounds)

    def any_point(self) -> tuple[int, ...]:
        """The centre-most integer point of the box."""
        return tuple((lo + hi) // 2 for lo, hi in self.bounds)

    def contains(self, point: Sequence[int]) -> bool:
        """Point membership."""
        if len(point) != self.arity:
            raise ValueError(
                f"point has {len(point)} coordinates, box has {self.arity}"
            )
        return all(lo <= x <= hi for (lo, hi), x in zip(self.bounds, point))

    def contains_box(self, other: "Box") -> bool:
        """Whether ``other`` is entirely inside this box."""
        self._check_arity(other)
        return bounds_contain(self.bounds, other.bounds)

    def iter_points(self) -> Iterator[tuple[int, ...]]:
        """Enumerate all points (tests / tiny boxes only)."""

        def rec(index: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            if index == self.arity:
                yield prefix
                return
            lo, hi = self.bounds[index]
            for value in range(lo, hi + 1):
                yield from rec(index + 1, prefix + (value,))

        yield from rec(0, ())

    # -- algebra -------------------------------------------------------------
    def intersect(self, other: "Box") -> "Box | None":
        """Intersection, or ``None`` when the boxes are disjoint."""
        self._check_arity(other)
        bounds: list[tuple[int, int]] = []
        for (alo, ahi), (blo, bhi) in zip(self.bounds, other.bounds):
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo > hi:
                return None
            bounds.append((lo, hi))
        return Box(tuple(bounds))

    def with_dim(self, dim: int, lo: int, hi: int) -> "Box":
        """A copy with dimension ``dim`` replaced by ``[lo, hi]``."""
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}] for dimension {dim}")
        bounds = list(self.bounds)
        bounds[dim] = (lo, hi)
        return Box(tuple(bounds))

    def split(self, dim: int) -> tuple["Box", "Box"]:
        """Split in half along ``dim`` (which must have width >= 2).

        Halves are structurally non-empty, so construction skips
        validation — this is the solver's hottest box constructor.
        """
        lo, hi = self.bounds[dim]
        if lo == hi:
            raise ValueError(f"cannot split dimension {dim} of width 1")
        mid = (lo + hi) // 2
        low = list(self.bounds)
        high = list(self.bounds)
        low[dim] = (lo, mid)
        high[dim] = (mid + 1, hi)
        return Box.trusted(tuple(low)), Box.trusted(tuple(high))

    def widest_dim(self) -> int:
        """Index of the dimension with the most points (ties: lowest index)."""
        widths = self.widths()
        return widths.index(max(widths))

    def hull(self, other: "Box") -> "Box":
        """Smallest box containing both (interval join, per dimension)."""
        self._check_arity(other)
        return Box(
            tuple(
                (min(alo, blo), max(ahi, bhi))
                for (alo, ahi), (blo, bhi) in zip(self.bounds, other.bounds)
            )
        )

    def _check_arity(self, other: "Box") -> None:
        if other.arity != self.arity:
            raise ValueError(
                f"dimension mismatch: {self.arity} vs {other.arity}"
            )

    def __repr__(self) -> str:
        dims = ", ".join(f"[{lo},{hi}]" for lo, hi in self.bounds)
        return f"Box({dims})"


def subtract_box(box: Box, other: Box) -> list[Box]:
    """``box`` minus ``other`` as a list of pairwise-disjoint boxes.

    The classic n-dimensional carve: walk the dimensions, slicing off the
    parts of ``box`` that fall outside ``other``'s range in that dimension;
    what remains after all dimensions is exactly ``box ∩ other``.
    """
    overlap = box.intersect(other)
    if overlap is None:
        return [box]
    pieces: list[Box] = []
    remaining = list(box.bounds)
    for dim in range(box.arity):
        lo, hi = remaining[dim]
        olo, ohi = overlap.bounds[dim]
        if lo < olo:
            below = list(remaining)
            below[dim] = (lo, olo - 1)
            pieces.append(Box.trusted(tuple(below)))
        if ohi < hi:
            above = list(remaining)
            above[dim] = (ohi + 1, hi)
            pieces.append(Box.trusted(tuple(above)))
        remaining[dim] = (olo, ohi)
    return pieces


def subtract_boxes(keep: Iterable[Box], remove: Iterable[Box]) -> list[Box]:
    """Disjoint decomposition of ``union(keep) - union(remove)``.

    ``keep`` boxes may overlap each other; the result is always a list of
    pairwise-disjoint boxes covering exactly the set difference.
    """
    pieces = disjoint_pieces(keep)
    for hole in remove:
        pieces = [part for piece in pieces for part in subtract_box(piece, hole)]
    return pieces


def disjoint_pieces(boxes: Iterable[Box]) -> list[Box]:
    """Rewrite a list of (possibly overlapping) boxes as disjoint pieces."""
    result: list[Box] = []
    for box in boxes:
        fresh = [box]
        for existing in result:
            fresh = [part for piece in fresh for part in subtract_box(piece, existing)]
            if not fresh:
                break
        result.extend(fresh)
    return result


def union_volume(boxes: Iterable[Box]) -> int:
    """Exact number of integer points in the union of ``boxes``."""
    return sum(piece.volume() for piece in disjoint_pieces(boxes))


def boxes_are_disjoint(boxes: Sequence[Box]) -> bool:
    """Whether no two boxes share a point."""
    for i, a in enumerate(boxes):
        for b in boxes[i + 1 :]:
            if a.intersect(b) is not None:
                return False
    return True


# ---------------------------------------------------------------------------
# Unchecked kernels: callers guarantee every operand has the same arity
# (the powerset domain checks it once, at construction and spec match).
# ---------------------------------------------------------------------------


def bounds_contain(outer: Bounds, inner: Bounds) -> bool:
    """Whether ``inner`` lies inside ``outer`` (``Box.contains_box``, unchecked)."""
    for (lo, hi), (ilo, ihi) in zip(outer, inner):
        if ilo < lo or hi < ihi:
            return False
    return True


def bounds_overlap(a: Bounds, b: Bounds) -> bool:
    """Whether two boxes share a point, without building their intersection."""
    for (alo, ahi), (blo, bhi) in zip(a, b):
        if ahi < blo or bhi < alo:
            return False
    return True


def intersect_all(left: Sequence[Box], right: Sequence[Box]) -> list[Box]:
    """Every non-empty ``a.intersect(b)``, ``left``-major, arity unchecked.

    The k1·k2 candidate boxes of a powerset intersection (paper section
    6.2), equal box for box and in the same order as the nested
    ``Box.intersect`` loop; clamps of valid boxes are non-empty by the
    emptiness test, so they skip validation.
    """
    out: list[Box] = []
    for a in left:
        a_bounds = a.bounds
        for b in right:
            bounds = []
            for (alo, ahi), (blo, bhi) in zip(a_bounds, b.bounds):
                lo = alo if alo >= blo else blo
                hi = ahi if ahi <= bhi else bhi
                if lo > hi:
                    break
                bounds.append((lo, hi))
            else:
                out.append(Box.trusted(tuple(bounds)))
    return out
