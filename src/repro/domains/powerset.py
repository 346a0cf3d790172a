"""The powerset-of-intervals abstract domain ``A_P`` (paper section 4.4).

A :class:`PowersetDomain` is backed by two lists of boxes, exactly like the
paper's encoding:

* ``include`` (the paper's ``dom_i``) — regions contained in the domain;
* ``exclude`` (the paper's ``dom_o``) — regions carved *out* of the domain.

A secret belongs to the domain iff it lies in some include box and in no
exclude box.  This include/exclude representation is what makes iterative
synthesis simple (Algorithm 1 appends one box per iteration, to ``include``
for under-approximations and to ``exclude`` for over-approximations).

Deviations from the paper (both strict improvements, see DESIGN.md):

* ``size`` is *exact* for arbitrary box lists, computed on a disjoint
  decomposition, where the paper computes Σ|include| − Σ|exclude| (exact
  only when include boxes are disjoint and excludes sit inside them — an
  invariant the paper's synthesizer maintains but the data type does not).
  The paper's formula is kept as :meth:`size_disjoint_estimate`.
* ``is_subset`` is exact, where the paper's check is sound but incomplete.

*Flat* domains — no exclude boxes, pairwise-disjoint includes, the
invariant Algorithm 1 keeps for under-approximations — take a fast path
(see :meth:`PowersetDomain.is_flat`): their includes already are their
disjoint pieces, and intersecting two of them needs no pruning.  The
general ``_prune``/``subtract_boxes`` algebra serves every other domain
and is the differential oracle for the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.lang.ast import BoolExpr
from repro.lang.secrets import SecretSpec, SecretValue
from repro.lang.transform import conjoin
from repro.domains.base import AbstractDomain
from repro.domains.box import IntervalDomain
from repro.solver import vectoreval
from repro.solver.boxes import (
    Box,
    bounds_contain,
    bounds_overlap,
    intersect_all,
    subtract_boxes,
)
from repro.solver.regions import any_box_formula, outside_boxes_formula

__all__ = ["PowersetDomain", "stack_include", "intersect_stacked"]


@dataclass(frozen=True)
class PowersetDomain(AbstractDomain):
    """A finite union of boxes minus a finite union of boxes (``A_P``)."""

    spec: SecretSpec
    include: tuple[Box, ...]
    exclude: tuple[Box, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.include, tuple):
            object.__setattr__(self, "include", tuple(self.include))
        if not isinstance(self.exclude, tuple):
            object.__setattr__(self, "exclude", tuple(self.exclude))
        space = Box(self.spec.bounds())
        for box in (*self.include, *self.exclude):
            if box.arity != self.spec.arity:
                raise ValueError(
                    f"box arity {box.arity} != secret arity {self.spec.arity}"
                )
            if not space.contains_box(box):
                raise ValueError(
                    f"box {box} exceeds the global bounds of {self.spec.name!r}"
                )

    # -- constructors ------------------------------------------------------
    @classmethod
    def top(cls, spec: SecretSpec) -> "PowersetDomain":
        """The full secret space."""
        return cls(spec, (Box(spec.bounds()),), ())

    @classmethod
    def bottom(cls, spec: SecretSpec) -> "PowersetDomain":
        """The empty domain."""
        return cls(spec, (), ())

    @classmethod
    def from_interval(cls, domain: IntervalDomain) -> "PowersetDomain":
        """Lift an interval domain into the powerset domain."""
        if domain.box is None:
            return cls.bottom(domain.spec)
        return cls(domain.spec, (domain.box,), ())

    @classmethod
    def from_boxes(
        cls,
        spec: SecretSpec,
        include: Iterable[Box],
        exclude: Iterable[Box] = (),
    ) -> "PowersetDomain":
        """Build from explicit include/exclude box lists."""
        return cls(spec, tuple(include), tuple(exclude))

    @classmethod
    def _derived(
        cls,
        spec: SecretSpec,
        include: tuple[Box, ...],
        exclude: tuple[Box, ...] = (),
    ) -> "PowersetDomain":
        """A domain whose boxes derive from already-validated ones.

        Clamps and subsets of boxes inside ``spec``'s space stay inside
        it, so the ``__post_init__`` checks are skipped; every public
        constructor still validates.
        """
        domain = object.__new__(cls)
        object.__setattr__(domain, "spec", spec)
        object.__setattr__(domain, "include", include)
        object.__setattr__(domain, "exclude", exclude)
        return domain

    # -- geometry ---------------------------------------------------------
    def is_flat(self) -> bool:
        """Whether the domain is pairwise-disjoint include boxes only.

        Then :meth:`pieces` is the include tuple itself and :meth:`size`
        is Σ volume.  Intersections of flat domains are flat by
        construction and say so; any other domain (decoded payloads,
        dilated bounds) is checked once and the answer cached.
        """
        flat = self.__dict__.get("_flat")
        if flat is None:
            include = self.include
            flat = not self.exclude and not any(
                bounds_overlap(a.bounds, b.bounds)
                for i, a in enumerate(include)
                for b in include[i + 1 :]
            )
            object.__setattr__(self, "_flat", flat)
        return flat

    def pieces(self) -> list[Box]:
        """The represented set as pairwise-disjoint boxes (cached)."""
        cached = self.__dict__.get("_pieces_cache")
        if cached is None:
            if self.is_flat():
                cached = list(self.include)
            else:
                cached = subtract_boxes(self.include, self.exclude)
            object.__setattr__(self, "_pieces_cache", cached)
        return cached

    # -- AbstractDomain methods ---------------------------------------------
    def contains(self, secret: SecretValue) -> bool:
        point = self.spec.validate_value(secret)
        if any(box.contains(point) for box in self.exclude):
            return False
        return any(box.contains(point) for box in self.include)

    def is_subset(self, other: AbstractDomain) -> bool:
        self._check_same_spec(other)
        other_pieces = _pieces_of(other)
        return not subtract_boxes(self.pieces(), other_pieces)

    def intersect(self, other: AbstractDomain) -> "PowersetDomain":
        self._check_same_spec(other)
        if isinstance(other, IntervalDomain):
            other = PowersetDomain.from_interval(other)
        if not isinstance(other, PowersetDomain):
            raise TypeError(f"cannot intersect PowersetDomain with {type(other)}")
        # Same spec, so every box has the spec's arity: the candidate
        # clamps run unchecked.
        return _intersection(self, other, intersect_all(self.include, other.include))

    def size(self) -> int:
        cached = self.__dict__.get("_size_cache")
        if cached is None:
            cached = sum(piece.volume() for piece in self.pieces())
            object.__setattr__(self, "_size_cache", cached)
        return cached

    def __hash__(self) -> int:
        # Fleets group thousands of sessions and ledger accounts by their
        # knowledge domain; the field hash walks every box, so it is
        # computed once per (immutable) instance.
        cached = self.__dict__.get("_hash_cache")
        if cached is None:
            cached = hash((self.spec, self.include, self.exclude))
            object.__setattr__(self, "_hash_cache", cached)
        return cached

    def __getstate__(self) -> dict:
        # A cached string hash is only valid under this process's hash seed.
        state = dict(self.__dict__)
        state.pop("_hash_cache", None)
        return state

    def size_disjoint_estimate(self) -> int:
        """The paper's Σ|include| − Σ|exclude| size formula.

        Exact only when include boxes are pairwise disjoint and exclude
        boxes are disjoint and contained in the include region — the
        invariant Algorithm 1 maintains.  Kept for fidelity/benchmarks.
        """
        inc = sum(box.volume() for box in self.include)
        exc = sum(box.volume() for box in self.exclude)
        return inc - exc

    def is_empty(self) -> bool:
        return not self.pieces()

    def member_formula(self) -> BoolExpr:
        names = self.spec.field_names
        return conjoin(
            (
                any_box_formula(self.include, names),
                outside_boxes_formula(self.exclude, names),
            )
        )

    # -- conveniences ------------------------------------------------------
    def boxes(self) -> Sequence[Box]:
        """The domain as disjoint boxes (same as :meth:`pieces`)."""
        return self.pieces()

    def normalized(self) -> "PowersetDomain":
        """An equivalent domain with no exclude boxes (disjoint includes)."""
        return PowersetDomain(self.spec, tuple(self.pieces()), ())

    def pruned(self) -> "PowersetDomain":
        """An equivalent domain without redundant boxes.

        Include boxes contained in another include box, and exclude boxes
        that touch no include box, are dropped — the same canonicalization
        :meth:`intersect` applies to its results.
        """
        return PowersetDomain._derived(self.spec, *_prune(self.include, self.exclude))

    def __repr__(self) -> str:
        return (
            f"PowersetDomain({self.spec.name}, include={list(self.include)}, "
            f"exclude={list(self.exclude)})"
        )


def _pieces_of(domain: AbstractDomain) -> list[Box]:
    if isinstance(domain, PowersetDomain):
        return domain.pieces()
    if isinstance(domain, IntervalDomain):
        return list(domain.boxes())
    raise TypeError(f"unsupported domain type {type(domain)}")


def _prune(
    include: tuple[Box, ...], exclude: tuple[Box, ...]
) -> tuple[tuple[Box, ...], tuple[Box, ...]]:
    """Drop redundant boxes after an intersection.

    Intersecting powersets of k1 and k2 boxes yields up to k1*k2 boxes
    (the blow-up the paper observes in section 6.2); many are contained in
    others or no longer touch any include region.  Pruning is semantics-
    preserving and keeps long downgrade chains tractable.
    """
    kept_include: list[Box] = []
    for box in sorted(include, key=Box.volume, reverse=True):
        bounds = box.bounds
        if not any(bounds_contain(other.bounds, bounds) for other in kept_include):
            kept_include.append(box)
    kept_exclude = [
        box
        for box in exclude
        if any(bounds_overlap(box.bounds, inc.bounds) for inc in kept_include)
    ]
    return tuple(kept_include), tuple(kept_exclude)


def _intersection(
    a: PowersetDomain, b: PowersetDomain, include: list[Box]
) -> PowersetDomain:
    """``a ∩ b`` from its candidate include boxes (``a``-major clamps).

    For two flat operands the candidates are pairwise disjoint — each
    lies in a distinct (a-box, b-box) pair of disjoint boxes — and
    disjoint non-empty boxes never contain one another, so :func:`_prune`
    would keep every candidate and only apply its stable volume-descending
    sort.  That sort is all the flat path does; the result is flat, and
    its size is the volume sum it already computed.
    """
    if not include:
        return PowersetDomain.bottom(a.spec)
    if a.is_flat() and b.is_flat():
        volumes = [box.volume() for box in include]
        order = sorted(range(len(include)), key=volumes.__getitem__, reverse=True)
        result = PowersetDomain._derived(a.spec, tuple(include[i] for i in order))
        object.__setattr__(result, "_flat", True)
        object.__setattr__(result, "_size_cache", sum(volumes))
        return result
    return PowersetDomain._derived(a.spec, *_prune(tuple(include), a.exclude + b.exclude))


# ---------------------------------------------------------------------------
# Tensor codec: fleets of powerset domains as stacked boxes + owner index
# ---------------------------------------------------------------------------


def stack_include(domains: Sequence[PowersetDomain]) -> tuple:
    """Encode many powerset include lists as stacked box tensors.

    Returns ``(lo, hi, owner)``: int64 arrays of shape ``[m, arity]``
    over all include boxes of all domains (in domain order, each
    domain's boxes in their stored order) plus the owning domain's index
    per row.  The stacked form is what one broadcasted candidate
    intersection runs on in :func:`intersect_stacked`.
    """
    np = vectoreval.require_numpy()
    arity = domains[0].spec.arity if domains else 0
    bounds = np.array(
        [box.bounds for domain in domains for box in domain.include], dtype=np.int64
    ).reshape(-1, arity, 2)
    owner = np.repeat(
        np.arange(len(domains), dtype=np.int64),
        [len(domain.include) for domain in domains],
    )
    return bounds[:, :, 0], bounds[:, :, 1], owner


def intersect_stacked(
    priors: Sequence[PowersetDomain], other: AbstractDomain
) -> list[PowersetDomain]:
    """Intersect many powerset priors with one domain in a single broadcast.

    Bit-identical to ``[prior.intersect(other) for prior in priors]``:
    the candidate include boxes are produced by one vectorized clamp in
    the scalar path's (prior-major, other-minor) order, then finished per
    prior exactly as :meth:`PowersetDomain.intersect` finishes them (the
    flat path or :func:`_prune`) — so objects, box order, and emptiness
    all match.
    """
    np = vectoreval.require_numpy()
    if not priors:
        return []
    if isinstance(other, IntervalDomain):
        other = PowersetDomain.from_interval(other)
    if not isinstance(other, PowersetDomain):
        raise TypeError(f"cannot intersect PowersetDomain with {type(other)}")
    lo, hi, owner = stack_include(priors)
    includes: list[list[Box]] = [[] for _ in priors]
    if other.include and len(lo):
        olo = np.array([[b[0] for b in box.bounds] for box in other.include])
        ohi = np.array([[b[1] for b in box.bounds] for box in other.include])
        clo = np.maximum(lo[:, None, :], olo[None, :, :])
        chi = np.minimum(hi[:, None, :], ohi[None, :, :])
        # Only non-empty candidates cross into Python objects; ``nonzero``
        # walks them row-major, i.e. in the scalar (prior-major,
        # other-minor) order.
        rows, cols = np.nonzero((clo <= chi).all(axis=2))
        for index, box_lo, box_hi in zip(
            owner[rows].tolist(), clo[rows, cols].tolist(), chi[rows, cols].tolist()
        ):
            # ``clo <= chi`` held on every axis: non-empty by construction.
            includes[index].append(Box.trusted(tuple(zip(box_lo, box_hi))))
    return [
        _intersection(prior, other, include)
        for prior, include in zip(priors, includes)
    ]
